import random
from math import gcd

import pytest

import helpers
from igraphjac import bigmat
from igraphjac.bigmat import IntMatrix, determinant, smith_normal_form
from igraphjac.errors import InvalidParams
from igraphjac.igraph import GraphParams, circulant_matrix
from helpers import mat_mul, mat_pow

try:
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
except ImportError:
    sympy_snf = None


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


class TestIntMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidParams):
            IntMatrix([[1, 2], [3]])

    def test_rejects_empty(self):
        for data in ([], [[]]):
            with pytest.raises(InvalidParams):
                IntMatrix(data)

    def test_rejects_non_int_entries(self):
        with pytest.raises(InvalidParams):
            IntMatrix([[1.0, 2], [3, 4]])

    def test_rejects_bool_entries(self):
        with pytest.raises(InvalidParams, match="bool"):
            IntMatrix([[True, False], [False, True]])
        with pytest.raises(InvalidParams, match="bool"):
            IntMatrix([[1, 0], [0, True]])

    def test_identity_and_zeros(self):
        assert helpers.identity(2).to_lists() == [[1, 0], [0, 1]]
        assert helpers.zeros(2, 3).to_lists() == [[0, 0, 0], [0, 0, 0]]


class TestArithmetic:
    def test_mul_known(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert mat_mul(a, b).to_lists() == [[2, 1], [4, 3]]

    def test_mul_dimension_check(self):
        with pytest.raises(InvalidParams):
            mat_mul(IntMatrix([[1, 2]]), IntMatrix([[1, 2]]))

    def test_identity_is_neutral(self):
        rng = random.Random(7)
        m = random_matrix(rng, 4, 4)
        assert mat_mul(m, helpers.identity(4)).to_lists() == m.to_lists()
        assert mat_mul(helpers.identity(4), m).to_lists() == m.to_lists()

    def test_associativity(self):
        rng = random.Random(11)
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        c = random_matrix(rng, 2, 5)
        assert mat_mul(mat_mul(a, b), c).to_lists() == mat_mul(a, mat_mul(b, c)).to_lists()

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(13)
        m = random_matrix(rng, 3, 3, bound=3)
        acc = helpers.identity(3)
        for e in range(6):
            assert mat_pow(m, e).to_lists() == acc.to_lists()
            acc = mat_mul(acc, m)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            mat_pow(helpers.identity(2), -1)


class TestDeterminant:
    def test_known_small(self):
        assert determinant(IntMatrix([[3]])) == 3
        assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(helpers.identity(5)) == 1

    def test_singular(self):
        assert determinant(IntMatrix([[1, 2], [2, 4]])) == 0

    def test_against_fraction_elimination(self):
        rng = random.Random(101)
        for trial in range(40):
            size = rng.randint(1, 6)
            m = random_matrix(rng, size, size)
            expected = helpers.det_fractions(m.to_lists())
            assert expected.denominator == 1
            assert determinant(m) == int(expected)

    def test_multiplicative(self):
        rng = random.Random(17)
        a = random_matrix(rng, 4, 4, bound=5)
        b = random_matrix(rng, 4, 4, bound=5)
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)

    def test_requires_square(self):
        with pytest.raises(InvalidParams):
            determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_lagging_row_swapped_in_for_a_zero_pivot(self):
        # step 0 zeroes row 1's pivot entry and skips row 2 (lead 0), so the
        # row swapped in at step 1 is a step behind and must bring its lag
        rows = [[3, 0, -1, 0], [-1, 0, 0, 1], [0, 1, 1, 0], [1, 1, -1, 0]]
        assert determinant(IntMatrix(rows)) == helpers.det_fractions(rows) == -5

    def test_sparse_and_banded_against_fraction_elimination(self):
        rng = random.Random(103)
        for trial in range(300):
            size = rng.randint(1, 25)
            if trial % 2:
                # banded with wrap-around corners, like a minor of igraph's S;
                # without offset 0 every diagonal entry starts as a zero pivot
                offsets = rng.sample(range(size), min(size, rng.randint(1, 4)))
                rows = [[rng.randint(-5, 5) if (j - i) % size in offsets else 0
                         for j in range(size)] for i in range(size)]
            else:
                density = rng.choice((0.1, 0.25, 0.5))
                rows = [[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(size)] for _ in range(size)]
            if size > 1 and trial % 5 == 0:
                # singular: one row a multiple of another
                i, j = rng.sample(range(size), 2)
                rows[i] = [rng.randint(-3, 3) * x for x in rows[j]]
            expected = helpers.det_fractions(rows)
            assert expected.denominator == 1
            assert determinant(IntMatrix(rows)) == int(expected)

    @pytest.mark.parametrize("k,l", [(1, 2), (2, 3), (3, 4), (2, 5), (4, 5), (5, 7), (7, 9)])
    def test_circulant_minors_against_bareiss(self, k, l):
        for n in range(l + 1, 70):
            s = circulant_matrix(GraphParams(n, k, l)).to_lists()
            minor = [row[1:] for row in s[1:]]
            assert determinant(IntMatrix(minor)) == helpers.determinant_bareiss(minor)


def random_unimodular(rng, size, steps=12):
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-3, 3)
        for col in range(size):
            m[i][col] += c * m[j][col]
        if rng.random() < 0.3:
            i, j = rng.sample(range(size), 2)
            m[i], m[j] = m[j], m[i]
    return IntMatrix(m)


class TestSmithNormalForm:
    def test_known_diagonal(self):
        factors = smith_normal_form(IntMatrix([[4, 0], [0, 6]]))
        assert factors == (2, 12)
        assert smith_normal_form(IntMatrix([[4, 0], [0, 6]]), modulus=8) == (2, 4)

    def test_diagonal_ordered_by_chain_pass(self):
        # already diagonal, so only the gcd/lcm pass orders it
        m = IntMatrix([[0, 0, 0], [0, 6, 0], [0, 0, 4]])
        assert smith_normal_form(m) == (2, 12, 0)
        assert smith_normal_form(m, modulus=8) == (2, 4, 8)

    def test_identity(self):
        assert smith_normal_form(helpers.identity(3)) == (1, 1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form(helpers.zeros(2, 3)) == (0, 0)
        # a zero factor comes back as the modulus
        assert smith_normal_form(helpers.zeros(2, 3), modulus=5) == (5, 5)

    def test_rejects_negative_modulus(self):
        for modulus in (-3, -1):
            with pytest.raises(InvalidParams):
                smith_normal_form(helpers.identity(2), modulus=modulus)

    @pytest.mark.parametrize("modulus", [True, 5.0, "5"])
    def test_rejects_non_int_modulus(self, modulus):
        with pytest.raises(InvalidParams):
            smith_normal_form(helpers.identity(2), modulus=modulus)

    def test_rectangular_shapes(self):
        factors = smith_normal_form(IntMatrix([[2, 4, 4], [-6, 6, 12]]))
        assert len(factors) == 2
        assert factors == (2, 6)

    def test_single_row(self):
        assert smith_normal_form(IntMatrix([[6, 10, 15]])) == (1,)

    def test_divisibility_chain_and_sign(self):
        rng = random.Random(29)
        mod_rng = random.Random(30)
        for trial in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, bound=rng.choice((9, 10**6)))
            if rows > 1 and trial % 3 == 0:
                # rank-deficient: one row a multiple of another
                data = m.to_lists()
                i, j = rng.sample(range(rows), 2)
                data[i] = [rng.randint(-3, 3) * x for x in data[j]]
                m = IntMatrix(data)
            factors = smith_normal_form(m)
            if sympy_snf is not None:
                diag = sympy_snf(Matrix(m.to_lists()), domain=ZZ)
                assert factors == tuple(abs(int(diag[i, i])) for i in range(len(factors)))
            # modulo D the factors are those of [m | D*I]: gcd(d, D) each
            for modulus in (mod_rng.randint(1, 60), mod_rng.randint(1, 10**6)):
                expected = tuple(gcd(d, modulus) for d in factors)
                assert smith_normal_form(m, modulus=modulus) == expected
            diag = factors
            assert all(d >= 0 for d in diag)
            nonzero = [d for d in diag if d]
            assert all(
                nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1)
            )
            # zeros trail the nonzero part
            assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))

    def test_rank_matches_rational_rank(self):
        rng = random.Random(31)
        for trial in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols, bound=4)
            factors = smith_normal_form(m)
            assert sum(1 for d in factors if d) == helpers.rank_fractions(m.to_lists())

    def test_product_of_factors_is_absolute_determinant(self):
        rng = random.Random(37)
        for trial in range(25):
            size = rng.randint(1, 5)
            m = random_matrix(rng, size, size)
            det = determinant(m)
            prod = 1
            for d in smith_normal_form(m):
                prod *= d
            assert prod == abs(det)

    def test_invariant_under_unimodular_transforms(self):
        rng = random.Random(41)
        mod_rng = random.Random(42)
        for trial in range(15):
            size = rng.randint(2, 4)
            m = random_matrix(rng, size, size, bound=6)
            u = random_unimodular(rng, size)
            v = random_unimodular(rng, size)
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
            transformed = mat_mul(u, mat_mul(m, v))
            assert smith_normal_form(transformed) == smith_normal_form(m)
            modulus = mod_rng.randint(1, 200)
            assert smith_normal_form(transformed, modulus) == smith_normal_form(m, modulus)


class TestSmithModuloBranches:
    """Modulo D each step divides out common content, pivots on a unit, or
    falls back to one Bezout step when the block has content 1 but no unit."""

    def test_content_one_without_a_unit_takes_the_bezout_step(self, monkeypatch):
        bezout = helpers.count_calls(monkeypatch, bigmat, "_bezout")
        # 2 and 3 share a factor with 6, their gcd does not
        assert smith_normal_form(IntMatrix([[2, 3]]), modulus=6) == (1,)
        assert smith_normal_form(IntMatrix([[2, 0], [0, 3]]), modulus=6) == (1, 6)
        assert bezout

    def test_common_content_scales_every_factor(self):
        rng = random.Random(43)
        for trial in range(80):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            data = random_matrix(rng, rows, cols, bound=rng.choice((9, 10**6))).to_lists()
            modulus = 2 * rng.randint(0, 500) + 1
            doubled = IntMatrix([[2 * x for x in row] for row in data])
            expected = tuple(2 * d for d in smith_normal_form(IntMatrix(data), modulus=modulus))
            assert smith_normal_form(doubled, modulus=2 * modulus) == expected

    def test_block_with_content_d_returns_d_for_every_factor_left(self):
        rng = random.Random(47)
        for modulus in (2, 12, 360, 1001, 2**61 - 1):
            # one unit pivot, then a block that is zero modulo D
            rows = [[1, rng.randint(-9, 9), rng.randint(-9, 9)],
                    [0, modulus * rng.randint(-5, 5), modulus * rng.randint(-5, 5)],
                    [0, modulus * rng.randint(-5, 5), modulus * rng.randint(-5, 5)]]
            u, v = random_unimodular(rng, 3), random_unimodular(rng, 3)
            m = mat_mul(u, mat_mul(IntMatrix(rows), v))
            assert smith_normal_form(m, modulus=modulus) == (1, modulus, modulus)
            scaled = IntMatrix([[modulus * x for x in row] for row in m.to_lists()])
            assert smith_normal_form(scaled, modulus=modulus) == (modulus,) * 3

    def test_smooth_moduli_against_factors_over_z(self):
        rng = random.Random(53)
        for trial in range(120):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, bound=rng.choice((4, 30, 10**5)))
            if rows > 1 and trial % 4 == 0:
                data = m.to_lists()
                i, j = rng.sample(range(rows), 2)
                data[i] = [rng.randint(-3, 3) * x for x in data[j]]
                m = IntMatrix(data)
            modulus = 1
            for prime, most in ((2, 12), (3, 7), (5, 4), (7, 3)):
                modulus *= prime ** rng.randint(0, most)
            over_z = smith_normal_form(m)
            if sympy_snf is not None:
                diag = sympy_snf(Matrix(m.to_lists()), domain=ZZ)
                assert over_z == tuple(abs(int(diag[i, i])) for i in range(len(over_z)))
            assert smith_normal_form(m, modulus=modulus) == tuple(gcd(d, modulus) for d in over_z)
