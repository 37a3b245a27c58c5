import random
from math import gcd

import pytest

import helpers
from igraphjac.bigmat import IntMatrix, SmithForm, determinant, smith_normal_form
from igraphjac.errors import DimensionMismatch
from helpers import mat_mul, mat_pow


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


class TestIntMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_rejects_non_int_entries(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.0, 2], [3, 4]])

    def test_identity_and_zeros(self):
        assert helpers.identity(2).to_lists() == [[1, 0], [0, 1]]
        assert helpers.zeros(2, 3).to_lists() == [[0, 0, 0], [0, 0, 0]]

    def test_indexing(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m[0, 1] == 2
        assert m[1, 0] == 3

    def test_equality_and_hash(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[1, 2], [3, 4]])
        assert a == b
        assert hash(a) == hash(b)


class TestArithmetic:
    def test_mul_known(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert mat_mul(a, b).to_lists() == [[2, 1], [4, 3]]

    def test_mul_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(IntMatrix([[1, 2]]), IntMatrix([[1, 2]]))

    def test_identity_is_neutral(self):
        rng = random.Random(7)
        m = random_matrix(rng, 4, 4)
        assert mat_mul(m, helpers.identity(4)) == m
        assert mat_mul(helpers.identity(4), m) == m

    def test_associativity(self):
        rng = random.Random(11)
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        c = random_matrix(rng, 2, 5)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(13)
        m = random_matrix(rng, 3, 3, bound=3)
        acc = helpers.identity(3)
        for e in range(6):
            assert mat_pow(m, e) == acc
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
        with pytest.raises(DimensionMismatch):
            determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


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
        sf = smith_normal_form(IntMatrix([[4, 0], [0, 6]]))
        assert sf.invariant_factors == (2, 12)
        assert smith_normal_form(IntMatrix([[4, 0], [0, 6]]), modulus=8).invariant_factors == (2, 4)

    def test_identity(self):
        assert smith_normal_form(helpers.identity(3)).invariant_factors == (1, 1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form(helpers.zeros(2, 3)).invariant_factors == (0, 0)
        # a zero factor comes back as the modulus
        assert smith_normal_form(helpers.zeros(2, 3), modulus=5).invariant_factors == (5, 5)

    def test_rejects_negative_modulus(self):
        with pytest.raises(ValueError):
            smith_normal_form(helpers.identity(2), modulus=-3)

    def test_rectangular_shapes(self):
        sf = smith_normal_form(IntMatrix([[2, 4, 4], [-6, 6, 12]]))
        assert len(sf.invariant_factors) == 2
        assert sf.invariant_factors == (2, 6)

    def test_single_row(self):
        assert smith_normal_form(IntMatrix([[6, 10, 15]])).invariant_factors == (1,)

    def test_divisibility_chain_and_sign(self):
        rng = random.Random(29)
        mod_rng = random.Random(30)
        for trial in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            sf = smith_normal_form(m)
            # modulo D the factors are those of [m | D*I]: gcd(d, D) each
            for modulus in (mod_rng.randint(1, 60), mod_rng.randint(1, 10**6)):
                expected = tuple(gcd(d, modulus) for d in sf.invariant_factors)
                assert smith_normal_form(m, modulus=modulus).invariant_factors == expected
            diag = sf.invariant_factors
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
            sf = smith_normal_form(m)
            assert sum(1 for d in sf.invariant_factors if d) == helpers.rank_fractions(m.to_lists())

    def test_product_of_factors_is_absolute_determinant(self):
        rng = random.Random(37)
        for trial in range(25):
            size = rng.randint(1, 5)
            m = random_matrix(rng, size, size)
            det = determinant(m)
            prod = 1
            for d in smith_normal_form(m).invariant_factors:
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


class TestSmithFormValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SmithForm((-1, 2))

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            SmithForm((4, 6))

    def test_rejects_zero_before_nonzero(self):
        with pytest.raises(ValueError):
            SmithForm((0, 2))
