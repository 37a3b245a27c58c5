import random
from fractions import Fraction

import mpmath
import pytest

import helpers
from helpers import all_ones_poly, companion_matrix, resultant
from igraphjac import (
    IntMatrix,
    IntPoly,
    InvalidParams,
    ZeroPolynomial,
    chebyshev_quotient,
    chebyshev_t_poly,
    determinant,
    presentation_matrix,
    spectral_poly,
)

SAMPLE_PAIRS = [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5), (4, 5)]


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero

    def test_degree_of_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            IntPoly([0]).degree

    def test_arithmetic(self):
        f = IntPoly([1, 1])
        g = IntPoly([-1, 1])
        assert (f * g).coeffs == (-1, 0, 1)
        assert (f + g).coeffs == (0, 2)
        assert (f - f).is_zero
        assert (3 * f).coeffs == (3, 3)

    def test_evaluation(self):
        f = IntPoly([2, 0, 1])
        assert f(3) == 11
        assert f(Fraction(1, 2)) == Fraction(9, 4)

    def test_shifted(self):
        assert helpers.shifted(IntPoly([1, 2]), 2).coeffs == (0, 0, 1, 2)

    def test_deflate_exact_root(self):
        # (x - 1)(x + 2) = x^2 + x - 2
        q, rem = IntPoly([-2, 1, 1]).deflate(1)
        assert rem == 0
        assert q.coeffs == (2, 1)

    def test_deflate_non_root(self):
        q, rem = IntPoly([1, 1]).deflate(5)
        assert rem == 6


class TestIntLaurentPoly:
    """Helpers for a Laurent polynomial z^-m f, applied to its monic form f."""

    def test_is_bimonic(self):
        assert helpers.is_bimonic(IntPoly([1, 0, 3, 0, 1]))
        assert not helpers.is_bimonic(IntPoly([2, 3, 1]))
        assert not helpers.is_bimonic(IntPoly([1]))

    def test_derivative(self):
        # z (z^-1 + 7 + z) = 1 + 7z + z^2
        d = helpers.derivative(IntPoly([1, 7, 1]))
        assert d.coeffs == (7, 2)
        assert d(Fraction(2)) == 11
        assert helpers.derivative(IntPoly([5])).is_zero


class TestSpectralPoly:
    def test_known_1_1(self):
        p = spectral_poly(1, 1)
        assert isinstance(p, IntPoly)
        assert p.coeffs == (1, -6, 10, -6, 1)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_structure(self, k, l):
        p = spectral_poly(k, l)
        assert helpers.is_bimonic(p)
        assert p.degree == 2 * (k + l)
        # palindromic: the graph spectrum is real
        assert p.coeffs == tuple(reversed(p.coeffs))

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_double_root_at_one(self, k, l):
        p = spectral_poly(k, l)
        assert p(Fraction(1)) == 0
        assert helpers.derivative(p)(Fraction(1)) == 0
        assert helpers.derivative(helpers.derivative(p))(Fraction(1)) == -2 * (k * k + l * l)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_value_at_minus_one(self, k, l):
        # P(-1) for the Laurent P = z^-(k+l) spectral_poly(k, l)
        expected = 24 if (k % 2 and l % 2) else 4
        assert (-1) ** (k + l) * spectral_poly(k, l)(-1) == expected

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_matches_direct_product_form(self, k, l):
        p = spectral_poly(k, l)
        for z in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3)):
            u = 3 - z**k - z**-k
            v = 3 - z**l - z**-l
            assert p(z) == z ** (k + l) * (u * v - 1)


class TestCompanionMatrix:
    """The oracle the ring kernel is checked against."""

    def test_size_and_last_row(self):
        c = companion_matrix(spectral_poly(1, 1))
        assert (c.rows, c.cols) == (4, 4)
        assert tuple(c.to_lists()[3]) == (-1, 6, -10, 6)
        for i in range(3):
            assert c.to_lists()[i][i + 1] == 1

    def test_rejects_non_bimonic(self):
        with pytest.raises(ValueError):
            companion_matrix(IntPoly([2, 3, 1]))

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3)])
    def test_characteristic_polynomial(self, k, l):
        # det(zI - C) must reproduce the monic polynomial
        poly = spectral_poly(k, l)
        c = companion_matrix(poly).to_lists()
        s = len(c)
        for z in (-2, -1, 2, 3, 5):
            zi_minus_c = IntMatrix([[z * (i == j) - c[i][j] for j in range(s)] for i in range(s)])
            assert determinant(zi_minus_c) == poly(z)


class TestPresentationMatrix:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3), (3, 4)])
    def test_is_transposed_companion_power(self, k, l):
        # multiplication by z on Z[z]/(f) is the transposed companion matrix
        f = spectral_poly(k, l)
        c = companion_matrix(f)
        for n in (0, 1, 2, 7, 16, 33):
            power = helpers.mat_pow(c, n).to_lists()
            expected = [[power[j][i] - (i == j) for j in range(c.rows)] for i in range(c.rows)]
            assert presentation_matrix(f, n).to_lists() == expected

    def test_determinant_is_resultant_with_z_n_minus_one(self):
        rng = random.Random(59)
        for _ in range(20):
            f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
            n = rng.randint(1, 9)
            z_n_minus_one = IntPoly([-1] + [0] * (n - 1) + [1])
            det = helpers.det_fractions(presentation_matrix(f, n).to_lists())
            assert det == resultant(f, z_n_minus_one)

    def test_rejects_non_monic_and_negative_n(self):
        with pytest.raises(InvalidParams):
            presentation_matrix(IntPoly([1, 2]), 3)
        with pytest.raises(InvalidParams):
            presentation_matrix(IntPoly([5]), 3)
        with pytest.raises(InvalidParams):
            presentation_matrix(IntPoly([1, 1]), -1)


class TestChebyshev:
    def test_polynomials(self):
        assert chebyshev_t_poly(0).coeffs == (1,)
        assert chebyshev_t_poly(1).coeffs == (0, 1)
        assert chebyshev_t_poly(2).coeffs == (-1, 0, 2)
        assert chebyshev_t_poly(3).coeffs == (0, -3, 0, 4)
        assert chebyshev_t_poly(4).coeffs == (1, 0, -8, 0, 8)

    @pytest.mark.parametrize("n", range(9))
    def test_exact_scalar_matches_poly(self, n):
        poly = chebyshev_t_poly(n)
        for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
            assert helpers.chebyshev_t(n, x) == poly(x)

    def test_endpoint_values(self):
        for n in range(8):
            assert chebyshev_t_poly(n)(Fraction(1)) == 1
            assert chebyshev_t_poly(n)(Fraction(-1)) == (-1) ** n

    def test_trig_identity(self):
        with mpmath.workprec(80):
            for n in (2, 5, 11):
                for phi in (mpmath.mpf("0.3"), mpmath.mpf("1.2")):
                    lhs = chebyshev_t_poly(n)(mpmath.cos(phi))
                    assert abs(lhs - mpmath.cos(n * phi)) < mpmath.mpf(2) ** -60

    def test_growth_branch(self):
        # beyond [-1, 1]: T_5(2) = ((2 + sqrt 3)^5 + (2 - sqrt 3)^5) / 2
        with mpmath.workprec(80):
            assert abs(chebyshev_t_poly(5)(mpmath.mpf(2)) - 362) < mpmath.mpf(2) ** -60

    def test_pell_relation(self):
        # T_n^2 - (x^2 - 1) U_{n-1}^2 = 1
        for n in (1, 2, 5, 8):
            for x in (Fraction(2), Fraction(-3, 2), Fraction(1, 3)):
                t = chebyshev_t_poly(n)(x)
                u = helpers.chebyshev_u(n - 1, x)
                assert t * t - (x * x - 1) * u * u == 1


class TestChebyshevQuotient:
    def test_known_1_1(self):
        assert chebyshev_quotient(1, 1).coeffs == (-8, 4)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_structure(self, k, l):
        q = chebyshev_quotient(k, l)
        assert q.degree == k + l - 1
        assert q.lead == 2 ** (k + l)
        assert q(Fraction(1)) == -2 * (k * k + l * l)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_product_with_linear_factor(self, k, l):
        q = chebyshev_quotient(k, l)
        for w in (Fraction(2), Fraction(-1), Fraction(3, 2)):
            tk = chebyshev_t_poly(k)(w)
            tl = chebyshev_t_poly(l)(w)
            assert (w - 1) * q(w) == (3 - 2 * tk) * (3 - 2 * tl) - 1


class TestAllOnesPoly:
    def test_small(self):
        assert all_ones_poly(2).coeffs == (1, 1)
        assert all_ones_poly(5).coeffs == (1, 1, 1, 1, 1)

    def test_cyclotomic_identity(self):
        for n in (2, 3, 7):
            f = all_ones_poly(n) * IntPoly([-1, 1])
            expected = IntPoly([-1] + [0] * (n - 1) + [1])
            assert f == expected

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            all_ones_poly(1)


class TestResultant:
    def test_known(self):
        assert resultant(IntPoly([1, 0, 1]), IntPoly([-1, 0, 1])) == 4

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            resultant(IntPoly([0]), IntPoly([1, 1]))

    def test_common_root_gives_zero(self):
        f = IntPoly([-1, 1]) * IntPoly([-2, 1])
        g = IntPoly([-1, 1]) * IntPoly([5, 1])
        assert resultant(f, g) == 0

    def test_product_over_roots(self):
        # f = (x - 2)(x + 3), res(f, g) = g(2) g(-3) for monic f
        f = IntPoly([-2, 1]) * IntPoly([3, 1])
        g = IntPoly([1, 4, 1])
        assert resultant(f, g) == g(2) * g(-3)

    def test_swap_sign_rule(self):
        rng = random.Random(43)
        for _ in range(20):
            df = rng.randint(1, 4)
            dg = rng.randint(1, 4)
            f = IntPoly([rng.randint(-5, 5) for _ in range(df)] + [rng.randint(1, 4)])
            g = IntPoly([rng.randint(-5, 5) for _ in range(dg)] + [rng.randint(1, 4)])
            assert resultant(f, g) == (-1) ** (df * dg) * resultant(g, f)

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(47)
        for _ in range(10):
            mk = lambda d: IntPoly([rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 3)])
            f1, f2, g = mk(2), mk(3), mk(2)
            assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)

    def test_against_sylvester_matrix(self):
        rng = random.Random(53)
        for _ in range(30):
            df = rng.randint(0, 5)
            dg = rng.randint(0, 5)
            f = [rng.randint(-6, 6) for _ in range(df)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
            g = [rng.randint(-6, 6) for _ in range(dg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
            assert resultant(IntPoly(f), IntPoly(g)) == helpers.sylvester_resultant(f, g)

    def test_constant_cases(self):
        assert resultant(IntPoly([5]), IntPoly([1, 2, 1])) == 25
        assert resultant(IntPoly([1, 2, 1]), IntPoly([5])) == 25
        assert resultant(IntPoly([7]), IntPoly([3])) == 1
