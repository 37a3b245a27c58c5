import random
from fractions import Fraction

import mpmath
import pytest

import helpers
from helpers import (
    all_ones_poly,
    chebyshev_quotient,
    chebyshev_t_poly,
    companion_matrix,
    deflate,
    evaluate,
    lucas_poly,
    poly_mul,
    resultant,
    trim,
)
from igraphjac import lucas_matrix, presentation_matrix, spectral_poly, trace_poly
from igraphjac.bigmat import IntMatrix, determinant
from igraphjac.errors import InvalidParams

SAMPLE_PAIRS = [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5), (4, 5)]


class TestIntPoly:
    """The tests' helpers on ascending coefficient tuples, the form the
    package's polynomials take."""

    def test_trailing_zeros_trimmed(self):
        assert trim([1, 2, 0, 0]) == (1, 2)
        assert trim([0, 0]) == (0,)

    def test_arithmetic(self):
        # the tests' list product; the package itself multiplies no polynomials
        f = (1, 1)
        g = (-1, 1)
        assert poly_mul(f, g) == (-1, 0, 1)
        assert poly_mul(f, (0,)) == (0,)
        assert poly_mul((3,), f) == (3, 3)

    def test_evaluation(self):
        f = (2, 0, 1)
        assert evaluate(f, 3) == 11
        assert evaluate(f, Fraction(1, 2)) == Fraction(9, 4)

    def test_shifted(self):
        assert helpers.shifted((1, 2), 2) == (0, 0, 1, 2)

    def test_deflate_exact_root(self):
        # (x - 1)(x + 2) = x^2 + x - 2
        q, rem = deflate((-2, 1, 1), 1)
        assert rem == 0
        assert q == (2, 1)

    def test_deflate_non_root(self):
        q, rem = deflate((1, 1), 5)
        assert rem == 6


class TestIntLaurentPoly:
    """Helpers for a Laurent polynomial z^-m f, applied to its monic form f."""

    def test_is_bimonic(self):
        assert helpers.is_bimonic((1, 0, 3, 0, 1))
        assert not helpers.is_bimonic((2, 3, 1))
        assert not helpers.is_bimonic((1,))

    def test_derivative(self):
        # z (z^-1 + 7 + z) = 1 + 7z + z^2
        d = helpers.derivative((1, 7, 1))
        assert d == (7, 2)
        assert evaluate(d, Fraction(2)) == 11
        assert helpers.derivative((5,)) == (0,)


class TestSpectralPoly:
    def test_known_1_1(self):
        p = spectral_poly(1, 1)
        assert isinstance(p, tuple)
        assert p == (1, -6, 10, -6, 1)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_structure(self, k, l):
        p = spectral_poly(k, l)
        assert helpers.is_bimonic(p)
        assert len(p) - 1 == 2 * (k + l)
        # palindromic: the graph spectrum is real
        assert p == tuple(reversed(p))

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_double_root_at_one(self, k, l):
        p = spectral_poly(k, l)
        assert evaluate(p, Fraction(1)) == 0
        assert evaluate(helpers.derivative(p), Fraction(1)) == 0
        assert evaluate(helpers.derivative(helpers.derivative(p)), Fraction(1)) == -2 * (
            k * k + l * l
        )

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_value_at_minus_one(self, k, l):
        # P(-1) for the Laurent P = z^-(k+l) spectral_poly(k, l)
        expected = 24 if (k % 2 and l % 2) else 4
        assert (-1) ** (k + l) * evaluate(spectral_poly(k, l), -1) == expected

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_matches_direct_product_form(self, k, l):
        p = spectral_poly(k, l)
        for z in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3)):
            u = 3 - z**k - z**-k
            v = 3 - z**l - z**-l
            assert evaluate(p, z) == z ** (k + l) * (u * v - 1)


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
            companion_matrix((2, 3, 1))

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3)])
    def test_characteristic_polynomial(self, k, l):
        # det(zI - C) must reproduce the monic polynomial
        poly = spectral_poly(k, l)
        c = companion_matrix(poly).to_lists()
        s = len(c)
        for z in (-2, -1, 2, 3, 5):
            zi_minus_c = IntMatrix([[z * (i == j) - c[i][j] for j in range(s)] for i in range(s)])
            assert determinant(zi_minus_c) == evaluate(poly, z)


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
            f = tuple([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
            n = rng.randint(1, 9)
            z_n_minus_one = (-1,) + (0,) * (n - 1) + (1,)
            det = helpers.det_fractions(presentation_matrix(f, n).to_lists())
            assert det == resultant(f, z_n_minus_one)

    def test_rejects_non_monic_and_negative_n(self):
        with pytest.raises(InvalidParams):
            presentation_matrix((1, 2), 3)
        with pytest.raises(InvalidParams):
            presentation_matrix((5,), 3)
        for n in (-1, True):
            with pytest.raises(InvalidParams):
                presentation_matrix((1, 1), n)
        # the coefficients are taken as given: nothing casts them or trims a zero
        for f in ((1.0, 1), (True, 1), (1, 1, 0)):
            with pytest.raises(InvalidParams):
                presentation_matrix(f, 3)


class TestTracePoly:
    def test_known_1_1(self):
        # (3 - x)^2 - 1 = (x - 2)(x - 4)
        assert trace_poly(1, 1) == (-4, 1)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS + [(20, 21)])
    def test_structure(self, k, l):
        r = trace_poly(k, l)
        assert r[-1] == 1
        assert len(r) - 1 == k + l - 1
        assert evaluate(r, 2) == -(k * k + l * l)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_lucas_product(self, k, l):
        # V_k V_l = V_(k+l) + V_|k-l| lets trace_poly skip this product
        factors = []
        for j in (k, l):
            coeffs = [-c for c in lucas_poly(j)]
            coeffs[0] += 3
            factors.append(tuple(coeffs))
        g = list(poly_mul(*factors))
        g[0] -= 1
        assert deflate(g, 2) == (trace_poly(k, l), 0)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS + [(5, 8), (20, 21)])
    def test_chebyshev_quotient_rescaled(self, k, l):
        q, r = chebyshev_quotient(k, l), trace_poly(k, l)
        for x in (Fraction(3), Fraction(-1), Fraction(5, 3), Fraction(-7, 2)):
            assert evaluate(q, x / 2) == 2 * evaluate(r, x)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_spectral_poly_in_trace(self, k, l):
        r = trace_poly(k, l)
        for z in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3)):
            x = z + 1 / z
            assert evaluate(spectral_poly(k, l), z) == z ** (k + l) * (x - 2) * evaluate(r, x)


class TestLucasMatrix:
    def test_determinant_is_resultant_with_v_n_minus_two(self):
        rng = random.Random(61)
        for _ in range(20):
            f = tuple([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
            n = rng.randint(1, 12)
            v_n_minus_two = tuple(c - 2 * (i == 0) for i, c in enumerate(lucas_poly(n)))
            det = helpers.det_fractions(lucas_matrix(f, n).to_lists())
            assert det == resultant(f, v_n_minus_two)

    def test_rejects_non_monic_and_negative_n(self):
        with pytest.raises(InvalidParams):
            lucas_matrix((1, 2), 3)
        with pytest.raises(InvalidParams):
            lucas_matrix((5,), 3)
        for n in (-1, True):
            with pytest.raises(InvalidParams):
                lucas_matrix((1, 1), n)
        # the coefficients are taken as given: nothing casts them or trims a zero
        for f in ((1.0, 1), (True, 1), (1, 1, 0)):
            with pytest.raises(InvalidParams):
                lucas_matrix(f, 3)

    def test_degree_one_ring_is_z(self):
        # (k, l) = (1, 1): Z[x]/(x - 4) = Z, and the ladder must reduce x to 4
        for n in (0, 1, 2, 3, 10, 64):
            assert lucas_matrix(trace_poly(1, 1), n).to_lists() == [[evaluate(lucas_poly(n), 4) - 2]]


class TestChebyshev:
    def test_polynomials(self):
        assert chebyshev_t_poly(0) == (1,)
        assert chebyshev_t_poly(1) == (0, 1)
        assert chebyshev_t_poly(2) == (-1, 0, 2)
        assert chebyshev_t_poly(3) == (0, -3, 0, 4)
        assert chebyshev_t_poly(4) == (1, 0, -8, 0, 8)

    @pytest.mark.parametrize("n", range(9))
    def test_exact_scalar_matches_poly(self, n):
        poly = chebyshev_t_poly(n)
        for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
            assert helpers.chebyshev_t(n, x) == evaluate(poly, x)

    def test_endpoint_values(self):
        for n in range(8):
            assert evaluate(chebyshev_t_poly(n), Fraction(1)) == 1
            assert evaluate(chebyshev_t_poly(n), Fraction(-1)) == (-1) ** n

    def test_trig_identity(self):
        with mpmath.workprec(80):
            for n in (2, 5, 11):
                for phi in (mpmath.mpf("0.3"), mpmath.mpf("1.2")):
                    lhs = evaluate(chebyshev_t_poly(n), mpmath.cos(phi))
                    assert abs(lhs - mpmath.cos(n * phi)) < mpmath.mpf(2) ** -60

    def test_growth_branch(self):
        # beyond [-1, 1]: T_5(2) = ((2 + sqrt 3)^5 + (2 - sqrt 3)^5) / 2
        with mpmath.workprec(80):
            assert abs(evaluate(chebyshev_t_poly(5), mpmath.mpf(2)) - 362) < mpmath.mpf(2) ** -60

    def test_pell_relation(self):
        # T_n^2 - (x^2 - 1) U_{n-1}^2 = 1
        for n in (1, 2, 5, 8):
            for x in (Fraction(2), Fraction(-3, 2), Fraction(1, 3)):
                t = evaluate(chebyshev_t_poly(n), x)
                u = helpers.chebyshev_u(n - 1, x)
                assert t * t - (x * x - 1) * u * u == 1


class TestChebyshevQuotient:
    def test_known_1_1(self):
        assert chebyshev_quotient(1, 1) == (-8, 4)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_structure(self, k, l):
        q = chebyshev_quotient(k, l)
        assert len(q) - 1 == k + l - 1
        assert q[-1] == 2 ** (k + l)
        assert evaluate(q, Fraction(1)) == -2 * (k * k + l * l)

    @pytest.mark.parametrize("k,l", SAMPLE_PAIRS)
    def test_product_with_linear_factor(self, k, l):
        q = chebyshev_quotient(k, l)
        for w in (Fraction(2), Fraction(-1), Fraction(3, 2)):
            tk = evaluate(chebyshev_t_poly(k), w)
            tl = evaluate(chebyshev_t_poly(l), w)
            assert (w - 1) * evaluate(q, w) == (3 - 2 * tk) * (3 - 2 * tl) - 1


class TestAllOnesPoly:
    def test_small(self):
        assert all_ones_poly(2) == (1, 1)
        assert all_ones_poly(5) == (1, 1, 1, 1, 1)

    def test_cyclotomic_identity(self):
        for n in (2, 3, 7):
            f = poly_mul(all_ones_poly(n), (-1, 1))
            expected = (-1,) + (0,) * (n - 1) + (1,)
            assert f == expected

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            all_ones_poly(1)


class TestResultant:
    def test_known(self):
        assert resultant((1, 0, 1), (-1, 0, 1)) == 4

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidParams):
            resultant((0,), (1, 1))

    def test_common_root_gives_zero(self):
        f = poly_mul((-1, 1), (-2, 1))
        g = poly_mul((-1, 1), (5, 1))
        assert resultant(f, g) == 0

    def test_product_over_roots(self):
        # f = (x - 2)(x + 3), res(f, g) = g(2) g(-3) for monic f
        f = poly_mul((-2, 1), (3, 1))
        g = (1, 4, 1)
        assert resultant(f, g) == evaluate(g, 2) * evaluate(g, -3)

    def test_swap_sign_rule(self):
        rng = random.Random(43)
        for _ in range(20):
            df = rng.randint(1, 4)
            dg = rng.randint(1, 4)
            f = tuple([rng.randint(-5, 5) for _ in range(df)] + [rng.randint(1, 4)])
            g = tuple([rng.randint(-5, 5) for _ in range(dg)] + [rng.randint(1, 4)])
            assert resultant(f, g) == (-1) ** (df * dg) * resultant(g, f)

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(47)
        for _ in range(10):
            mk = lambda d: tuple([rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 3)])
            f1, f2, g = mk(2), mk(3), mk(2)
            assert resultant(poly_mul(f1, f2), g) == resultant(f1, g) * resultant(f2, g)

    def test_against_sylvester_matrix(self):
        rng = random.Random(53)
        for _ in range(30):
            df = rng.randint(0, 5)
            dg = rng.randint(0, 5)
            f = [rng.randint(-6, 6) for _ in range(df)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
            g = [rng.randint(-6, 6) for _ in range(dg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
            assert resultant(tuple(f), tuple(g)) == helpers.sylvester_resultant(f, g)

    def test_constant_cases(self):
        assert resultant((5,), (1, 2, 1)) == 25
        assert resultant((1, 2, 1), (5,)) == 25
        assert resultant((7,), (3,)) == 1
