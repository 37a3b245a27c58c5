import mpmath
import pytest

import expected_tables
import helpers
import igraphjac.asymptotics
from igraphjac import mahler_constant, mahler_integral, trace_poly, tree_count_resultant
from igraphjac.asymptotics import (
    RootSet,
    _chord_table,
    _halve_angles,
    _node_product,
    asymptotic_ratio,
    poly_roots,
)
from igraphjac.errors import (
    ClassificationFailure,
    ConvergenceFailure,
    InvalidParams,
    QuadratureFailure,
)
from igraphjac.igraph import GraphParams, normalize


def sorted_reals(roots):
    return sorted(mpmath.re(z) for z in roots)


def spy_on_polyroots(monkeypatch):
    """Record the roots_init each mpmath.polyroots call gets."""
    starts = []
    real = mpmath.polyroots

    def spy(coeffs, *args, roots_init=None, **kwargs):
        starts.append(roots_init)
        return real(coeffs, *args, roots_init=roots_init, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", spy)
    return starts


class TestPolyRoots:
    def test_rejects_zero(self):
        with pytest.raises(InvalidParams):
            poly_roots((0,))
        # a zero leading coefficient is refused, not trimmed
        with pytest.raises(InvalidParams):
            poly_roots((1, 2, 0))

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            poly_roots((1, 1), precision_bits=16)

    @pytest.mark.parametrize("bits", [64.5, "64", True, None])
    def test_rejects_non_int_precision(self, bits):
        with pytest.raises(InvalidParams):
            poly_roots((1, 1), precision_bits=bits)

    @pytest.mark.parametrize("poly", [(1.0, 2.0, 1.0), (True, 1), (1, False, 1), ("1", 1)])
    def test_rejects_non_int_coefficients(self, poly):
        with pytest.raises(InvalidParams, match="coefficients must be ints"):
            poly_roots(poly, precision_bits=64)

    def test_integer_roots(self):
        # (z - 1)(z - 2)(z - 3)
        rset = poly_roots((-6, 11, -6, 1), precision_bits=128)
        got = sorted_reals(rset.roots)
        for value, expected in zip(got, (1, 2, 3)):
            assert abs(value - expected) < mpmath.mpf(2) ** -100
        assert all(abs(mpmath.im(z)) < mpmath.mpf(2) ** -100 for z in rset.roots)
        assert rset.residual_bound < mpmath.mpf(2) ** -90

    def test_origin_roots_are_exact(self):
        # z^3 (z - 2)
        rset = poly_roots((0, 0, 0, -2, 1), precision_bits=64)
        zeros = [z for z in rset.roots if z == 0]
        assert len(zeros) == 3
        other = [z for z in rset.roots if z != 0]
        assert len(other) == 1
        assert abs(other[0] - 2) < mpmath.mpf(2) ** -50
        # the residual is of the whole z^3 (z - 2): z - 2 alone gives -2 at 0
        assert rset.residual_bound < mpmath.mpf(2) ** -50

    def test_unit_circle_roots(self):
        rset = poly_roots((-1, 0, 0, 0, 1), precision_bits=96)
        assert len(rset.roots) == 4
        for z in rset.roots:
            assert abs(abs(z) - 1) < mpmath.mpf(2) ** -80
        # closed under conjugation
        for z in rset.roots:
            assert any(abs(w - mpmath.conj(z)) < mpmath.mpf(2) ** -60 for w in rset.roots)

    def test_moderate_degree_distinct_integers(self):
        coeffs = (1,)
        for r in range(1, 9):
            coeffs = helpers.poly_mul(coeffs, (-r, 1))
        rset = poly_roots(coeffs, precision_bits=160)
        got = sorted_reals(rset.roots)
        for value, expected in zip(got, range(1, 9)):
            assert abs(value - expected) < mpmath.mpf(2) ** -80

    def test_real_roots_have_exact_zero_imaginary_part(self):
        # R(2,3) has two real roots, x ~ -2.2043 and 2.3220
        rset = poly_roots(trace_poly(2, 3), precision_bits=256)
        real = [z for z in rset.roots if abs(mpmath.im(z)) < mpmath.mpf("1e-30")]
        assert [mpmath.nstr(mpmath.re(z), 5) for z in real] == ["-2.2043", "2.322"]
        assert all(mpmath.im(z) == 0 for z in real)

    def test_monomial_roots_are_exact_zeros(self):
        rset = poly_roots((0, 0, 0, 1), precision_bits=64)
        assert rset.roots == (0, 0, 0)

    def test_constant_has_no_roots(self):
        rset = poly_roots((5,), precision_bits=64)
        assert rset.roots == ()
        assert rset.residual_bound == 0

    def test_float_overflow_runs_unseeded(self, monkeypatch):
        # (x - 1)(x - 2^1100): its coefficients overflow a float
        starts = spy_on_polyroots(monkeypatch)
        rset = poly_roots((2**1100, -(2**1100 + 1), 1), precision_bits=64)
        assert starts == [None]
        small, big = sorted_reals(rset.roots)
        with mpmath.workprec(128):
            assert abs(small - 1) < mpmath.mpf(2) ** -60
            assert abs(big / mpmath.mpf(2) ** 1100 - 1) < mpmath.mpf(2) ** -60

    def test_non_monic(self):
        # 6x^2 - 5x + 1 = (2x - 1)(3x - 1)
        rset = poly_roots((1, -5, 6), precision_bits=64)
        third, half = sorted_reals(rset.roots)
        with mpmath.workprec(128):
            assert abs(third - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -60
            assert abs(half - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -60

    def test_float_start_reaches_polyroots(self, monkeypatch):
        starts = spy_on_polyroots(monkeypatch)
        poly_roots(trace_poly(5, 6), precision_bits=64)
        (start,) = starts
        assert len(start) == len(trace_poly(5, 6)) - 1 == 10
        assert all(mpmath.isfinite(z) for z in start)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_table_a_roots_match_unseeded(self, monkeypatch, bits):
        cells = sorted(expected_tables.GROWTH_4DP)
        seeded = [poly_roots(trace_poly(k, l), bits).roots for k, l in cells]
        monkeypatch.setattr(igraphjac.asymptotics, "_float_start", lambda coeffs: None)
        tolerance = mpmath.mpf(2) ** -bits
        for (k, l), roots in zip(cells, seeded):
            unseeded = poly_roots(trace_poly(k, l), bits).roots
            assert len(roots) == len(unseeded) == k + l - 1
            for got, want in zip(roots, unseeded):
                assert abs(got - want) <= tolerance, (k, l, bits)

    def test_reciprocal_pairing(self):
        rset = poly_roots(helpers.spectral_quotient(2, 3), precision_bits=192)
        with mpmath.workprec(256):
            radii = sorted(abs(z) for z in rset.roots)
            for r, s in zip(radii, reversed(radii)):
                assert abs(r * s - 1) < mpmath.mpf("1e-25")


class TestMahlerConstant:
    def test_prism_family_closed_form(self):
        a = mahler_constant(1, 1)
        with mpmath.workprec(300):
            expected = 2 + mpmath.sqrt(3)
            assert abs(a.value - expected) < a.error_bound

    def test_petersen_family_closed_form(self):
        a = mahler_constant(1, 2)
        with mpmath.workprec(300):
            root5 = mpmath.sqrt(5)
            expected = (7 + root5 + mpmath.sqrt(38 + 14 * root5)) / 4
            assert abs(a.value - expected) < a.error_bound

    def test_error_bound_positive_and_tiny(self):
        a = mahler_constant(2, 3)
        assert a.error_bound > 0
        assert a.error_bound < mpmath.mpf("1e-50")

    @pytest.mark.parametrize("bits", [64.5, "64", True, 16])
    def test_rejects_bad_precision(self, bits):
        with pytest.raises(InvalidParams):
            mahler_constant(1, 2, precision_bits=bits)

    def test_value_range(self):
        # growth constants of cubic graph families stay below 3 + 2 = 5.2
        for k, l in [(1, 1), (2, 3), (3, 4)]:
            a = mahler_constant(k, l)
            assert 3 < a.value < 5.2

    def test_low_precision_within_its_bound(self):
        for k, l in [(1, 1), (2, 3), (5, 6), (8, 9)]:
            coarse = mahler_constant(k, l, precision_bits=40)
            fine = mahler_constant(k, l, precision_bits=256)
            assert abs(coarse.value - fine.value) <= coarse.error_bound

    def test_roots_r_once_per_call(self, monkeypatch):
        # uncached: perfbench expects one poly_roots call per growth-grid op
        calls = []
        real = igraphjac.asymptotics.poly_roots

        def counting(poly, precision_bits):
            calls.append((poly, precision_bits))
            return real(poly, precision_bits)

        monkeypatch.setattr(igraphjac.asymptotics, "poly_roots", counting)
        mahler_constant(2, 3, precision_bits=64)
        mahler_constant(2, 3, precision_bits=64)
        assert calls == [(trace_poly(2, 3), 64)] * 2

    def test_quotient_root_in_unit_interval_is_rejected(self, monkeypatch):
        # x = 1/2 lies in [-2, 2], so it maps to a pair of roots on the unit circle
        def fake_roots(poly, precision_bits):
            return RootSet((mpmath.mpc(3), mpmath.mpc("0.5")), mpmath.mpf(0))

        monkeypatch.setattr(igraphjac.asymptotics, "poly_roots", fake_roots)
        with pytest.raises(ClassificationFailure):
            mahler_constant(1, 2)

    def test_repeated_root_raises(self, monkeypatch):
        # (x - 3)^2: R' vanishes at the root, so no Newton step bounds its error
        def fake_roots(poly, precision_bits):
            return RootSet((mpmath.mpc(3), mpmath.mpc(3)), mpmath.mpf(0))

        monkeypatch.setattr(igraphjac.asymptotics, "trace_poly", lambda k, l: (9, -6, 1))
        monkeypatch.setattr(igraphjac.asymptotics, "poly_roots", fake_roots)
        with pytest.raises(ConvergenceFailure, match="is repeated"):
            mahler_constant(1, 2)

    def test_quotient_root_correspondence(self):
        # outside roots map to Q's roots through w = (z + 1/z) / 2 and to
        # R's through x = 2w, the correspondence mahler_constant inverts
        rset = poly_roots(helpers.spectral_quotient(2, 3), precision_bits=192)
        with mpmath.workprec(256):
            mapped = sorted(
                mpmath.re((z + 1 / z) / 2)
                for z in rset.roots
                if abs(z) > 1 + mpmath.mpf("1e-20")
            )
            wset = poly_roots(helpers.chebyshev_quotient(2, 3), precision_bits=192)
            expected = sorted_reals(wset.roots)
            xs = sorted_reals(poly_roots(trace_poly(2, 3), precision_bits=192).roots)
            assert len(mapped) == len(expected) == len(xs) == 4
            for got, want, x in zip(mapped, expected, xs):
                assert abs(got - want) < mpmath.mpf("1e-40")
                assert abs(x - 2 * want) < mpmath.mpf("1e-40")


class TestMahlerIntegral:
    def test_matches_root_product(self):
        for k, l in [(1, 1), (1, 2), (2, 3)]:
            a = mahler_constant(k, l)
            b = mahler_integral(k, l)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_error_bound_positive(self):
        b = mahler_integral(1, 3)
        assert 0 < b.error_bound < mpmath.mpf("1e-20")

    def test_error_bound_tracks_precision(self):
        bounds = [mahler_integral(1, 2, precision_bits=bits).error_bound for bits in (32, 128, 256)]
        assert bounds[0] > mpmath.mpf("1e-12")
        assert bounds[0] > bounds[1] * 2**40 > bounds[2] * 2**80

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            mahler_integral(1, 2, precision_bits=16)

    @pytest.mark.parametrize("bits", [64.5, "64", True])
    def test_rejects_non_int_precision(self, bits):
        with pytest.raises(InvalidParams):
            mahler_integral(1, 2, precision_bits=bits)

    @pytest.mark.parametrize(
        "cells,bits",
        [(sorted(expected_tables.GROWTH_4DP), bits) for bits in (32, 64, 128, 256)]
        + [([(1, 2)], 2048)],
    )
    def test_int_kernel_matches_mpf_oracle(self, cells, bits):
        # the bounds agreeing this closely means both rules stopped at the same N
        for k, l in cells:
            got = mahler_integral(k, l, precision_bits=bits)
            value, bound = helpers.mahler_integral_mpf(k, l, bits)
            with mpmath.workprec(bits + 64):
                assert abs(got.value / value - 1) <= mpmath.mpf(2) ** -(bits + 8), (k, l)
                assert abs(got.error_bound / bound - 1) <= mpmath.mpf(2) ** -20, (k, l)

    @pytest.mark.parametrize("n,k,l", [(11, 2, 3), (40, 3, 4), (17, 1, 2)])
    def test_node_product_is_tree_count(self, n, k, l):
        # prod_{0<j<n} P(w^j) / |1 - w^j|^2 = tau(I(n, k, l)) / n, and the
        # denominators multiply to n^2, the square of (z^n - 1)/(z - 1) at z = 1
        assert normalize(n, k, l) == GraphParams(n, k, l)
        with mpmath.workprec(340):
            denominators = mpmath.fprod(4 * mpmath.sinpi(mpmath.mpf(j) / n) ** 2 for j in range(1, n))
            assert abs(denominators - n * n) < mpmath.mpf(2) ** -300 * n * n
            middle = (3 - 2 * (-1) ** k) * (3 - 2 * (-1) ** l) - 1 if n % 2 == 0 else 1
            man, exp = _node_product(k, l, n, _chord_table(n, 340), 340)
            got = mpmath.mpf((man, exp)) ** 2 * middle / (n * n)
            want = mpmath.mpf(tree_count_resultant(GraphParams(n, k, l))) / n
            assert abs(got / want - 1) < mpmath.mpf("1e-93")

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("k,l", [(2, 3), (1, 3)])
    def test_halved_table_matches_sinpi(self, k, l, bits):
        # k + l = 5 puts the odd index N/2 on the first doubling, k + l = 4 does not
        # the scale mahler_integral gives the table
        n = 2 * (k + l)
        w = bits + 32 + 2 * n.bit_length()
        q = _chord_table(n, w)
        for _ in range(12):
            q = _halve_angles(q, w)
            w += 2
            n *= 2
        assert len(q) == n // 2 + 1
        with mpmath.workprec(bits + 64):
            tol = mpmath.mpf(2) ** -(bits + 16)
            for m, entry in enumerate(q):
                got = mpmath.mpf((entry, -w))
                want = 4 * mpmath.sinpi(mpmath.mpf(m) / n) ** 2
                assert abs(got - want) <= tol * want, m

    def test_sinpi_only_on_the_first_level(self, monkeypatch):
        calls = []
        real = mpmath.sinpi

        def spy(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(mpmath, "sinpi", spy)
        mahler_integral(2, 3, precision_bits=128)
        assert len(calls) == 2 + 3 + 1

    @pytest.mark.parametrize("k,l,bits", [(3, 4, 1024), (1, 2, 2048)])
    def test_matches_root_product_at_high_precision(self, k, l, bits):
        a = mahler_constant(k, l, precision_bits=bits)
        b = mahler_integral(k, l, precision_bits=bits)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        assert b.error_bound < a.value * mpmath.mpf(2) ** -(bits // 2 - 8)

    def test_node_cap_raises(self, monkeypatch):
        monkeypatch.setattr(igraphjac.asymptotics, "NODE_CAP", 64)
        with pytest.raises(QuadratureFailure):
            mahler_integral(5, 6, precision_bits=64)


class TestAsymptoticRatio:
    def test_prism_family_near_one(self):
        p = GraphParams(12, 1, 1)
        ratio = asymptotic_ratio(p, tree_count_resultant(p), mahler_constant(1, 1))
        assert abs(ratio.value - 1) < mpmath.mpf("1e-5")
        assert ratio.error_bound > 0

    def test_deviation_shrinks(self):
        a = mahler_constant(2, 3)
        devs = []
        for n in (10, 20, 30):
            p = GraphParams(n, 2, 3)
            ratio = asymptotic_ratio(p, tree_count_resultant(p), a)
            devs.append(abs(ratio.value - 1))
        assert devs[0] > devs[1] > devs[2]
