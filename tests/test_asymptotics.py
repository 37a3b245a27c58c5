import mpmath
import pytest

import helpers
import igraphjac.asymptotics
from igraphjac import mahler_constant, mahler_integral, trace_poly, tree_count_resultant
from igraphjac.asymptotics import RootSet, asymptotic_ratio, poly_roots
from igraphjac.errors import ClassificationFailure, ZeroPolynomial
from igraphjac.igraph import GraphParams
from igraphjac.polyring import IntPoly


def sorted_reals(roots):
    return sorted(mpmath.re(z) for z in roots)


class TestPolyRoots:
    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots(IntPoly([0]))

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            poly_roots(IntPoly([1, 1]), precision_bits=16)

    def test_integer_roots(self):
        # (z - 1)(z - 2)(z - 3)
        rset = poly_roots(IntPoly([-6, 11, -6, 1]), precision_bits=128)
        got = sorted_reals(rset.roots)
        for value, expected in zip(got, (1, 2, 3)):
            assert abs(value - expected) < mpmath.mpf(2) ** -100
        assert all(abs(mpmath.im(z)) < mpmath.mpf(2) ** -100 for z in rset.roots)
        assert rset.residual_bound < mpmath.mpf(2) ** -90

    def test_origin_roots_are_exact(self):
        # z^3 (z - 2)
        rset = poly_roots(IntPoly([0, 0, 0, -2, 1]), precision_bits=64)
        zeros = [z for z in rset.roots if z == 0]
        assert len(zeros) == 3
        other = [z for z in rset.roots if z != 0]
        assert len(other) == 1
        assert abs(other[0] - 2) < mpmath.mpf(2) ** -50

    def test_unit_circle_roots(self):
        rset = poly_roots(IntPoly([-1, 0, 0, 0, 1]), precision_bits=96)
        assert len(rset.roots) == 4
        for z in rset.roots:
            assert abs(abs(z) - 1) < mpmath.mpf(2) ** -80
        # closed under conjugation
        for z in rset.roots:
            assert any(abs(w - mpmath.conj(z)) < mpmath.mpf(2) ** -60 for w in rset.roots)

    def test_moderate_degree_distinct_integers(self):
        coeffs = IntPoly([1])
        for r in range(1, 9):
            coeffs = helpers.poly_mul(coeffs, IntPoly([-r, 1]))
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
