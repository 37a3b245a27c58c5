import math
from fractions import Fraction
from math import gcd

import mpmath
import pytest

import expected_tables
import helpers
import igraphjac.asymptotics
from igraphjac import mahler_constant, mahler_integral, trace_poly, tree_count_resultant
from igraphjac.asymptotics import (
    GUARD_BITS,
    RootSet,
    _certify,
    _chord_table,
    _halve_angles,
    _newton,
    _node_product,
    asymptotic_ratio,
    disk_gap,
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


def forbid_polyroots(monkeypatch):
    """Make any mpmath.polyroots call fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.polyroots called")

    monkeypatch.setattr(mpmath, "polyroots", refuse)


def fake_roots(monkeypatch, width, roots, radii):
    """Make mahler_constant's poly_roots return these (a, b) roots and radii at 2^-width."""
    rset = RootSet(width, tuple(roots), tuple(radii), mpmath.mpf(0))
    monkeypatch.setattr(igraphjac.asymptotics, "poly_roots", lambda k, l, precision_bits: rset)


def outer_root(x):
    """max(|z|, 1/|z|) for the pair z, 1/z with z + 1/z = x, in mpmath."""
    z = (x + mpmath.sqrt(x * x - 4)) / 2
    return max(abs(z), 1 / abs(z))


def oracle_roots(poly, bits):
    """Roots of the ascending int coefficients poly from mpmath's Durand-Kerner."""
    with mpmath.workprec(bits):
        return mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=bits)


def polish_and_certify(coeffs, start, w, tol):
    """_newton from start, then _certify, on descending coefficients at 2^-w."""
    polished = _newton(coeffs, [mpmath.mpc(z) for z in start], w, tol)
    assert polished is not None
    assert _certify(coeffs, polished, w, tol) is not None
    with mpmath.workprec(2 * w):
        return [mpmath.mpc(mpmath.ldexp(a, -w), mpmath.ldexp(b, -w)) for a, b in polished]


class TestPolyRoots:
    def test_rejects_zero(self):
        # the steps are checked as trace_poly checks them
        for k, l in ((0, 1), (1, 0), (2, 4)):
            with pytest.raises(InvalidParams):
                poly_roots(k, l)

    def test_rejects_tiny_precision(self):
        with pytest.raises(InvalidParams):
            poly_roots(1, 1, precision_bits=16)

    @pytest.mark.parametrize("bits", [64.5, "64", True, None])
    def test_rejects_non_int_precision(self, bits):
        with pytest.raises(InvalidParams):
            poly_roots(1, 1, precision_bits=bits)

    def test_no_root_at_origin(self):
        # V_j(0) is 0 for odd j and 2 (-1)^(j/2) for even j, so G(0) = 8 - 6 (-1)^(k/2)
        # with k the even step, 8 with both odd, and R(0) = G(0) / (0 - 2)
        for l in range(1, 41):
            for k in range(1, l + 1):
                if gcd(k, l) == 1:
                    assert trace_poly(k, l)[0] in (-1, -4, -7), (k, l)

    def test_integer_roots(self):
        # (z - 1)(z - 2)(z - 3)
        w = 200
        roots = polish_and_certify([1, -6, 11, -6], ["0.9", "2.2", "3.1"], w, 2**60)
        got = sorted_reals(roots)
        for value, expected in zip(got, (1, 2, 3)):
            assert abs(value - expected) < mpmath.mpf(2) ** -100
        assert all(mpmath.im(z) == 0 for z in roots)

    def test_unit_circle_roots(self):
        w = 160
        start = [1.1, -0.9, 0.05 + 1.02j, 0.02 - 0.97j]
        roots = polish_and_certify([1, 0, 0, 0, -1], start, w, 2**60)
        assert len(roots) == 4
        for z in roots:
            assert abs(abs(z) - 1) < mpmath.mpf(2) ** -80
        # closed under conjugation, exactly
        with mpmath.workprec(2 * w):
            assert all(mpmath.conj(z) in roots for z in roots)

    def test_moderate_degree_distinct_integers(self):
        coeffs = (1,)
        for r in range(1, 9):
            coeffs = helpers.poly_mul(coeffs, (-r, 1))
        start = [r + 0.1 * (-1) ** r for r in range(1, 9)]
        roots = polish_and_certify(list(coeffs[::-1]), start, 256, 2**80)
        for value, expected in zip(sorted_reals(roots), range(1, 9)):
            assert abs(value - expected) < mpmath.mpf(2) ** -80

    def test_non_monic(self):
        # 6x^2 - 5x + 1 = (2x - 1)(3x - 1): _certify divides by the lead coefficient
        roots = polish_and_certify([6, -5, 1], ["0.3", "0.6"], 128, 2**40)
        third, half = sorted_reals(roots)
        with mpmath.workprec(128):
            assert abs(third - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -60
            assert abs(half - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -60

    @pytest.mark.parametrize("k,l", sorted(expected_tables.GROWTH_4DP))
    def test_real_roots_have_exact_zero_imaginary_part(self, k, l):
        # a sign change of R across each exactly real root proves a real root
        # there; every other root is far off the axis, so none was missed
        trace = trace_poly(k, l)
        roots = helpers.as_mpc(poly_roots(k, l, precision_bits=64))
        real = [mpmath.re(z) for z in roots if mpmath.im(z) == 0]
        assert all(abs(mpmath.im(z)) > mpmath.mpf(2) ** -32 for z in roots if mpmath.im(z))
        delta = Fraction(1, 2**40)
        for x in real:
            x = Fraction(int(mpmath.ldexp(x, 512)), 2**512)
            assert helpers.evaluate(trace, x - delta) * helpers.evaluate(trace, x + delta) < 0
        if (k, l) == (2, 3):
            # R(2,3) has two real roots, x ~ -2.2043 and 2.3220
            assert [mpmath.nstr(x, 5) for x in real] == ["-2.2043", "2.322"]

    @pytest.mark.parametrize("k,l", [(20, 21), (25, 26), (30, 31), (40, 41)])
    def test_wide_cells_certify_without_polyroots(self, monkeypatch, k, l):
        # the Lucas start alone is close enough for Newton on the wide cells,
        # and every radius is proved to the limit
        forbid_polyroots(monkeypatch)
        bits = 128
        rset = poly_roots(k, l, bits)
        assert len(rset.radii) == len(rset.roots) == k + l - 1
        assert all(0 < r <= 1 << (rset.width - bits - GUARD_BITS) for r in rset.radii)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_grid_certifies(self, monkeypatch, bits):
        # every coprime cell k <= 15, l <= k + 7 certifies from the Lucas start,
        # and each stored root below the axis is the exact conjugate of one
        # above it, with the same radius
        forbid_polyroots(monkeypatch)
        cells = [(k, l) for k in range(1, 16) for l in range(k, k + 8) if gcd(k, l) == 1]
        assert len(cells) == 72
        lower = 0
        for k, l in cells:
            rset = poly_roots(k, l, bits)
            assert len(rset.radii) == k + l - 1
            assert max(rset.radii) <= 1 << (rset.width - bits - GUARD_BITS), (k, l)
            radius = dict(zip(rset.roots, rset.radii, strict=True))
            for (a, b), r in radius.items():
                if b < 0:
                    assert radius.get((a, -b)) == r, (k, l)
                    lower += 1
        assert lower > len(cells)

    def test_unsettled_start_raises(self, monkeypatch):
        # one Aberth sweep leaves the start of R(5, 6) unsettled
        monkeypatch.setattr(igraphjac.asymptotics, "START_SWEEPS", 1)
        assert igraphjac.asymptotics._lucas_start(5, 6) is None
        with pytest.raises(ConvergenceFailure, match="no certified roots of degree 10"):
            poly_roots(5, 6, precision_bits=64)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_table_a_roots_are_certified(self, monkeypatch, bits):
        # every table-A cell takes the Newton polish, and every certified
        # radius is within 2^-(bits + guard), guard = GUARD_BITS + the bit
        # length of the largest coefficient
        forbid_polyroots(monkeypatch)
        radii = []

        def spy(coeffs, roots, width, tol):
            got = _certify(coeffs, roots, width, tol)
            radii.append((coeffs, width, got and got[0]))
            return got

        monkeypatch.setattr(igraphjac.asymptotics, "_certify", spy)
        cells = sorted(expected_tables.GROWTH_4DP)
        for k, l in cells:
            poly_roots(k, l, bits)
        assert len(radii) == len(cells)
        for coeffs, width, got in radii:
            guard = GUARD_BITS + max(abs(c) for c in coeffs).bit_length()
            assert got and len(got) == len(coeffs) - 1
            assert max(got) <= 2 ** (width - bits - guard)

    @pytest.mark.parametrize("k,l,once", [(2, 3, 3), (5, 6, 6), (7, 9, 8)])
    def test_one_polish_and_one_row_per_pair(self, monkeypatch, k, l, once):
        # Newton reads each start it polishes with two ldexp calls, and each
        # Weierstrass row of the certificate ends in one isqrt: one of each
        # per real root and per conjugate pair (6, not 10, for R(5, 6))
        newton = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_newton")
        certify = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_certify")
        rset = poly_roots(k, l, 64)
        assert sum(b >= 0 for _, b in rset.roots) == once < k + l - 1
        ldexp = helpers.count_calls(monkeypatch, mpmath, "ldexp")
        isqrt = helpers.count_calls(monkeypatch, math, "isqrt")
        roots = _newton(*newton[0])
        assert len(ldexp) == 2 * once
        radii, _ = _certify(*certify[0])
        assert len(isqrt) == once
        assert sorted(zip(roots, radii)) == list(zip(rset.roots, rset.radii))

    def test_lower_start_without_partner_is_polished(self, monkeypatch):
        # z^4 - 1: a start below the axis that mirrors one above is skipped,
        # one with no partner within 2^-20 is polished, and both give the
        # conjugate of the upper root; a lone start that lands on the real
        # root 1 leaves the pair short
        w, tol, coeffs = 160, 2**60, [1, 0, 0, 0, -1]
        ldexp = helpers.count_calls(monkeypatch, mpmath, "ldexp")

        def polish(*start):
            del ldexp[:]
            roots = _newton(coeffs, [mpmath.mpc(z) for z in start], w, tol)
            return roots, len(ldexp) // 2

        mirrored = polish(1.1, -0.9, 0.05 + 1.02j, 0.05 - 1.02j)
        lone = polish(1.1, -0.9, 0.05 + 1.02j, 0.02 - 0.97j)
        assert mirrored[1] == 3 and lone[1] == 4
        assert mirrored[0] == lone[0] is not None
        assert polish(1.1, -0.9, 0.05 + 1.02j, 0.9 - 0.05j) == (None, 4)

    def test_set_not_closed_under_conjugation_is_certified_root_by_root(self, monkeypatch):
        # R(2, 3)'s larger real root moved 2^-40 up leaves its conjugate pair
        # in the set but the set not closed under conjugation: D at the
        # pair's roots are then no conjugates, so each root takes its own
        # Weierstrass row
        certify = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_certify")
        poly_roots(2, 3, 64)
        coeffs, roots, width, _ = certify[0]
        a, b = max(r for r in roots if not r[1])
        moved = [r for r in roots if r != (a, b)] + [(a, b + (1 << (width - 40)))]
        assert sum(1 for _, b in moved if b < 0) == 1
        isqrt = helpers.count_calls(monkeypatch, math, "isqrt")
        assert _certify(coeffs, moved, width, 1 << width) is not None
        assert len(isqrt) == 4

    def test_double_root_raises(self, monkeypatch):
        # a polish that puts two roots of R(2, 3) on one point leaves a double
        # root to the certificate, which no disk proves
        real = _newton

        def merge(*args):
            roots = real(*args)
            return [roots[0]] + roots[:-1]

        monkeypatch.setattr(igraphjac.asymptotics, "_newton", merge)
        with pytest.raises(ConvergenceFailure, match="no certified roots of degree 4"):
            poly_roots(2, 3, precision_bits=64)

    def test_certificate_refuses_double_root(self):
        # two points either side of the double root of (z - 1)^2 (z + 2):
        # their disks meet whatever the tolerance
        w = 100
        roots = [(-2 << w, 0), ((1 << w) - 1, 0), ((1 << w) + 1, 0)]
        assert _certify([1, 0, -3, 2], roots, w, 2**w) is None
        assert _certify([1, 0, -3, 2], [(-2 << w, 0), (1 << w, 1), (1 << w, -1)], w, 2**w) is None

    def test_starts_meeting_at_one_root_are_refused(self):
        # (z - 1)(z - 2)(z - 3) from two starts near 1: Newton takes both to
        # 1, and the certificate refuses the pair
        w, tol = 100, 2**20
        coeffs = [1, -6, 11, -6]
        start = [mpmath.mpc(x) for x in ("0.9", "1.1", "3.2")]
        polished = _newton(coeffs, start, w, tol)
        for (a, b), expected in zip(polished, (1, 1, 3)):
            assert abs(a - (expected << w)) <= tol and b == 0
        assert _certify(coeffs, polished, w, tol) is None

    @pytest.mark.parametrize("bits", [64, 128])
    def test_table_a_roots_match_unseeded(self, bits):
        # independent witness: mpmath's Durand-Kerner from its own start, at
        # bits + guard, shares neither the Lucas start nor Newton nor the
        # certificate with poly_roots
        tolerance = mpmath.mpf(2) ** -bits
        for k, l in sorted(expected_tables.GROWTH_4DP):
            trace = trace_poly(k, l)
            roots = helpers.as_mpc(poly_roots(k, l, bits))
            guard = GUARD_BITS + max(abs(c) for c in trace).bit_length()
            with mpmath.workprec(bits + guard):
                unseeded = mpmath.polyroots(
                    trace[::-1], maxsteps=128 + 4 * bits, extraprec=guard
                )
                unseeded.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))
            assert len(roots) == len(unseeded) == k + l - 1
            for got, want in zip(roots, unseeded):
                assert abs(got - want) <= tolerance, (k, l, bits)

    def test_reciprocal_pairing(self):
        roots = oracle_roots(helpers.spectral_quotient(2, 3), 192)
        with mpmath.workprec(256):
            radii = sorted(abs(z) for z in roots)
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

        def counting(k, l, precision_bits):
            calls.append((k, l, precision_bits))
            return real(k, l, precision_bits)

        monkeypatch.setattr(igraphjac.asymptotics, "poly_roots", counting)
        mahler_constant(2, 3, precision_bits=64)
        mahler_constant(2, 3, precision_bits=64)
        assert calls == [(2, 3, 64)] * 2

    def test_error_bound_reads_certified_radii(self, monkeypatch):
        # radii of 2^-40 show in the bound value (2 sum rho/gap + floor), far
        # above its 2^-(bits - 8) floor, with gap = dist(x, [-2, 2]) - rho
        # taken here from mpmath; a radius short of its root raises
        bits = 128
        exact = mahler_constant(2, 3, bits)
        rset = poly_roots(2, 3, bits)
        radii = [1 << (rset.width - 40)] * len(rset.roots)
        fake_roots(monkeypatch, rset.width, rset.roots, radii)
        loose = mahler_constant(2, 3, bits)
        assert loose.value == exact.value
        with mpmath.workprec(2 * bits):
            rho = mpmath.mpf(2) ** -40
            gaps = [abs(x - min(max(mpmath.re(x), -2), 2)) - rho for x in helpers.as_mpc(rset)]
            least = 2 * loose.value * sum(rho / gap for gap in gaps)
            floor = loose.value * mpmath.mpf(2) ** -(bits - 8)
            assert least <= loose.error_bound <= least * (1 + mpmath.mpf(2) ** -60) + floor
        fake_roots(monkeypatch, rset.width, rset.roots, radii[1:])
        with pytest.raises(ValueError):
            mahler_constant(2, 3, bits)

    def test_quotient_root_in_unit_interval_is_rejected(self, monkeypatch):
        # x = 1/2 lies in [-2, 2], so it maps to a pair of roots on the unit circle
        w = 64
        fake_roots(monkeypatch, w, [(3 << w, 0), (1 << (w - 1), 0)], [0, 0])
        with pytest.raises(ClassificationFailure):
            mahler_constant(1, 2)

    def test_root_just_off_the_segment_is_classified(self, monkeypatch):
        # x = 2 + 2^-20 stands for the pair q = 1 + 2^-10 + ..., 1/q, so close
        # to the unit circle that a guessed 2^-(bits/4) margin refuses it at 32
        # bits; its certified disk, 2^-20 from [-2, 2], places the pair off it
        bits, w = 32, 128
        near = (2 << w) + (1 << (w - 20))
        fake_roots(monkeypatch, w, [(3 << w, 0), (near, 0)], [1, 1])
        got = mahler_constant(1, 2, bits)
        with mpmath.workprec(256):
            want = outer_root(mpmath.mpf(3)) * outer_root(2 + mpmath.mpf(2) ** -20)
            assert abs(got.value - want) <= got.error_bound <= got.value * mpmath.mpf(2) ** -23
        assert mpmath.nstr(got.value, 6) == "2.62059"

    @pytest.mark.parametrize("radius", [(1 << 44) - 1, 1 << 44, (1 << 44) + 1])
    def test_disk_meeting_the_segment_raises(self, monkeypatch, radius):
        # x = 2 + 2^-20 at 2^-64 is 2^44 units from [-2, 2]: a disk of that
        # radius meets the segment, one a unit less nears it with rho/gap > 1/2
        w = 64
        fake_roots(monkeypatch, w, [(3 << w, 0), ((2 << w) + (1 << 44), 0)], [0, radius])
        with pytest.raises(ClassificationFailure, match="a root disk nears"):
            mahler_constant(1, 2, 32)

    @pytest.mark.parametrize("extra,classified", [(0, True), (1, False)])
    def test_bound_needs_rho_over_gap_within_a_half(self, monkeypatch, extra, classified):
        # x = 3 lies 1 from [-2, 2], so S = rho/(1 - rho) reaches 1/2 at rho = 1/3
        w = 64
        fake_roots(monkeypatch, w, [(3 << w, 0)], [(1 << w) // 3 + extra])
        if not classified:
            with pytest.raises(ClassificationFailure):
                mahler_constant(1, 1, 32)
            return
        got = mahler_constant(1, 1, 32)
        with mpmath.workprec(128):
            want = outer_root(mpmath.mpf(3))
            assert abs(got.value - want) < got.value * mpmath.mpf(2) ** -90
            assert got.value * mpmath.mpf("0.99") < got.error_bound
            assert got.error_bound <= got.value * (1 + mpmath.mpf(2) ** -20)

    def test_repeated_root_raises(self, monkeypatch):
        # a root set the certificate refuses, as it refuses a repeated root,
        # raises before any factor is formed
        monkeypatch.setattr(igraphjac.asymptotics, "_certify", lambda *args: None)
        with pytest.raises(ConvergenceFailure, match="no certified roots of degree 2"):
            mahler_constant(1, 2)

    @pytest.mark.parametrize("k,l,once", [(2, 3, 3), (5, 6, 6), (7, 9, 8)])
    def test_one_factor_per_pair(self, monkeypatch, k, l, once):
        # disk_gap's isqrt and the two of q^2 run once per real root and per
        # conjugate pair; the pair's factor, squared, and its slack, doubled,
        # leave the value and bound those of a pass over every root
        rset = poly_roots(k, l, 64)
        isqrt = helpers.count_calls(monkeypatch, math, "isqrt")
        got = mahler_constant(k, l, 64, rset)
        assert len(isqrt) == 3 * once
        monkeypatch.undo()
        w, product, slack = rset.width, 1, 0
        for (a, b), radius in zip(rset.roots, rset.radii):
            slack += -((-radius << w) // disk_gap(a, b, radius, w))
            re, im = a * a - b * b - (4 << 2 * w), 2 * a * b
            m = a * a + b * b + math.isqrt(re * re + im * im)
            product *= m + math.isqrt(m * m - (16 << 4 * w))
        with mpmath.workprec(128):
            value = mpmath.sqrt(mpmath.ldexp(product, -len(rset.roots) * (2 * w + 2)))
            bound = value * (mpmath.ldexp(slack, 1 - w) + mpmath.ldexp(1, -56))
        assert (got.value, got.error_bound) == (value, bound)

    def test_given_roots_are_not_rooted_again(self, monkeypatch):
        rset = poly_roots(2, 3, 64)
        calls = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "poly_roots")
        assert mahler_constant(2, 3, 64, rset) == mahler_constant(2, 3, 64)
        assert mahler_integral(2, 3, 64, rset) == mahler_integral(2, 3, 64)
        assert len(calls) == 2

    def test_quotient_root_correspondence(self):
        # outside roots map to Q's roots through w = (z + 1/z) / 2 and to
        # R's through x = 2w, the correspondence mahler_constant inverts
        zs = oracle_roots(helpers.spectral_quotient(2, 3), 192)
        ws = oracle_roots(helpers.chebyshev_quotient(2, 3), 192)
        with mpmath.workprec(256):
            mapped = sorted(
                mpmath.re((z + 1 / z) / 2) for z in zs if abs(z) > 1 + mpmath.mpf("1e-20")
            )
            expected = sorted_reals(ws)
            xs = sorted_reals(helpers.as_mpc(poly_roots(2, 3, precision_bits=192)))
            assert len(mapped) == len(expected) == len(xs) == 4
            for got, want, x in zip(mapped, expected, xs):
                assert abs(got - want) < mpmath.mpf("1e-40")
                assert abs(x - 2 * want) < mpmath.mpf("1e-40")


class TestDiskGap:
    def test_direct_cases(self):
        w = 10
        one = 1 << w
        assert disk_gap(3 * one, 0, 0, w) == one  # x = 3 is 1 from the segment
        assert disk_gap(-3 * one, 0, 5, w) == one - 5  # the same at -3, less the radius
        assert disk_gap(one, -4 * one, 0, w) == 4 * one  # over the segment: |Im x|
        assert disk_gap(3 * one, 4 * one, 0, w) == 4222  # 1024 sqrt(17) = 4222.1
        assert disk_gap((2 << w) + 1, 0, 1, w) == 0  # a disk touching x = 2
        assert disk_gap(one, 0, 0, w) == 0 and disk_gap(0, 1, 3, w) == -2  # on or meeting it

    def test_lower_bound_on_the_distance(self):
        w = 40
        cases = [("2.5", "0.1", 7), ("-2.000001", "0", 0), ("0.3", "-1e-9", 1), ("-7", "3", 1000)]
        for re, im, radius in cases:
            a, b = (int(mpmath.ldexp(mpmath.mpf(v), w)) for v in (re, im))
            with mpmath.workprec(3 * w):
                x = mpmath.mpc(mpmath.ldexp(a, -w), mpmath.ldexp(b, -w))
                dist = abs(x - min(max(mpmath.re(x), -2), 2)) * 2**w - radius
            assert dist - 1 < disk_gap(a, b, radius, w) <= dist


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
        with pytest.raises(InvalidParams):
            mahler_integral(1, 2, precision_bits=16)

    @pytest.mark.parametrize("bits", [64.5, "64", True, None])
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

    @pytest.mark.parametrize("bits", [64, 128])
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3), (5, 6), (20, 21)])
    def test_node_count_is_proved_and_least(self, monkeypatch, k, l, bits):
        # the tail 2d/(N (rho^N - 1)) the bound carries covers |T_N - log A|,
        # both taken at twice the bits; N is the first of 2(k + l) 2^j whose tail
        # meets 2^-(bits - 8), even with rho the least outer modulus of an
        # mpmath.polyroots oracle; the bound is within 2^-(bits - 10)
        nodes = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_node_product")
        rset = poly_roots(k, l, bits)
        got = mahler_integral(k, l, bits, rset)
        n = nodes[-1][2]
        root = mahler_constant(k, l, bits, rset)
        fine = mahler_constant(k, l, 2 * bits)
        with mpmath.workprec(2 * bits):
            floor = mpmath.mpf(2) ** -(bits - 8)
            tail = got.error_bound / got.value - floor
            ends = (k * k + l * l) * (6 if k % 2 and l % 2 else 1)
            half = helpers.node_product_mpf(k, l, n, helpers.chord_table_mpf(n)) / (n // 2)
            error = abs(mpmath.log(ends * half**2) / n - mpmath.log(fine.value))
            assert error <= tail + 2 * fine.error_bound / fine.value
            assert 0 < tail <= floor * (1 + mpmath.mpf(2) ** -20)
            q, m = helpers.least_outer_modulus(k, l), n // 2
            assert n == 2 * (k + l) or 2 * (k + l - 1) / (m * (q**m - 1)) > floor
            assert got.error_bound <= got.value * 4 * floor
        assert abs(got.value - root.value) <= got.error_bound + root.error_bound

    @pytest.mark.parametrize("radius", ["0", "1.5"])
    def test_node_count_reads_the_root_disks(self, monkeypatch, radius):
        # x = +-3i: |x - 2| + |x + 2| = 2 sqrt(13), so q + 1/q >= sqrt(13) - r
        # on a disk of radius r and rho = (L + sqrt(L^2 - 4))/2; N and the
        # bound's tail follow that rho, not the disk centres
        w, bits = 64, 64
        r = int(mpmath.ldexp(mpmath.mpf(radius), w))
        rset = RootSet(w, ((0, -3 << w), (0, 3 << w)), (r, r), mpmath.mpf(0))
        nodes = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_node_product")
        got = mahler_integral(1, 2, bits, rset)
        with mpmath.workprec(128):
            big = mpmath.sqrt(13) - mpmath.ldexp(r, -w)
            rho = (big + mpmath.sqrt(big * big - 4)) / 2
            floor, n = mpmath.mpf(2) ** -(bits - 8), 6
            while 4 / (n * (rho**n - 1)) > floor:
                n *= 2
            assert nodes[-1][2] == n == (192 if r else 48)
            tail = got.error_bound / got.value - floor
            assert abs(tail / (4 / (n * (rho**n - 1))) - 1) < mpmath.mpf(2) ** -30

    def test_disk_meeting_the_segment_raises(self, monkeypatch):
        # a disk reaching [-2, 2] leaves rho = 1, which proves no node count
        w = 64
        rset = RootSet(w, ((3 << w, 0), ((2 << w) + 5, 0)), (0, 5), mpmath.mpf(0))
        nodes = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_node_product")
        with pytest.raises(QuadratureFailure, match="a root disk meets"):
            mahler_integral(1, 2, 64, rset)
        assert nodes == []

    def test_node_cap_breach_raises_before_any_node(self, monkeypatch):
        monkeypatch.setattr(igraphjac.asymptotics, "NODE_CAP", 64)
        nodes = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_node_product")
        with pytest.raises(QuadratureFailure, match="needs 352 nodes"):
            mahler_integral(5, 6, precision_bits=64)
        assert nodes == []

    def test_value_reads_roots_only_through_the_node_count(self, monkeypatch):
        # roots placing rho too far out stop the rule at 2(k + l) = 6 nodes
        # with a bound too small, so the routes visibly disagree; roots
        # placing it near 1 (x = 2.0001, q ~ 1.01) only add nodes
        w = 64
        root = mahler_constant(1, 2, 64)
        far = RootSet(w, ((1000 << w, 0),), (0,), mpmath.mpf(0))
        short = mahler_integral(1, 2, 64, far)
        assert abs(short.value - root.value) > short.error_bound + root.error_bound
        near = RootSet(w, (((2 << w) + (1 << w) // 10000, 0),), (0,), mpmath.mpf(0))
        nodes = helpers.count_calls(monkeypatch, igraphjac.asymptotics, "_node_product")
        slow = mahler_integral(1, 2, 64, near)
        assert nodes[-1][2] == 6144
        assert abs(slow.value - root.value) <= slow.error_bound + root.error_bound


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
