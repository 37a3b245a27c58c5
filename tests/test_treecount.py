import dataclasses
from math import gcd

import pytest

import helpers
import igraphjac.treecount
from igraphjac import (
    decompose,
    jacobian_via_companion,
    normalize,
    presentation_matrix,
    spectral_poly,
    tree_count_chebyshev,
    tree_count_kirchhoff,
    tree_count_resultant,
)
from igraphjac.bigmat import IntMatrix, determinant
from igraphjac.errors import PrecisionExhausted
from igraphjac.igraph import GraphParams

ALL_METHODS = (tree_count_kirchhoff, tree_count_resultant, tree_count_chebyshev)

# params -> published count
KNOWN_COUNTS = {
    (3, 1, 1): 75,
    (4, 1, 1): 384,
    (5, 1, 2): 2000,
    (4, 2, 3): 196,
    (5, 2, 3): 1805,
    (6, 2, 3): 2166,
    (7, 2, 3): 48223,
    (8, 3, 4): 42632,
    (10, 3, 4): 5184000,
}


@pytest.mark.parametrize("n,k,l", sorted(KNOWN_COUNTS))
def test_all_methods_match_published(n, k, l):
    p = GraphParams(n, k, l)
    expected = KNOWN_COUNTS[(n, k, l)]
    for method in ALL_METHODS:
        assert method(p) == expected


@pytest.mark.parametrize("n,k,l", [(3, 1, 1), (4, 1, 1), (5, 1, 2), (4, 2, 3)])
def test_deletion_contraction_oracle(n, k, l):
    edges = helpers.igraph_edge_list(n, k, l)
    tau = helpers.tree_count_deletion_contraction(2 * n, edges)
    assert tau == tree_count_kirchhoff(GraphParams(n, k, l))


@pytest.mark.parametrize("n,k,l", [(7, 2, 3), (9, 2, 3), (10, 3, 4), (11, 1, 4)])
def test_fraction_kirchhoff_oracle(n, k, l):
    edges = helpers.igraph_edge_list(n, k, l)
    tau = helpers.tree_count_kirchhoff_fractions(2 * n, edges)
    assert tau == tree_count_resultant(GraphParams(n, k, l))


@pytest.mark.parametrize("n", [64, 777, 1000])
@pytest.mark.parametrize("k,l", [(2, 3), (3, 4), (4, 5)])
def test_large_n_subresultant_oracle(n, k, l):
    p = normalize(n, k, l)
    tau = tree_count_resultant(p)
    assert tau == helpers.tree_count_subresultant(n, k, l)
    assert jacobian_via_companion(p).order == tau
    # the Jacobian route takes the Smith form modulo the (0,0) cofactor; the
    # kernels of M make every corner cofactor +-tau
    m = presentation_matrix(spectral_poly(k, l), n).to_lists()
    corners = (0, len(m) - 1)
    for i in corners:
        for j in corners:
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(m) if r != i]
            assert abs(determinant(IntMatrix(minor))) == tau


@pytest.mark.parametrize("n", [9, 10, 64, 777])
@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 8)])
def test_q_ring_oracle(n, k, l):
    # the count in Z[x]/(R) against the former one in Z[z]/(Q), twice the size
    tau = tree_count_resultant(GraphParams(n, k, l))
    assert tau == helpers.tree_count_q_ring(n, k, l) == helpers.tree_count_subresultant(n, k, l)


def test_chebyshev_needs_enough_bits():
    # a count near 6.9e34 (116 bits) is more than roots certified at 32 bits
    # can prove; I(45,2,3)'s, near 2.3e31 (105 bits), is within their reach
    with pytest.raises(PrecisionExhausted):
        tree_count_chebyshev(GraphParams(50, 2, 3), precision_bits=32)
    p = GraphParams(45, 2, 3)
    assert tree_count_chebyshev(p, precision_bits=32) == tree_count_resultant(p)


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 3), (2, 5)])
def test_chebyshev_refuses_counts_past_its_headroom(k, l, bits):
    # the roots are certified to about bits + 64 bits and read uncut, so
    # counts in the band around that size are where a wrong integer could show
    # (I(55,1,2) at 64 bits rounded to one under a guessed rule); every count
    # there must be right or refused, and the band holds both: proofs reach
    # bits + 72 to bits + 76, refusals start at bits + 74 to bits + 78
    accepted = refused = 0
    for n in range(l + 1, 1000):
        p = GraphParams(n, k, l)
        tau = tree_count_resultant(p)
        if tau.bit_length() > bits + 88:
            break
        if tau.bit_length() < bits + 24:
            continue
        try:
            assert tree_count_chebyshev(p, precision_bits=bits) == tau
            accepted += 1
        except PrecisionExhausted:
            refused += 1
    assert accepted >= 10 and refused >= 1


def test_chebyshev_grid_is_right_or_refused():
    # k <= 5, l <= 7, n < 260 at 64 to 256 bits, every 5th n: no count the
    # proof accepts differs from the resultant route's
    accepted = refused = 0
    for bits in (64, 128, 192, 256):
        for k in range(1, 6):
            for l in range(k, 8):
                if gcd(k, l) != 1:
                    continue
                for n in range(max(3, l + 1) + (k + l + bits) % 5, 260, 5):
                    p = GraphParams(n, k, l)
                    try:
                        assert tree_count_chebyshev(p, precision_bits=bits) == tree_count_resultant(p)
                        accepted += 1
                    except PrecisionExhausted:
                        refused += 1
    assert accepted >= 1000 and refused >= 1000


@pytest.mark.parametrize("shift,accepted", [(-244, True), (-240, False)])
def test_chebyshev_refuses_an_interval_with_several_integers(monkeypatch, shift, accepted):
    # I(100,2,3) has a 231-bit count; radii of 2^-240 put three integers in
    # its interval, radii of 2^-244 leave one
    p = GraphParams(100, 2, 3)
    rset = igraphjac.treecount._quotient_roots(2, 3, 256)
    wide = dataclasses.replace(rset, radii=tuple(1 << (rset.width + shift) for _ in rset.radii))
    monkeypatch.setattr(igraphjac.treecount, "_quotient_roots", lambda k, l, bits: wide)
    if accepted:
        assert tree_count_chebyshev(p) == tree_count_resultant(p)
    else:
        with pytest.raises(PrecisionExhausted, match="count interval holds 3 integers at 256 bits"):
            tree_count_chebyshev(p)


def test_chebyshev_refuses_a_wide_ladder_bound(monkeypatch):
    # the ladder's rounding bound enters the proof as the radii do: widened
    # 2^106-fold it spreads I(100,2,3)'s interval over 15 integers
    lucas = igraphjac.treecount._lucas

    def widened(x, n, width):
        vr, vi, e = lucas(x, n, width)
        return vr, vi, e << 106

    monkeypatch.setattr(igraphjac.treecount, "_lucas", widened)
    with pytest.raises(PrecisionExhausted, match="count interval holds 15 integers"):
        tree_count_chebyshev(GraphParams(100, 2, 3))


def test_chebyshev_accepts_the_sweep_counts():
    # sweep-crosscheck's Chebyshev leg retries a refused count at 512 bits, so
    # a looser proof would cost retries: at 256 bits both cells are proved to
    # n = 140 (a ladder that cut the roots below their certified width
    # stopped (3,4) at 135), and every n at 512
    for k, l in ((2, 3), (3, 4)):
        for n in range(90, 215, 5):
            p = GraphParams(n, k, l)
            tau = tree_count_resultant(p)
            if n <= 140:
                assert tree_count_chebyshev(p, precision_bits=256) == tau
            assert tree_count_chebyshev(p, precision_bits=512) == tau


def test_chebyshev_roots_r_once_per_key(monkeypatch):
    # _quotient_roots caches one root set per (k, l, precision) for a sweep
    calls = []
    real = igraphjac.treecount.poly_roots

    def counting(k, l, precision_bits):
        calls.append((k, l, precision_bits))
        return real(k, l, precision_bits)

    monkeypatch.setattr(igraphjac.treecount, "poly_roots", counting)
    igraphjac.treecount._quotient_roots.cache_clear()
    for n in range(5, 12):
        tree_count_chebyshev(GraphParams(n, 2, 3), precision_bits=96)
    for n in (5, 6):
        tree_count_chebyshev(GraphParams(n, 2, 3), precision_bits=128)
        tree_count_chebyshev(GraphParams(n, 1, 2), precision_bits=96)
    assert calls == [(2, 3, 96), (2, 3, 128), (1, 2, 96)]


@pytest.mark.parametrize("k,l,ladders", [(2, 3, 3), (3, 4, 4), (5, 6, 6)])
def test_chebyshev_runs_one_ladder_per_pair(monkeypatch, k, l, ladders):
    # R's non-real roots come in exact conjugate pairs and V_n has real
    # coefficients, so one Lucas ladder serves each real root and each pair
    calls = helpers.count_calls(monkeypatch, igraphjac.treecount, "_lucas")
    p = GraphParams(40, k, l)
    assert tree_count_chebyshev(p) == tree_count_resultant(p)
    assert len(calls) == ladders < k + l - 1


def test_chebyshev_moved_roots_run_root_by_root(monkeypatch):
    # roots moved 2^-40 off the axis are not closed under conjugation, so
    # each takes its own ladder (and the count's imaginary part is refused)
    rset = igraphjac.treecount._quotient_roots(2, 3, 256)
    up = 1 << (rset.width - 40)
    moved = dataclasses.replace(rset, roots=tuple((a, b + up) for a, b in rset.roots))
    monkeypatch.setattr(igraphjac.treecount, "_quotient_roots", lambda k, l, bits: moved)
    calls = helpers.count_calls(monkeypatch, igraphjac.treecount, "_lucas")
    with pytest.raises(PrecisionExhausted, match="imaginary part"):
        tree_count_chebyshev(GraphParams(60, 2, 3))
    assert len(calls) == 4


def test_divisibility_and_cube_bound():
    for n in range(3, 30):
        p = normalize(n, 1, 2)
        tau = tree_count_resultant(p)
        assert tau % n == 0
        assert tau >= n**3


class TestDecompose:
    def test_multiplier_six(self):
        p = GraphParams(4, 1, 1)
        d = decompose(tree_count_kirchhoff(p), p)
        assert (d.multiplier, d.a) == (6, 4)

    def test_multiplier_one(self):
        p = GraphParams(4, 2, 3)
        d = decompose(tree_count_kirchhoff(p), p)
        assert (d.multiplier, d.a) == (1, 7)

    def test_even_n_even_sum_stays_plain(self):
        # one even step keeps the multiplier at 1 even for even n
        p = GraphParams(6, 2, 3)
        d = decompose(tree_count_kirchhoff(p), p)
        assert d.multiplier == 1
        assert d.a == 19  # 2166 = 1 * 6 * 19^2

    def test_odd_n_never_six(self):
        for n, k, l in [(5, 1, 1), (7, 1, 3), (9, 3, 4)]:
            p = GraphParams(n, k, l)
            d = decompose(tree_count_resultant(p), p)
            assert d.multiplier == 1

    def test_multiplier_matches_spectral_poly_at_minus_one(self):
        # oracle: P(-1), read off spectral_poly's alternating coefficient sum,
        # is 24 exactly where the multiplier is 6 on even n
        for l in range(1, 12):
            for k in range(1, min(l, 12 - l) + 1):
                if gcd(k, l) != 1:
                    continue
                coeffs = spectral_poly(k, l)
                at_minus_one = (-1) ** (k + l) * (sum(coeffs[0::2]) - sum(coeffs[1::2]))
                for n in range(max(3, l + 1), 31):
                    p = GraphParams(n, k, l)
                    six = n % 2 == 0 and at_minus_one == 24
                    assert decompose(tree_count_resultant(p), p).multiplier == (6 if six else 1), p

    def test_reconstruction(self):
        for n, k, l in KNOWN_COUNTS:
            p = GraphParams(n, k, l)
            tau = tree_count_resultant(p)
            d = decompose(tau, p)
            assert d.multiplier * n * d.a * d.a == tau
            assert d.multiplier in (1, 6)


def test_sixfold_rule_report():
    samples = []
    for n in range(3, 25):
        for k, l in [(1, 1), (1, 2), (2, 3), (3, 4), (1, 3)]:
            try:
                p = normalize(n, k, l)
            except Exception:
                continue
            samples.append((p, decompose(tree_count_resultant(p), p)))
    report = helpers.sixfold_rule_report(samples)
    assert report["rule"] == "multiplier 6 iff n even and k+l even"
    assert report["six_with_odd_sum"] == 0
    assert report["six_with_even_sum"] > 0
    assert report["odd_n_conflicts"] == []
