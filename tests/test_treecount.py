import pytest

import helpers
import igraphjac.treecount
from igraphjac import (
    decompose,
    jacobian_via_companion,
    normalize,
    presentation_matrix,
    spectral_poly,
    trace_poly,
    tree_count_chebyshev,
    tree_count_kirchhoff,
    tree_count_resultant,
)
from igraphjac.bigmat import IntMatrix, determinant
from igraphjac.errors import PrecisionExhausted
from igraphjac.igraph import GraphParams
from igraphjac.treecount import COUNT_HEADROOM_BITS

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
    # a count near 2.4e31 overflows the integer headroom of 32-bit requests
    p = GraphParams(45, 2, 3)
    with pytest.raises(PrecisionExhausted):
        tree_count_chebyshev(p, precision_bits=32)


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 3), (2, 5)])
def test_chebyshev_refuses_counts_past_its_headroom(k, l, bits):
    # the roots hold about bits + 50 bits, so a count a few bits short of
    # that can round to a wrong integer (I(55,1,2) at 64 bits); every count
    # in the band around the headroom must be right or refused
    checked = 0
    for n in range(l + 1, 1000):
        p = GraphParams(n, k, l)
        tau = tree_count_resultant(p)
        if tau.bit_length() > bits + 72:
            break
        if tau.bit_length() < bits + 24:
            continue
        checked += 1
        try:
            assert tree_count_chebyshev(p, precision_bits=bits) == tau
        except PrecisionExhausted:
            # only for want of headroom, not from a miss of the rounding guard
            assert tau.bit_length() >= bits + COUNT_HEADROOM_BITS
    assert checked >= 10


def test_chebyshev_roots_r_once_per_key(monkeypatch):
    # _quotient_roots caches one root set per (k, l, precision) for a sweep
    calls = []
    real = igraphjac.treecount.poly_roots

    def counting(poly, precision_bits):
        calls.append((poly, precision_bits))
        return real(poly, precision_bits)

    monkeypatch.setattr(igraphjac.treecount, "poly_roots", counting)
    igraphjac.treecount._quotient_roots.cache_clear()
    for n in range(5, 12):
        tree_count_chebyshev(GraphParams(n, 2, 3), precision_bits=96)
    for n in (5, 6):
        tree_count_chebyshev(GraphParams(n, 2, 3), precision_bits=128)
        tree_count_chebyshev(GraphParams(n, 1, 2), precision_bits=96)
    assert calls == [
        (trace_poly(2, 3), 96),
        (trace_poly(2, 3), 128),
        (trace_poly(1, 2), 96),
    ]


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
