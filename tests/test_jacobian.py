import hashlib
import math

import pytest

import helpers
import igraphjac.bigmat
import igraphjac.jacobian
import igraphjac.polyring
from igraphjac import (
    DENSE_CEILING,
    jacobian_via_companion,
    jacobian_via_laplacian,
    tree_count_kirchhoff,
    tree_count_resultant,
)
from igraphjac.bigmat import smith_normal_form
from igraphjac.errors import InternalInconsistency, InvalidParams
from igraphjac.igraph import GraphParams, normalize
from igraphjac.jacobian import LAPLACIAN_GATE, AbelianGroup
from igraphjac.polyring import presentation_matrix, spectral_poly
from igraphjac.treecount import Decomposition, decompose


class TestAbelianGroup:
    def test_order_and_rank(self):
        g = AbelianGroup((2, 10, 10, 10), 1)
        assert g.order == 2000
        assert g.rank == 4
        assert g.free_rank == 1

    def test_trivial_torsion(self):
        g = AbelianGroup((), 1)
        assert g.order == 1
        assert g.rank == 0

    def test_rejects_factor_one(self):
        with pytest.raises(InternalInconsistency):
            AbelianGroup((1, 2), 0)

    def test_rejects_broken_chain(self):
        with pytest.raises(InternalInconsistency):
            AbelianGroup((4, 6), 0)

    def test_rejects_negative_free_rank(self):
        with pytest.raises(InternalInconsistency):
            AbelianGroup((2,), -1)


class TestGroupFromSmith:
    def test_strips_units_and_zero(self, monkeypatch):
        # the Laplacian route keeps the factors above one and counts the zero as free rank
        monkeypatch.setattr(igraphjac.jacobian, "smith_normal_form", lambda m: (1, 1, 7, 28, 0))
        g = jacobian_via_laplacian(GraphParams(5, 1, 2))
        assert g.torsion == (7, 28)
        assert g.free_rank == 1


def test_laplacian_route_requires_exactly_one_zero_factor(monkeypatch):
    # a connected graph's Laplacian has one zero factor; none or two is a fault
    for factors in ((1, 7), (7, 0, 0)):
        monkeypatch.setattr(igraphjac.jacobian, "smith_normal_form", lambda m: factors)
        with pytest.raises(InternalInconsistency):
            jacobian_via_laplacian(GraphParams(5, 1, 2))


KNOWN_GROUPS = [
    (GraphParams(4, 2, 3), (7, 28)),
    (GraphParams(5, 1, 2), (2, 10, 10, 10)),
    (GraphParams(5, 3, 4), (2, 10, 10, 10)),
    (GraphParams(9, 2, 3), (289, 2601)),
    (GraphParams(12, 3, 4), (11, 11, 209, 2508)),
]


@pytest.mark.parametrize("params,torsion", KNOWN_GROUPS)
def test_known_groups_both_routes(params, torsion):
    for g in (jacobian_via_laplacian(params), jacobian_via_companion(params)):
        assert g.torsion == torsion
        assert g.free_rank == 1


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_companion_rejects_a_wrong_count(monkeypatch, scale):
    # the Smith form over Z[z]/(P) must reproduce the count from Z[x]/(R);
    # 4 tau still splits as multiplier * n * (2a)^2, so both moduli are tried
    def wrong_count(p):
        return scale * tree_count_resultant(p)

    monkeypatch.setattr(igraphjac.jacobian, "tree_count_resultant", wrong_count)
    with pytest.raises(InternalInconsistency):
        jacobian_via_companion(GraphParams(12, 3, 4))


def _count_smith_calls(monkeypatch) -> list[int]:
    moduli = []

    def counted(m, modulus=0):
        moduli.append(modulus)
        return smith_normal_form(m, modulus=modulus)

    monkeypatch.setattr(igraphjac.jacobian, "smith_normal_form", counted)
    return moduli


SMALL_PRIMES = math.prod(q for q in range(2, 1 << 10) if all(q % r for r in range(2, q)))


def _assert_small_part(small, modulus, known):
    # the Smith form sees Ds: Ds times its coprime part Dc is the modulus,
    # Dc shares no prime with known or below 2^10, and Ds has no other prime
    large, rest = divmod(modulus, small)
    assert rest == 0
    assert math.gcd(large, known * SMALL_PRIMES) == 1
    rest = small
    while (g := math.gcd(rest, known * SMALL_PRIMES)) > 1:
        rest //= g
    assert rest == 1


@pytest.mark.parametrize("params,torsion", KNOWN_GROUPS)
def test_companion_falls_back_to_tau(monkeypatch, params, torsion):
    # D = multiplier * n with a = 1 is too small: the second try, modulo
    # tau, must still give the group
    def split_with_a_one(tau, p):
        return Decomposition(1, decompose(tau, p).multiplier)

    monkeypatch.setattr(igraphjac.jacobian, "decompose", split_with_a_one)
    moduli = _count_smith_calls(monkeypatch)
    assert jacobian_via_companion(params).torsion == torsion
    tau = tree_count_resultant(params)
    known = decompose(tau, params).multiplier * params.n
    assert len(moduli) == 2
    _assert_small_part(moduli[0], known, known)
    _assert_small_part(moduli[-1], tau, known)


def test_companion_takes_one_smith_form_per_graph(monkeypatch):
    # D = multiplier * n * a was a multiple of the exponent on every graph
    # tried, so the fallback modulo tau never runs, and the one Smith form
    # per graph is taken modulo the small-prime part Ds of D
    graphs = [(n, k, k + 1) for k in range(1, 6) for n in range(3, 81)]
    graphs += [(940, 2, 3), (540, 3, 4), (140, 4, 5)]
    moduli = _count_smith_calls(monkeypatch)
    computed = 0
    for n, k, l in graphs:
        try:
            p = normalize(n, k, l)
        except InvalidParams:
            continue
        dec = decompose(tree_count_resultant(p), p)
        exponent = jacobian_via_companion(p).torsion[-1]
        computed += 1
        modulus = dec.multiplier * p.n * dec.a
        _assert_small_part(moduli[-1], modulus, dec.multiplier * p.n)
        assert modulus % exponent == 0
    assert len(moduli) == computed > 300


def test_split_by_gcds():
    # 1031 and 1033 lie above 2^10, so only the one that divides the known
    # part joins Ds
    assert igraphjac.jacobian._split(8 * 9 * 1031**2 * 1033, 1033) == (8 * 9 * 1033, 1031**2)
    assert igraphjac.jacobian._split(2**5 * 1021, 1) == (2**5 * 1021, 1)


def test_modulus_of_small_primes_is_a_plain_smith_form(monkeypatch):
    # tau(I(12,3,4)) has only primes below 2^10: Dc = 1, so the Euclid side
    # adds only ones and the Smith form modulo Ds = D gives the group
    p = GraphParams(12, 3, 4)
    dec = decompose(tree_count_resultant(p), p)
    modulus = dec.multiplier * p.n * dec.a
    assert igraphjac.jacobian._split(modulus, dec.multiplier * p.n) == (modulus, 1)
    moduli = _count_smith_calls(monkeypatch)
    large = helpers.count_calls(monkeypatch, igraphjac.jacobian, "presentation_factors")
    assert jacobian_via_companion(p).torsion == (11, 11, 209, 2508)
    assert moduli == [modulus]
    assert [args[2] for args in large] == [1]


def test_euclid_witnessed_above_the_gate(monkeypatch):
    # past LAPLACIAN_GATE the Dc side is Euclid's algorithm on every graph,
    # and the dense route over Z shares none of it
    prem = helpers.count_calls(monkeypatch, igraphjac.polyring, "_prem")
    large = helpers.count_calls(monkeypatch, igraphjac.jacobian, "presentation_factors")
    graphs = 0
    for k, l in ((2, 5), (3, 4), (4, 5)):
        for n in range(LAPLACIAN_GATE + 1, 101):
            try:
                p = normalize(n, k, l)
            except InvalidParams:
                continue
            graphs += 1
            assert jacobian_via_companion(p) == jacobian_via_laplacian(p), p
    assert graphs == len(large) == 120
    assert all(args[2] > 1 for args in large)
    assert len(prem) > 10 * graphs


@pytest.mark.parametrize(
    "n, k, l, small, digest",
    [
        (20000, 3, 4, (32, 202944, 126840000),
         "d3aa7ad75d1559083c0a314fe4da2dcc5e1b72c9db9700109b3ee899b582131f"),
        (2000, 7, 9, (8, 224, 224, 448, 56000),
         "436025e398cf728c6f7f1c1393ab1545893474a2e76c4ea719c6b53c60aad151"),
    ],
    ids=["I(20000,3,4)", "I(2000,7,9)"],
)
def test_large_n_torsion_pinned(n, k, l, small, digest):
    # the dense Smith form modulo D gave these groups; the two largest
    # factors have 23216 and 2349-2350 bits, so they are pinned by a digest
    torsion = jacobian_via_companion(GraphParams(n, k, l)).torsion
    assert torsion[: len(small)] == small
    assert len(torsion) == len(small) + 2
    assert hashlib.sha256(",".join(map(hex, torsion)).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, fallback_steps", [(1000, 0), (940, 1)])
def test_companion_smith_form_pivots_on_units(monkeypatch, n, fallback_steps):
    # modulo D an entry coprime to D is a unit and needs no Bezout step;
    # I(940,2,3) meets one block with content 1 and no unit entry
    p = GraphParams(n, 2, 3)
    tau = tree_count_resultant(p)
    dec = decompose(tau, p)
    modulus = dec.multiplier * p.n * dec.a
    m = presentation_matrix(spectral_poly(p.k, p.l), p.n)
    bezout = helpers.count_calls(monkeypatch, igraphjac.bigmat, "_bezout")
    cross = helpers.count_calls(monkeypatch, igraphjac.bigmat, "_clear_cross")
    factors = smith_normal_form(m, modulus=modulus)
    assert len(cross) == fallback_steps
    assert bool(bezout) == bool(fallback_steps)
    assert factors[-1] == modulus
    assert math.prod(factors[:-1]) == tau


def test_routes_agree_on_the_small_grid():
    # every canonical graph of these steps up to n = 60, not a random draw
    graphs = set()
    for k, l in ((1, 2), (2, 3), (3, 4), (2, 5), (4, 5), (5, 7)):
        for n in range(3, 61):
            try:
                graphs.add(normalize(n, k, l))
            except InvalidParams:
                continue
    assert len(graphs) == 337
    for p in sorted(graphs, key=lambda p: (p.k, p.l, p.n)):
        assert jacobian_via_companion(p) == jacobian_via_laplacian(p), p


def test_laplacian_gate():
    # the gate only steers the command line's auto method; the dense routes
    # stop at the ceiling
    p = GraphParams(LAPLACIAN_GATE + 1, 2, 3)
    assert jacobian_via_laplacian(p) == jacobian_via_companion(p)
    big = GraphParams(DENSE_CEILING + 1, 2, 3)
    for dense_route in (jacobian_via_laplacian, tree_count_kirchhoff):
        with pytest.raises(InvalidParams, match="ceiling"):
            dense_route(big)


@pytest.mark.parametrize(
    "n, k, l",
    [pytest.param(n, 3, 4, id=str(n)) for n in (58, 64, 76, 112)]
    + [(68, 5, 9), (90, 6, 7), (110, 5, 7)],
)
def test_heavy_tail_graphs_agree(n, k, l):
    # the Smith form over Z of the n x n circulant S; the wider steps meet
    # pivots that divide no entry, so they run the Bezout step over Z
    p = GraphParams(n, k, l)
    assert jacobian_via_laplacian(p) == jacobian_via_companion(p)


def test_order_counts_spanning_trees():
    # independent Fraction Kirchhoff count on the same graph
    p = GraphParams(7, 2, 3)
    edges = helpers.igraph_edge_list(7, 2, 3)
    assert jacobian_via_companion(p).order == helpers.tree_count_kirchhoff_fractions(14, edges)


def test_petersen_is_5_1_2():
    # the (5,1,2) graph is the classical one; its group is Z2 + (Z10)^3
    g = jacobian_via_laplacian(GraphParams(5, 1, 2))
    # the unit factors and the one zero factor leave the torsion
    assert g.torsion == (2, 10, 10, 10)
    assert g.free_rank == 1
    assert g.order == 2000
