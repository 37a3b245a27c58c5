import pytest

import helpers
import igraphjac.jacobian
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
        with pytest.raises(ValueError):
            AbelianGroup((1, 2), 0)

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            AbelianGroup((4, 6), 0)

    def test_rejects_negative_free_rank(self):
        with pytest.raises(ValueError):
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


@pytest.mark.parametrize("params,torsion", KNOWN_GROUPS)
def test_companion_falls_back_to_tau(monkeypatch, params, torsion):
    # D = multiplier * n with a = 1 is too small: the second try, modulo
    # tau, must still give the group
    def split_with_a_one(tau, p):
        return Decomposition(1, decompose(tau, p).multiplier)

    monkeypatch.setattr(igraphjac.jacobian, "decompose", split_with_a_one)
    moduli = _count_smith_calls(monkeypatch)
    assert jacobian_via_companion(params).torsion == torsion
    assert moduli[-1] == tree_count_resultant(params)
    assert len(moduli) == 2


def test_companion_takes_one_smith_form_per_graph(monkeypatch):
    # D = multiplier * n * a was a multiple of the exponent on every graph
    # tried, so the fallback modulo tau never runs
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
        assert moduli[-1] == dec.multiplier * p.n * dec.a
        assert moduli[-1] % exponent == 0
    assert len(moduli) == computed > 300


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
