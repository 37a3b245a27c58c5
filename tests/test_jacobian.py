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
from igraphjac.bigmat import SmithForm
from igraphjac.errors import InternalInconsistency, InvalidParams
from igraphjac.igraph import GraphParams
from igraphjac.jacobian import LAPLACIAN_GATE, AbelianGroup, group_from_smith, rank_bounds_report
from igraphjac.treecount import TreeCount


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
    def test_strips_units_and_zero(self):
        g = group_from_smith(SmithForm((1, 1, 7, 28, 0)))
        assert g.torsion == (7, 28)
        assert g.free_rank == 1

    def test_requires_exactly_one_zero(self):
        with pytest.raises(InternalInconsistency):
            group_from_smith(SmithForm((1, 7)))
        with pytest.raises(InternalInconsistency):
            group_from_smith(SmithForm((7, 0, 0)))


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


@pytest.mark.parametrize("scale", [2, 3])
def test_companion_rejects_a_wrong_count(monkeypatch, scale):
    # the Smith form over Z[z]/(P) must reproduce the count from Z[x]/(R)
    def wrong_count(p):
        return TreeCount(scale * tree_count_resultant(p).tau)

    monkeypatch.setattr(igraphjac.jacobian, "tree_count_resultant", wrong_count)
    with pytest.raises(InternalInconsistency):
        jacobian_via_companion(GraphParams(12, 3, 4))


def test_laplacian_gate():
    # the gate only steers the command line's auto method; the dense routes
    # stop at the ceiling
    p = GraphParams(LAPLACIAN_GATE + 1, 2, 3)
    assert jacobian_via_laplacian(p) == jacobian_via_companion(p)
    big = GraphParams(DENSE_CEILING + 1, 2, 3)
    for dense_route in (jacobian_via_laplacian, tree_count_kirchhoff):
        with pytest.raises(InvalidParams, match="ceiling"):
            dense_route(big)


def test_order_counts_spanning_trees():
    # independent Fraction Kirchhoff count on the same graph
    p = GraphParams(7, 2, 3)
    edges = helpers.igraph_edge_list(7, 2, 3)
    assert jacobian_via_companion(p).order == helpers.tree_count_kirchhoff_fractions(14, edges)


def test_rank_bounds_report():
    p = GraphParams(17, 2, 3)
    g = jacobian_via_companion(p)
    report = rank_bounds_report(p, g)
    assert report["lower"] == 2
    assert report["upper"] == 2 * p.k + 2 * p.l - 1 == 9
    assert report["rank"] == g.rank
    assert report["lower_ok"] and report["upper_ok"]


def test_petersen_is_5_1_2():
    # the (5,1,2) graph is the classical one; its group is Z2 + (Z10)^3
    g = jacobian_via_laplacian(GraphParams(5, 1, 2))
    assert g.torsion == (2, 10, 10, 10)
    assert g.order == 2000
