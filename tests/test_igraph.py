import pytest

import helpers
from igraphjac import normalize
from igraphjac.errors import DisconnectedError, InvalidParams, LoopError
from igraphjac.igraph import DEGREE, GraphParams, laplacian_matrix


class TestNormalize:
    def test_already_reduced(self):
        p = normalize(5, 1, 2)
        assert (p.n, p.k, p.l) == (5, 1, 2)
        # flag records whether anything changed
        assert not p.normalized
        assert normalize(5, 2, 4).normalized

    def test_steps_reduced_mod_n(self):
        assert normalize(5, 8, 1) == GraphParams(5, 1, 3)
        assert normalize(7, 1, 13) == GraphParams(7, 1, 6)

    def test_negative_step_wraps(self):
        # -1 = 4 (mod 5), then gcd(2,4) cancels: the Petersen graph again
        assert normalize(5, -1, 2) == GraphParams(5, 1, 2)

    def test_steps_swap_to_sorted(self):
        p = normalize(7, 5, 2)
        assert (p.k, p.l) == (2, 5)

    def test_common_factor_with_n_disconnects(self):
        with pytest.raises(DisconnectedError) as info:
            normalize(6, 2, 4)
        assert info.value.m == 2
        with pytest.raises(DisconnectedError) as info:
            normalize(9, 3, 6)
        assert info.value.m == 3

    def test_step_multiple_of_n_is_a_loop(self):
        with pytest.raises(LoopError):
            normalize(6, 6, 1)
        with pytest.raises(LoopError):
            normalize(4, 3, 8)
        with pytest.raises(LoopError):
            normalize(5, 0, 2)

    def test_common_step_factor_cancels(self):
        assert normalize(5, 2, 4) == GraphParams(5, 1, 2)
        assert normalize(11, 4, 6) == GraphParams(11, 2, 3)

    def test_n_below_three_rejected(self):
        with pytest.raises(InvalidParams):
            normalize(2, 1, 1)

    def test_order_of_checks_disconnection_before_cancel(self):
        # gcd(n, k, l) wins over gcd(k, l): I(6,2,4) must not sneak
        # through as I(6,1,2)
        with pytest.raises(DisconnectedError):
            normalize(6, 4, 2)


class TestGraphParams:
    def test_str_form(self):
        assert str(GraphParams(5, 1, 2)) == "I(5,1,2)"

    def test_rejects_unsorted_steps(self):
        with pytest.raises(InvalidParams):
            GraphParams(7, 5, 2)

    def test_rejects_common_step_factor(self):
        with pytest.raises(InvalidParams):
            GraphParams(10, 2, 4)

    def test_rejects_out_of_range_steps(self):
        with pytest.raises(InvalidParams):
            GraphParams(5, 1, 5)
        with pytest.raises(InvalidParams):
            GraphParams(5, 0, 2)

    def test_rejects_bool(self):
        with pytest.raises(InvalidParams):
            GraphParams(5, True, 2)

    def test_normalized_flag_not_part_of_identity(self):
        assert GraphParams(5, 1, 2) == GraphParams(5, 1, 2, normalized=True)


def adjacency(p):
    """A = DEGREE*I - L, read back off the Laplacian of the cubic graph."""
    lap = laplacian_matrix(p).to_lists()
    return [[(DEGREE if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(lap)]


@pytest.mark.parametrize("n,k,l", [(5, 1, 2), (4, 2, 3), (6, 1, 1), (9, 2, 3), (8, 3, 4)])
def test_adjacency_matches_edge_list(n, k, l):
    p = GraphParams(n, k, l)
    edges = helpers.igraph_edge_list(n, k, l)
    assert adjacency(p) == helpers.adjacency_from_edges(2 * n, edges)


def test_adjacency_is_symmetric_and_cubic():
    p = GraphParams(7, 2, 3)
    a = adjacency(p)
    assert all(a[i][j] == a[j][i] for i in range(14) for j in range(14))
    assert all(sum(row) == DEGREE for row in a)
    assert all(a[i][i] == 0 for i in range(14))


def test_half_n_step_doubles_the_edge():
    # I(4,2,3): step 2 on 4 vertices pairs i with i+2 twice
    a = adjacency(GraphParams(4, 2, 3))
    assert a[0][2] == 2
    assert a[1][3] == 2


def test_laplacian_rows_sum_to_zero():
    p = GraphParams(6, 2, 3)
    lap = laplacian_matrix(p).to_lists()
    assert all(sum(row) == 0 for row in lap)
    assert all(lap[i][i] == DEGREE for i in range(12))


def test_laplacian_matches_edge_list_build():
    for n, k, l in [(5, 1, 2), (4, 2, 3), (6, 1, 1), (9, 2, 3), (8, 3, 4), (10, 3, 4)]:
        lap = laplacian_matrix(GraphParams(n, k, l)).to_lists()
        edges = helpers.igraph_edge_list(n, k, l)
        assert lap == helpers.laplacian_from_edges(2 * n, edges)
        assert all(lap[i][j] == lap[j][i] for i in range(2 * n) for j in range(2 * n))
        assert all(sum(row) == 0 for row in lap)
    # I(4,2,3): step 2 on 4 vertices pairs i with i+2 twice, a doubled edge
    lap = laplacian_matrix(GraphParams(4, 2, 3)).to_lists()
    assert lap[0][2] == -2
    assert lap[1][3] == -2
