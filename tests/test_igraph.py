from math import gcd

import pytest

import helpers
from igraphjac import normalize
from igraphjac.bigmat import IntMatrix, smith_normal_form
from igraphjac.errors import DisconnectedError, InvalidParams, LoopError
from igraphjac.igraph import DEGREE, GraphParams, circulant_matrix


class TestNormalize:
    def test_already_reduced(self):
        p = normalize(5, 1, 2)
        assert (p.n, p.k, p.l) == (5, 1, 2)

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


def adjacency(p):
    """A = DEGREE*I - L, read back off the Laplacian of the cubic graph."""
    lap = helpers.laplacian_matrix(p.n, p.k, p.l)
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
    lap = helpers.laplacian_matrix(6, 2, 3)
    assert all(sum(row) == 0 for row in lap)
    assert all(lap[i][i] == DEGREE for i in range(12))


def test_laplacian_matches_edge_list_build():
    for n, k, l in [(5, 1, 2), (4, 2, 3), (6, 1, 1), (9, 2, 3), (8, 3, 4), (10, 3, 4)]:
        lap = helpers.laplacian_matrix(n, k, l)
        edges = helpers.igraph_edge_list(n, k, l)
        assert lap == helpers.laplacian_from_edges(2 * n, edges)
        assert all(lap[i][j] == lap[j][i] for i in range(2 * n) for j in range(2 * n))
        assert all(sum(row) == 0 for row in lap)
    # I(4,2,3): step 2 on 4 vertices pairs i with i+2 twice, a doubled edge
    lap = helpers.laplacian_matrix(4, 2, 3)
    assert lap[0][2] == -2
    assert lap[1][3] == -2


def canonical_steps(n):
    return [(k, l) for k in range(1, n) for l in range(k, n) if gcd(k, l) == 1]


@pytest.mark.parametrize("n", range(3, 13))
def test_circulant_is_the_block_elimination_of_the_laplacian(n):
    # every canonical graph up to n = 12, steps of n/2 such as I(4,2,3) included
    for k, l in canonical_steps(n):
        lap = helpers.laplacian_matrix(n, k, l)
        a_k = IntMatrix([row[:n] for row in lap[:n]])
        a_l = IntMatrix([row[n:] for row in lap[n:]])
        assert all(lap[i][n + j] == -(i == j) for i in range(n) for j in range(n))
        product = helpers.mat_mul(a_l, a_k).to_lists()
        s = circulant_matrix(GraphParams(n, k, l))
        assert s.to_lists() == [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(product)]
        # coker S = coker L: L is equivalent to I_n + S
        assert smith_normal_form(IntMatrix(lap)) == (1,) * n + smith_normal_form(s)


@pytest.mark.parametrize("n,k,l", [(5, 1, 2), (4, 2, 3), (8, 3, 4), (9, 2, 3), (10, 3, 5), (12, 5, 7)])
def test_circulant_minors_are_the_kirchhoff_minor(n, k, l):
    s = circulant_matrix(GraphParams(n, k, l)).to_lists()
    assert all(s[i][j] == s[j][i] for i in range(n) for j in range(n))
    assert all(sum(row) == 0 for row in s)
    tau = helpers.tree_count_kirchhoff_fractions(2 * n, helpers.igraph_edge_list(n, k, l))
    for i in range(n):
        minor = [row[:i] + row[i + 1 :] for j, row in enumerate(s) if j != i]
        assert helpers.det_fractions(minor) == tau


@pytest.mark.parametrize("n", range(3, 13))
def test_circulant_minor_drops_row_and_column_zero(n):
    for k, l in canonical_steps(n):
        p = GraphParams(n, k, l)
        s = circulant_matrix(p).to_lists()
        minor = circulant_matrix(p, minor=True)
        assert (minor.rows, minor.cols) == (n - 1, n - 1)
        assert minor.to_lists() == [row[1:] for row in s[1:]]
