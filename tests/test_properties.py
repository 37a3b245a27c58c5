"""Derandomized property tests over random connected I-graphs.

Every exact route must agree on every graph: the ring-kernel routes with
the Laplacian/Kirchhoff routes, and both with outside oracles (sympy's Smith
normal form, networkx's spanning tree count) where those are installed.
The Chebyshev count's Lucas ladder stays within its own rounding bound.
"""

import math

import mpmath
import pytest

import helpers
from igraphjac import (
    jacobian_via_companion,
    jacobian_via_laplacian,
    normalize,
    tree_count_kirchhoff,
    tree_count_resultant,
)
from igraphjac.errors import InvalidParams
from igraphjac.treecount import _lucas

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

try:
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
except ImportError:
    sympy_snf = None

try:
    import networkx
except ImportError:
    networkx = None

SMALL_GRAPHS = st.tuples(st.integers(3, 12), st.integers(1, 11), st.integers(1, 11))


def _graph(raw):
    try:
        return normalize(*raw)
    except InvalidParams:  # loops, disconnected, non-coprime steps
        assume(False)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(SMALL_GRAPHS)
def test_jacobian_routes_agree(raw):
    p = _graph(raw)
    group = jacobian_via_companion(p)
    assert group == jacobian_via_laplacian(p)
    if sympy_snf is not None:
        diag = sympy_snf(Matrix(helpers.laplacian_matrix(p.n, p.k, p.l)), domain=ZZ)
        factors = [abs(int(diag[i, i])) for i in range(diag.rows)]
        assert factors.count(0) == group.free_rank
        assert tuple(d for d in factors if d > 1) == group.torsion


@settings(derandomize=True, max_examples=30, deadline=None)
@given(SMALL_GRAPHS)
def test_tree_counts_agree(raw):
    p = _graph(raw)
    tau = tree_count_resultant(p)
    assert tau == tree_count_kirchhoff(p)
    if networkx is not None:
        graph = networkx.MultiGraph(helpers.igraph_edge_list(p.n, p.k, p.l))
        assert math.isclose(networkx.number_of_spanning_trees(graph), tau, rel_tol=1e-9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(-6, 6), st.floats(-3, 3), st.integers(1, 2000), st.integers(0, 192))
def test_lucas_ladder_within_its_bound(re, im, n, bits):
    # V_n(x) at W bits against z^n + z^-n at 2W bits, for x off [-2, 2]
    assume(max(abs(re) - 2, 0) + abs(im) > 1e-6)
    width = bits + 64 + 2 * n.bit_length()
    x = (int(mpmath.ldexp(re, width)), int(mpmath.ldexp(im, width)))
    vr, vi, e = _lucas(x, n, width)
    with mpmath.workprec(2 * width):
        c = mpmath.mpc(mpmath.ldexp(x[0], -width), mpmath.ldexp(x[1], -width))
        z = (c + mpmath.sqrt(c * c - 4)) / 2
        exact = (z**n + z**-n) * mpmath.mpf(2) ** width
        assert abs(mpmath.mpc(vr, vi) - exact) <= e
