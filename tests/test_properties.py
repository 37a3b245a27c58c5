"""Derandomized property tests over random connected I-graphs.

Every exact route must agree on every graph: the ring-kernel routes with
the Laplacian/Kirchhoff routes, and both with outside oracles (sympy's Smith
normal form, networkx's spanning tree count) where those are installed.
The Chebyshev count's Lucas ladder and the root product's fixed-point
squares stay within their own rounding bounds, and the Euclid pair
reduction modulo m gives the Smith form over Z modulo m.
"""

import math
from unittest import mock

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
import igraphjac.asymptotics
from igraphjac.asymptotics import RootSet, disk_gap, mahler_constant
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


# moduli that mix the small primes, on which Euclid's algorithm stalls,
# with one above 2^10, on which it mostly runs through
MODULI = st.builds(
    lambda a, b, c, e, big: 2**a * 3**b * 5**c * 7**e * big,
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from([1, 1031, 65537, 2**61 - 1]),
).filter(lambda m: m > 1)


@st.composite
def _pairs(draw):
    d = draw(st.integers(1, 6))
    middle = draw(st.lists(st.integers(-9, 9), min_size=d - 1, max_size=d - 1))
    f = [draw(st.sampled_from([1, -1]))] + middle
    g = draw(st.lists(st.integers(-10**4, 10**4), max_size=d - 1))
    return tuple(f + [1]), g + [draw(st.integers(1, 10**4))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pairs(), MODULI)
def test_pair_reduction_matches_the_smith_form(pair, m):
    # monic f with f(0) = +-1 makes z a unit modulo f, so the shifts run;
    # the factors must be gcd(d_i, m) for the Smith form over Z of
    # multiplication by g on Z[z]/(f)
    f, g = pair
    assert helpers.pair_factors(f, g, m) == helpers.pair_factors_over_z(f, g, m)


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.floats(-8, 8), st.floats(-8, 8), st.integers(-(2**20), 2**20), st.integers(0, 2), st.integers(0, 192)
)
def test_root_product_square_within_its_rounding(re, im, jitter, shape, bits):
    # one root x off [-2, 2] as the whole root set: value^2 is q^2 =
    # max(|z|, 1/|z|)^2 from two isqrt calls on x's ints at W bits, within
    # 2^-(W - 6) of q^2 at 2W bits, plus the final sqrt's rounding at W + 64
    # bits; shapes 1 and 2 put x within 2^20 units of [-2, 2], above it or
    # beyond its end, where sqrt(m^2 - 4) magnifies the floors most
    width = bits + 80
    a = (2 << width) + abs(jitter) if shape == 2 else int(mpmath.ldexp(re, width))
    b = jitter if shape == 1 else 0 if shape == 2 else int(mpmath.ldexp(im, width))
    assume(disk_gap(a, b, 0, width) >= 1)
    rset = RootSet(width, ((a, b),), (0,), mpmath.mpf(0))
    with mock.patch.object(igraphjac.asymptotics, "poly_roots", lambda k, l, precision_bits: rset):
        value = mahler_constant(1, 1, precision_bits=width).value
    with mpmath.workprec(2 * width + 32):
        x = mpmath.mpc(mpmath.ldexp(a, -width), mpmath.ldexp(b, -width))
        z = (x + mpmath.sqrt(x * x - 4)) / 2
        square = max(abs(z), 1 / abs(z)) ** 2
        rounding = mpmath.mpf(2) ** -(width - 6) + mpmath.mpf(2) ** -(width + 60)
        assert abs(value**2 / square - 1) <= rounding
