"""Spanning tree counts tau of I-graphs by three routes, each a plain int,
plus the square split.

kirchhoff  - determinant of a principal minor of igraph's n x n circulant S,
             whose (n-1)-minors, like the Laplacian's, all equal tau
             (matrix-tree); exact, the small-n oracle.
resultant  - tau = n |det N_R| / (k^2 + l^2) with R = trace_poly(k, l), the
             paper's Laurent polynomial P = (x - 2) R(x) in x = z + 1/z, and
             N_R the (k+l-1) x (k+l-1) matrix of multiplication by
             V_n(x) - 2 = z^n + z^-n - 2 on Z[x]/(R), built from the Lucas
             ladder in O(log n) ring products.  Exact for any n, and the
             default for large n.
chebyshev  - tau = (-1)^((n-1)(k+l)) n prod (V_n(x) - 2)/(x - 2) over the
             certified roots x of R, with V_n from a Lucas ladder on the
             RootSet's Gaussian ints, never cut; returned only when its error
             bound proves the integer, a numerically independent cross-check.

Every count tau is divisible by n, is at least n^3, and splits as
tau = multiplier * n * a^2 with multiplier 6 when n is even and the exact
value of P(-1) is 24 (both steps odd), 1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .asymptotics import DEFAULT_PRECISION, disk_gap, poly_roots
from .bigmat import determinant
from .errors import InternalInconsistency, NotASquare, PrecisionExhausted
from .igraph import GraphParams, circulant_matrix
from .polyring import lucas_matrix, trace_poly


@dataclass(frozen=True)
class Decomposition:
    """tau = multiplier * n * a**2."""

    a: int
    multiplier: int


def tree_count_kirchhoff(p: GraphParams) -> int:
    """tau as the determinant of the circulant S with row and column 0
    deleted; raises InvalidParams above igraph.DENSE_CEILING."""
    det = determinant(circulant_matrix(p, minor=True))
    if det <= 0:
        raise InternalInconsistency(f"matrix-tree minor determinant {det} is not positive")
    return det


def tree_count_resultant(p: GraphParams) -> int:
    """Exact tau from R = trace_poly(k, l) in x = z + 1/z.

    n tau is the product of P = (x - 2) R(x) over the nontrivial n-th roots
    of unity, which is n^2 Res(R, V_n - 2) / R(2) up to sign, with
    Res(R, V_n - 2) = det N_R and R(2) = -(k^2 + l^2).
    """
    res = determinant(lucas_matrix(trace_poly(p.k, p.l), p.n))
    tau, rem = divmod(p.n * abs(res), p.k * p.k + p.l * p.l)
    if rem or tau <= 0:
        raise InternalInconsistency(
            f"n * |Res(R, V_n - 2)| = {p.n * abs(res)} is not a positive "
            f"multiple of k^2 + l^2 = {p.k * p.k + p.l * p.l}"
        )
    return tau


def _lucas(x: tuple, n: int, width: int) -> tuple:
    """V_n(x) = z^n + z^-n, x = z + 1/z = (re, im) at 2^-width, as (re, im, error bound).

    The ladder steps from V_j, V_j+1 (V_0 = 2, V_1 = x), by the bits of n
    from the top, to V_2j = V_j^2 - 2 and V_2j+1 = V_j V_j+1 - x, or to
    V_2j+1 and V_2j+2, on its own ints and not polyring.lucas_matrix, so
    the two counts witness each other.  Values off by e_p and e_q multiply
    to one off by at most |p| e_q + (|q| + e_q) e_p, |re| + |im| bounding a
    modulus, plus 3 units for the two cuts back to 2^-width.
    """
    def mul(p, q, sub):
        (pr, pi, pe), (qr, qi, qe) = p, q
        e = ((abs(pr) + abs(pi)) * qe + (abs(qr) + abs(qi) + qe) * pe >> width) + 3
        return ((pr * qr - pi * qi) >> width) - sub[0], ((pr * qi + pi * qr) >> width) - sub[1], e

    two = (2 << width, 0)
    lo, hi = (*two, 0), (*x, 0)
    for bit in bin(n)[2:]:
        lo, hi = (mul(lo, hi, x), mul(hi, hi, two)) if bit == "1" else (mul(lo, lo, two), mul(lo, hi, x))
    return lo


# perfbench/worker.py reads cache_info() by this name, so the old "quotient" name stays
@lru_cache(maxsize=None)
def _quotient_roots(k: int, l: int, precision_bits: int):
    return poly_roots(k, l, precision_bits)


def tree_count_chebyshev(p: GraphParams, precision_bits: int = DEFAULT_PRECISION) -> int:
    """tau from the Chebyshev closed formula on the certified roots of R, proved or refused.

    Each root's ints are shifted, exactly, to a Gaussian int c at 2^-W,
    W = max(the RootSet's width, precision_bits + 64 + 2 bit_length(n)), so
    F = sign n prod (V_n(c) - 2)/prod (c - 2) is exact.  Per root, _lucas's
    bound e moves it by a relative e/|V_n(c) - 2|, and the root of R within
    the certified radius r of c by expm1(r (n - 1)/disk_gap(c, r)), as
    f(x) = (V_n(x) - 2)/(x - 2) = prod_{0<j<n} (x - 2 cos(2 pi j/n)) has
    |f'/f| <= (n - 1)/dist(x, [-2, 2]).  V_n is real, so conj(V_n(c)) is
    within the same e of V_n(conj c): a conjugate pair takes one ladder.
    With S the sum of both terms over the roots, tau is within |F| S/(1 - S)
    of F; it is returned when that real interval holds one integer and the
    imaginary part of F lies within the bound, else PrecisionExhausted names
    the failed test.
    """
    rset = _quotient_roots(p.k, p.l, precision_bits)
    n, width = p.n, max(rset.width, precision_bits + 64 + 2 * p.n.bit_length())
    at = f" at {precision_bits} bits; increase precision_bits"
    unit, two = 1 << width, 2 << width
    # F's numerator ar + i ai (from sign n) and denominator dr + i di, and S at 2^-W
    ar, ai, dr, di, slack = -n if (n - 1) * (p.k + p.l) % 2 else n, 0, 1, 0, 0
    ladders = {}  # the conjugates of the (xr, xi) run so far -> V_n and e there
    for (xr, xi), r in zip(rset.roots, rset.radii, strict=True):
        xr, xi, r = (v << (width - rset.width) for v in (xr, xi, r))
        gap = disk_gap(xr, xi, r, width)  # at most dist(x, [-2, 2]) on the disk
        vr, vi, e = ladders[xr, xi] if (xr, xi) in ladders else _lucas((xr, xi), n, width)
        ladders[xr, -xi] = vr, -vi, e
        vr -= two
        size = isqrt(vr * vr + vi * vi)  # at most |V_n(c) - 2|
        # a disk meeting [-2, 2], or V_n(c) - 2 cut to 0, fails the test S < 1
        slack += -(r * (n - 1) * unit // -gap) - (e * unit // -size) if gap > 0 and size else unit
        ar, ai = ar * vr - ai * vi, ar * vi + ai * vr
        dr, di = dr * (xr - two) - di * xi, dr * xi + di * (xr - two)
    if slack >= unit:
        raise PrecisionExhausted("the count's relative error bound reaches 1" + at)
    # F = (nr + i ni)/den, and err/den >= |F| S/(1 - S)
    nr, ni, den = ar * dr + ai * di, ai * dr - ar * di, dr * dr + di * di
    err = -((abs(nr) + abs(ni)) * slack // (slack - unit))
    if abs(ni) > err:
        raise PrecisionExhausted("imaginary part of the count exceeds its error bound" + at)
    low, tau = -((err - nr) // den), (nr + err) // den
    if low != tau:
        raise PrecisionExhausted(f"count interval holds {max(tau - low + 1, 0)} integers{at}")
    if tau <= 0:
        raise InternalInconsistency(f"proved count {tau} is not positive")
    return tau


def decompose(tau: int, p: GraphParams) -> Decomposition:
    """Split the tree count tau of p as multiplier * n * a^2, exactly.

    The multiplier comes from P(-1) = (3 - 2(-1)^k)(3 - 2(-1)^l) - 1, which
    is 24 when both steps are odd and 4 otherwise (coprime steps are never
    both even): 24 combines with even n to force the factor 6.
    """
    multiplier = 6 if p.n % 2 == 0 and p.k % 2 and p.l % 2 else 1
    base, rem = divmod(tau, multiplier * p.n)
    if rem:
        raise NotASquare(
            f"tau={tau} is not divisible by multiplier*n = {multiplier * p.n}"
        )
    a = isqrt(base)
    if a * a != base:
        raise NotASquare(f"tau/(multiplier*n) = {base} is not a perfect square")
    return Decomposition(a, multiplier)
