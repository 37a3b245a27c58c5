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
             roots x of R, with V_n(x) = z^n + z^-n evaluated in place from
             z = (x + s)/2, s = sqrt(x^2 - 4); floating point with a
             rounding guard, mainly a numerically independent cross-check.
             The growth constant in asymptotics reads the same roots and the
             same s.

Every count tau is divisible by n, is at least n^3, and splits as
tau = multiplier * n * a^2 with multiplier 6 when n is even and the exact
value of P(-1) is 24 (both steps odd), 1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import mpmath
from mpmath import mp

from .asymptotics import DEFAULT_PRECISION, poly_roots
from .bigmat import determinant
from .errors import InternalInconsistency, NotASquare, PrecisionExhausted
from .igraph import GraphParams, circulant_matrix
from .polyring import lucas_matrix, trace_poly

ROUNDING_GUARD = 0.25
# Largest count magnitude, in bits above precision_bits, that rounding may
# accept.  poly_roots proves every root within a radius of at most
# 2^-(precision_bits + 64), but the count rounds them to precision_bits +
# 64 bits and raises them to the n-th power, so it holds about
# precision_bits + 50 bits, and a count within ~12 bits of that has noise
# near its units digit that still lands within ROUNDING_GUARD of some
# integer about half the time: on a grid of k <= 5, l <= 7, n < 260 at
# 64-256 bits, 41 of 4284 counts were wrong, all with bit lengths in
# [bits + 48, bits + 64), none at or below bits + 48.
COUNT_HEADROOM_BITS = 40


@dataclass(frozen=True)
class Decomposition:
    """tau = multiplier * n * a**2."""

    a: int
    multiplier: int


def _sign(p: GraphParams) -> int:
    return -1 if ((p.n - 1) * (p.k + p.l)) % 2 else 1


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


# perfbench/worker.py reads cache_info() by this name, so the old "quotient" name stays
@lru_cache(maxsize=None)
def _quotient_roots(k: int, l: int, precision_bits: int):
    return poly_roots(k, l, precision_bits).roots


def tree_count_chebyshev(p: GraphParams, precision_bits: int = DEFAULT_PRECISION) -> int:
    """tau from the Chebyshev closed formula in floating point, rounded to an int.

    Rounding is only accepted when the value has at most precision_bits +
    COUNT_HEADROOM_BITS bits and sits within ROUNDING_GUARD of an integer
    (and its imaginary part is just as small); otherwise PrecisionExhausted
    asks the caller for more bits.
    """
    roots = _quotient_roots(p.k, p.l, precision_bits)
    with mp.workprec(precision_bits + 64):
        acc = mp.mpc(1)
        for x in roots:
            x = mp.mpc(x)
            s = mpmath.sqrt(x * x - 4)
            v_n = ((x + s) / 2) ** p.n + ((x - s) / 2) ** p.n
            acc *= (v_n - 2) / (x - 2)
        signed = _sign(p) * p.n * acc
        value = mp.re(signed)
        distance = max(abs(value - mpmath.nint(value)), abs(mp.im(signed)))
        # past COUNT_HEADROOM_BITS the root error reaches the units digit
        # and the distance test below stops meaning anything
        if value != 0 and mpmath.mag(value) > precision_bits + COUNT_HEADROOM_BITS:
            raise PrecisionExhausted(
                f"count magnitude 2^{mpmath.mag(value)} leaves no headroom "
                f"at {precision_bits} bits; increase precision_bits"
            )
        if distance >= ROUNDING_GUARD:
            raise PrecisionExhausted(
                f"count is not within {ROUNDING_GUARD} of an integer at "
                f"{precision_bits} bits; increase precision_bits"
            )
        tau = int(mpmath.nint(value))
    if tau <= 0:
        raise PrecisionExhausted(f"rounded count {tau} is not positive")
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
