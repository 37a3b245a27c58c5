"""Tree-growth constants: root products, Mahler integrals, limit ratios.

The spanning tree count of I(n, k, l) grows like (n / (k^2 + l^2)) * A^n
where A is the product of the roots of spectral_poly(k, l) lying outside the
unit circle.  The root product reads them off the k+l-1 roots x of
trace_poly(k, l), the polynomial in x = z + 1/z that the Chebyshev tree
count also roots: each x stands for the pair z, 1/z with
z = (x + sqrt(x^2 - 4))/2.  A equals the Mahler measure of the polynomial,
so it can also be computed as exp of the average of log|P| over the unit
circle; the two routes check each other.  The average is a periodic
trapezoidal rule: by Jensen's formula dividing P by |1 - z|^2 leaves the
mean unchanged and removes the zero at z = 1, so the rule converges
geometrically, and its N-node product is (k^2 + l^2) tau(I(N, k, l)) / N.

Roots come from mpmath.polyroots, a Durand-Kerner iteration, which needs
distinct roots; R always has them.  It starts from roots that a short
Aberth iteration in complex floats has already placed near their targets,
so it only has to polish them to the requested bits; polyroots alone
decides convergence, and an iteration that does not settle raises
ConvergenceFailure.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import mpmath
from mpmath import mp

from .errors import (
    ClassificationFailure,
    ConvergenceFailure,
    InvalidParams,
    QuadratureFailure,
)
from .polyring import _check_steps, _int_coeffs, trace_poly

if TYPE_CHECKING:  # pragma: no cover
    from .igraph import GraphParams

DEFAULT_PRECISION = 256
MIN_PRECISION = 32


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial, sorted by (Re, Im).

    residual_bound is the largest |p(root)| after dividing p by its largest
    coefficient, i.e. a backward-error figure for the whole set.
    """

    roots: tuple
    residual_bound: object


@dataclass(frozen=True)
class RealApprox:
    """A real value together with a first-order bound on its error."""

    value: object
    error_bound: object


# Durand-Kerner sweeps allowed per bit of precision, and the guard bits the
# iteration and the returned roots carry beyond precision_bits on top of the
# bit length of the polynomial's largest coefficient
SWEEPS_PER_BIT = 4
GUARD_BITS = 64
# Most Aberth sweeps the float start may take; trace_poly(40, 41), of degree
# 80, takes 107
START_SWEEPS = 160
# Most nodes mahler_integral's trapezoidal rule may use.  Near the cap its
# chord table holds 2^19 + 1 ints of about 64 bytes each at 128 bits (80 at
# 256); (1,1) run to 2^20 nodes took 1.2 s and 74 MB of RSS at 128 bits,
# 2.3 s and 86 MB at 256 (2-core Xeon, Python 3.11)
NODE_CAP = 1 << 20


def _check_precision(precision_bits: int):
    if (
        not isinstance(precision_bits, int)
        or isinstance(precision_bits, bool)
        or precision_bits < MIN_PRECISION
    ):
        raise InvalidParams(f"precision_bits must be an int of at least {MIN_PRECISION}")


def _float_start(coeffs: list[int]) -> list | None:
    """Start points for polyroots from an Aberth iteration in complex floats.

    coeffs run from the leading term down to a nonzero constant.  The
    iteration starts on a circle of radius 2 max |c_i|^(1/i), Fujiwara's
    bound on the roots of the monic polynomial with coefficients c_i, and
    freezes a root once |p| there is at most eps sum |c_i| |z|^i, the scale
    of the rounding error of Horner's rule.  None means no start: the degree
    is below 1, a coefficient overflows a float, a value goes non-finite, or
    a root has not settled after START_SWEEPS sweeps.
    """
    deg = len(coeffs) - 1
    if deg < 1:
        return None
    try:
        monic = [c / coeffs[0] for c in coeffs]
        radius = 2 * max(abs(c) ** (1 / i) for i, c in enumerate(monic) if i)
        roots = [cmath.rect(radius, 2 * math.pi * (i + 0.25) / deg) for i in range(deg)]
        settled = [False] * deg
        for _ in range(START_SWEEPS):
            for i, z in enumerate(roots):
                if settled[i]:
                    continue
                p = dp = 0j
                size, az = 0.0, abs(z)
                for c in monic:
                    dp = dp * z + p
                    p = p * z + c
                    size = size * az + abs(c)
                if abs(p) <= sys.float_info.epsilon * size:
                    settled[i] = True
                    continue
                w = p / dp
                w /= 1 - w * sum(1 / (z - r) for j, r in enumerate(roots) if j != i)
                roots[i] = z - w
                if not cmath.isfinite(roots[i]):
                    return None
            if all(settled):
                return [mp.mpc(z) for z in roots]
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def poly_roots(poly: tuple[int, ...], precision_bits: int = DEFAULT_PRECISION) -> RootSet:
    """All roots of an integer polynomial, ascending int coefficients, with distinct roots.

    mpmath.polyroots runs Durand-Kerner with a guard of GUARD_BITS plus the
    bit length of the largest coefficient beyond precision_bits, and rounds
    the roots to precision_bits + guard, the precision callers use them at.
    The coefficient term pays for the cancellation in evaluating a
    polynomial whose coefficients dwarf its values near the roots:
    trace_poly(40, 41) stalls for its whole sweep cap with a fixed 64-bit
    guard.  Zero roots are split off before the iteration and come back
    exactly 0, as does the imaginary part of a real root.  The iteration
    starts from _float_start's float roots, which cut its sweeps several
    times over, or from polyroots' own start where there are none; the
    start changes neither its tolerance nor its sweep cap.  A zero leading
    coefficient raises InvalidParams, and ConvergenceFailure means the
    iteration did not settle within its sweep cap.  A repeated root
    (spectral_poly's double root at z = 1, say) stalls it near sqrt(eps): it
    may then raise ConvergenceFailure or land anyway, so only distinct roots
    are promised.
    """
    poly = _int_coeffs(poly)
    if not any(poly[-1:]):
        raise InvalidParams(f"leading coefficient of {poly!r} is 0")
    _check_precision(precision_bits)
    scale = max(abs(c) for c in poly)
    guard = GUARD_BITS + scale.bit_length()
    zeros = next(i for i, c in enumerate(poly) if c)
    coeffs = poly[zeros:][::-1]
    start = _float_start(coeffs)
    with mp.workprec(precision_bits + guard):
        try:
            found = [mp.mpf(0)] * zeros + mpmath.polyroots(
                coeffs,
                maxsteps=128 + SWEEPS_PER_BIT * precision_bits,
                extraprec=guard,
                roots_init=start,
            )
        except mp.NoConvergence as exc:
            raise ConvergenceFailure(
                f"Durand-Kerner iteration stalled on degree {len(poly) - 1} "
                f"at {precision_bits} bits"
            ) from exc
        values = (abs(mpmath.polyval(poly[::-1], z)) for z in found)
        residual = max(values, default=mp.mpf(0)) / scale
        found.sort(key=lambda z: (mp.re(z), mp.im(z)))
    return RootSet(tuple(found), residual)


def mahler_constant(k: int, l: int, precision_bits: int = DEFAULT_PRECISION) -> RealApprox:
    """Product of the roots of spectral_poly(k, l) outside the unit circle.

    Each root x of trace_poly(k, l) stands for the pair of roots
    z = (x +- s)/2, s = sqrt(x^2 - 4), of spectral_poly, whose product is 1,
    so the outer one contributes max(|z|, 1/|z|) with z = (x + s)/2.  The
    double root at z = 1 is the known root x = 2 divided out of R.  A factor
    within 2^(-precision_bits/4) of 1 (x on or near [-2, 2]) raises
    ClassificationFailure.  A Newton correction dx moves |z| by a relative
    |dx| / |s|, which carries the error bound; a root where R' is 0 has
    none, since it is a repeated root, and raises ConvergenceFailure.
    """
    trace = trace_poly(k, l)
    rset = poly_roots(trace, precision_bits)
    with mp.workprec(precision_bits + 64):
        margin = mp.mpf(2) ** (-(precision_bits // 4))
        cs = trace[::-1]
        value = mp.mpf(1)
        err_rel = mp.mpf(0)
        for x in rset.roots:
            x = mp.mpc(x)
            s = mpmath.sqrt(x * x - 4)
            r = abs((x + s) / 2)
            factor = max(r, 1 / r)
            if factor <= 1 + margin:
                raise ClassificationFailure(
                    f"root pair of modulus {mpmath.nstr(r, 20)} too close to the unit circle"
                )
            value *= factor
            q, dq = mpmath.polyval(cs, x, derivative=True)
            if dq == 0:
                raise ConvergenceFailure(
                    f"root {mpmath.nstr(x, 20)} is repeated: R' vanishes there"
                )
            err_rel += abs(q / dq) / abs(s)
        floor = mp.mpf(2) ** (-(precision_bits - 8))
        bound = value * (16 * err_rel + floor)
    return RealApprox(value, bound)


def _chord_table(n: int, scale: int) -> list[int]:
    """floor(4 sin^2(pi m/n) 2^scale) for 0 <= m <= n/2, from sinpi."""
    with mp.workprec(scale + 16):
        return [
            int(mpmath.ldexp(mpmath.sinpi(mp.mpf(m) / n) ** 2, scale + 2))
            for m in range(n // 2 + 1)
        ]


def _halve_angles(q: list[int], scale: int) -> list[int]:
    """The chord table for 2n nodes at 2^(scale+2) from the one for n nodes at 2^scale, n even.

    Old entries move to the even indices, shifted exactly.  For odd m <= n/2
    the half-angle formulas put c = 2 + sqrt(q[n/2 - m]) = 4 cos^2(pi m/2n)
    at n - m and q[m] / c = 4 sin^2(pi m/2n) at m; nothing cancels, so with
    one floor per isqrt and per division a doubling adds a few ulps of
    relative error.
    """
    h = len(q) - 1
    out = [0] * (2 * h + 1)
    out[::2] = [x << 2 for x in q]
    two = 2 << scale
    for m in range(1, h + 1, 2):
        c = two + math.isqrt(q[h - m] << scale)
        out[m] = (q[m] << (scale + 2)) // c
        out[2 * h - m] = c << 2
    return out


def _node_product(k: int, l: int, n: int, q: list[int], scale: int, acc=(1, 0), step: int = 1):
    """acc times the product of P(w^j) over j = 1, 1 + step, ... below n/2, w = e^(2 pi i/n).

    P = spectral_poly(k, l) up to the unit z^(k+l), real on the unit circle,
    where it is u + v + uv with u = 4 sin^2(pi k j/n), v = 4 sin^2(pi l j/n),
    read from the chord table q at 2^scale at kj and lj mod n folded into
    [0, n/2].  ((u + v) << scale) + uv is then P 2^(2 scale) exactly.  acc
    and the result are pairs (man, exp) standing for man 2^exp; after each
    node man is cut back to scale + 8 bits, which adds under 2^-(scale+7) of
    relative error.
    """
    man, exp = acc
    keep = scale + 8
    nodes = range(1, (n + 1) // 2, step)
    for j in nodes:
        a, b = k * j % n, l * j % n
        u, v = q[min(a, n - a)], q[min(b, n - b)]
        man *= ((u + v) << scale) + u * v
        shift = man.bit_length() - keep
        man >>= shift
        exp += shift
    return man, exp - 2 * scale * len(nodes)


def mahler_integral(k: int, l: int, precision_bits: int = DEFAULT_PRECISION) -> RealApprox:
    """exp of the mean of log|spectral_poly| over the unit circle.

    On the circle z = e^(2 pi i t) the polynomial is P(t) = u + v + uv with
    u = 4 sin^2(pi k t) and v = 4 sin^2(pi l t), positive except for the
    double zero at t = 0.  By Jensen's formula the mean of log s, with
    s = 4 sin^2(pi t) = |1 - z|^2, is 0, so the mean of log P equals the
    mean of f = log(P / s).  f is even, 1-periodic and analytic (its value
    at t = 0 is log(k^2 + l^2)), so the N-node trapezoidal rule
    T_N = (1/N) sum_j f(j/N) converges geometrically in N.

    The node sum is exact arithmetic in disguise: with w = e^(2 pi i/N),
    prod_{0<j<N} P(w^j) / |1 - w^j|^2 = tau(I(N, k, l)) / N, so
    T_N = log((k^2 + l^2) tau(I(N, k, l)) / N) / N.  The s factors multiply
    to N^2, so they are divided out once, not per node; the nodes pair up as
    t and 1 - t, so only j < N/2 is evaluated and the half product squared.

    The nodes run on Python ints in fixed point.  They read u and v from one
    table of floor(4 sin^2(pi m/N) 2^W), 0 <= m <= N/2, with
    W = precision_bits + 32 + 2 bit_length(N).  sinpi fills the table at
    the first N and _halve_angles refines it at each doubling, so a node
    costs three int multiplications, and the table takes about 60 bytes per
    entry at 128 bits: 1.2 MB for the 41472 nodes of (40, 41).

    Error accounting: each floor costs at most 1 ulp at 2^W, which the
    2 bit_length(N) term keeps under 2^-(precision_bits+32) of even the
    smallest chord, about (2 pi/N)^2.  A doubling adds a few such ulps to an
    entry, relative to itself, and a node cancels nothing, since u, v and
    uv are positive.  Cutting the product back to W + 8 bits costs under
    2^-(W+7) per node, so the product of at most NODE_CAP/2 nodes stays
    within 2^-(precision_bits+12) of the exact one, relative.  It becomes
    an mpf once per level, for the log.

    N starts at 2(k + l), and each doubling evaluates only the new odd
    nodes.  It stops once |T_2N - T_N| <= 2^(-precision_bits/2) and that
    difference has shrunk since the previous doubling; the bound is
    value * (100 |T_2N - T_N| + 2^(-(precision_bits - 8))).  A rule that
    would need more than NODE_CAP nodes raises QuadratureFailure.  The log
    and exp work at precision_bits + 32, and nothing is shared with the
    root product.
    """
    _check_steps(k, l)
    _check_precision(precision_bits)
    n = 2 * (k + l)
    scale = precision_bits + 32 + 2 * n.bit_length()
    q = _chord_table(n, scale)
    acc = _node_product(k, l, n, q, scale)
    with mp.workprec(precision_bits + 32):
        # node t = 0 contributes k^2 + l^2, node t = 1/2 contributes P(-1) / 4;
        # for even n the s factors over 0 < j < n/2 multiply to n/2
        ends = (k * k + l * l) * (6 if k % 2 and l % 2 else 1)
        prev = mpmath.log(ends * (mp.mpf(acc) / (n // 2)) ** 2) / n
        tolerance = mp.mpf(2) ** (-(precision_bits // 2))
        last = None
        while True:
            if 2 * n > NODE_CAP:
                raise QuadratureFailure(
                    f"trapezoidal rule not within {mpmath.nstr(tolerance, 5)} "
                    f"at {n} nodes, and NODE_CAP = {NODE_CAP} allows no doubling"
                )
            q = _halve_angles(q, scale)
            scale += 2
            n *= 2
            acc = _node_product(k, l, n, q, scale, acc, step=2)
            mean = mpmath.log(ends * (mp.mpf(acc) / (n // 2)) ** 2) / n
            diff = abs(mean - prev)
            if diff <= tolerance and last is not None and diff < last:
                break
            prev, last = mean, diff
        value = mpmath.exp(mean)
        bound = value * (100 * diff + mp.mpf(2) ** (-(precision_bits - 8)))
    return RealApprox(value, bound)


def asymptotic_ratio(p: "GraphParams", tau: int, approx: RealApprox) -> RealApprox:
    """tau * (k^2 + l^2) / (n * A^n) for the tree count tau of p and A =
    approx; it tends to 1 as n grows."""
    with mp.workprec(64):
        # enough bits to place A^n and tau, plus slack for the quotient
        magnitude = int(mpmath.ceil(p.n * mpmath.log(mp.mpf(approx.value), 2))) + 1
    bits = max(192, magnitude + 96)
    with mp.workprec(bits):
        a = mp.mpf(approx.value)
        ratio = mp.mpf(tau) * (p.k**2 + p.l**2) / (p.n * a**p.n)
        rel = p.n * (mp.mpf(approx.error_bound) / a)
        bound = abs(ratio) * (rel * mp.mpf("1.01") + mp.mpf(2) ** (-(bits // 2)))
    return RealApprox(ratio, bound)
