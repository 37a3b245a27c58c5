"""Tree-growth constants: root products, Mahler integrals, limit ratios.

The spanning tree count of I(n, k, l) grows like (n / (k^2 + l^2)) * A^n
where A is the product of the roots of spectral_poly(k, l) lying outside the
unit circle.  The root product reads them off the k+l-1 roots x of
trace_poly(k, l), the polynomial in x = z + 1/z that the Chebyshev tree
count also roots: each x stands for the pair z, 1/z with
z = (x + sqrt(x^2 - 4))/2.  A equals the Mahler measure of the polynomial,
so it can also be computed as exp of the average of log|P| over the unit
circle; the two routes check each other.

Roots come from mpmath.polyroots, a Durand-Kerner iteration, which needs
distinct roots; R always has them.  An iteration that does not settle
raises ConvergenceFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import mpmath
from mpmath import mp

from .errors import (
    ClassificationFailure,
    ConvergenceFailure,
    QuadratureFailure,
    ZeroPolynomial,
)
from .polyring import IntPoly, _check_steps, trace_poly

if TYPE_CHECKING:  # pragma: no cover
    from .igraph import GraphParams
    from .treecount import TreeCount

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
# iteration and the returned roots carry beyond precision_bits
SWEEPS_PER_BIT = 4
GUARD_BITS = 64
# Bits mahler_integral works at, whatever precision the caller asked for
INTEGRAL_PRECISION = 192


def poly_roots(poly: IntPoly, precision_bits: int = DEFAULT_PRECISION) -> RootSet:
    """All roots of an integer polynomial with distinct roots.

    mpmath.polyroots runs Durand-Kerner with GUARD_BITS beyond
    precision_bits and rounds the roots to precision_bits + GUARD_BITS, the
    precision callers use them at; a zero root, and the imaginary part of a
    real root, come back exactly 0.  ConvergenceFailure means the iteration
    did not settle within its sweep cap.  A repeated root (spectral_poly's
    double root at z = 1, say) stalls it near sqrt(eps): it may then raise
    ConvergenceFailure or land anyway, so only distinct roots are promised.
    """
    if poly.is_zero:
        raise ZeroPolynomial("the zero polynomial has no finite root set")
    if precision_bits < MIN_PRECISION:
        raise ValueError(f"precision_bits must be at least {MIN_PRECISION}")
    with mp.workprec(precision_bits + GUARD_BITS):
        try:
            found = mpmath.polyroots(
                poly.coeffs[::-1],
                maxsteps=128 + SWEEPS_PER_BIT * precision_bits,
                extraprec=GUARD_BITS,
            )
        except mp.NoConvergence as exc:
            raise ConvergenceFailure(
                f"Durand-Kerner iteration stalled on degree {poly.degree} "
                f"at {precision_bits} bits"
            ) from exc
        scale = max(abs(c) for c in poly.coeffs)
        residual = max((abs(poly(mp.mpc(z))) / scale for z in found), default=mp.mpf(0))
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
    |dx| / |s|, which carries the error bound.
    """
    trace = trace_poly(k, l)
    rset = poly_roots(trace, precision_bits)
    with mp.workprec(precision_bits + 64):
        margin = mp.mpf(2) ** (-(precision_bits // 4))
        cs = trace.coeffs[::-1]
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
            if dq != 0:
                err_rel += abs(q / dq) / abs(s)
        floor = mp.mpf(2) ** (-(precision_bits - 8))
        bound = value * (16 * err_rel + floor)
    return RealApprox(value, bound)


def mahler_integral(k: int, l: int) -> RealApprox:
    """exp of the mean of log|spectral_poly| over the unit circle.

    Always runs at INTEGRAL_PRECISION bits and ignores `asymptotic
    --precision`, which sets only the root product's precision.

    On the circle the polynomial is the real expression
    (3 - 2cos(2 pi k t))(3 - 2cos(2 pi l t)) - 1, positive except for the
    double zero at t = 0; tanh-sinh quadrature on [0, 1/2] (the integrand is
    symmetric) absorbs the endpoint log singularity.  Each factor is
    rewritten as 1 + 4 sin^2(pi k t) so the value near the zero comes out as
    a sum of tiny positives instead of a catastrophic cancellation.
    """
    _check_steps(k, l)
    with mp.workprec(INTEGRAL_PRECISION + 32):

        def integrand(t):
            u = 4 * mpmath.sinpi(k * t) ** 2
            v = 4 * mpmath.sinpi(l * t) ** 2
            return mpmath.log(u + v + u * v)

        est, err = mpmath.quad(
            integrand, [mp.mpf(0), mp.mpf(1) / 2], error=True, maxdegree=10
        )
        est *= 2
        err *= 2
        tolerance = mp.mpf(2) ** (-(INTEGRAL_PRECISION // 2))
        if err > tolerance:
            raise QuadratureFailure(
                f"integral error estimate {mpmath.nstr(err, 5)} exceeds "
                f"tolerance {mpmath.nstr(tolerance, 5)}"
            )
        value = mpmath.exp(est)
        bound = value * (100 * err + mp.mpf(2) ** (-(INTEGRAL_PRECISION - 8)))
    return RealApprox(value, bound)


def asymptotic_ratio(p: "GraphParams", t: "TreeCount", approx: RealApprox) -> RealApprox:
    """tau * (k^2 + l^2) / (n * A^n), which tends to 1 as n grows."""
    with mp.workprec(64):
        # enough bits to place A^n and tau, plus slack for the quotient
        magnitude = int(mpmath.ceil(p.n * mpmath.log(mp.mpf(approx.value), 2))) + 1
    bits = max(192, magnitude + 96)
    with mp.workprec(bits):
        a = mp.mpf(approx.value)
        ratio = mp.mpf(t.tau) * (p.k**2 + p.l**2) / (p.n * a**p.n)
        rel = p.n * (mp.mpf(approx.error_bound) / a)
        bound = abs(ratio) * (rel * mp.mpf("1.01") + mp.mpf(2) ** (-(bits // 2)))
    return RealApprox(ratio, bound)
