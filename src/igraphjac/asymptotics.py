"""Tree-growth constants: root products, Mahler integrals, limit ratios.

The spanning tree count of I(n, k, l) grows like (n / (k^2 + l^2)) * A^n
where A is the product of the roots of spectral_poly(k, l) lying outside the
unit circle.  The root product reads them off the k+l-1 roots of
chebyshev_quotient(k, l), the same root set the Chebyshev tree count uses.
A equals the Mahler measure of the polynomial, so it can also be computed
as exp of the average of log|P| over the unit circle; the two routes check
each other.

Root finding is an Aberth-style simultaneous iteration in mpmath arithmetic:
deterministic start points on a Cauchy-bound circle, Gauss-Seidel updates,
and a few deterministic restarts at larger radii if an attempt stalls.
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
from .polyring import IntPoly, chebyshev_quotient

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


def _eval_with_derivative(coeffs, z):
    p = coeffs[-1]
    dp = mp.mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth_attempt(coeffs, deg, radius, twist, max_iter, tol):
    roots = [
        radius * mpmath.expjpi(2 * (mp.mpf(j) + twist) / deg) for j in range(deg)
    ]
    for _ in range(max_iter):
        max_step = mp.mpf(0)
        for j in range(deg):
            z = roots[j]
            p, dp = _eval_with_derivative(coeffs, z)
            if p == 0:
                continue
            if dp == 0:
                roots[j] = z + tol
                max_step = max(max_step, abs(tol))
                continue
            newton = p / dp
            repel = mp.mpc(0)
            for i in range(deg):
                if i != j:
                    diff = z - roots[i]
                    if diff == 0:
                        diff = mp.mpf(2) ** (-mp.prec // 2)
                    repel += 1 / diff
            denom = 1 - newton * repel
            step = newton if denom == 0 else newton / denom
            roots[j] = z - step
            scale = max(mp.mpf(1), abs(roots[j]))
            rel = abs(step) / scale
            if rel > max_step:
                max_step = rel
        if max_step < tol:
            return roots
    return None


def poly_roots(poly: IntPoly, precision_bits: int = DEFAULT_PRECISION) -> RootSet:
    """All roots of an integer polynomial to roughly precision_bits accuracy."""
    if poly.is_zero:
        raise ZeroPolynomial("the zero polynomial has no finite root set")
    if precision_bits < MIN_PRECISION:
        raise ValueError(f"precision_bits must be at least {MIN_PRECISION}")
    coeffs = list(poly.coeffs)
    zeros_at_origin = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        zeros_at_origin += 1
    deg = len(coeffs) - 1
    with mp.workprec(precision_bits + 64):
        found: list = [mp.mpc(0)] * zeros_at_origin
        if deg > 0:
            cs = [mp.mpf(c) for c in coeffs]
            lead = cs[-1]
            radius = 1 + max(abs(c / lead) for c in cs[:-1])
            tol = mp.mpf(2) ** (-(precision_bits + 8))
            max_iter = 128 + 4 * precision_bits
            roots = None
            for attempt in range(3):
                roots = _aberth_attempt(
                    cs,
                    deg,
                    radius * mp.mpf(3 + 2 * attempt) / 3,
                    mp.mpf(1) / (2 * deg) + attempt * mp.mpf(7) / 97,
                    max_iter,
                    tol,
                )
                if roots is not None:
                    break
            if roots is None:
                raise ConvergenceFailure(
                    f"Aberth iteration stalled on degree {deg} at {precision_bits} bits"
                )
            found.extend(roots)
        scale = max(abs(c) for c in poly.coeffs)
        residual = mp.mpf(0)
        for z in found:
            val = abs(poly(mp.mpc(z))) / scale
            if val > residual:
                residual = val
        found.sort(key=lambda z: (mp.re(z), mp.im(z)))
    return RootSet(tuple(found), residual)


def mahler_constant(k: int, l: int, precision_bits: int = DEFAULT_PRECISION) -> RealApprox:
    """Product of the roots of spectral_poly(k, l) outside the unit circle.

    Each root w of chebyshev_quotient(k, l) stands for the pair of roots
    z = w +- sqrt(w^2 - 1) of spectral_poly, whose product is 1, so the
    outer one contributes max(|w + s|, 1/|w + s|) with s = sqrt(w^2 - 1).
    The double root at z = 1 is the known root w = 1 divided out of the
    quotient.  A factor within 2^(-precision_bits/4) of 1 (w on or near
    [-1, 1]) raises ClassificationFailure.  A Newton correction dw moves
    |z| by a relative |dw| / |s|, which carries the error bound.
    """
    quotient = chebyshev_quotient(k, l)
    rset = poly_roots(quotient, precision_bits)
    with mp.workprec(precision_bits + 64):
        margin = mp.mpf(2) ** (-(precision_bits // 4))
        cs = [mp.mpf(c) for c in quotient.coeffs]
        value = mp.mpf(1)
        err_rel = mp.mpf(0)
        for w in rset.roots:
            w = mp.mpc(w)
            s = mpmath.sqrt(w * w - 1)
            r = abs(w + s)
            factor = max(r, 1 / r)
            if factor <= 1 + margin:
                raise ClassificationFailure(
                    f"root pair of modulus {mpmath.nstr(r, 20)} too close to the unit circle"
                )
            value *= factor
            q, dq = _eval_with_derivative(cs, w)
            if dq != 0:
                err_rel += abs(q / dq) / abs(s)
        floor = mp.mpf(2) ** (-(precision_bits - 8))
        bound = value * (16 * err_rel + floor)
    return RealApprox(value, bound)


def mahler_integral(k: int, l: int, precision_bits: int = 192) -> RealApprox:
    """exp of the mean of log|spectral_poly| over the unit circle.

    On the circle the polynomial is the real expression
    (3 - 2cos(2 pi k t))(3 - 2cos(2 pi l t)) - 1, positive except for the
    double zero at t = 0; tanh-sinh quadrature on [0, 1/2] (the integrand is
    symmetric) absorbs the endpoint log singularity.  Each factor is
    rewritten as 1 + 4 sin^2(pi k t) so the value near the zero comes out as
    a sum of tiny positives instead of a catastrophic cancellation.
    """
    from .polyring import _check_steps

    _check_steps(k, l)
    with mp.workprec(precision_bits + 32):

        def integrand(t):
            u = 4 * mpmath.sinpi(k * t) ** 2
            v = 4 * mpmath.sinpi(l * t) ** 2
            return mpmath.log(u + v + u * v)

        est, err = mpmath.quad(
            integrand, [mp.mpf(0), mp.mpf(1) / 2], error=True, maxdegree=10
        )
        est *= 2
        err *= 2
        tolerance = mp.mpf(2) ** (-(precision_bits // 2))
        if err > tolerance:
            raise QuadratureFailure(
                f"integral error estimate {mpmath.nstr(err, 5)} exceeds "
                f"tolerance {mpmath.nstr(tolerance, 5)}"
            )
        value = mpmath.exp(est)
        bound = value * (100 * err + mp.mpf(2) ** (-(precision_bits - 8)))
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
