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
mean unchanged and removes the zero at z = 1, so the rule converges at a
rate the roots prove, and its N-node product is (k^2 + l^2) tau(I(N, k, l)) / N.

Roots come from a short Aberth iteration in complex floats on the paper's
Lucas form of R, polished by Newton's method on scaled Python ints and then
certified: Gerschgorin disks built from exact Weierstrass corrections prove
that each polished root is within its radius, at most
2^-(precision_bits + 64), of its own distinct root.  A root set whose start
does not settle or that the certificate refuses raises ConvergenceFailure.
As R is real, each conjugate pair is polished, certified and evaluated once.
A RootSet keeps those ints, which the root product, the integral's node
count and the Chebyshev tree count read, each bounding its error by the radii.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import mpmath
from mpmath import mp

from .errors import (
    ClassificationFailure,
    ConvergenceFailure,
    QuadratureFailure,
    check_int,
    check_steps,
)
from .polyring import trace_poly

if TYPE_CHECKING:  # pragma: no cover
    from .igraph import GraphParams

DEFAULT_PRECISION = 256
MIN_PRECISION = 32


@dataclass(frozen=True)
class RootSet:
    """The k+l-1 roots of R = trace_poly(k, l) as ints at 2^-width, sorted by (Re, Im).

    Root i is the pair (a, b) for (a + ib) 2^-width, and radii[i], at the
    same scale, a proved bound on its distance from a root of R, each root
    of R counted once; (a, -b) is then a root too, with the same radius.
    residual_bound, an mpf, is the largest |R(root)| after dividing R by its
    largest coefficient: a backward-error figure.
    """

    width: int
    roots: tuple
    radii: tuple
    residual_bound: object


@dataclass(frozen=True)
class RealApprox:
    """A real value together with a first-order bound on its error."""

    value: object
    error_bound: object


# Guard bits the returned roots carry beyond precision_bits on top of the
# bit length of the largest coefficient of R
GUARD_BITS = 64
# Bits the Newton polish works at beyond the guard, on top of the bit length
# of the largest coefficient once more: Horner's rule at 2^-W puts a root
# about that many bits further off.  On the 72 coprime cells k <= 15,
# l <= k + 7 and on (20, 21) the certified radius stayed 5 to 18 bits inside
# this margin
POLISH_BITS = 16
# Most Aberth sweeps the Lucas start may take; trace_poly(40, 41), of degree
# 80, takes 44
START_SWEEPS = 160
# Most nodes mahler_integral's trapezoidal rule may use.  Near the cap its
# chord table holds 2^19 + 1 ints of about 64 bytes each at 128 bits (80 at
# 256); (1,1) run to 2^20 nodes took 1.2 s and 74 MB of RSS at 128 bits,
# 2.3 s and 86 MB at 256 (2-core Xeon, Python 3.11)
NODE_CAP = 1 << 20


def _lucas_start(k: int, l: int) -> list | None:
    """Float roots of R = trace_poly(k, l), the start for _newton, from an Aberth iteration.

    R and R' come from the paper's Lucas form (x - 2) R(x) = G(x) =
    8 - 3 V_k - 3 V_l + V_(k+l) + V_|k-l|, not from R's coefficients: with
    z = (x + sqrt(x^2 - 4))/2 taken with |z| >= 1, V_j = z^j + z^-j and
    V_j' = j (z^j - z^-j)/(z - 1/z), so R = G/(x - 2) and
    R' = (G' - R)/(x - 2), all in complex floats.  The rounding error stays
    on the scale of the largest term |z|^(k+l), about 1 for the roots near
    [-2, 2], while Horner's rule on R's monomial coefficients (53 bits wide
    at (40, 41)) loses most of a float's bits there.  The iteration starts
    on the circle |x| = 3 and freezes a root once its step is at most
    1e-15 max(1, |x|); a step relative to |x| alone never settles the roots
    of (40, 41) near x = 0.08.  None means a value overflowed or went
    non-finite, or a root had not settled after START_SWEEPS sweeps.
    """
    deg = k + l - 1
    terms = ((k, -3), (l, -3), (k + l, 1), (abs(k - l), 1))
    roots = [cmath.rect(3, 2 * math.pi * (i + 0.25) / deg) for i in range(deg)]
    settled = [False] * deg
    try:
        for _ in range(START_SWEEPS):
            for i, x in enumerate(roots):
                if settled[i]:
                    continue
                z = (x + cmath.sqrt(x * x - 4)) / 2
                if abs(z) < 1:
                    z = 1 / z
                g, dg = 8, 0
                for j, c in terms:
                    zj = z**j
                    g += c * (zj + 1 / zj)
                    dg += c * j * (zj - 1 / zj)
                # R / R' = G / (G' - R)
                w = g / (dg / (z - 1 / z) - g / (x - 2))
                w /= 1 - w * sum(1 / (x - y) for j, y in enumerate(roots) if j != i)
                roots[i] = x - w
                if not cmath.isfinite(roots[i]):
                    return None
                settled[i] = abs(w) <= 1e-15 * max(1, abs(roots[i]))
            if all(settled):
                return roots
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _newton(coeffs: list[int], start: list, width: int, tol: int) -> list | None:
    """Newton's method on each start point in Gaussian fixed point at 2^-width.

    A root is a pair (re, im) of ints standing for (re + i im) 2^-width; p and
    p' come from Horner's rule on them, cut back to 2^-width after each
    product, as in _node_product.  A root stops once its correction is at
    most tol units, and an imaginary part of at most tol units then becomes
    exactly 0 (_certify proves such a root real or declines).  As p is real,
    the conjugates of the roots above the axis stand for those below, so a
    start below whose conjugate is within 2^-20 max(1, |u|) of a start u
    above is skipped; one with no such partner is polished, only to be
    counted.  None means a correction did not shrink, p' vanished, a root had
    not stopped after width.bit_length() steps (enough for a start good to
    2^-8), or the roots do not pair up.
    """
    tops = [u for u in start if u.imag > 0]
    out = []
    for z in start:
        if z.imag < 0 and any(abs(z.conjugate() - u) <= 2**-20 * max(1, abs(u)) for u in tops):
            continue
        a = int(mpmath.ldexp(z.real, width))
        b = int(mpmath.ldexp(z.imag, width))
        last = math.inf
        for _ in range(width.bit_length()):
            pr, pi = coeffs[0] << width, 0
            dr = di = 0
            for c in coeffs[1:]:
                dr, di = ((dr * a - di * b) >> width) + pr, ((dr * b + di * a) >> width) + pi
                pr, pi = ((pr * a - pi * b) >> width) + (c << width), (pr * b + pi * a) >> width
            norm = dr * dr + di * di
            if not norm:
                return None
            ur = ((pr * dr + pi * di) << width) // norm
            ui = ((pi * dr - pr * di) << width) // norm
            a, b = a - ur, b - ui
            step = ur * ur + ui * ui
            if step <= tol * tol:
                break
            if step >= last:
                return None
            last = step
        else:
            return None
        out.append((a, 0 if abs(b) <= tol else b))
    # p is real: each lower root is the conjugate of an upper one, exactly
    real = [r for r in out if not r[1]]
    upper = [(a, b) for a, b in out if b > 0]
    if len(real) + 2 * len(upper) != len(start):
        return None
    return real + upper + [(a, -b) for a, b in upper]


def _certify(coeffs: list[int], roots: list, width: int, tol: int) -> tuple[list, list] | None:
    """Disjoint disks about the roots, each holding exactly one root of p, or None.

    roots are (re, im) pairs at 2^-W, W = width, so with d = deg p and
    x_i = roots[i], N_i = p(x_i) 2^(dW) and D_i = lead prod_{j != i}
    (x_i - x_j) 2^((d-1)W) are exact Gaussian ints, and the Weierstrass
    correction is w_i = N_i / (D_i 2^W).  The matrix diag(x) - w 1^T has characteristic
    polynomial p / lead (Braess-Hadeler), and its row i Gerschgorin disk
    D(x_i - w_i, (d-1)|w_i|) lies in D(x_i, d|w_i|).  Where these disks are
    pairwise disjoint each holds exactly one eigenvalue, so every root of p
    is within its disk's radius of a distinct x_i; a disk centred on the real
    axis then holds a real root, as p's roots come in conjugate pairs.  The
    radius d|w_i| 2^W is bounded above by r_i = isqrt(ceil(d^2 |N_i|^2 /
    |D_i|^2)) + 1, and disjointness is |x_i - x_j|^2 2^(2W) > (r_i + r_j)^2, all
    in ints.  On x_i closed under conjugation, N and D at conj(x_i) are conj(N_i)
    and conj(D_i), so a pair's one row gives both r and |N|^2, bit for bit.
    Returns the r_i, each at most tol, and the |N_i|^2; None when two x_i
    coincide, two disks meet, or a radius exceeds tol.
    """
    d = len(coeffs) - 1
    lead = coeffs[0]
    # the term of x^(d-j) in p(x) 2^(dW) carries 2^(jW)
    scaled = [c << (j * width) for j, c in enumerate(coeffs)][1:]
    closed = sorted(roots) == sorted((a, -b) for a, b in roots)
    found = {}  # (a, b), and (a, -b) if closed, -> (r, |N|^2)
    for i, (a, b) in enumerate(roots):
        if (a, b) in found:
            continue
        nr, ni = lead, 0
        for c in scaled:
            nr, ni = nr * a - ni * b + c, nr * b + ni * a
        den = lead * lead
        for j, (c, e) in enumerate(roots):
            if j != i:
                den *= (a - c) ** 2 + (b - e) ** 2
        if not den:
            return None
        norm = nr * nr + ni * ni
        radius = math.isqrt(-(-d * d * norm // den)) + 1
        if radius > tol:
            return None
        found[a, b] = found[a, -b if closed else b] = radius, norm
    radii = [found[a, b][0] for a, b in roots]
    for i, (a, b) in enumerate(roots):
        for j in range(i):
            c, e = roots[j]
            if (a - c) ** 2 + (b - e) ** 2 <= (radii[i] + radii[j]) ** 2:
                return None
    return radii, [found[a, b][1] for a, b in roots]


def poly_roots(k: int, l: int, precision_bits: int = DEFAULT_PRECISION) -> RootSet:
    """All k+l-1 roots of R = trace_poly(k, l), each certified distinct.

    _newton polishes _lucas_start's float roots on ints at 2^-W,
    W = precision_bits + guard + POLISH_BITS + c, where c is the bit length
    of the largest coefficient of R and guard = GUARD_BITS + c.  _certify
    then proves each root within its radius, at most 2^-(precision_bits +
    GUARD_BITS), of a distinct root, and real where its imaginary part is 0.
    The RootSet keeps the roots and radii as these ints at 2^-W, unrounded;
    the residual is read off the certificate's exact values of R.  No root is
    0: G(0) is 2, 8 or 14, so R(0) is -1, -4 or -7.  A start that does not
    settle, or a set the certificate refuses, raises ConvergenceFailure.
    """
    poly = trace_poly(k, l)
    check_int("precision_bits", precision_bits, MIN_PRECISION)
    coeffs = poly[::-1]
    scale = max(abs(c) for c in poly)
    guard = GUARD_BITS + scale.bit_length()
    extra = POLISH_BITS + scale.bit_length()
    width = precision_bits + guard + extra
    limit = 1 << (width - precision_bits - GUARD_BITS)
    start = _lucas_start(k, l)
    roots = None if start is None else _newton(coeffs, start, width, 1 << extra)
    certified = None if roots is None else _certify(coeffs, roots, width, limit)
    if certified is None:
        raise ConvergenceFailure(
            f"no certified roots of degree {len(coeffs) - 1} at {precision_bits} bits"
        )
    radii, norms = certified
    with mp.workprec(precision_bits + guard):
        residual = mpmath.ldexp(mpmath.sqrt(max(norms)), -(len(poly) - 1) * width) / scale
    found = sorted(zip(roots, radii))
    return RootSet(width, tuple(x for x, _ in found), tuple(r for _, r in found), residual)


def disk_gap(a: int, b: int, radius: int, width: int) -> int:
    """At most the distance from [-2, 2] to the disk of the radius about a + ib, all at 2^-width."""
    off = max(abs(a) - (2 << width), 0)
    return math.isqrt(off * off + b * b) - radius


def mahler_constant(k: int, l: int, precision_bits: int = DEFAULT_PRECISION, roots=None) -> RealApprox:
    """Product of the roots of spectral_poly(k, l) outside the unit circle.

    A root x = z + 1/z of trace_poly(k, l) stands for the roots z, 1/z of
    spectral_poly, the outer one contributing q = max(|z|, 1/|z|); z = 1 is
    the root x = 2 divided out of R.  The parallelogram law on x and s =
    z - 1/z, s^2 = x^2 - 4, gives m = (|x|^2 + |x^2 - 4|)/2 = |z|^2 + |z|^-2,
    so q^2 = (m + sqrt(m^2 - 4))/2: two isqrt calls on x's ints at 2^-W, once
    per conjugate pair (a, +-b) as they read |b| only, and no branch; value is
    sqrt(prod q^2).  roots defaults to poly_roots(k, l, precision_bits).

    The bound is value (2 S + 2^-(precision_bits - 8)), S = sum rho/gap with
    rho a certified radius and gap its disk_gap: log q = |Re log z| moves
    no faster than |d log z/dx| = 1/|s| and |s|^2 = |x - 2| |x + 2| >= gap^2
    on the disk, so the product moves by a factor within exp(+-S), and
    exp(S) - 1 <= 2 S for S <= 1/2.  A disk meeting [-2, 2] (the pair may
    lie on the unit circle) or S > 1/2 raises ClassificationFailure.  As the
    x with a given q lie within q - 1/q of [-2, 2], sqrt(m^2 - 4) = q^2 -
    q^-2 >= 2 gap, so the two floors move q^2 by under 2^-(W - 6) of itself
    (m < 150: |x| < 12, as |z| < 11 by Cauchy's bound on spectral_poly);
    W >= precision_bits + 80, so the last term covers them and the final
    square root at precision_bits + 64 bits.
    """
    rset = poly_roots(k, l, precision_bits) if roots is None else roots
    w, product, slack = rset.width, 1, 0  # slack is S at 2^-W, rounded up
    for (a, b, radius), times in Counter(
        (a, abs(b), r) for (a, b), r in zip(rset.roots, rset.radii, strict=True)
    ).items():
        gap = disk_gap(a, b, radius, w)
        slack += times * (-((-radius << w) // gap) if gap > 0 else 1 << w)
        if 2 * slack > 1 << w:
            raise ClassificationFailure(f"a root disk nears [-2, 2] at {precision_bits} bits")
        re, im = a * a - b * b - (4 << 2 * w), 2 * a * b
        m = a * a + b * b + math.isqrt(re * re + im * im)  # 2 m at 2^-2W
        product *= (m + math.isqrt(m * m - (16 << 4 * w))) ** times  # 4 q^2 at 2^-2W
    with mp.workprec(precision_bits + 64):
        value = mpmath.sqrt(mpmath.ldexp(product, -len(rset.roots) * (2 * w + 2)))
        bound = value * (mpmath.ldexp(slack, 1 - w) + mpmath.ldexp(1, 8 - precision_bits))
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


def mahler_integral(k: int, l: int, precision_bits: int = DEFAULT_PRECISION, roots=None) -> RealApprox:
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

    N is set before any node from the roots (poly_roots(k, l, precision_bits)
    unless given).  A pair z, 1/z, |z| = q, adds at most q^-m/m to the m-th
    Fourier coefficient of f, and T_N - log A sums those at the nonzero
    multiples of N, so over the d = k + l - 1 pairs |T_N - log A| <= tail =
    2d/(N (rho^N - 1)) for rho <= each q.  x lies on the ellipse with foci
    +-2 and semi-major axis q + 1/q, so a root within r of c has q + 1/q >=
    (|c - 2| + |c + 2|)/2 - r: rho and rho^N are rounded down from the
    roots' ints.  N is the first 2(k + l) 2^j with tail <= 2^-(precision_bits
    - 8); past NODE_CAP it raises QuadratureFailure.  The value reads nothing
    of the roots: a rho too large shows as a bound the root product refutes.

    The nodes run on Python ints in fixed point.  They read u and v from one
    table of floor(4 sin^2(pi m/N) 2^W), 0 <= m <= N/2, W = precision_bits +
    32 + 2 bit_length(2(k + l)) + 2j.  sinpi fills it at 2(k + l), and each
    doubling refines it by _halve_angles and adds only the new odd nodes, so
    a node costs three int multiplications; the table takes about 60 bytes
    per entry at 128 bits: 1.2 MB for the 41472 nodes of (40, 41).

    Error accounting: each floor costs at most 1 ulp at 2^W, which the
    2 bit_length term keeps under 2^-(precision_bits+32) of even the
    smallest chord, about (2 pi/N)^2.  A doubling adds a few such ulps to an
    entry, relative to itself, and a node cancels nothing, since u, v and
    uv are positive.  Cutting the product back to W + 8 bits costs under
    2^-(W+7) per node, so the product of at most NODE_CAP/2 nodes stays
    within 2^-(precision_bits+12) of the exact one, relative.  It becomes
    an mpf once, for one log and one exp at precision_bits + 32.  The bound
    value (tail + 2^-(precision_bits - 8)) covers these and exp(e) - 1 - e.
    """
    check_steps(k, l)
    check_int("precision_bits", precision_bits, MIN_PRECISION)
    rset = poly_roots(k, l, precision_bits) if roots is None else roots
    w, one = rset.width, 1 << rset.width
    least = max(2 * one, min(  # at most each q + 1/q, at 2^-w
        (math.isqrt((a - 2 * one) ** 2 + b * b) + math.isqrt((a + 2 * one) ** 2 + b * b)) // 2 - r
        for (a, b), r in zip(rset.roots, rset.radii, strict=True)
    ))
    rho = (least + math.isqrt(least * least - (4 << 2 * w))) // 2  # at most each q
    n = m = 2 * (k + l)
    power = rho**n >> (n - 1) * w  # rho^n at 2^-w
    if power <= one:
        raise QuadratureFailure(f"a root disk meets [-2, 2] at {precision_bits} bits")
    while n * (power - one) < (k + l - 1) << (precision_bits - 7 + w):
        n, power = 2 * n, power * power >> w
    if n > NODE_CAP:
        raise QuadratureFailure(f"trapezoidal rule needs {n} nodes, over NODE_CAP = {NODE_CAP}")
    scale = precision_bits + 32 + 2 * m.bit_length()
    q = _chord_table(m, scale)
    acc = _node_product(k, l, m, q, scale)
    while m < n:
        q, scale, m = _halve_angles(q, scale), scale + 2, 2 * m
        acc = _node_product(k, l, m, q, scale, acc, step=2)
    with mp.workprec(precision_bits + 32):
        # node t = 0 contributes k^2 + l^2, node t = 1/2 contributes P(-1) / 4;
        # for even n the s factors over 0 < j < n/2 multiply to n/2
        ends = (k * k + l * l) * (6 if k % 2 and l % 2 else 1)
        value = mpmath.exp(mpmath.log(ends * (mp.mpf(acc) / (n // 2)) ** 2) / n)
        tail = mp.mpf(2 * (k + l - 1) << w) / (n * (power - one))
        bound = value * (tail + mp.mpf(2) ** (-(precision_bits - 8)))
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
