"""Exact integer polynomials and the family-specific constructions.

The central object is the monic polynomial

    spectral_poly(k, l) = z^(k+l) ((3 - z^k - z^-k)(3 - z^l - z^-l) - 1),

z^(k+l) times the Laurent polynomial P of the paper.  The values of P at the
n-th roots of unity multiply out to n times the spanning tree count of
I(n, k, l).  Both exact large-n routes work in the ring Z[z]/(f) for
f = spectral_poly(k, l) (or f divided by (z - 1)^2): presentation_matrix
reduces z^n mod f by square-and-multiply and returns the matrix of
multiplication by z^n - 1, whose cokernel and determinant give the Jacobian
group and the tree count.  The Chebyshev substitution w = (z + 1/z)/2 gives
the quotient whose roots both floating-point routes (the Chebyshev tree
count and the growth constant) use; the tree count evaluates T_n at those
roots itself, so only the coefficients chebyshev_t_poly(n) live here.
"""

from __future__ import annotations

from math import gcd

from .bigmat import IntMatrix
from .errors import InternalInconsistency, InvalidParams, ZeroPolynomial


def _trimmed(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    for c in cs:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("coefficients must be ints")
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if not cs:
        cs = [0]
    return tuple(cs)


class IntPoly:
    """Univariate integer polynomial, coefficients ascending by exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0 * x if not isinstance(x, int) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPoly([0])
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def deflate(self, root: int) -> tuple["IntPoly", int]:
        """Synthetic division by (x - root); returns (quotient, remainder)."""
        if self.is_zero:
            raise ZeroPolynomial("cannot deflate the zero polynomial")
        rev = list(reversed(self.coeffs))
        out = [rev[0]]
        for c in rev[1:]:
            out.append(c + root * out[-1])
        rem = out.pop()
        return IntPoly(list(reversed(out))), rem

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def _check_steps(k: int, l: int):
    for name, v in (("k", k), ("l", l)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidParams(f"{name} must be a positive int")
    if gcd(k, l) != 1:
        raise InvalidParams(f"steps must be coprime, got k={k}, l={l}")


def spectral_poly(k: int, l: int) -> IntPoly:
    """z^(k+l) ((3 - z^k - z^-k)(3 - z^l - z^-l) - 1), the eigenvalue-product polynomial.

    Divided by z^(k+l), its value at each n-th root of unity is the product
    of the paired Laplacian eigenvalues of I(n, k, l).  It is monic and
    palindromic of degree 2(k+l), has a double root at z = 1, and its second
    derivative there is -2(k^2 + l^2).
    """
    _check_steps(k, l)
    coeffs = [0] * (2 * (k + l) + 1)
    for e1, c1 in ((0, -1), (k, 3), (2 * k, -1)):
        for e2, c2 in ((0, -1), (l, 3), (2 * l, -1)):
            coeffs[e1 + e2] += c1 * c2
    coeffs[k + l] -= 1
    return IntPoly(coeffs)


def _times_z(a: list[int], f: tuple[int, ...]) -> list[int]:
    """z * a mod f for monic f of degree len(a)."""
    top = a[-1]
    out = [0] + a[:-1]
    if top:
        for i, c in enumerate(f[:-1]):
            out[i] -= top * c
    return out


def _square(a: list[int], f: tuple[int, ...]) -> list[int]:
    """a^2 mod f for monic f of degree len(a)."""
    s = len(a)
    out = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = 2 * x
            for j in range(i + 1, s):
                y = a[j]
                if y:
                    out[i + j] += x2 * y
    low = f[:-1]
    for d in range(2 * s - 2, s - 1, -1):
        top = out[d]
        if top:
            base = d - s
            for i, c in enumerate(low):
                if c:
                    out[base + i] -= top * c
    return out[:s]


def presentation_matrix(f: IntPoly, n: int) -> IntMatrix:
    """Matrix of multiplication by z^n - 1 on Z[z]/(f), for monic f.

    Column j holds the coefficients of (z^n - 1) z^j mod f in the basis
    1, z, ..., z^(deg f - 1), so the cokernel is Z[z]/(f, z^n - 1) and the
    determinant is Res(f, z^n - 1), the product of a^n - 1 over the roots a
    of f.  z^n mod f comes from square-and-multiply: O(log n) products of
    polynomials of degree below deg f, whatever the size of n.
    """
    if f.is_zero or f.degree < 1 or f.lead != 1:
        raise InvalidParams(f"need a monic polynomial of degree >= 1, got {f!r}")
    if not isinstance(n, int) or n < 0:
        raise InvalidParams("n must be a nonnegative int")
    coeffs = f.coeffs
    s = len(coeffs) - 1
    r = [1] + [0] * (s - 1)
    for bit in bin(n)[2:]:
        r = _square(r, coeffs)
        if bit == "1":
            r = _times_z(r, coeffs)
    r[0] -= 1
    cols = [r]
    for _ in range(s - 1):
        cols.append(_times_z(cols[-1], coeffs))
    return IntMatrix([list(row) for row in zip(*cols)])


def chebyshev_t_poly(n: int) -> IntPoly:
    """Coefficients of the degree-n Chebyshev polynomial of the first kind."""
    if n < 0:
        raise InvalidParams("n must be nonnegative")
    t0, t1 = IntPoly([1]), IntPoly([0, 1])
    if n == 0:
        return t0
    for _ in range(n - 1):
        t0, t1 = t1, IntPoly((0,) + tuple(2 * c for c in t1.coeffs)) - t0
    return t1


def chebyshev_quotient(k: int, l: int) -> IntPoly:
    """((3 - 2T_k(w))(3 - 2T_l(w)) - 1) / (w - 1).

    This is spectral_poly after the substitution w = (z + 1/z)/2, with the
    known root at w = 1 divided out.  Degree k+l-1, leading coefficient
    2^(k+l), value -2(k^2 + l^2) at w = 1.
    """
    _check_steps(k, l)
    three = IntPoly([3])
    full = (three - 2 * chebyshev_t_poly(k)) * (three - 2 * chebyshev_t_poly(l)) - IntPoly([1])
    quot, rem = full.deflate(1)
    if rem != 0:
        raise InternalInconsistency("w = 1 must be a root before deflation")
    return quot
