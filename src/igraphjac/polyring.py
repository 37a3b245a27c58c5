"""Integer polynomials as ascending int tuples, and the family-specific rings.

A polynomial is a tuple with the coefficient of z^i at index i.  The central
object is the monic polynomial

    spectral_poly(k, l) = z^(k+l) ((3 - z^k - z^-k)(3 - z^l - z^-l) - 1),

z^(k+l) times the Laurent polynomial P of the paper.  The values of P at the
n-th roots of unity multiply out to n times the spanning tree count of
I(n, k, l).  P is palindromic, so the paper's substitution x = z + 1/z
halves it: P = (x - 2) R(x) with R = trace_poly(k, l), monic of degree
k+l-1.  The Jacobian works in Z[z]/(P): presentation_matrix reduces z^n mod
P by square-and-multiply and returns the matrix of multiplication by
z^n - 1, whose cokernel is the Jacobian group.  The tree count works in
Z[x]/(R): lucas_matrix reduces V_n(x) = z^n + z^-n mod R by the Lucas
ladder and returns the matrix of multiplication by V_n - 2, whose
determinant gives the count.  Both floating-point routes (the Chebyshev
tree count and the growth constant) take the roots of R.
"""

from __future__ import annotations

from math import gcd

from .bigmat import IntMatrix
from .errors import InternalInconsistency, InvalidParams


def _check_steps(k: int, l: int):
    for name, v in (("k", k), ("l", l)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidParams(f"{name} must be a positive int")
    if gcd(k, l) != 1:
        raise InvalidParams(f"steps must be coprime, got k={k}, l={l}")


def spectral_poly(k: int, l: int) -> tuple[int, ...]:
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
    return tuple(coeffs)


def trace_poly(k: int, l: int) -> tuple[int, ...]:
    """R(x) = ((3 - V_k)(3 - V_l) - 1) / (x - 2), spectral_poly in x = z + 1/z.

    V_j is the Lucas polynomial with V_j(z + 1/z) = z^j + z^-j (V_0 = 2,
    V_1 = x, V_(j+1) = x V_j - V_(j-1)), so z^-(k+l) spectral_poly(k, l) is
    (x - 2) R(x).  V_k V_l = V_(k+l) + V_|k-l| gives R without a polynomial
    product.  R is monic of degree k+l-1 and R(2) = -(k^2 + l^2).
    """
    _check_steps(k, l)
    lucas = [[2], [0, 1]]
    for _ in range(k + l - 1):
        nxt = [0] + lucas[-1]
        for i, c in enumerate(lucas[-2]):
            nxt[i] -= c
        lucas.append(nxt)
    g = [8] + [0] * (k + l)
    for j, c in ((k, -3), (l, -3), (k + l, 1), (abs(k - l), 1)):
        for i, v in enumerate(lucas[j]):
            g[i] += c * v
    r = [g[-1]]  # synthetic division by x - 2, from the top coefficient down
    for c in reversed(g[:-1]):
        r.append(c + 2 * r[-1])
    if r.pop():
        raise InternalInconsistency("x = 2 must be a root before deflation")
    return tuple(reversed(r))


def _times_z(a: list[int], f: tuple[int, ...]) -> list[int]:
    """z * a mod f for monic f of degree len(a)."""
    top = a[-1]
    out = [0] + a[:-1]
    if top:
        for i, c in enumerate(f[:-1]):
            out[i] -= top * c
    return out


def _mul(a: list[int], b: list[int], f: tuple[int, ...]) -> list[int]:
    """a * b mod f for monic f of degree len(a) = len(b)."""
    s = len(a)
    out = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    low = f[:-1]
    for d in range(2 * s - 2, s - 1, -1):
        top = out[d]
        if top:
            base = d - s
            for i, c in enumerate(low):
                if c:
                    out[base + i] -= top * c
    return out[:s]


def _monic_coeffs(f, n: int) -> tuple[int, ...]:
    """The ascending int coefficients f, once f is monic of degree >= 1 and n >= 0."""
    coeffs = tuple(f)
    if any(not isinstance(c, int) or isinstance(c, bool) for c in coeffs):
        raise InvalidParams(f"coefficients must be ints, got {coeffs!r}")
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise InvalidParams(f"need a monic polynomial of degree >= 1, got {coeffs!r}")
    if not isinstance(n, int) or n < 0:
        raise InvalidParams("n must be a nonnegative int")
    return coeffs


def _multiplication_matrix(r: list[int], f: tuple[int, ...]) -> IntMatrix:
    """Matrix of multiplication by r on Z[z]/(f): column j is r z^j mod f."""
    cols = [r]
    for _ in range(len(r) - 1):
        cols.append(_times_z(cols[-1], f))
    return IntMatrix([list(row) for row in zip(*cols)])


def presentation_matrix(f, n: int) -> IntMatrix:
    """Matrix of multiplication by z^n - 1 on Z[z]/(f), for monic f.

    Column j holds the coefficients of (z^n - 1) z^j mod f in the basis
    1, z, ..., z^(deg f - 1), so the cokernel is Z[z]/(f, z^n - 1) and the
    determinant is Res(f, z^n - 1), the product of a^n - 1 over the roots a
    of f.  z^n mod f comes from square-and-multiply: O(log n) products of
    polynomials of degree below deg f, whatever the size of n.
    """
    coeffs = _monic_coeffs(f, n)
    r = [1] + [0] * (len(coeffs) - 2)
    for bit in bin(n)[2:]:
        r = _mul(r, r, coeffs)
        if bit == "1":
            r = _times_z(r, coeffs)
    r[0] -= 1
    return _multiplication_matrix(r, coeffs)


def lucas_matrix(f, n: int) -> IntMatrix:
    """Matrix of multiplication by V_n(x) - 2 on Z[x]/(f), for monic f.

    V_n is the Lucas polynomial of trace_poly, so the determinant is the
    product of V_n(a) - 2 = z^n + z^-n - 2 over the roots a = z + 1/z of f.
    V_n mod f comes from the Lucas ladder: from (V_j, V_(j+1)) each bit of
    n steps to (V_2j, V_(2j+1)) or (V_(2j+1), V_(2j+2)) through
    V_2j = V_j^2 - 2 and V_(2j+1) = V_j V_(j+1) - x, so O(log n) products.
    """
    coeffs = _monic_coeffs(f, n)
    one = [1] + [0] * (len(coeffs) - 2)
    x = _times_z(one, coeffs)
    v, w = [2] + one[1:], x
    for bit in bin(n)[2:]:
        mixed = [c - d for c, d in zip(_mul(v, w, coeffs), x)]
        if bit == "1":
            v, w = mixed, _mul(w, w, coeffs)
            w[0] -= 2
        else:
            v, w = _mul(v, v, coeffs), mixed
            v[0] -= 2
    v[0] -= 2
    return _multiplication_matrix(v, coeffs)
