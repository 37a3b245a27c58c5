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
z^n - 1, whose cokernel is the Jacobian group, or modulo D the block where
Euclid's algorithm on (P, z^n - 1) over Z/D stalls; presentation_factors
takes that block's Smith form itself.  The tree count works in
Z[x]/(R): lucas_matrix reduces V_n(x) = z^n + z^-n mod R by the Lucas
ladder and returns the matrix of multiplication by V_n - 2, whose
determinant gives the count.  Both floating-point routes (the Chebyshev
tree count and the growth constant) take the roots of R.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .bigmat import IntMatrix, _chain, _diagonal_mod
from .errors import InternalInconsistency, InvalidParams, check_int, check_steps


def spectral_poly(k: int, l: int) -> tuple[int, ...]:
    """z^(k+l) ((3 - z^k - z^-k)(3 - z^l - z^-l) - 1), the eigenvalue-product polynomial.

    Divided by z^(k+l), its value at each n-th root of unity is the product
    of the paired Laplacian eigenvalues of I(n, k, l).  It is monic and
    palindromic of degree 2(k+l), has a double root at z = 1, and its second
    derivative there is -2(k^2 + l^2).
    """
    check_steps(k, l)
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
    check_steps(k, l)
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


def _int_coeffs(f) -> tuple[int, ...]:
    """The coefficients f as a tuple, once each is an int and not a bool."""
    coeffs = tuple(f)
    if any(not isinstance(c, int) or isinstance(c, bool) for c in coeffs):
        raise InvalidParams(f"coefficients must be ints, got {coeffs!r}")
    return coeffs


def _monic_coeffs(f, n: int) -> tuple[int, ...]:
    """The ascending int coefficients f, once f is monic of degree >= 1 and n >= 0."""
    coeffs = _int_coeffs(f)
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise InvalidParams(f"need a monic polynomial of degree >= 1, got {coeffs!r}")
    check_int("n", n, 0)
    return coeffs


def _multiplication_matrix(r: list[int], f: tuple[int, ...]) -> IntMatrix:
    """Matrix of multiplication by r on Z[z]/(f): column j is r z^j mod f."""
    cols = [r]
    for _ in range(len(r) - 1):
        cols.append(_times_z(cols[-1], f))
    return IntMatrix([list(row) for row in zip(*cols)])


@lru_cache(maxsize=1)
def _power_minus_one(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    """z^n - 1 mod monic f by square-and-multiply, O(log n) products whatever
    the size of n; kept once, as both moduli of one graph start from it."""
    r = [1] + [0] * (len(f) - 2)
    for bit in bin(n)[2:]:
        r = _mul(r, r, f)
        if bit == "1":
            r = _times_z(r, f)
    r[0] -= 1
    return tuple(r)


def _prem(f: list[int], g: list[int], m: int) -> list[int]:
    """Pseudo-remainder c^(deg f - deg g + 1) f mod g modulo m, c = lc(g): no inverse."""
    c = g[-1]
    low = g[:-1]
    r = f[:]
    for top in range(len(f) - 1, len(low) - 1, -1):
        t = r.pop()
        base = top - len(low)
        r[:base] = [c * x % m for x in r[:base]]
        r[base:] = [(c * x - t * y) % m for x, y in zip(r[base:], low)]
    return r


def _shift(g: list[int], f: list[int], m: int) -> list[int]:
    """lc(f) z g mod f modulo m, len(g) = deg f: a unit times z g mod f while lc(f) is one."""
    top = g[-1]
    return [(f[-1] * x - top * y) % m for x, y in zip([0] + g[:-1], f)]


def _euclid_block(f: tuple[int, ...], g, m: int) -> list[list[int]]:
    """Rows of a block whose cokernel modulo m is (Z/m)[z]/(f, g), f monic.

    While lc(g) is a unit modulo m, (f, g) becomes (g, prem(f, g)): the
    module stays, and (Z/m)[z]/(g) is free of rank deg g.  Where f(0) is a
    unit so is z modulo f, and up to deg f shifts z^j g mod f look for a
    unit on top.  Where none has one, or g = 0, the block is multiplication
    by g on (Z/m)[z]/(f), each column z^j g mod f times the unit lc(f)^j, so
    no inverse is taken: deg f rows, none once the module is 0.
    """
    f = [c % m for c in f]
    g = [c % m for c in g]
    shifts = 0
    while True:
        while g and not g[-1]:
            g.pop()
        if g and gcd(g[-1], m) == 1:
            f, g, shifts = g, _prem(f, g, m), 0
            continue
        stuck = not g or shifts == len(f) - 1 or gcd(f[0], m) > 1
        g += [0] * (len(f) - 1 - len(g))
        if stuck:
            cols = [g]
            for _ in range(len(g) - 1):
                cols.append(_shift(cols[-1], f, m))
            return [list(row) for row in zip(*cols)]
        g = _shift(g, f, m)
        shifts += 1


def presentation_matrix(f, n: int, modulus: int = 0) -> IntMatrix:
    """Matrix of multiplication by z^n - 1 on Z[z]/(f), for monic f.

    Column j holds the coefficients of (z^n - 1) z^j mod f in the basis
    1, z, ..., z^(deg f - 1), so the cokernel is Z[z]/(f, z^n - 1) and the
    determinant is Res(f, z^n - 1), the product of a^n - 1 over the roots a
    of f.  Given a modulus m > 0 it is instead the block B where Euclid's
    algorithm on (f, z^n - 1) over Z/m stalls, deg f rows or fewer (a 1 x 1
    identity for none): [B | m I] has the cokernel of [M | m I], so their
    Smith forms modulo m differ only in leading ones.
    """
    coeffs = _monic_coeffs(f, n)
    check_int("modulus", modulus, 0)
    r = _power_minus_one(coeffs, n)
    if not modulus:
        return _multiplication_matrix(list(r), coeffs)
    return IntMatrix(_euclid_block(coeffs, r, modulus) or [[1]])


def presentation_factors(f, n: int, modulus: int) -> tuple[int, ...]:
    """gcd(d_i, modulus) for the deg f invariant factors d_i of Z[z]/(f, z^n - 1),
    monic f, from bigmat's modular diagonal of presentation_matrix's block."""
    coeffs = _monic_coeffs(f, n)
    check_int("modulus", modulus, 1)
    rows = _euclid_block(coeffs, _power_minus_one(coeffs, n), modulus)
    e = len(rows)
    return (1,) * (len(coeffs) - 1 - e) + _chain(_diagonal_mod(rows, e, e, modulus))


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
