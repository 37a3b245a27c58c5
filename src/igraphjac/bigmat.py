"""Dense exact linear algebra over the integers.

Everything here works on arbitrary-precision Python ints: fraction-free
determinants (Bareiss elimination that brings a row up to date only when a
step uses it, so banded matrices skip most of the work) and the Smith
normal form, over Z or modulo a multiple of the largest invariant factor
(the exponent).  The Smith form diagonalises by elimination with
smallest-pivot selection and one Bezout 2 x 2 step wherever the pivot does
not divide an entry, then orders the diagonal into a divisibility chain by
one gcd/lcm pass.  No floating point.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InvalidParams


class IntMatrix:
    """Dense row-major matrix of Python ints, validated once and read through
    rows, cols and to_lists().

    InvalidParams refuses a matrix with no entries, ragged rows, or an entry
    that is not an int or is a bool.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        rows = [list(r) for r in data]
        if not rows or not rows[0]:
            raise InvalidParams("matrix needs at least one row and one column")
        width = len(rows[0])
        kinds = set()
        for r in rows:
            if len(r) != width:
                raise InvalidParams("ragged rows")
            kinds.update(map(type, r))
        bad = sorted(t.__name__ for t in kinds if not issubclass(t, int) or issubclass(t, bool))
        if bad:
            raise InvalidParams(f"entries must be ints, got {', '.join(bad)}")
        self._data = rows
        self.rows = len(rows)
        self.cols = width

    def to_lists(self) -> list[list[int]]:
        """Mutable deep copy of the entries."""
        return [row[:] for row in self._data]


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination with lazy rows.

    Bareiss step t replaces each row below the pivot by (row * piv - lead *
    pivot row) / prev.  A row whose lead is 0 is only scaled by piv / prev,
    and over consecutive steps those factors telescope, so it is left alone:
    den[i] keeps the prev of the step at which row i was last brought up to
    date, and moves with the row when it is swapped in for a zero pivot.
    A lagging pivot row is multiplied by prev / den[i] entry by entry; a
    lagging row with a nonzero lead is updated with den[i] as the divisor,
    which folds in the same factor.  Each division is exact, as its result
    is the entry Bareiss would hold, a minor of m.  On a banded matrix with
    wrap-around corners, such as a minor of igraph's circulant S, most rows
    skip most steps and the cost falls from O(n^3) to O(n^2 w) for band
    width w; on a dense matrix every row stays current and this is Bareiss.
    """
    if m.rows != m.cols:
        raise InvalidParams("determinant needs a square matrix")
    a = m.to_lists()
    n = m.rows
    den = [1] * n
    sign = 1
    prev = 1
    for t in range(n - 1):
        rt = a[t]
        if not rt[t]:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    den[t], den[i] = den[i], den[t]
                    sign = -sign
                    break
            else:
                return 0
            rt = a[t]
        d = den[t]
        if d != prev:
            rt[t:] = [x * prev // d for x in rt[t:]]
        piv = rt[t]
        # where the pivot row holds a 0 only the scaling is left: 0 stays 0
        cols = range(t + 1, n)
        zeros = ()
        if 0 in rt:
            zeros = [j for j in cols if not rt[j]]
            if zeros:
                cols = [j for j in cols if rt[j]]
        for i in range(t + 1, n):
            ri = a[i]
            lead = ri[t]
            if lead:
                d = den[i]
                for j in cols:
                    ri[j] = (ri[j] * piv - lead * rt[j]) // d
                for j in zeros:
                    x = ri[j]
                    if x:
                        ri[j] = x * piv // d
                den[i] = piv
        prev = piv
    last = a[n - 1][n - 1]
    d = den[n - 1]
    return sign * (last if d == prev else last * prev // d)


def _move_smallest_pivot(a, t, nr, nc) -> bool:
    """Swap the smallest-magnitude nonzero entry of a[t:,t:] into (t,t).

    Returns False when that submatrix is entirely zero.
    """
    best = 0
    bi = bj = -1
    for i in range(t, nr):
        row = a[i]
        for j in range(t, nc):
            v = row[j]
            if v:
                if v < 0:
                    v = -v
                if best == 0 or v < best:
                    best, bi, bj = v, i, j
                    if best == 1:
                        break
        if best == 1:
            break
    if best == 0:
        return False
    if bi != t:
        a[t], a[bi] = a[bi], a[t]
    if bj != t:
        for row in a:
            row[t], row[bj] = row[bj], row[t]
    return True


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for nonzero a and b."""
    g = gcd(a, b)
    a //= g
    b //= g
    if b in (1, -1):
        return g, 0, b
    x = pow(a, -1, abs(b))
    return g, x, (1 - x * a) // b


def _reduce(row, t, modulus):
    """Replace row[t:] by its residues of least magnitude mod modulus."""
    half = modulus >> 1
    row[t:] = [r - modulus if (r := x % modulus) > half else r for x in row[t:]]


def _clear_cross(a, t, nr, nc, modulus) -> int:
    """Zero out row t and column t beyond the pivot; return the final pivot (> 0).

    Where the pivot divides an entry, one multiple of the pivot row (column)
    is subtracted.  Where it does not, a 2 x 2 unimodular step built from the
    Bezout coefficients makes the gcd of the two the pivot, so the pivot
    shrinks strictly and the loop ends.  Given a modulus, every changed row
    is reduced modulo it.
    """
    while True:
        rt = a[t]
        if rt[t] < 0:
            rt[t:] = [-x for x in rt[t:]]
        for i in range(t + 1, nr):
            ri = a[i]
            v = ri[t]
            if not v:
                continue
            piv = rt[t]
            q, r = divmod(v, piv)
            if r:
                g, x, y = _bezout(piv, v)
                u, w = piv // g, v // g
                pairs = list(zip(rt[t:], ri[t:]))
                rt[t:] = [x * c + y * d for c, d in pairs]
                ri[t:] = [u * d - w * c for c, d in pairs]
                if modulus:
                    _reduce(rt, t, modulus)
            else:
                for j in range(t, nc):
                    ri[j] -= q * rt[j]
            if modulus:
                _reduce(ri, t, modulus)
        # column t is now zero below the pivot, so subtracting a multiple
        # of it from another column only changes that column's row t
        piv = rt[t]
        for j in range(t + 1, nc):
            v = rt[j]
            if not v:
                continue
            if v % piv == 0:
                rt[j] = 0
                continue
            g, x, y = _bezout(piv, v)
            u, w = piv // g, v // g
            for row in a[t:]:
                c, d = row[t], row[j]
                row[t], row[j] = x * c + y * d, u * d - w * c
                if modulus:
                    _reduce(row, t, modulus)
            break  # column t has entries below the pivot again
        else:
            return piv


def smith_normal_form(m: IntMatrix, modulus: int = 0) -> tuple[int, ...]:
    """Smith normal form over Z, or of [m | modulus * I] when modulus > 0.

    Returns one factor per min(rows, cols): the invariant factors d_1 | d_2
    | ... of m with zeros last or, given a modulus D, gcd(d_i, D) for each
    (so a zero factor comes back as D).  Modulo D every entry is kept as its
    residue of least magnitude, valid because the lattice spanned by
    [m | D*I] always contains D*Z^rows, which bounds the entries by D
    (Hafner-McCurley modulo-determinant normal forms).  The nonzero factors
    are exact when D is a multiple of the largest invariant factor (the
    exponent); a caller that knows the torsion order can test that, since
    the gcds multiply to it only then.  Elimination pivots on the
    smallest-magnitude nonzero entry and diagonalises m; one pass that
    replaces each pair (d_i, d_j), i < j, of the diagonal by (gcd, lcm) then
    gives the divisibility chain, with zeros last since lcm(0, d) = 0.
    Modulo D, gcd(., D) commutes with that pass, so each factor is still
    gcd(d_i, D).
    """
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    if modulus:
        for row in a:
            _reduce(row, 0, modulus)
    size = min(nr, nc)
    diag = []
    for t in range(size):
        if not _move_smallest_pivot(a, t, nr, nc):
            break
        diag.append(gcd(_clear_cross(a, t, nr, nc, modulus), modulus))
    diag.extend([modulus] * (size - len(diag)))
    for i in range(size):
        for j in range(i + 1, size):
            if diag[i] == 1:
                break
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return tuple(diag)
