"""Independent oracles and comparison helpers for the test suite.

Everything here deliberately avoids the package's own exact kernels: the
2n x 2n Laplacian is built row by row and from the edge list, determinants
run over Fractions, tree counts come from deletion and contraction or from a
plain Gaussian Kirchhoff minor, and resultants are Sylvester determinants or
the subresultant PRS.  determinant_bareiss is plain Bareiss elimination,
which rescales every row at every step where the package's determinant
skips rows whose lead is 0.  The companion matrix and its powers present
Z[z]/(f, z^n - 1) the way the ring kernel's square-and-multiply does not;
the Chebyshev values come from three-term recurrences, and the Chebyshev
quotient in w = x/2 is built by polynomial products where trace_poly needs
none.  The one exception is tree_count_q_ring, the former large-n count:
it runs the package's ring kernel over Z[z]/(Q), Q = P/(z - 1)^2, twice the
size of the Z[x]/(R) the package now uses.  mahler_integral_mpf is the
Mahler integral's trapezoidal rule with its chord table and node product
in mpmath floats, where the package runs them on scaled ints.  Slow is
fine; these only certify.  sixfold_rule_report is the diagnostic that tallies square
decompositions by parity.
"""

from fractions import Fraction
from math import gcd

import mpmath

from igraphjac import presentation_matrix, spectral_poly
from igraphjac.bigmat import IntMatrix, determinant
from igraphjac.errors import InvalidParams


def identity(n):
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zeros(rows, cols):
    return IntMatrix([[0] * cols for _ in range(rows)])


def trim(coeffs):
    """Ascending int coefficients without trailing zeros; (0,) for zero."""
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) or (0,)


def evaluate(poly, x):
    """poly(x) by Horner's rule, for ascending coefficients."""
    acc = 0 * x
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def deflate(poly, root):
    """Synthetic division by (x - root); returns (quotient, remainder)."""
    out = [poly[-1]]
    for c in reversed(poly[:-1]):
        out.append(c + root * out[-1])
    rem = out.pop()
    return trim(reversed(out)), rem


def shifted(poly, m):
    """poly * x**m (m >= 0)."""
    if m < 0:
        raise ValueError("shift must be nonnegative")
    if poly == (0,):
        return poly
    return (0,) * m + tuple(poly)


def is_bimonic(p):
    """Degree at least 1 and both extreme coefficients equal to 1."""
    return len(p) >= 2 and p[0] == 1 and p[-1] == 1


def derivative(p):
    """Formal derivative."""
    return trim([i * c for i, c in enumerate(p)][1:])


def poly_mul(f, g):
    """Product of two polynomials by convolving their coefficient tuples."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def chebyshev_t_poly(n):
    """Coefficients of the degree-n Chebyshev polynomial of the first kind."""
    prev, cur = [1], [0, 1]
    if n == 0:
        return tuple(prev)
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(cur)


def lucas_poly(n):
    """V_n(x) = 2 T_n(x/2), so that V_n(z + 1/z) = z^n + z^-n."""
    coeffs = []
    for i, c in enumerate(chebyshev_t_poly(n)):
        v, rem = divmod(2 * c, 2**i)
        assert rem == 0
        coeffs.append(v)
    return tuple(coeffs)


def chebyshev_quotient(k, l):
    """((3 - 2T_k(w))(3 - 2T_l(w)) - 1) / (w - 1): spectral_poly in
    w = (z + 1/z)/2 with the root w = 1 divided out.  Degree k+l-1, leading
    coefficient 2^(k+l), value -2(k^2 + l^2) at w = 1."""
    factors = []
    for j in (k, l):
        coeffs = [-2 * c for c in chebyshev_t_poly(j)]
        coeffs[0] += 3
        factors.append(tuple(coeffs))
    full = list(poly_mul(*factors))
    full[0] -= 1
    quot, rem = deflate(full, 1)
    assert rem == 0
    return quot


def spectral_quotient(k, l):
    """Q = spectral_poly(k, l) / (z - 1)^2: the double root at z = 1 divided
    out, leaving 2(k+l-1) distinct roots in reciprocal pairs."""
    q = spectral_poly(k, l)
    for _ in range(2):
        q, rem = deflate(q, 1)
        assert rem == 0
    return q


def tree_count_q_ring(n, k, l):
    """tau(I(n,k,l)) = n |Res(Q, z^n - 1)| / (k^2 + l^2) for
    Q = spectral_quotient(k, l), from the determinant of multiplication by
    z^n - 1 on Z[z]/(Q)."""
    q = spectral_quotient(k, l)
    tau, rem = divmod(n * abs(determinant(presentation_matrix(q, n))), k * k + l * l)
    assert rem == 0 and tau > 0
    return tau


def chebyshev_t(n, x):
    """T_n(x) by the three-term recurrence, exact for int/Fraction x."""
    prev, cur = 1, x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def chebyshev_u(n, x):
    """U_n(x) by the three-term recurrence, exact for int/Fraction x."""
    prev, cur = 1, 2 * x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def chord_table_mpf(n):
    """|1 - w^m|^2 = 4 sin^2(pi m/n) for 0 <= m <= n/2, w = e^(2 pi i/n)."""
    return [4 * mpmath.sinpi(mpmath.mpf(m) / n) ** 2 for m in range(n // 2 + 1)]


def halve_angles_mpf(q):
    """The chord table for 2n nodes from the one for n nodes, n even, in mpf."""
    h = len(q) - 1
    out = [None] * (2 * h + 1)
    out[::2] = q
    for m in range(1, h + 1, 2):
        c = 2 + mpmath.sqrt(q[h - m])
        out[m] = q[m] / c
        out[2 * h - m] = c
    return out


def node_product_mpf(k, l, n, q, step=1):
    """Product of u + v + uv over j = 1, 1 + step, ... below n/2, from the mpf table q."""
    acc = mpmath.mpf(1)
    for j in range(1, (n + 1) // 2, step):
        a, b = k * j % n, l * j % n
        u, v = q[min(a, n - a)], q[min(b, n - b)]
        acc *= u + v + u * v
    return acc


def mahler_integral_mpf(k, l, precision_bits):
    """(value, bound) of mahler_integral's rule with its table and nodes in mpf.

    Same nodes, stopping rule and bound as the package, all at
    precision_bits + 32; no node cap.
    """
    with mpmath.workprec(precision_bits + 32):
        ends = (k * k + l * l) * (6 if k % 2 and l % 2 else 1)
        n = 2 * (k + l)
        q = chord_table_mpf(n)
        half = node_product_mpf(k, l, n, q) / (n // 2)
        prev = mpmath.log(ends * half**2) / n
        tolerance = mpmath.mpf(2) ** (-(precision_bits // 2))
        last = None
        while True:
            q = halve_angles_mpf(q)
            half *= node_product_mpf(k, l, 2 * n, q, step=2) / 2
            n *= 2
            mean = mpmath.log(ends * half**2) / n
            diff = abs(mean - prev)
            if diff <= tolerance and last is not None and diff < last:
                break
            prev, last = mean, diff
        value = mpmath.exp(mean)
        return value, value * (100 * diff + mpmath.mpf(2) ** (-(precision_bits - 8)))


def igraph_edge_list(n, k, l):
    """Edge multiset of I(n,k,l): outer cycle step k on 0..n-1, inner
    cycle step l on n..2n-1, spokes in between."""
    edges = []
    for i in range(n):
        edges.append((i, (i + k) % n))
        edges.append((n + i, n + (i + l) % n))
        edges.append((i, n + i))
    return edges


def adjacency_from_edges(num_vertices, edges):
    a = [[0] * num_vertices for _ in range(num_vertices)]
    for x, y in edges:
        a[x][y] += 1
        a[y][x] += 1
    return a


def laplacian_from_edges(num_vertices, edges):
    m = [[0] * num_vertices for _ in range(num_vertices)]
    for x, y in edges:
        m[x][x] += 1
        m[y][y] += 1
        m[x][y] -= 1
        m[y][x] -= 1
    return m


def laplacian_matrix(n, k, l):
    """2n x 2n Laplacian 3I - A of I(n,k,l), rows u_0..u_{n-1} then
    v_0..v_{n-1}, built row by row from the edge rule: 3 on the diagonal,
    -1 per step neighbour (a step of n/2 meets one neighbour both ways, so
    -2) and -1 for the spoke.  The dense routes work on the n x n circulant
    that one block elimination leaves of it; this is the matrix itself."""
    rows = []
    for offset, step in ((0, k), (n, l)):
        for i in range(n):
            row = [0] * (2 * n)
            row[offset + i] = 3
            row[offset + (i + step) % n] -= 1
            row[offset + (i - step) % n] -= 1
            row[n - offset + i] = -1  # the spoke to the other layer
            rows.append(row)
    return rows


def det_fractions(rows):
    """Gaussian elimination determinant over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    if m == 0:
        return Fraction(1)
    det = Fraction(1)
    for c in range(m):
        piv = next((r for r in range(c, m) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for r in range(c + 1, m):
            f = a[r][c] * inv
            if f:
                for j in range(c, m):
                    a[r][j] -= f * a[c][j]
    return det


def determinant_bareiss(rows):
    """Plain Bareiss fraction-free elimination: every row below the pivot is
    rescaled at every step, whatever its lead, so O(n^3) integer operations
    however sparse the matrix."""
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[t][t]
        rt = a[t]
        for i in range(t + 1, n):
            ri = a[i]
            lead = ri[t]
            for j in range(t + 1, n):
                ri[j] = (ri[j] * piv - lead * rt[j]) // prev
            ri[t] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def rank_fractions(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    cols = len(a[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1) / a[rank][c]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c] * inv
                for j in range(c, cols):
                    a[r][j] -= f * a[rank][j]
        rank += 1
    return rank


def tree_count_kirchhoff_fractions(num_vertices, edges):
    """Spanning tree count as a Laplacian minor over Fractions."""
    lap = laplacian_from_edges(num_vertices, edges)
    minor = [row[1:] for row in lap[1:]]
    det = det_fractions(minor)
    assert det.denominator == 1
    return int(det)


def _connected(num_vertices, edges):
    seen = {0}
    stack = [0]
    adj = [[] for _ in range(num_vertices)]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == num_vertices


def tree_count_deletion_contraction(num_vertices, edges):
    """tau(G) = tau(G - e) + tau(G / e); exponential, tiny graphs only."""
    edges = [e for e in edges if e[0] != e[1]]
    if num_vertices == 1:
        return 1
    if len(edges) < num_vertices - 1 or not _connected(num_vertices, edges):
        return 0
    a, b = edges[-1]
    if a > b:
        a, b = b, a
    rest = edges[:-1]

    def relabel(v):
        if v == b:
            v = a
        return v - 1 if v > b else v

    merged = [(relabel(x), relabel(y)) for x, y in rest]
    return (
        tree_count_deletion_contraction(num_vertices, rest)
        + tree_count_deletion_contraction(num_vertices - 1, merged)
    )


def canonical_invariant_factors(factors):
    """Unique divisibility-chain form of a cyclic factor list.

    Replacing a pair by (gcd, lcm) preserves the group; iterating to a
    fixed point sorts every prime's exponents without factoring anything.
    """
    vals = [int(f) for f in factors if int(f) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                g = gcd(vals[i], vals[j])
                lc = vals[i] // g * vals[j]
                if (g, lc) != (vals[i], vals[j]):
                    vals[i], vals[j] = g, lc
                    changed = True
    return tuple(v for v in vals if v != 1)


def sylvester_resultant(f, g):
    """Resultant from the Sylvester matrix, ascending coefficient lists."""
    df, dg = len(f) - 1, len(g) - 1
    assert f[-1] != 0 and g[-1] != 0
    size = df + dg
    if size == 0:
        return 1
    frev = list(reversed(f))
    grev = list(reversed(g))
    rows = []
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (dg - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (df - 1 - i))
    det = det_fractions(rows)
    assert det.denominator == 1
    return int(det)


def mat_mul(a, b):
    """Exact product of two IntMatrix values."""
    if a.cols != b.rows:
        raise InvalidParams(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bl = b.to_lists()
    return IntMatrix(
        [[sum(x * bl[t][j] for t, x in enumerate(row)) for j in range(b.cols)] for row in a.to_lists()]
    )


def mat_pow(m, e):
    """m**e by repeated squaring, e >= 0."""
    if m.rows != m.cols:
        raise InvalidParams("only square matrices can be powered")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = identity(m.rows)
    while e:
        if e & 1:
            result = mat_mul(result, m)
        e >>= 1
        if e:
            m = mat_mul(m, m)
    return result


def companion_matrix(p):
    """Companion matrix of a bimonic polynomial such as spectral_poly(k, l):
    ones on the superdiagonal, minus the coefficients below."""
    if not is_bimonic(p):
        raise ValueError(f"extreme coefficients must be 1, got {p[0]}, {p[-1]}")
    s = len(p) - 1
    rows = [[int(j == i + 1) for j in range(s)] for i in range(s - 1)]
    rows.append([-c for c in p[:-1]])
    return IntMatrix(rows)


def all_ones_poly(n):
    """1 + x + ... + x^(n-1); its roots are the nontrivial n-th roots of unity."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an int >= 2")
    return (1,) * n


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g if g else 1


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, ascending lists."""
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    e = (len(a) - 1) - db + 1
    while True:
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < db or r == [0]:
            break
        lr = r[-1]
        shift = dr - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        r.pop()
        e -= 1
    if e > 0 and r != [0]:
        f = lb**e
        r = [c * f for c in r]
    return r


def _div_coeffs(coeffs, d):
    out = []
    for c in coeffs:
        q, rem = divmod(c, d)
        assert rem == 0, "subresultant division was not exact"
        out.append(q)
    return out


def resultant(f, g):
    """Res(f, g) of two polynomials via the subresultant PRS
    (Collins/Brown-Traub), in the Sylvester-determinant convention: for
    monic f it is the product of g over the roots of f, and swapping the
    arguments multiplies it by (-1)^(deg f * deg g)."""
    a, b = list(trim(f)), list(trim(g))
    if a == [0] or b == [0]:
        raise InvalidParams("resultant of the zero polynomial is undefined")
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    s = 1
    if len(a) < len(b):
        if (len(a) % 2 == 0) and (len(b) % 2 == 0):  # both degrees odd
            s = -s
        a, b = b, a
    ca, cb = _content(a), _content(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    gg = 1
    hh = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if (da % 2 == 1) and (db % 2 == 1):
            s = -s
        r = _prem(a, b)
        if r == [0]:
            return 0  # common factor
        a = b
        b = _div_coeffs(r, gg * hh**delta)
        gg = a[-1]
        if delta:
            num, rem = divmod(gg**delta, hh ** (delta - 1))
            assert rem == 0, "subresultant h-update was not exact"
            hh = num
        if len(b) - 1 == 0:
            break
    da = len(a) - 1
    num, rem = divmod(b[0] ** da, hh ** (da - 1))
    assert rem == 0, "final subresultant division was not exact"
    return s * t * num


def tree_count_subresultant(n, k, l):
    """tau(I(n,k,l)) = (-1)^((n-1)(k+l)) Res(1 + z + ... + z^(n-1), z^(k+l) P) / n
    for z^(k+l) P = spectral_poly(k, l), by the subresultant PRS."""
    res = resultant(all_ones_poly(n), spectral_poly(k, l))
    tau, rem = divmod(-res if ((n - 1) * (k + l)) % 2 else res, n)
    assert rem == 0 and tau > 0
    return tau


def sixfold_rule_report(samples):
    """Which parity rule governs the multiplier 6 on even n?

    Published statements of the square split disagree on whether the factor 6
    attaches to even or odd k+l; the exact P(-1) criterion settles it.  Given
    (GraphParams, Decomposition) pairs, tally the even-n cases and report
    which labeling the data supports.
    """
    even_sum_six = even_sum_one = odd_sum_six = odd_sum_one = 0
    conflicts = []
    for p, dec in samples:
        if p.n % 2:
            if dec.multiplier != 1:
                conflicts.append((p, dec.multiplier))
            continue
        if (p.k + p.l) % 2 == 0:
            if dec.multiplier == 6:
                even_sum_six += 1
            else:
                even_sum_one += 1
        else:
            if dec.multiplier == 6:
                odd_sum_six += 1
            else:
                odd_sum_one += 1
    supports_even_sum = even_sum_one == 0 and odd_sum_six == 0
    supports_odd_sum = even_sum_six == 0 and odd_sum_one == 0
    if supports_even_sum and not supports_odd_sum:
        rule = "multiplier 6 iff n even and k+l even"
    elif supports_odd_sum and not supports_even_sum:
        rule = "multiplier 6 iff n even and k+l odd"
    else:
        rule = "inconclusive"
    return {
        "rule": rule,
        "even_n_cases": even_sum_six + even_sum_one + odd_sum_six + odd_sum_one,
        "six_with_even_sum": even_sum_six,
        "six_with_odd_sum": odd_sum_six,
        "odd_n_conflicts": conflicts,
    }
