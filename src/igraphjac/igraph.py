"""Parameters of the I-graphs I(n, k, l) and the circulant S presenting their Jacobian.

I(n, k, l) has 2n vertices u_0..u_{n-1}, v_0..v_{n-1} and the 3n edges
u_i ~ u_{i+k}, u_i ~ v_i, v_i ~ v_{i+l} (indices mod n).  I(n, k, 1) is the
generalized Petersen graph GP(n, k).  When a step equals n/2 the
corresponding rung doubles, which is fine: all counts below are multigraph
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bigmat import IntMatrix
from .errors import DisconnectedError, InvalidParams, LoopError, check_int, check_steps

DEGREE = 3
# Largest n for the dense n x n circulant S, a bound on memory (22 MB at
# n = 400), not on time.  At n = 400 with small steps its Smith form takes
# 0.05-0.15 s and its minor determinant 0.06-0.27 s (k + l <= 9), but both
# grow with the steps.  The determinant skips rows outside the band, which
# reaches k + l either side of the diagonal: 0.8 s at (7,9), 4 s at (20,21)
# and 20 s at (150,151), where fill-in makes the minor dense.  The Smith form has a heavy tail
# over Z: I(130,7,9) takes over 15 s and I(135,7,9) 0.05 s.
DENSE_CEILING = 400


@dataclass(frozen=True)
class GraphParams:
    """Canonical parameters of a connected I-graph.

    Only canonical triples are representable: 1 <= k <= l <= n-1 with
    gcd(k, l) = 1.  Use :func:`normalize` to bring raw user input into this
    form.
    """

    n: int
    k: int
    l: int

    def __post_init__(self):
        check_int("n", self.n, 3)
        check_steps(self.k, self.l)
        if not self.k <= self.l <= self.n - 1:
            raise InvalidParams(
                f"need 1 <= k <= l <= n-1, got k={self.k}, l={self.l}, n={self.n}"
            )

    def __str__(self):
        return f"I({self.n},{self.k},{self.l})"


def normalize(n: int, k: int, l: int) -> GraphParams:
    """Reduce (n, k, l) to canonical form.

    Steps are taken mod n (rejecting loops), a disconnected graph raises
    DisconnectedError carrying the component count, a common factor of the
    steps is divided out (the graph is unchanged up to isomorphism), and the
    steps are swapped into k <= l order.
    """
    check_int("n", n, 3)
    check_int("k", k)
    check_int("l", l)
    k0 = k % n
    l0 = l % n
    if k0 == 0 or l0 == 0:
        raise LoopError(f"step congruent to 0 mod {n} creates loops")
    m = gcd(n, gcd(k0, l0))
    if m > 1:
        raise DisconnectedError(m)
    d = gcd(k0, l0)
    return GraphParams(n, *sorted((k0 // d, l0 // d)))


def circulant_matrix(p: GraphParams, minor: bool = False) -> IntMatrix:
    """n x n circulant S = A_l A_k - I, whose cokernel is the Laplacian's.

    Rows u_0..u_{n-1}, v_0..v_{n-1} put the 2n x 2n Laplacian in blocks
    [[A_k, -I], [-I, A_l]]: A_s = DEGREE*I - T^s - T^-s (T the n-cycle
    shift) holds a layer's step edges, a step of n/2 counted twice, and -I
    the spokes.  Adding A_l times the u rows to the v rows and A_k times the
    v columns to the u columns leaves [[0, -I], [S, 0]].  S is symmetric
    with zero row sums; each principal (n-1)-minor is the tree count.  With
    minor, the rows are built without row and column 0, so that minor is
    never a copy of S.
    """
    n = p.n
    if n > DENSE_CEILING:
        raise InvalidParams(f"n={n} exceeds the dense matrix ceiling ({DENSE_CEILING})")
    first = [0] * n  # row 0; row i is row 0 shifted i places
    for i, x in ((0, DEGREE), (p.k, -1), (-p.k, -1)):
        for j, y in ((0, DEGREE), (p.l, -1), (-p.l, -1)):
            first[(i + j) % n] += x * y
    first[0] -= 1  # the spokes: (-I)(-I)
    skip = int(minor)
    return IntMatrix(first[n - i + skip :] + first[: n - i] for i in range(skip, n))
