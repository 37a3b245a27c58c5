"""Parameters and the Laplacian of the I-graph family I(n, k, l).

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
from .errors import DisconnectedError, InvalidParams, LoopError

DEGREE = 3
# Largest n for the dense 2n x 2n matrices (33 MB of Laplacian at n = 400)
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
        for name in ("n", "k", "l"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidParams(f"{name} must be an int")
        if self.n < 3:
            raise InvalidParams(f"n must be at least 3, got {self.n}")
        if not (1 <= self.k <= self.l <= self.n - 1):
            raise InvalidParams(
                f"need 1 <= k <= l <= n-1, got k={self.k}, l={self.l}, n={self.n}"
            )
        if gcd(self.k, self.l) != 1:
            raise InvalidParams(f"k and l must be coprime, got {self.k}, {self.l}")

    def __str__(self):
        return f"I({self.n},{self.k},{self.l})"


def normalize(n: int, k: int, l: int) -> GraphParams:
    """Reduce (n, k, l) to canonical form.

    Steps are taken mod n (rejecting loops), a disconnected graph raises
    DisconnectedError carrying the component count, a common factor of the
    steps is divided out (the graph is unchanged up to isomorphism), and the
    steps are swapped into k <= l order.
    """
    for name, v in (("n", n), ("k", k), ("l", l)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidParams(f"{name} must be an int")
    if n < 3:
        raise InvalidParams(f"n must be at least 3, got {n}")
    k0 = k % n
    l0 = l % n
    if k0 == 0 or l0 == 0:
        raise LoopError(f"step congruent to 0 mod {n} creates loops")
    m = gcd(n, gcd(k0, l0))
    if m > 1:
        raise DisconnectedError(m)
    d = gcd(k0, l0)
    if d > 1:
        k0 //= d
        l0 //= d
    if k0 > l0:
        k0, l0 = l0, k0
    return GraphParams(n, k0, l0)


def laplacian_matrix(p: GraphParams) -> IntMatrix:
    """2n x 2n Laplacian 3*I - A, rows u_0..u_{n-1} then v_0..v_{n-1}.

    Each vertex has DEGREE on the diagonal and -1 per edge: its two step
    neighbours and its spoke.  A step of n/2 reaches the same neighbour both
    ways, so that entry is -2; every row sums to zero.
    """
    n = p.n
    if n > DENSE_CEILING:
        raise InvalidParams(f"n={n} exceeds the dense matrix ceiling ({DENSE_CEILING})")
    rows = []
    for offset, step in ((0, p.k), (n, p.l)):
        for i in range(n):
            row = [0] * (2 * n)
            row[offset + i] = DEGREE
            row[offset + (i + step) % n] -= 1
            row[offset + (i - step) % n] -= 1
            row[n - offset + i] = -1  # the spoke to the other layer
            rows.append(row)
    return IntMatrix(rows)
