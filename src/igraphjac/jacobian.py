"""Jacobian (critical) groups of I-graphs by two independent routes.

Route one is the Smith normal form of igraph's n x n circulant S, coker S = coker L.
Route two works in the ring of the paper: with P the monic polynomial
spectral_poly(k, l), coker(L) is isomorphic to Z[z]/(P, z^n - 1), which the
2(k+l) x 2(k+l) matrix M of multiplication by z^n - 1 on Z[z]/(P) presents
whatever the value of n.  M has rank 2(k+l) - 1 and its torsion has order
tau, the spanning tree count, which treecount computes in the other ring
Z[x]/(R), x = z + 1/z.  The group is taken modulo D = multiplier * n * a
from the square split tau = multiplier * n * a^2, which has half the bits
of tau and has been a multiple of the largest invariant factor (the
exponent) on every graph tried, and modulo tau only if the factors found
modulo D do not multiply to tau.  Euclid's algorithm on (P, z^n - 1) over
Z/D shrinks M, to a 3 x 3 block on most graphs once the small primes of D
are split off and taken by a Smith form of their own.
Both return the torsion part plus a free rank, which is 1 for every
connected I-graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt, prod
from operator import mul

from .bigmat import smith_normal_form
from .errors import InternalInconsistency
from .igraph import GraphParams, circulant_matrix
from .polyring import presentation_factors, presentation_matrix, spectral_poly
from .treecount import decompose, tree_count_resultant

# Above this n the command line's auto method leaves the dense routes on the
# circulant S for the ring-kernel ones; perfbench/worker.py imports the name.
LAPLACIAN_GATE = 60


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    The routes build it from their own Smith forms, so factors that break the
    invariant-factor form are a fault upstream: InternalInconsistency.
    """

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        for d in self.torsion:
            if d < 2:
                raise InternalInconsistency("torsion factors must be > 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InternalInconsistency("torsion factors must form a divisibility chain")
        if self.free_rank < 0:
            raise InternalInconsistency("free rank must be nonnegative")

    @property
    def order(self) -> int:
        """Order of the torsion subgroup."""
        return prod(self.torsion)

    @property
    def rank(self) -> int:
        """Minimal number of generators of the torsion subgroup."""
        return len(self.torsion)


def jacobian_via_laplacian(p: GraphParams) -> AbelianGroup:
    """Torsion of coker(L) = coker(S) from the Smith form of S; InvalidParams above DENSE_CEILING.

    A connected graph has exactly one zero invariant factor; any other count
    means an upstream computation went wrong.
    """
    factors = smith_normal_form(circulant_matrix(p))
    if factors.count(0) != 1:
        raise InternalInconsistency(f"expected one zero invariant factor, got {factors.count(0)}")
    return AbelianGroup(torsion=tuple(d for d in factors if d > 1), free_rank=1)


@cache
def _small_primes() -> int:
    """Product of the primes below 2^10, made on first use."""
    return prod(q for q in range(2, 1 << 10) if all(q % r for r in range(2, isqrt(q) + 1)))


def _split(modulus: int, known: int) -> tuple[int, int]:
    """(Ds, Dc), Ds * Dc = modulus, Ds the primes dividing known or below 2^10, by gcds alone."""
    small, large = 1, modulus
    g = gcd(large, known * _small_primes())
    while g > 1:
        small *= g
        large //= g
        g = gcd(large, g)
    return small, large


def jacobian_via_companion(p: GraphParams) -> AbelianGroup:
    """Torsion of coker(M), M = multiplication by z^n - 1 on Z[z]/(P).

    The torsion order is tau, which tree_count_resultant computes in
    Z[x]/(R) with R = trace_poly(k, l).  Modulo a modulus D the factors
    gcd(d_i, D) of the invariant factors d_i multiply to tau only if every
    d_i divides D, and they are then exact.  D = Ds * Dc from _split: the
    Smith form of presentation_matrix's block modulo Ds, padded with ones,
    times presentation_factors modulo Dc entry by entry is the chain modulo
    D by CRT.  D = multiplier * n * a from decompose is tried first and tau
    if that check fails; each time the zero factor must come back as the
    modulus and the others must multiply to tau, a check that compares the
    two rings.
    """
    f = spectral_poly(p.k, p.l)
    tau = tree_count_resultant(p)
    dec = decompose(tau, p)
    for modulus in (dec.multiplier * p.n * dec.a, tau):
        small, large = _split(modulus, dec.multiplier * p.n)
        factors = smith_normal_form(presentation_matrix(f, p.n, small), modulus=small)
        factors = (1,) * (len(f) - 1 - len(factors)) + factors
        *torsion, last = map(mul, factors, presentation_factors(f, p.n, large))
        if last == modulus and prod(torsion) == tau:
            return AbelianGroup(torsion=tuple(d for d in torsion if d > 1), free_rank=1)
    raise InternalInconsistency(
        f"Smith form modulo tau={tau} gave {torsion + [last]} for {p}"
    )
