"""Jacobian (critical) groups of I-graphs by two independent routes.

Route one is the Smith normal form of igraph's n x n circulant S, coker S = coker L.
Route two compresses the cokernel first: with P the monic polynomial
spectral_poly(k, l), coker(L) is isomorphic to Z[z]/(P, z^n - 1), which the
2(k+l) x 2(k+l) matrix M of multiplication by z^n - 1 on Z[z]/(P) presents
whatever the value of n.  M has rank 2(k+l) - 1 and its torsion has order
tau, the spanning tree count, which treecount computes in the other ring
Z[x]/(R), x = z + 1/z.  The Smith form of M is taken modulo D = multiplier *
n * a from the square split tau = multiplier * n * a^2, which has half the
bits of tau and has been a multiple of the largest invariant factor (the
exponent) on every graph tried, and modulo tau only if the factors found
modulo D do not multiply to tau.
Both return the torsion part plus a free rank, which is 1 for every
connected I-graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .bigmat import smith_normal_form
from .errors import InternalInconsistency
from .igraph import GraphParams, circulant_matrix
from .polyring import presentation_matrix, spectral_poly
from .treecount import decompose, tree_count_resultant

# Above this n the command line's auto method leaves the dense routes on the
# circulant S for the ring-kernel ones; perfbench/worker.py imports the name.
LAPLACIAN_GATE = 60


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion factors must be > 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

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


def jacobian_via_companion(p: GraphParams) -> AbelianGroup:
    """Torsion of coker(M), M = multiplication by z^n - 1 on Z[z]/(P).

    The torsion order is tau, which tree_count_resultant computes in
    Z[x]/(R) with R = trace_poly(k, l).  Modulo a modulus D the Smith form
    returns gcd(d_i, D) for each invariant factor d_i, so the factors
    multiply to tau only if every d_i divides D, and they are then exact.
    The form is taken modulo D = multiplier * n * a from decompose first and
    modulo tau if that check fails; each time the zero factor must come back
    as the modulus and the others must multiply to tau, a check that
    compares the two rings.
    """
    m = presentation_matrix(spectral_poly(p.k, p.l), p.n)
    tau = tree_count_resultant(p)
    dec = decompose(tau, p)
    for modulus in (dec.multiplier * p.n * dec.a, tau):
        *torsion, last = smith_normal_form(m, modulus=modulus)
        if last == modulus and prod(torsion) == tau:
            return AbelianGroup(torsion=tuple(d for d in torsion if d > 1), free_rank=1)
    raise InternalInconsistency(
        f"Smith form modulo tau={tau} gave {torsion + [last]} for {p}"
    )
