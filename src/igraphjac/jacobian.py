"""Jacobian (critical) groups of I-graphs by two independent routes.

Route one is the definition: Smith normal form of the 2n x 2n Laplacian.
Route two compresses the cokernel first: with P the monic polynomial
spectral_poly(k, l), coker(L) is isomorphic to Z[z]/(P, z^n - 1), which the
2(k+l) x 2(k+l) matrix M of multiplication by z^n - 1 on Z[z]/(P) presents
whatever the value of n.  M has rank 2(k+l) - 1 and each corner cofactor of
M is +-tau, the torsion order, so the Smith form of M is taken modulo tau.
Both return the torsion part plus a free rank, which is 1 for every
connected I-graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .bigmat import IntMatrix, SmithForm, determinant, smith_normal_form
from .errors import InternalInconsistency
from .igraph import GraphParams, laplacian_matrix
from .polyring import presentation_matrix, spectral_poly

# Above this n the command line's auto method leaves the dense Laplacian
# routes for the ring-kernel ones.
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


def group_from_smith(sf: SmithForm) -> AbelianGroup:
    """Cokernel of a matrix with the given Smith diagonal.

    Every connected I-graph cokernel here must have exactly one zero factor;
    anything else means an upstream computation went wrong.
    """
    zeros = sum(1 for d in sf.invariant_factors if d == 0)
    if zeros != 1:
        raise InternalInconsistency(f"expected exactly one zero invariant factor, got {zeros}")
    return AbelianGroup(
        torsion=tuple(d for d in sf.invariant_factors if d > 1),
        free_rank=zeros,
    )


def jacobian_via_laplacian(p: GraphParams) -> AbelianGroup:
    """Torsion of coker(L) from the Laplacian Smith form; InvalidParams above DENSE_CEILING."""
    return group_from_smith(smith_normal_form(laplacian_matrix(p)))


def jacobian_via_companion(p: GraphParams) -> AbelianGroup:
    """Torsion of coker(M), M = multiplication by z^n - 1 on Z[z]/(P).

    The left kernel of M is evaluation at z = 1 and the right kernel is
    P/(z - 1), whose end coefficients are +-1, so the (0,0) cofactor of M is
    +-tau.  The Smith form is then taken modulo tau; its last factor must
    come back as tau and the others must multiply to tau, a check the
    Bareiss determinant and the elimination share no code for.
    """
    m = presentation_matrix(spectral_poly(p.k, p.l), p.n)
    tau = abs(determinant(IntMatrix([row[1:] for row in m.to_lists()[1:]])))
    if tau == 0:
        raise InternalInconsistency(f"corner cofactor of the presentation of {p} is 0")
    *torsion, last = smith_normal_form(m, modulus=tau).invariant_factors
    if last != tau or prod(torsion) != tau:
        raise InternalInconsistency(
            f"Smith form modulo tau={tau} gave {torsion + [last]} for {p}"
        )
    return AbelianGroup(torsion=tuple(d for d in torsion if d > 1), free_rank=1)


def rank_bounds_report(p: GraphParams, g: AbelianGroup) -> dict:
    """Check 2 <= rank <= 2k + 2l - 1 and report the observed value."""
    upper = 2 * p.k + 2 * p.l - 1
    return {
        "rank": g.rank,
        "lower": 2,
        "upper": upper,
        "lower_ok": g.rank >= 2,
        "upper_ok": g.rank <= upper,
    }
