"""Shared fixtures.

The equivalence grid (every coprime step pair with k + l <= 7, every n
from 3 to 40 that yields a loop-free graph) feeds the acceptance tests
for method agreement, so it is computed once per session.
"""

from dataclasses import dataclass

import pytest

from igraphjac import (
    decompose,
    jacobian_via_companion,
    jacobian_via_laplacian,
    normalize,
    tree_count_chebyshev,
    tree_count_kirchhoff,
    tree_count_resultant,
)
from igraphjac.errors import LoopError
from igraphjac.igraph import GraphParams
from igraphjac.jacobian import AbelianGroup
from igraphjac.treecount import Decomposition

GRID_PAIRS = ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (3, 4))
GRID_N = range(3, 41)


@dataclass(frozen=True)
class GridInstance:
    raw: tuple
    params: GraphParams
    via_laplacian: AbelianGroup
    via_companion: AbelianGroup
    kirchhoff: int
    resultant: int
    chebyshev: int
    decomposition: Decomposition


def grid_parameters():
    for k, l in GRID_PAIRS:
        for n in GRID_N:
            try:
                p = normalize(n, k, l)
            except LoopError:
                continue
            yield (n, k, l), p


@pytest.fixture(scope="session")
def oracle_grid():
    instances = []
    for raw, p in grid_parameters():
        tau = tree_count_resultant(p)
        instances.append(
            GridInstance(
                raw=raw,
                params=p,
                via_laplacian=jacobian_via_laplacian(p),
                via_companion=jacobian_via_companion(p),
                kirchhoff=tree_count_kirchhoff(p),
                resultant=tau,
                chebyshev=tree_count_chebyshev(p),
                decomposition=decompose(tau, p),
            )
        )
    return instances
