"""Exact Jacobian groups, spanning tree counts and tree-growth constants of I-graphs."""

from .asymptotics import mahler_constant, mahler_integral
from .igraph import DENSE_CEILING, normalize
from .jacobian import jacobian_via_companion, jacobian_via_laplacian
from .polyring import lucas_matrix, presentation_matrix, spectral_poly, trace_poly
from .treecount import decompose, tree_count_chebyshev, tree_count_kirchhoff, tree_count_resultant

__all__ = [
    "normalize",
    "decompose",
    "jacobian_via_companion",
    "jacobian_via_laplacian",
    "tree_count_resultant",
    "tree_count_kirchhoff",
    "tree_count_chebyshev",
    "mahler_constant",
    "mahler_integral",
    "spectral_poly",
    "trace_poly",
    "presentation_matrix",
    "lucas_matrix",
    "DENSE_CEILING",
]

__version__ = "0.1.0"
