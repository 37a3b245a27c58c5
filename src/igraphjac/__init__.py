"""Exact Jacobian groups, spanning tree counts and tree-growth constants of I-graphs."""

from .bigmat import (
    IntMatrix,
    SmithForm,
    determinant,
    smith_normal_form,
)
from .errors import (
    ClassificationFailure,
    ConvergenceFailure,
    DimensionMismatch,
    DisconnectedError,
    InternalInconsistency,
    InvalidParams,
    LoopError,
    NotASquare,
    PrecisionExhausted,
    QuadratureFailure,
    ZeroPolynomial,
)
from .igraph import DEGREE, DENSE_CEILING, GraphParams, adjacency_matrix, laplacian_matrix, normalize
from .jacobian import (
    LAPLACIAN_GATE,
    AbelianGroup,
    group_from_smith,
    jacobian_via_companion,
    jacobian_via_laplacian,
    rank_bounds_report,
)
from .polyring import (
    IntPoly,
    lucas_matrix,
    presentation_matrix,
    spectral_poly,
    trace_poly,
)
from .treecount import (
    ROUNDING_GUARD,
    Decomposition,
    TreeCount,
    check_lower_bound,
    decompose,
    tree_count_chebyshev,
    tree_count_kirchhoff,
    tree_count_resultant,
)
from .asymptotics import (
    DEFAULT_PRECISION,
    RealApprox,
    RootSet,
    asymptotic_ratio,
    mahler_constant,
    mahler_integral,
    poly_roots,
)

__version__ = "0.1.0"
