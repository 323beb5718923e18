"""Rayleigh-Ritz projection, refined extraction and convergence diagnostics
for dense quadratic eigenvalue problems ``(lam^2 M + lam D + K) x = 0``.

The library solves small dense problems exactly through the companion
linearization, projects large-in-spirit problems onto orthonormal search
spaces, extracts plain and refined approximate eigenvectors, and computes
the separation-based a-priori bounds that explain when each extraction
converges.
"""

from .angles import Angle, stacked_subspace_angle, subspace_angle, vector_angle
from .errors import (
    AmbiguousMinimizer,
    BadNorm,
    DimensionMismatch,
    EmptyList,
    IndefiniteMass,
    IoFailure,
    NoConvergence,
    NotAnEigenpair,
    NotOrthonormal,
    OrthogonalSubspace,
    ParseError,
    QritzError,
    QritzWarning,
    RankDeficient,
    Singular,
    UnsupportedField,
    ZeroBv,
    ZeroEigenvalue,
    ZeroVector,
)
from .kernels import (
    eig_standard,
    orthonormalize,
    solve_linear,
    spectral_norm,
    svd,
    unitary_completion,
)
from .mmio import read_matrix_market, write_matrix_market
from .pencil import (
    Eigenpair,
    QuadraticPencil,
    companion_matrix,
    linearize,
    qep_residual,
    stack_vector,
)
from .projection import ProjectedPencil, RitzPair, project, ritz_pairs
from .refined import RefinedRitz, refined_ritz
from .solver import select_eigenpair, solve_full
from .study import StudyRow, run_study, write_study_csv
from .subspace import perturbed_subspace
from .theory import (
    DiagnosticsReport,
    PerturbationTriple,
    Reference,
    deflate,
    elsner_bound,
    full_diagnostics,
    perturbation_triple,
    reference,
    refined_residual_identity_check,
    refined_vector_bound,
    ritz_vector_bound,
    sep,
    stacked_angle_inequality_check,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AmbiguousMinimizer",
    "BadNorm",
    "DiagnosticsReport",
    "DimensionMismatch",
    "Eigenpair",
    "EmptyList",
    "IndefiniteMass",
    "IoFailure",
    "NoConvergence",
    "NotAnEigenpair",
    "NotOrthonormal",
    "OrthogonalSubspace",
    "ParseError",
    "PerturbationTriple",
    "ProjectedPencil",
    "QritzError",
    "QritzWarning",
    "QuadraticPencil",
    "RankDeficient",
    "Reference",
    "RefinedRitz",
    "RitzPair",
    "Singular",
    "StudyRow",
    "UnsupportedField",
    "ZeroBv",
    "ZeroEigenvalue",
    "ZeroVector",
    "companion_matrix",
    "deflate",
    "eig_standard",
    "elsner_bound",
    "full_diagnostics",
    "linearize",
    "orthonormalize",
    "perturbation_triple",
    "perturbed_subspace",
    "project",
    "qep_residual",
    "read_matrix_market",
    "reference",
    "refined_residual_identity_check",
    "refined_ritz",
    "refined_vector_bound",
    "ritz_pairs",
    "ritz_vector_bound",
    "run_study",
    "select_eigenpair",
    "sep",
    "solve_full",
    "solve_linear",
    "spectral_norm",
    "stack_vector",
    "stacked_angle_inequality_check",
    "stacked_subspace_angle",
    "subspace_angle",
    "svd",
    "unitary_completion",
    "vector_angle",
    "write_matrix_market",
    "write_study_csv",
]
