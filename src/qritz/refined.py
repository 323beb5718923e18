"""Refined extraction: residual-minimizing unit vectors in the search space.

For a fixed Ritz value ``mu`` the refined vector is ``Q z`` where ``z``
minimizes ``||(mu^2 M + mu D + K) Q z||`` over unit vectors, i.e. the right
singular vector of the tall matrix ``(mu^2 M + mu D + K) Q`` belonging to its
smallest singular value.  Unlike the Ritz vector, this minimizer is immune to
clustered Ritz values: it converges whenever the search space does.

The tall matrix is never formed.  With the basis image ``W = [MQ, DQ, KQ] = U R``
of ``pencil.BasisImage``, ``(mu^2 M + mu D + K) Q = U R [mu^2 I; mu I; I]`` and
``U`` has orthonormal columns, so the SVD of the small ``R [mu^2 I; mu I; I]``
has the same singular values and right singular vectors.  The image costs
O(n^2 m) once per basis; each value ``mu`` then costs O(m^3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .angles import vector_angle
from .errors import AmbiguousMinimizer, NotOrthonormal
from .kernels import as_matrix, as_vector, orthonormality_defect, _right_singulars
from .pencil import QuadraticPencil
from .projection import BASIS_TOL, project, ritz_pairs, select_ritz

#: Relative gap under which the two smallest singular values are considered
#: coincident and the minimizer reported as non-unique.
GAP_TOL = 1e-12


@dataclass(frozen=True)
class RefinedRitz:
    """A refined approximate eigenpair: kept value, minimizing vector."""

    value: complex
    coeff: np.ndarray
    vector: np.ndarray
    sigma_min: float
    residual_norm: float


@dataclass(frozen=True)
class ExtractionComparison:
    """Side-by-side accuracy of plain and refined extraction for one value."""

    ritz_angle: float
    refined_angle: float
    ritz_residual: float
    refined_residual: float


def refined_ritz(p: QuadraticPencil, Q, mu: complex) -> RefinedRitz:
    """Residual-minimizing unit vector in span{Q} for the value ``mu``.

    Refining several values for one basis reuses the basis image that the
    pencil memoizes (``QuadraticPencil.image``), as does ``project``.

    Warns:
        AmbiguousMinimizer: when the two smallest singular values agree to
            ``GAP_TOL`` relative; the returned vector is then one arbitrary
            element of the minimizing subspace.
    """
    Q = as_matrix(Q, "Q")
    mu = complex(mu)
    if not np.isfinite([mu.real, mu.imag]).all():
        raise ValueError("mu must be finite")
    defect = orthonormality_defect(Q)
    if defect > BASIS_TOL:
        raise NotOrthonormal(f"||Q^H Q - I|| = {defect:.3e} exceeds {BASIS_TOL:.1e}")
    image = p.image(Q)
    s, V = _right_singulars(image.reduced(mu))
    m = Q.shape[1]
    if m >= 2 and s[-2] - s[-1] <= GAP_TOL * s[0]:
        warnings.warn(
            f"smallest singular values {s[-1]:.3e} and {s[-2]:.3e} coincide; "
            "the refined vector is not unique",
            AmbiguousMinimizer,
            stacklevel=2,
        )
    z = V[:, -1]
    z = z / np.linalg.norm(z)
    return RefinedRitz(
        value=mu,
        coeff=z,
        vector=Q @ z,
        sigma_min=float(s[-1]),
        residual_norm=image.residual_norm(mu, z),
    )


def compare_extractions(p: QuadraticPencil, Q, mu: complex, x1) -> ExtractionComparison:
    """Angles to a known eigenvector and residuals for both extractions.

    The Ritz pair is the one nearest ``mu`` among the 2m pairs; refined
    extraction reuses the same ``mu``.  By minimality the refined residual
    never exceeds the Ritz residual.
    """
    x1 = as_vector(x1, "x1")
    pp = project(p, Q)
    pair = select_ritz(ritz_pairs(pp, p), mu)
    ref = refined_ritz(p, Q, mu)
    return ExtractionComparison(
        ritz_angle=vector_angle(x1, pair.vector).sin,
        refined_angle=vector_angle(x1, ref.vector).sin,
        ritz_residual=pair.residual_norm,
        refined_residual=ref.residual_norm,
    )
