"""Refined extraction: residual-minimizing unit vectors in the search space.

For a fixed Ritz value ``mu`` the refined vector is ``Q z`` where ``z``
minimizes ``||(mu^2 M + mu D + K) Q z||`` over unit vectors, i.e. the right
singular vector of the tall matrix ``(mu^2 M + mu D + K) Q`` belonging to its
smallest singular value.  Unlike the Ritz vector, this minimizer is immune to
clustered Ritz values: it converges whenever the search space does.

The tall matrix is never formed.  With the basis image ``W = [MQ, DQ, KQ] = U R``
of ``pencil.ProjectedPencil``, ``(mu^2 M + mu D + K) Q = U R [mu^2 I; mu I; I]`` and
``U`` has orthonormal columns, so the SVD of the small ``R [mu^2 I; mu I; I]``
has the same singular values and right singular vectors, and the residual of
a coefficient vector ``z`` is ``||R [mu^2 z; mu z; z]||``.  The image costs
O(n^2 m) once per basis, in the projection the pencil memoizes
(``QuadraticPencil.image``), which ``project`` returns too; each value ``mu``
then costs O(m^3) in the small space plus the one n-row lift ``Q z``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMinimizer
from .kernels import as_scalar, require_orthonormal, right_singulars
from .pencil import QuadraticPencil

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


def refined_ritz(p: QuadraticPencil, Q, mu: complex) -> RefinedRitz:
    """Residual-minimizing unit vector in span{Q} for the value ``mu``.

    Refining several values for one basis reuses the projection that the
    pencil memoizes (``QuadraticPencil.image``), as does ``project``.  The
    minimizer and its residual are read from its R factor alone.

    Raises:
        ValueError: if ``mu`` is not finite.
        DimensionMismatch, NotOrthonormal: from ``kernels.require_orthonormal(Q, p.n)``.

    Warns:
        AmbiguousMinimizer: when the two smallest singular values agree to
            ``GAP_TOL`` relative; the returned vector is then one arbitrary
            element of the minimizing subspace.
    """
    mu = as_scalar(mu, "mu")
    Q = require_orthonormal(Q, p.n)
    pp = p.image(Q)
    s, V = right_singulars(pp.reduced(mu))
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
        residual_norm=pp.residual_norm(mu, z),
    )
