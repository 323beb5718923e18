"""Acute angles between vectors and subspaces.

Sines of small angles are computed from orthogonal-complement projections,
never from ``sqrt(1 - cos^2)``, so angles near zero keep full absolute
accuracy instead of collapsing into rounding noise at ``sqrt(eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector
from .kernels import as_matrix, as_vector, require_orthonormal
from .pencil import stack_vector


@dataclass(frozen=True)
class Angle:
    """An acute angle carried with its sine and cosine."""

    radians: float
    sin: float
    cos: float

    @property
    def tan(self) -> float:
        if self.cos == 0.0:
            return math.inf
        return self.sin / self.cos


def _angle_from_sin_cos(s: float, c: float) -> Angle:
    s = min(max(s, 0.0), 1.0)
    c = min(max(c, 0.0), 1.0)
    return Angle(radians=math.atan2(s, c), sin=s, cos=c)


def subspace_angle(Q, x) -> Angle:
    """Acute angle between a vector and span{Q} for orthonormal ``Q``.

    ``sin = ||(I - Q Q^H) x||`` and ``cos = ||Q^H x||`` for unit ``x``
    (``x`` is normalized internally).

    Raises:
        NotOrthonormal: if ``Q`` fails the basis tolerance.
        ZeroVector: if ``x`` is zero.
    """
    Q = as_matrix(Q, "Q")
    x = as_vector(x, "x")
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ZeroVector("cannot form an angle with the zero vector")
    require_orthonormal(Q)
    x = x / nrm
    coeff = Q.conj().T @ x
    c = float(np.linalg.norm(coeff))
    s = float(np.linalg.norm(x - Q @ coeff))
    return _angle_from_sin_cos(s, c)


def vector_angle(x, y) -> Angle:
    """Acute angle between two nonzero vectors, invariant under unit phases.

    Raises:
        ZeroVector: if either argument is zero.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("cannot form an angle with the zero vector")
    x = x / nx
    y = y / ny
    inner = complex(np.vdot(x, y))  # x^H y
    c = abs(inner)
    # Residual of y against span{x}: its norm is the sine, exactly.
    s = float(np.linalg.norm(y - inner * x))
    return _angle_from_sin_cos(s, min(c, 1.0))


def stacked_subspace_angle(Q, lam: complex, x) -> Angle:
    """Angle of ``[lam*x; x]/sqrt(1+|lam|^2)`` to span{diag(Q, Q)}.

    Computed directly through the block-diagonal projector.  For unit ``x``
    this equals ``subspace_angle(Q, x)``; the identity is exercised as a
    package-level property, not assumed here.
    """
    Q = as_matrix(Q, "Q")
    x = as_vector(x, "x")
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ZeroVector("cannot form an angle with the zero vector")
    require_orthonormal(Q)
    v = stack_vector(lam, x / nrm)
    top, bot = v[: x.size], v[x.size :]
    ct = Q.conj().T @ top
    cb = Q.conj().T @ bot
    c = float(np.sqrt(np.linalg.norm(ct) ** 2 + np.linalg.norm(cb) ** 2))
    s = float(
        np.sqrt(
            np.linalg.norm(top - Q @ ct) ** 2 + np.linalg.norm(bot - Q @ cb) ** 2
        )
    )
    return _angle_from_sin_cos(s, c)
