"""Acute angles between vectors and subspaces.

Sines of small angles are computed from orthogonal-complement projections,
never from ``sqrt(1 - cos^2)``, so angles near zero keep full absolute
accuracy instead of collapsing into rounding noise at ``sqrt(eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import as_direction, as_matrix, require_orthonormal
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
        DimensionMismatch: if ``x`` does not have as many entries as ``Q`` rows.
        NotOrthonormal: if ``Q`` fails the basis tolerance.
        ZeroVector: if ``x`` is zero.
    """
    Q = require_orthonormal(Q)
    x = as_direction(x, "x", Q.shape[0])
    coeff = Q.conj().T @ x
    c = float(np.linalg.norm(coeff))
    s = float(np.linalg.norm(x - Q @ coeff))
    return _angle_from_sin_cos(s, c)


def vector_angle(x, y) -> Angle:
    """Acute angle between two nonzero vectors, invariant under unit phases.

    Raises:
        DimensionMismatch: if the vectors differ in length.
        ZeroVector: if either argument is zero.
    """
    x = as_direction(x, "x")
    y = as_direction(y, "y", x.size)
    inner = complex(np.vdot(x, y))  # x^H y
    c = abs(inner)
    # Residual of y against span{x}: its norm is the sine, exactly.
    s = float(np.linalg.norm(y - inner * x))
    return _angle_from_sin_cos(s, min(c, 1.0))


def stacked_subspace_angle(Q, lam: complex, x) -> Angle:
    """Angle of ``[lam*x; x]/sqrt(1+|lam|^2)`` to span{diag(Q, Q)}.

    ``subspace_angle`` of the stacked unit vector and the block basis, with
    its errors.  For unit ``x`` this equals ``subspace_angle(Q, x)``; the
    identity is exercised as a package-level property, not assumed here.
    """
    Q = as_matrix(Q, "Q")
    n, m = Q.shape
    block = np.zeros((2 * n, 2 * m), dtype=np.complex128)
    block[:n, :m] = block[n:, m:] = Q
    return subspace_angle(block, stack_vector(lam, as_direction(x, "x", n)))
