"""Full dense solution of a quadratic eigenproblem via its linearization.

Intended for desk-scale ground truth: all 2n eigenpairs are obtained from the
standard eigenproblem of the companion matrix ``B^{-1} A``, formed explicitly
with n solves against the mass matrix (``pencil.companion_matrix``).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import EmptyList, IndefiniteMass
from .kernels import eig_standard
from .pencil import Eigenpair, QuadraticPencil, companion_matrix, qep_residual

#: When the lower block of a linearized eigenvector is smaller than this, the
#: eigenvalue is huge in magnitude and the upper block carries the vector.
LOWER_BLOCK_MIN = 1e-8


def _extract_vector(v: np.ndarray, n: int) -> np.ndarray:
    bot = v[n:]
    nb = np.linalg.norm(bot)
    if nb >= LOWER_BLOCK_MIN:
        return bot / nb
    top = v[:n]
    return top / np.linalg.norm(top)


def solve_full(p: QuadraticPencil) -> list[Eigenpair]:
    """All 2n eigenpairs of the pencil, eigenvectors unit norm.

    The eigenvector is read off the lower block of the linearized
    eigenvector ``[lam*x; x]``, falling back to the upper block when the
    lower one underflows (eigenvalue near infinity in magnitude).

    Raises:
        Singular: if ``sigma_min(M) <= SINGULAR_TOL * ||M||``.
        NoConvergence: from the underlying eigensolver.
    """
    if not p.hermitian_pd:
        warnings.warn(
            "mass matrix not verified Hermitian positive definite; "
            "proceeding on nonsingularity alone",
            IndefiniteMass,
            stacklevel=2,
        )
    out = []
    for lam, v in eig_standard(companion_matrix(p)):
        x = _extract_vector(v, p.n)
        _, rn = qep_residual(p, lam, x)
        out.append(Eigenpair(value=lam, vector=x, residual_norm=rn))
    return out


def nearest_first(pairs: list, target: complex) -> list:
    """The pairs ordered by ``|value - target|``, nearest first.

    Works on any pair with ``.value`` and ``.residual_norm`` (``Eigenpair``,
    ``RitzPair``).  Ties break toward the smaller residual norm, then the
    earlier index (the sort is stable).
    """
    target = complex(target)
    return sorted(pairs, key=lambda ep: (abs(ep.value - target), ep.residual_norm))


def select_eigenpair(pairs: list, target: complex):
    """The first pair of ``nearest_first(pairs, target)``.

    Raises:
        EmptyList: if ``pairs`` is empty.
    """
    if not pairs:
        raise EmptyList("no eigenpairs to select from")
    return nearest_first(pairs, target)[0]
