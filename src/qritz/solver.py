"""Full dense solution of a quadratic eigenproblem via its linearization.

Intended for desk-scale ground truth.  The eigenvalues are those of the
companion matrix ``B^{-1} A``, formed explicitly with n solves against the
mass matrix (``pencil.companion_matrix``).  All 2n eigenpairs take the
companion eigenvectors.  A few pairs nearest a target take only the
companion eigenvalues; each vector is then the whole-space refined vector,
the unit minimizer of ``||P(lam) x||``, whose residual is never above that
of the companion eigenvector for the same value.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import EmptyList, IndefiniteMass
from .kernels import as_integer, as_scalar, eigenvalues, right_singulars
from .pencil import Eigenpair, QuadraticPencil, companion_matrix, quadratic_vectors

#: ``solve_full`` refines at most this many values, one n x n SVD each; past
#: this, the companion eigenvectors of all 2n pairs cost less (measured at
#: n = 160, where six refined values cost as much).
REFINED_MAX = 5


def _pairs(p: QuadraticPencil, values: np.ndarray, X: np.ndarray) -> list[Eigenpair]:
    """The pairs ``(values[i], X[:, i])`` with their residual norms ``||P(lam) x||``."""
    # Horner in place: the residuals P(lam) x of all k pairs, one n x k buffer.
    R = p.M @ X
    R *= values
    R += p.D @ X
    R *= values
    R += p.K @ X
    residuals = np.linalg.norm(R, axis=0)
    return [
        Eigenpair(value=complex(values[i]), vector=X[:, i], residual_norm=float(residuals[i]))
        for i in range(values.size)
    ]


def _refined_vectors(p: QuadraticPencil, values: list[complex]) -> np.ndarray:
    """As columns, the unit minimizers of ``||P(lam) x||`` for each of ``values``.

    Values that compare equal share one SVD; the j-th copy takes the j-th
    smallest right singular vector, so a repeated semisimple value keeps
    independent vectors.
    """
    X = np.empty((p.n, len(values)), dtype=np.complex128)
    seen: dict[complex, np.ndarray] = {}
    for j, lam in enumerate(values):
        if lam not in seen:
            seen[lam] = right_singulars(p.evaluate(lam))[1]
        x = seen[lam][:, -1 - min(values[:j].count(lam), p.n - 1)]
        X[:, j] = x / np.linalg.norm(x)
    return X


def solve_full(p: QuadraticPencil, target=None, count: int | None = None) -> list[Eigenpair]:
    """Eigenpairs of the pencil with unit vectors: all 2n, or the ``count`` nearest ``target``.

    Without ``count``, the 2n pairs come in the eigensolver's order.  Each
    vector is the least-squares x of ``[lam*x; x] ~ v`` for the companion
    eigenvector ``v``, the unit multiple of ``conj(lam) v_t + v_b``, so the
    larger of the two blocks carries it at every ``|lam|``.

    With ``count`` (clamped to 2n), the result is the first ``count`` pairs
    of ``nearest_first(pairs, target)``, and the eigenvalues come first,
    without eigenvectors.  The candidates are every value at most as far
    from ``target`` as the ``count``-th nearest, so exact ties still break
    on the residual.  While there are at most ``REFINED_MAX`` candidates,
    each vector is the whole-space refined vector: the right singular vector
    of ``P(lam)`` for its smallest singular value.  By minimality its
    residual is at most the companion eigenvector's, up to rounding.  More
    candidates take the all-pairs route.

    Raises:
        Singular: if ``sigma_min(M) <= SINGULAR_TOL * ||M||``.
        NoConvergence: from the underlying eigensolver or SVD.
        ValueError: if ``target`` is not finite (``as_scalar``), if only one
            of ``target`` and ``count`` is given, or if ``count`` is not an
            integer ``>= 1`` (``as_integer``, so ``2.5`` and ``"2"`` are
            refused); each is refused before any solve.
    """
    if target is not None:
        target = as_scalar(target, "target")
    if (target is None) != (count is None):
        raise ValueError("target and count are given together or not at all")
    if count is not None:
        count = as_integer(count, "count", 1, math.inf)
    if not p.hermitian_pd:
        warnings.warn(
            "mass matrix not verified Hermitian positive definite; "
            "proceeding on nonsingularity alone",
            IndefiniteMass,
            stacklevel=2,
        )
    C = companion_matrix(p)
    if count is None:
        return _pairs(p, *quadratic_vectors(C, p.n))
    if count <= REFINED_MAX:
        values = [complex(lam) for lam in eigenvalues(C)]
        # The distances of nearest_first: numpy's complex abs can differ in
        # the last bit and split a tie that nearest_first would see.
        dist = [abs(lam - target) for lam in values]
        radius = sorted(dist)[min(count, len(values)) - 1]
        candidates = [lam for lam, d in zip(values, dist) if d <= radius]
        if len(candidates) <= REFINED_MAX:
            pairs = _pairs(p, np.array(candidates), _refined_vectors(p, candidates))
            return nearest_first(pairs, target)[:count]
    return nearest_first(_pairs(p, *quadratic_vectors(C, p.n)), target)[:count]


def nearest_first(pairs: list, target: complex) -> list:
    """The pairs ordered by ``|value - target|``, nearest first.

    Works on any pair with ``.value`` and ``.residual_norm`` (``Eigenpair``,
    ``RitzPair``).  Ties break toward the smaller residual norm, then the
    earlier index (the sort is stable).

    Raises:
        ValueError: if ``target`` is not finite (no pair is nearest it).
    """
    target = as_scalar(target, "target")
    return sorted(pairs, key=lambda ep: (abs(ep.value - target), ep.residual_norm))


def select_eigenpair(pairs: list, target: complex):
    """The first pair of ``nearest_first(pairs, target)``.

    Raises:
        EmptyList: if ``pairs`` is empty.
        ValueError: if ``target`` is not finite (``nearest_first``).
    """
    if not pairs:
        raise EmptyList("no eigenpairs to select from")
    return nearest_first(pairs, target)[0]
