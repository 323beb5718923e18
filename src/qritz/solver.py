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

import warnings

import numpy as np

from .errors import EmptyList, IndefiniteMass
from .kernels import _right_singulars, as_scalar, eig_standard, eigenvalues
from .pencil import Eigenpair, QuadraticPencil, companion_matrix

#: ``solve_full`` refines at most this many values, one n x n SVD each; past
#: this, the companion eigenvectors of all 2n pairs cost less (measured at
#: n = 160, where six refined values cost as much).
REFINED_MAX = 5


def _quadratic_vectors(C: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2n eigenvalues of the companion matrix ``C`` and, as columns, their unit x.

    The 2n x 2n eigenvectors are released on return, before ``_all_pairs``
    forms the residuals, which keeps the peak memory of the solve down.
    """
    pairs = eig_standard(C)
    lams = np.array([lam for lam, _ in pairs])
    V = np.column_stack([v for _, v in pairs])
    # The least-squares x of [lam x; x] ~ v is proportional to conj(lam) v_t + v_b.
    X = V[:n] * lams.conj()
    X += V[n:]
    X /= np.linalg.norm(X, axis=0)
    return lams, X


def _all_pairs(p: QuadraticPencil, C: np.ndarray) -> list[Eigenpair]:
    """Every eigenpair of the companion matrix ``C``, read back as a quadratic pair."""
    lams, X = _quadratic_vectors(C, p.n)
    # Horner in place: the residuals P(lam) x of all 2n pairs, one n x 2n buffer.
    R = p.M @ X
    R *= lams
    R += p.D @ X
    R *= lams
    R += p.K @ X
    residuals = np.linalg.norm(R, axis=0)
    return [
        Eigenpair(value=complex(lams[i]), vector=X[:, i], residual_norm=float(residuals[i]))
        for i in range(lams.size)
    ]


def _refined_pairs(p: QuadraticPencil, values: list[complex]) -> list[Eigenpair]:
    """The pairs of ``values`` with the unit minimizers of ``||P(lam) x||``.

    Values that compare equal share one SVD; the j-th copy takes the j-th
    smallest right singular vector, so a repeated semisimple value keeps
    independent vectors.
    """
    out = []
    seen: dict[complex, tuple[np.ndarray, np.ndarray]] = {}
    for lam in values:
        if lam not in seen:
            G = p.evaluate(lam)
            seen[lam] = (G, _right_singulars(G)[1])
        G, V = seen[lam]
        copies = sum(1 for ep in out if ep.value == lam)
        x = V[:, -1 - min(copies, p.n - 1)]
        x = x / np.linalg.norm(x)
        out.append(Eigenpair(value=lam, vector=x, residual_norm=float(np.linalg.norm(G @ x))))
    return out


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
        ValueError: if ``count`` is below 1, or given without ``target``,
            or if ``target`` is not finite; each is refused before any solve.
    """
    if count is not None:
        if target is None:
            raise ValueError("count needs a target")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        target = as_scalar(target, "target")
    if not p.hermitian_pd:
        warnings.warn(
            "mass matrix not verified Hermitian positive definite; "
            "proceeding on nonsingularity alone",
            IndefiniteMass,
            stacklevel=2,
        )
    C = companion_matrix(p)
    if count is None:
        return _all_pairs(p, C)
    if count <= REFINED_MAX:
        values = [complex(lam) for lam in eigenvalues(C)]
        # The distances of nearest_first: numpy's complex abs can differ in
        # the last bit and split a tie that nearest_first would see.
        dist = [abs(lam - target) for lam in values]
        radius = sorted(dist)[min(count, len(values)) - 1]
        candidates = [lam for lam, d in zip(values, dist) if d <= radius]
        if len(candidates) <= REFINED_MAX:
            return nearest_first(_refined_pairs(p, candidates), target)[:count]
    return nearest_first(_all_pairs(p, C), target)[:count]


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
