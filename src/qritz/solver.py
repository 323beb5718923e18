"""Full dense solution of a quadratic eigenproblem via its linearization.

Intended for desk-scale ground truth.  The eigenvalues are those of the
companion matrix ``B^{-1} A``, formed explicitly with n solves against the
mass matrix (``pencil.companion_matrix``).  All 2n eigenpairs take the
companion eigenvectors; the pairs nearest a target take the companion
eigenvalues alone and each value's whole-space refined vector
(``refined_pairs``).  Each residual is its pair's ``qep_residual``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import EmptyList, IndefiniteMass
from .kernels import as_integer, as_scalar, eigenvalues, golden_phases
from .pencil import Eigenpair, QuadraticPencil, companion_matrix, qep_residual, quadratic_vectors

#: Inverse iteration goes on while a step takes its residual below this
#: fraction of the last one, for at most ``INVERSE_STEPS`` steps.
INVERSE_FALL = 0.5
INVERSE_STEPS = 12

#: Inverse iteration also stops after a step with ``P(lam)`` itself (no nudge)
#: that leaves ``||P(lam) X||_F <= INVERSE_FLOOR ||P(lam)||_F / sqrt(n)``.  The
#: right side is at most ``INVERSE_FLOOR ||P(lam)||_2``, so no further step
#: could lower the residual by more: rounding, not the iteration, limits it.
INVERSE_FLOOR = 1e-14


def _pairs(p: QuadraticPencil, values, X: np.ndarray) -> list[Eigenpair]:
    """The pairs ``(values[i], X[:, i])``, each with its own ``qep_residual`` norm."""
    return [
        Eigenpair(value=complex(lam), vector=x, residual_norm=qep_residual(p, lam, x)[1])
        for lam, x in zip(values, X.T)
    ]


def _minimizers(p: QuadraticPencil, lam: complex, k: int) -> np.ndarray:
    """An orthonormal n x k block that minimizes ``||P(lam) X||_F``, by inverse iteration.

    Each step solves with ``P(lam)^H`` and then with ``P(lam)``, which
    applies ``(P^H P)^{-1}``, and orthonormalizes the result by QR.  The
    start is ``golden_phases(n k)`` as k columns.  The iteration stops as
    ``INVERSE_FALL`` says, or at ``INVERSE_FLOOR`` after a step that solved
    with ``P(lam)`` itself, and returns the block of the smallest residual.
    The solves call LAPACK directly: ``P(lam)`` is singular by design, so
    ``solve_linear``'s ``sigma_min`` gate does not apply.  When ``P(lam)`` is
    exactly singular (a zero pivot), the solves take ``lam`` nudged by four
    ulps of ``max(|lam|, 1)``, and by 16 times more at each further zero
    pivot, while the residual stays the one at ``lam``.  The nudge, not
    rounding, limits such a step, so it does not stop at the floor.
    """
    n = p.n
    F = G = p.evaluate(lam)
    floor = INVERSE_FLOOR * np.linalg.norm(F) / math.sqrt(n)
    nudge = 4.0 * np.spacing(max(abs(lam), 1.0))
    X = np.linalg.qr(golden_phases(n * k).reshape(k, n).T)[0]
    residual = np.linalg.norm(F @ X)
    for _ in range(INVERSE_STEPS):
        try:
            Y = np.linalg.solve(G.conj().T, X)
            Z = np.linalg.solve(G, Y / np.linalg.norm(Y))
        except np.linalg.LinAlgError:
            G = p.evaluate(lam + nudge)
            nudge *= 16.0
            continue
        Z = np.linalg.qr(Z)[0]
        r = np.linalg.norm(F @ Z)
        falling = r < INVERSE_FALL * residual
        if r < residual:
            X, residual = Z, r
        if not falling or (r <= floor and G is F):
            break
    return X


def refined_pairs(p: QuadraticPencil, values) -> list[Eigenpair]:
    """The pairs of ``values``, in their order, each with its whole-space refined vector.

    Each vector is the unit minimizer of ``||P(lam) x||``: the limit of
    inverse iteration on ``P(lam)^H P(lam)``, the right singular vector of
    ``P(lam)`` for its smallest singular value.  By minimality its residual
    is at most the companion eigenvector's, up to rounding.  Values that
    compare equal take one block iteration with as many columns as copies,
    at most n, so a repeated semisimple value keeps independent vectors.
    Each value's pairs, phase included, come from that value alone.
    """
    values = [complex(lam) for lam in values]
    X = np.empty((p.n, len(values)), dtype=np.complex128)
    for lam in dict.fromkeys(values):
        copies = [j for j, other in enumerate(values) if other == lam]
        block = _minimizers(p, lam, min(len(copies), p.n))
        # The phase of the companion eigenvectors: LAPACK makes the largest entry
        # of [lam x; x] real and positive, the top one when |lam| >= 1.
        lead = block[np.argmax(np.abs(block), axis=0), np.arange(block.shape[1])]
        if abs(lam) >= 1.0:
            lead *= lam
        block *= lead.conj() / np.abs(lead)
        X[:, copies] = block[:, np.minimum(np.arange(len(copies)), p.n - 1)]
    return _pairs(p, values, X)


def nearest_values(values, target: complex, count: int) -> list[complex]:
    """The values at most as far from ``target`` as the ``count``-th nearest, in their order.

    These are the candidates for the first ``count`` places of
    ``nearest_first``: values tied at the ``count``-th distance all come,
    so a tie still breaks on the residual.  ``count`` is clamped to the
    number of values.
    """
    values = [complex(lam) for lam in values]
    # The distances of nearest_first: numpy's complex abs can differ in the
    # last bit and split a tie that nearest_first would see.
    dist = [abs(lam - target) for lam in values]
    radius = sorted(dist)[min(count, len(values)) - 1]
    return [lam for lam, d in zip(values, dist) if d <= radius]


def warned_companion(p: QuadraticPencil) -> np.ndarray:
    """``companion_matrix(p)``, after an ``IndefiniteMass`` warning when the
    mass is not certified Hermitian positive definite; the warning names the
    caller's caller, the line that asked for the solve."""
    if not p.hermitian_pd:
        warnings.warn(
            "mass matrix not verified Hermitian positive definite; "
            "proceeding on nonsingularity alone",
            IndefiniteMass,
            stacklevel=3,
        )
    return companion_matrix(p)


def solve_full(p: QuadraticPencil, target=None, count: int | None = None) -> list[Eigenpair]:
    """Eigenpairs of the pencil with unit vectors: all 2n, or the ``count`` nearest ``target``.

    Without ``count``, the 2n pairs come in the eigensolver's order.  Each
    vector is the least-squares x of ``[lam*x; x] ~ v`` for the companion
    eigenvector ``v``, the unit multiple of ``conj(lam) v_t + v_b``, so the
    larger of the two blocks carries it at every ``|lam|``.

    With ``count`` (clamped to 2n), the eigenvalues come first, without
    eigenvectors.  The candidates are ``nearest_values``, so exact ties still
    break on the residual; each takes its whole-space refined vector from
    ``refined_pairs``, and the result is the first ``count`` pairs of
    ``nearest_first`` of them.  A value's vector and residual do not depend
    on the other candidates, so ``solve_full(p, t, k)`` is bit for bit the
    first k pairs of ``solve_full(p, t, k + 1)``.

    Raises:
        Singular: if ``sigma_min(M) <= SINGULAR_TOL * ||M||``.
        NoConvergence: from the underlying eigensolver.
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
    C = warned_companion(p)
    if count is None:
        return _pairs(p, *quadratic_vectors(C, p.n))
    candidates = nearest_values(eigenvalues(C), target, count)
    return nearest_first(refined_pairs(p, candidates), target)[:count]


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
