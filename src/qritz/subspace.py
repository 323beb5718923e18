"""Search-space generators: eigenvector-plus-noise bases and a small
second-order Krylov recurrence.

Randomness comes exclusively from the counter-based Philox 4x64 generator
keyed by the caller's integer seed, so every basis is bit-reproducible for a
fixed seed (and a fixed numpy major version, which pins the normal-variate
algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import as_matrix, as_vector, orthonormalize, solve_linear
from .pencil import QuadraticPencil, shift

#: A direction whose norm drops below this fraction of its pre-orthogonalized
#: norm is linearly dependent on the existing basis: recurrence breakdown.
BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class KrylovBasis:
    """Orthonormal basis plus a flag set when the recurrence broke down early."""

    basis: np.ndarray
    breakdown: bool


def generator(seed: int) -> np.random.Generator:
    """The package-wide seeded source: Philox 4x64 keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def perturbed_subspace(x1, companions, epsilon: float, seed: int) -> np.ndarray:
    """Orthonormal basis of ``[x1, companions] + epsilon * G``.

    ``G`` has independent unit-variance normal real and imaginary parts drawn
    from the seeded generator (real parts first, then imaginary).  For
    ``epsilon = 0`` the first Householder column reproduces ``x1`` up to a
    unit phase, so ``x1`` lies in the span exactly.

    Raises:
        RankDeficient: if the perturbed block loses full column rank.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    x1 = as_vector(x1, "x1")
    companions = as_matrix(companions, "companions") if np.size(companions) else None
    if companions is not None:
        base = np.column_stack([x1, companions])
    else:
        base = x1.reshape(-1, 1)
    rng = generator(seed)
    noise = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
    return orthonormalize(base + epsilon * noise)


def second_order_krylov(
    p: QuadraticPencil, start, m: int, tau: complex = 0.0
) -> KrylovBasis:
    """Orthonormal basis from the two-term second-order recurrence.

    Works on the pencil shifted by ``tau`` (whose constant term must be
    nonsingular) and iterates

        u_next ∝ -K_tau^{-1} (D_tau u_j + M_tau u_{j-1}),

    re-orthogonalizing twice against everything kept so far.  Deterministic
    for fixed inputs.  If a new direction collapses before ``m`` columns are
    reached, the smaller basis is returned with ``breakdown=True``.

    Raises:
        Singular: if the shifted constant term fails the pivot threshold.
    """
    start = as_vector(start, "start")
    if m < 1 or m > p.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={p.n}")
    pt = shift(p, tau)
    q = start / np.linalg.norm(start)
    cols = [q]
    q_prev = np.zeros_like(q)
    while len(cols) < m:
        w = -solve_linear(pt.K, pt.D @ q + pt.M @ q_prev)
        raw = np.linalg.norm(w)
        basis = np.column_stack(cols)
        for _ in range(2):
            w = w - basis @ (basis.conj().T @ w)
        nrm = np.linalg.norm(w)
        if raw == 0.0 or nrm <= BREAKDOWN_TOL * max(raw, 1.0):
            return KrylovBasis(basis=basis, breakdown=True)
        q_prev, q = q, w / nrm
        cols.append(q)
    return KrylovBasis(basis=np.column_stack(cols), breakdown=False)
