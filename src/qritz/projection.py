"""Rayleigh-Ritz projection of a quadratic pencil onto an orthonormal basis.

Projecting (M, D, K) onto span{Q} yields the m-dimensional triple
``(Q^H M Q, Q^H D Q, Q^H K Q)``.  Eigenvalues of the projected pencil are the
Ritz values; their coefficient vectors lift through Q to Ritz vectors.  When
the projected mass matrix is nonsingular there are always exactly 2m finite
Ritz values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndefiniteMass, NotOrthonormal, Singular
from .kernels import as_matrix, clustered_flags, require_orthonormal
from .pencil import QuadraticPencil
from .solver import solve_full

#: Ritz values closer than this (relative to max |mu|) are flagged clustered:
#: the associated coefficient vectors are ill-posed and essentially arbitrary.
CLUSTER_TOL = 1e-8

#: Smallest-singular-value threshold on the projected mass matrix, taken
#: relative to the larger of the projected and original mass scales so a
#: projection that annihilates the mass matrix outright is still caught.
MASS_SIGMA_TOL = 1e-12


@dataclass(frozen=True)
class ProjectedPencil:
    """The projected triple together with the basis used to build it."""

    pencil: QuadraticPencil
    basis: np.ndarray


@dataclass(frozen=True)
class RitzPair:
    """A Ritz value with its coefficient vector and lifted Ritz vector.

    ``clustered`` marks values with a near-duplicate among the 2m Ritz
    values; the method itself cannot distinguish coefficient vectors inside
    such a cluster, so callers must treat ``coeff`` as one arbitrary choice.
    """

    value: complex
    coeff: np.ndarray
    vector: np.ndarray
    residual_norm: float
    clustered: bool


def project(p: QuadraticPencil, Q) -> ProjectedPencil:
    """Project the pencil onto span{Q} for orthonormal ``Q``.

    Raises:
        DimensionMismatch: if ``Q`` does not have ``p.n`` rows.
        NotOrthonormal: if ``||Q^H Q - I|| > kernels.BASIS_TOL``.
    """
    Q = as_matrix(Q, "Q")
    n, m = Q.shape
    if n != p.n:
        raise DimensionMismatch(f"basis has {n} rows but the pencil has dimension {p.n}")
    if m > n:
        raise NotOrthonormal(f"basis has more columns ({m}) than rows ({n})")
    require_orthonormal(Q)
    if not p.hermitian_pd:
        warnings.warn(
            "mass matrix not verified Hermitian positive definite; "
            "the projected pencil may have infinite Ritz values",
            IndefiniteMass,
            stacklevel=2,
        )
    # One m x 3m product against the basis image: Q^H [MQ, DQ, KQ].
    C = Q.conj().T @ p.image(Q).W
    inner = QuadraticPencil(C[:, :m], C[:, m : 2 * m], C[:, 2 * m :])
    if p.hermitian_pd and not inner.hermitian_pd:
        # Definiteness is inherited exactly; only catastrophic rounding on a
        # nearly singular M could trip this.
        raise Singular("projected mass matrix lost positive definiteness")
    return ProjectedPencil(pencil=inner, basis=Q)


def ritz_pairs(pp: ProjectedPencil, p: QuadraticPencil) -> list[RitzPair]:
    """All 2m Ritz pairs of ``p`` with respect to the basis of ``pp``.

    Raises:
        Singular: if the projected mass matrix is numerically singular, the
            regime in which the projection method itself breaks down.
    """
    sv = np.linalg.svd(pp.pencil.M, compute_uv=False)
    scale = max(sv[0], p.m0)
    if scale == 0.0 or sv[-1] < MASS_SIGMA_TOL * scale:
        raise Singular(
            f"projected mass matrix numerically singular "
            f"(sigma_min = {sv[-1]:.3e} against scale {scale:.3e})"
        )
    inner_pairs = solve_full(pp.pencil)
    values = np.array([ep.value for ep in inner_pairs])
    X = np.column_stack([ep.vector for ep in inner_pairs])
    # Each stage takes all 2m pairs at once: one lift Q X, one product with the
    # basis image W for the residuals P(mu) Q x = W [mu^2 x; mu x; x], and one
    # pairwise distance matrix for the flags.
    lifted = pp.basis @ X
    W = p.image(pp.basis).W
    residuals = np.linalg.norm(W @ np.concatenate([X * (values * values), X * values, X]), axis=0)
    flags = clustered_flags(values, CLUSTER_TOL)
    return [
        RitzPair(
            value=ep.value,
            coeff=ep.vector,
            vector=lifted[:, i],
            residual_norm=float(residuals[i]),
            clustered=flags[i],
        )
        for i, ep in enumerate(inner_pairs)
    ]
