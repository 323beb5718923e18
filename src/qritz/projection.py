"""Rayleigh-Ritz projection of a quadratic pencil onto an orthonormal basis.

Projecting (M, D, K) onto span{Q} yields the m-dimensional triple
``(Q^H M Q, Q^H D Q, Q^H K Q)``.  Eigenvalues of the projected pencil are the
Ritz values; their coefficient vectors lift through Q to Ritz vectors.  When
the projected mass matrix is nonsingular there are always exactly 2m finite
Ritz values.  Only ``kernels.solve_linear``'s ``sigma_min`` rule refuses a
projected mass, as it refuses the full one.  A certified mass projects to
the Hermitian part of ``Q^H M Q``, and ``ritz_pairs`` reads the pairs from
the eigenvectors of the projected companion matrix and flags clustered
values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteMass
from .kernels import clustered_flags, require_orthonormal
from .pencil import QuadraticPencil, companion_matrix, quadratic_vectors

#: Ritz values closer than this (relative to max |mu|) are flagged clustered:
#: the associated coefficient vectors are ill-posed and essentially arbitrary.
CLUSTER_TOL = 1e-8


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

    The projected triple is the m x 3m ``Q^H [MQ, DQ, KQ]`` that the pencil
    memoizes with the basis image (``QuadraticPencil.image``), so a later
    ``ritz_pairs`` or ``refined_ritz`` on the same basis reuses that image.
    A certified (``p.hermitian_pd``) mass projects to the Hermitian part of
    ``Q^H M Q``, which is exactly Hermitian in floating point and, as
    ``Q^H M Q`` is in exact arithmetic, positive definite.

    Raises:
        DimensionMismatch: if ``Q`` does not have ``p.n`` rows.
        NotOrthonormal: if ``||Q^H Q - I|| > kernels.BASIS_TOL``.
    """
    Q = require_orthonormal(Q, p.n)
    m = Q.shape[1]
    if not p.hermitian_pd:
        warnings.warn(
            "mass matrix not verified Hermitian positive definite; "
            "the projected pencil may have infinite Ritz values",
            IndefiniteMass,
            stacklevel=2,
        )
    # The m x 3m Q^H [MQ, DQ, KQ], formed once per basis by the image memo.
    C = p.image(Q).projected
    M = C[:, :m]
    if p.hermitian_pd:
        M = 0.5 * (M + M.conj().T)
    inner = QuadraticPencil(M, C[:, m : 2 * m], C[:, 2 * m :])
    return ProjectedPencil(pencil=inner, basis=Q.copy())


def ritz_pairs(pp: ProjectedPencil, p: QuadraticPencil) -> list[RitzPair]:
    """All 2m Ritz pairs of ``p`` with respect to the basis of ``pp``.

    The values and unit coefficient vectors are read from the 2m x 2m
    companion matrix of the projected pencil as ``solve_full`` reads them
    (``pencil.quadratic_vectors``), in the eigensolver's order.  The
    residuals ``||P(mu) Q x||`` come from the image's R factor
    (``BasisImage``), so the only n-row product is the lift ``Q X``.

    Raises:
        Singular: if the projected mass matrix is numerically singular by
            ``kernels.solve_linear``'s rule, the one the full solve and
            ``theory.elsner_bound`` apply.
    """
    values, X = quadratic_vectors(companion_matrix(pp.pencil), pp.pencil.n)
    # Each stage takes all 2m pairs at once: one lift Q X, one product with the
    # image's R factor for the residuals ||P(mu) Q x|| = ||R [mu^2 x; mu x; x]||,
    # and one pairwise distance matrix for the flags.
    lifted = pp.basis @ X
    R = p.image(pp.basis).R
    residuals = np.linalg.norm(R @ np.concatenate([X * (values * values), X * values, X]), axis=0)
    flags = clustered_flags(values, CLUSTER_TOL)
    return [
        RitzPair(
            value=complex(values[i]),
            coeff=coeff,
            vector=lifted[:, i],
            residual_norm=float(residuals[i]),
            clustered=flags[i],
        )
        for i, coeff in enumerate(X.T.copy())
    ]
