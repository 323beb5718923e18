"""Quadratic pencil data model: residuals, basis images, companion linearization.

A quadratic pencil is the matrix-valued function ``P(lam) = lam^2 M + lam D + K``
built from square complex mass/damping/stiffness matrices.  Its companion
linearization is the 2n x 2n pair

    A = [[-D, -K], [I, 0]],    B = [[M, 0], [0, I]],

whose eigenpairs ``(lam, [lam*x; x])`` encode the quadratic eigenpairs
``(lam, x)``.  This module is the only place that builds it:
``companion_matrix`` returns the matrix ``B^{-1} A``, ``companion_operator``
the products with ``A - mu B`` without forming it, ``linearize`` the dense
pair itself, which no pipeline path needs (it serves dense checks), and
``quadratic_vectors`` reads the companion eigenpairs back as ``(lam, x)``.
The pencil takes ``m0 = ||M||``, ``b0 = max(m0, 1) = ||B||`` and the
``hermitian_pd`` certificate on construction, from the caller's ``M``
before it is copied.  It keeps one memo, the ``BasisImage`` of its last
basis, and two norms taken on first read, ``d0`` and ``k0``; every other
type here is an immutable value object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .kernels import (
    as_matrix, as_scalar, as_vector, eig_standard, require_unit, solve_linear, spectral_norm
)

#: Relative tolerance for the Hermitian-positive-definite detection of M.
HPD_TOL = 1e-12


def _detect_hpd(M: np.ndarray, m0: float) -> bool:
    """``||M - M^H|| <= HPD_TOL m0`` and ``lambda_min(H) > HPD_TOL m0`` for ``H = (M + M^H)/2``.

    The second test is one Cholesky factorization of ``H - HPD_TOL m0 I``,
    which exists exactly when that matrix is positive definite.
    """
    if m0 == 0.0:
        return False
    H = M.conj().T
    if spectral_norm(M - H) > HPD_TOL * m0:
        return False
    H += M
    H *= 0.5
    H[np.diag_indices_from(H)] -= HPD_TOL * m0
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class BasisImage:
    """What an n x m basis ``Q`` leaves of its image ``W = [MQ, DQ, KQ] = U R``.

    ``projected`` is the m x 3m ``Q^H W = [Q^H M Q, Q^H D Q, Q^H K Q]`` and
    ``R`` (``k x 3m``, ``k = min(n, 3m)``) the R factor of the reduced QR of
    ``W``; neither ``W`` nor ``U`` is kept.  Every residual in span{Q} is
    ``P(lam) Q c = W [lam^2 c; lam c; c] = U R [lam^2 c; lam c; c]``, and
    ``U`` has orthonormal columns, so its norm is that of the 3m-row
    ``R [lam^2 c; lam c; c]``, and ``R [lam^2 I; lam I; I]`` has the
    singular values and right singular vectors of ``P(lam) Q``.
    """

    basis: np.ndarray
    projected: np.ndarray
    R: np.ndarray

    def residual_norm(self, lam: complex, c: np.ndarray) -> float:
        """``||P(lam) Q c||``, computed as ``||R [lam^2 c; lam c; c]||`` at O(m^2)."""
        return float(np.linalg.norm(self.R @ np.concatenate([lam * lam * c, lam * c, c])))

    def reduced(self, lam: complex) -> np.ndarray:
        """``R [lam^2 I; lam I; I]``, which has the singular values of ``P(lam) Q``."""
        m = self.basis.shape[1]
        R = self.R
        return lam * (lam * R[:, :m] + R[:, m : 2 * m]) + R[:, 2 * m :]


class QuadraticPencil:
    """The triple (M, D, K) with cached spectral norms.

    Attributes:
        M, D, K: n x n complex matrices, private copies of the validated inputs.
        n: dimension.
        m0: spectral norm of M (``kernels.spectral_norm``).
        b0: ``max(m0, 1)``, the spectral norm ``||diag(M, I)||`` of the
            companion pair's ``B``.
        d0, k0: spectral norms of D and K, taken on first read and kept.
        hermitian_pd: True when M is verified Hermitian positive definite
            (``||M - M^H|| <= HPD_TOL * m0`` and smallest eigenvalue of the
            Hermitian part above ``HPD_TOL * m0``, decided by Cholesky).
            The solve/projection paths warn, but still work, when this is
            False and M is merely nonsingular.

    ``m0`` and ``hermitian_pd`` are taken on construction from the caller's
    M before anything is copied, so no temporary of the certificate
    coexists with the three copies; the caller must not write its arrays
    while the constructor runs.  The pencil's memos are the ``BasisImage``
    of the last basis passed to ``image`` and the two norms; they never
    change a result, only whether it is recomputed.
    """

    def __init__(self, M, D, K):
        M = as_matrix(M, "M")
        D = as_matrix(D, "D")
        K = as_matrix(K, "K")
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"M must be square, got {M.shape}")
        if D.shape != M.shape or K.shape != M.shape:
            raise DimensionMismatch(
                f"M, D, K must share one square shape, got {M.shape}, {D.shape}, {K.shape}"
            )
        self.n = M.shape[0]
        self.m0 = spectral_norm(M)
        self.b0 = max(self.m0, 1.0)
        self.hermitian_pd = _detect_hpd(M, self.m0)
        self.M = M.copy()
        self.D = D.copy()
        self.K = K.copy()
        self._image: BasisImage | None = None

    @cached_property
    def d0(self) -> float:
        return spectral_norm(self.D)

    @cached_property
    def k0(self) -> float:
        return spectral_norm(self.K)

    def __repr__(self):
        return (
            f"QuadraticPencil(n={self.n}, m0={self.m0:.3e}, d0={self.d0:.3e}, "
            f"k0={self.k0:.3e}, hermitian_pd={self.hermitian_pd})"
        )

    def evaluate(self, lam: complex) -> np.ndarray:
        """The matrix ``lam^2 M + lam D + K``."""
        lam = complex(lam)
        return lam * (lam * self.M + self.D) + self.K

    def residual_scale(self, lam: complex) -> float:
        """Natural residual scale ``|lam|^2 m0 + |lam| d0 + k0``."""
        a = abs(lam)
        return a * a * self.m0 + a * self.d0 + self.k0

    def image(self, Q: np.ndarray) -> BasisImage:
        """The ``BasisImage`` of the n x m matrix ``Q``, memoized for the last basis.

        The n x 3m image ``W`` lives only inside this call: the memo keeps the
        m x 3m ``Q^H W`` and the R factor of ``W``, so nothing downstream
        touches an n-row array but the lifts ``Q X`` and ``Q z``.  The memo
        is keyed on exact equality with a private copy of ``Q``, so a basis
        mutated in place or a different basis is recomputed.  A hit and a
        miss return the same bits.  The memo is one attribute assigned whole,
        so concurrent callers at worst recompute it.
        """
        memo = self._image
        if memo is not None and memo.basis.shape == Q.shape and np.array_equal(memo.basis, Q):
            return memo
        W = np.hstack([self.M @ Q, self.D @ Q, self.K @ Q])
        memo = BasisImage(basis=Q.copy(), projected=Q.conj().T @ W, R=np.linalg.qr(W, mode="r"))
        self._image = memo
        return memo


@dataclass(frozen=True)
class Eigenpair:
    """A computed eigenpair with its recorded residual norm."""

    value: complex
    vector: np.ndarray
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "vector", require_unit(self.vector, "eigenvector"))


def qep_residual(p: QuadraticPencil, lam: complex, x) -> tuple[np.ndarray, float]:
    """Residual ``(lam^2 M + lam D + K) x`` and its Euclidean norm.

    ``x`` is used exactly as given (no renormalization); ``lam`` must be
    finite (``kernels.as_scalar``).
    """
    x = as_vector(x, "x", p.n)
    lam = as_scalar(lam, "lam")
    r = lam * (lam * (p.M @ x) + p.D @ x) + p.K @ x
    return r, float(np.linalg.norm(r))


def linearize(p: QuadraticPencil) -> tuple[np.ndarray, np.ndarray]:
    """The companion pair ``(A, B)`` of the pencil."""
    n = p.n
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    A = np.block([[-p.D, -p.K], [eye, zero]])
    B = np.block([[p.M, zero], [zero, eye]])
    return A, B


def companion_operator(p: QuadraticPencil, mu: complex):
    """``(matvec, rmatvec)``: the products with ``A - mu B`` and its adjoint, never forming it.

    With the n x 2n block ``E = [D + mu M, K]``, built in place once per ``mu``,
    ``(A - mu B) u = [-E u; u_t - mu u_b]`` and
    ``(A - mu B)^H c = [c_b; -conj(mu) c_b] - E^H c_t``: one product with ``E``
    each way, ``E^H c_t`` taken as ``conj(conj(c_t) @ E)`` so that no adjoint
    is copied.
    """
    n = p.n
    mu = complex(mu)
    mu_h = mu.conjugate()
    E = np.empty((n, 2 * n), dtype=np.complex128)
    np.multiply(p.M, mu, out=E[:, :n])
    E[:, :n] += p.D
    E[:, n:] = p.K

    def matvec(u):
        return np.concatenate([-(E @ u), u[:n] - mu * u[n:]])

    def rmatvec(c):
        cb = c[n:]
        out = np.conj(np.conj(c[:n]) @ E)
        np.negative(out, out=out)
        out[:n] += cb
        out[n:] -= mu_h * cb
        return out

    return matvec, rmatvec


def companion_matrix(p: QuadraticPencil) -> np.ndarray:
    """The companion matrix ``B^{-1} A = [[-M^{-1} D, -M^{-1} K], [I, 0]]``, built afresh.

    Only ``M`` is factored, since the lower-right block of ``B`` is ``I``.
    When ``p.hermitian_pd`` holds, ``solve_linear`` skips its ``sigma_min``
    gate (``certified``): the field of values gives ``sigma_min(M) >=
    lambda_min((M + M^H)/2) > HPD_TOL ||M|| = 1e-12 ||M||``, so the gate's
    ``1e-14 ||M||`` cannot fire, and its values-only SVD of ``M`` is saved.
    Nothing is kept on ``p``: each caller owns its 2n x 2n matrix.

    The matrix is built in place: ``-D`` and ``-K`` go into the top block
    rows of one zeroed 2n x 2n array, the solve against ``M`` overwrites
    them, and the identity block is set last, so only the solve's n x 2n
    result coexists with it.

    Raises:
        Singular: if ``sigma_min(M) <= SINGULAR_TOL * ||M||`` (``solve_linear``).
    """
    n = p.n
    C = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    top = C[:n]
    np.negative(p.D, out=top[:, :n])
    np.negative(p.K, out=top[:, n:])
    top[...] = solve_linear(p.M, top, certified=p.hermitian_pd)
    np.fill_diagonal(C[n:, :n], 1.0)
    return C


def quadratic_vectors(C: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2n eigenvalues of the companion matrix ``C`` and, as columns, their unit x.

    The 2n x 2n eigenvectors are released on return, before the caller
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


def stack_vector(lam: complex, x) -> np.ndarray:
    """The unit vector ``[lam*x; x] / sqrt(1 + |lam|^2)`` for unit ``x``.

    Raises:
        BadNorm: if ``x`` is not unit length within tolerance.
        ValueError: if ``lam`` is not finite.
    """
    x = require_unit(x, "x")
    lam = as_scalar(lam, "lam")
    return np.concatenate([lam * x, x]) / np.sqrt(1.0 + abs(lam) ** 2)
