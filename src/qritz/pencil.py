"""Quadratic pencil data model: residuals, basis images, companion linearization.

A quadratic pencil is the matrix-valued function ``P(lam) = lam^2 M + lam D + K``
built from square complex mass/damping/stiffness matrices.  Its companion
linearization is the 2n x 2n pair

    A = [[-D, -K], [I, 0]],    B = [[M, 0], [0, I]],

whose eigenpairs ``(lam, [lam*x; x])`` encode the quadratic eigenpairs
``(lam, x)``.  This module is the only place that builds it:
``companion_matrix`` returns the matrix ``B^{-1} A``, ``companion_operator``
the products with ``A - mu B`` without forming it, and ``linearize`` the
dense pair itself, which no pipeline path needs (it serves dense checks).
The pencil keeps one memo, the ``BasisImage`` of its last basis; every
other type here is an immutable value object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .kernels import as_matrix, as_vector, require_unit, solve_linear, spectral_norm

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
    """The image ``W = [MQ, DQ, KQ]`` of an n x m basis ``Q`` and the R factor of ``W = U R``.

    Every residual in span{Q} is a product with ``W``:
    ``P(lam) Q c = W [lam^2 c; lam c; c]``.  ``U`` has orthonormal columns, so
    ``R [lam^2 I; lam I; I]`` (``R`` is ``k x 3m``, ``k = min(n, 3m)``) has the
    singular values and right singular vectors of ``P(lam) Q``; ``U`` is
    never formed.
    """

    basis: np.ndarray
    W: np.ndarray
    R: np.ndarray

    def residual_norm(self, lam: complex, c: np.ndarray) -> float:
        """``||P(lam) Q c||``, computed as ``||W [lam^2 c; lam c; c]||``."""
        return float(np.linalg.norm(self.W @ np.concatenate([lam * lam * c, lam * c, c])))

    def reduced(self, lam: complex) -> np.ndarray:
        """``R [lam^2 I; lam I; I]``, which has the singular values of ``P(lam) Q``."""
        m = self.basis.shape[1]
        R = self.R
        return lam * (lam * R[:, :m] + R[:, m : 2 * m]) + R[:, 2 * m :]


class QuadraticPencil:
    """The triple (M, D, K) with cached spectral norms.

    Attributes:
        M, D, K: n x n complex matrices (validated, copied).
        n: dimension.
        m0, d0, k0: spectral norms of M, D, K (``kernels.spectral_norm``),
            recomputed on construction.
        hermitian_pd: True when M is verified Hermitian positive definite
            (``||M - M^H|| <= HPD_TOL * m0`` and smallest eigenvalue of the
            Hermitian part above ``HPD_TOL * m0``, decided by Cholesky).
            The solve/projection paths warn, but still work, when this is
            False and M is merely nonsingular.

    The pencil's one memo is the ``BasisImage`` of the last basis passed to
    ``image``; it never changes a result, only whether it is recomputed.
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
        self.M = M
        self.D = D
        self.K = K
        self.n = M.shape[0]
        self.m0 = spectral_norm(M)
        self.d0 = spectral_norm(D)
        self.k0 = spectral_norm(K)
        self.hermitian_pd = _detect_hpd(M, self.m0)
        self._image: BasisImage | None = None

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

        The memo is keyed on exact equality with a private copy of ``Q``, so a
        basis mutated in place or a different basis is recomputed.  A hit and
        a miss return the same bits.  The memo is one attribute assigned
        whole, so concurrent callers at worst recompute it.
        """
        memo = self._image
        if memo is not None and memo.basis.shape == Q.shape and np.array_equal(memo.basis, Q):
            return memo
        W = np.hstack([self.M @ Q, self.D @ Q, self.K @ Q])
        memo = BasisImage(basis=Q.copy(), W=W, R=np.linalg.qr(W, mode="r"))
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

    ``x`` is used exactly as given (no renormalization).
    """
    x = as_vector(x, "x")
    if x.size != p.n:
        raise DimensionMismatch(f"vector dimension {x.size} != pencil dimension {p.n}")
    lam = complex(lam)
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

    Raises:
        Singular: if ``sigma_min(M) <= SINGULAR_TOL * ||M||`` (``solve_linear``).
    """
    return _companion(p.M, p.D, p.K, certified=p.hermitian_pd)


def _companion(M: np.ndarray, D: np.ndarray, K: np.ndarray, certified: bool = False) -> np.ndarray:
    """``companion_matrix`` of the raw blocks; an uncertified ``M`` keeps the ``sigma_min`` gate."""
    n = M.shape[0]
    top = solve_linear(M, np.hstack([-D, -K]), certified=certified)
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    return np.block([[top], [eye, zero]])


def stack_vector(lam: complex, x) -> np.ndarray:
    """The unit vector ``[lam*x; x] / sqrt(1 + |lam|^2)`` for unit ``x``.

    Raises:
        BadNorm: if ``x`` is not unit length within tolerance.
    """
    x = require_unit(x, "x")
    lam = complex(lam)
    return np.concatenate([lam * x, x]) / np.sqrt(1.0 + abs(lam) ** 2)
