"""Quadratic pencil data model: residuals, shifting, companion linearization.

A quadratic pencil is the matrix-valued function ``P(lam) = lam^2 M + lam D + K``
built from square complex mass/damping/stiffness matrices.  Its companion
linearization is the 2n x 2n pair

    A = [[-D, -K], [I, 0]],    B = [[M, 0], [0, I]],

whose eigenpairs ``(lam, [lam*x; x])`` encode the quadratic eigenpairs
``(lam, x)``.  All types here are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadNorm, DimensionMismatch
from .kernels import UNIT_TOL, as_matrix, as_vector, spectral_norm

#: Relative tolerance for the Hermitian-positive-definite detection of M.
HPD_TOL = 1e-12


def _detect_hpd(M: np.ndarray, m0: float) -> bool:
    if m0 == 0.0:
        return False
    if spectral_norm(M - M.conj().T) > HPD_TOL * m0:
        return False
    w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return bool(w[0] > HPD_TOL * m0)


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
    """The triple (M, D, K) with cached exact spectral norms.

    Attributes:
        M, D, K: n x n complex matrices (validated, copied).
        n: dimension.
        m0, d0, k0: spectral norms of M, D, K, recomputed on construction.
        hermitian_pd: True when M is verified Hermitian positive definite
            (smallest eigenvalue of the Hermitian part above ``HPD_TOL * m0``).
            The solve/projection paths warn, but still work, when this is
            False and M is merely nonsingular.

    The pencil also memoizes the ``BasisImage`` of the last basis passed to
    ``image``; the memo never changes a result, only whether it is recomputed.
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
class LinearPencil:
    """Companion pair (A, B); block structure is verified on construction."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape != B.shape or A.shape[0] != A.shape[1] or A.shape[0] % 2:
            raise DimensionMismatch(f"expected matching square 2n x 2n pair, got {A.shape}, {B.shape}")
        n = A.shape[0] // 2
        eye = np.eye(n, dtype=np.complex128)
        zero = np.zeros((n, n), dtype=np.complex128)
        if not (
            np.array_equal(A[n:, :n], eye)
            and np.array_equal(A[n:, n:], zero)
            and np.array_equal(B[:n, n:], zero)
            and np.array_equal(B[n:, :n], zero)
            and np.array_equal(B[n:, n:], eye)
        ):
            raise DimensionMismatch("blocks do not match the companion layout")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0] // 2


@dataclass(frozen=True)
class Eigenpair:
    """A computed eigenpair with its recorded residual norm."""

    value: complex
    vector: np.ndarray
    residual_norm: float

    def __post_init__(self):
        v = as_vector(self.vector, "vector")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > UNIT_TOL:
            raise BadNorm(f"eigenvector norm {nrm!r} deviates from 1")
        object.__setattr__(self, "vector", v)


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


def shift(p: QuadraticPencil, tau: complex) -> QuadraticPencil:
    """Shifted pencil with spectrum ``lam - tau`` and unchanged eigenvectors.

    The transformed triple is ``(M, 2 tau M + D, tau^2 M + tau D + K)``.
    Whether the new constant term is nonsingular is the caller's concern.
    """
    tau = complex(tau)
    return QuadraticPencil(
        p.M,
        2.0 * tau * p.M + p.D,
        tau * (tau * p.M + p.D) + p.K,
    )


def linearize(p: QuadraticPencil) -> LinearPencil:
    """The companion pair (A, B) of the pencil."""
    n = p.n
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    A = np.block([[-p.D, -p.K], [eye, zero]])
    B = np.block([[p.M, zero], [zero, eye]])
    return LinearPencil(A, B)


def stack_vector(lam: complex, x) -> np.ndarray:
    """The unit vector ``[lam*x; x] / sqrt(1 + |lam|^2)`` for unit ``x``.

    Raises:
        BadNorm: if ``x`` is not unit length within tolerance.
    """
    x = as_vector(x, "x")
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise BadNorm(f"expected unit vector, got norm {nrm!r}")
    lam = complex(lam)
    return np.concatenate([lam * x, x]) / np.sqrt(1.0 + abs(lam) ** 2)
