"""Dense complex linear-algebra kernels with explicit numerical contracts.

Matrices are 2-D ``complex128`` ndarrays in row-major (C) order, vectors are
1-D.  All routines are pure functions of their arguments and safe to call
concurrently.  Factorizations are delegated to LAPACK through numpy/scipy:
the eigensolver is Hessenberg reduction plus implicitly shifted QR, the SVD
is the standard bidiagonalization algorithm, and orthonormalization is
Householder QR.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import BadNorm, NoConvergence, RankDeficient, Singular

#: Orthonormality contract for produced bases: ||Q^H Q - I|| <= ORTHO_TOL.
ORTHO_TOL = 1e-13

#: Relative singular-value threshold below which columns count as dependent.
RANK_TOL = 1e-12

#: Relative pivot threshold below which a linear solve refuses to proceed.
PIVOT_TOL = 1e-14

#: Unit-norm admission tolerance for vectors that contracts require normalized.
UNIT_TOL = 1e-13


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex matrix, validating shape and entries."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite 1-D complex vector."""
    v = np.array(a, dtype=np.complex128).reshape(-1)
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def spectral_norm(a) -> float:
    """Exact spectral norm (largest singular value); 2-norm for vectors."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim <= 1:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a, 2))


def orthonormality_defect(Q: np.ndarray) -> float:
    """``||Q^H Q - I||`` in the spectral norm."""
    k = Q.shape[1]
    return spectral_norm(Q.conj().T @ Q - np.eye(k))


def orthonormalize(V) -> np.ndarray:
    """Orthonormal basis of span{V} via Householder QR.

    Requires the columns of ``V`` to be numerically independent: every
    singular value must clear ``RANK_TOL * ||V||``.  The result ``Q`` spans
    the same column space and satisfies ``||Q^H Q - I|| <= ORTHO_TOL``.

    Raises:
        RankDeficient: if the numerical rank is below the column count.
    """
    V = as_matrix(V, "V")
    n, k = V.shape
    if k > n:
        raise ValueError(f"cannot orthonormalize {k} columns in dimension {n}")
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < RANK_TOL * sv[0]:
        raise RankDeficient(
            f"numerical rank {int(np.sum(sv >= RANK_TOL * sv[0]))} < {k} "
            f"(smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    Q, _ = np.linalg.qr(V)
    return Q


def eig_standard(C) -> list[tuple[complex, np.ndarray]]:
    """All eigenpairs of a dense complex matrix, eigenvectors unit norm.

    Returns exactly ``k`` pairs with multiplicity.  Each computed vector is
    backward stable: ``||C v - lambda v||`` is a small multiple of machine
    epsilon times ``||C||``.  For eigenvalues clustered tighter than
    ``1e-8 * ||C||`` the associated vectors are ill-posed and only the
    relaxed residual contract (``1e-6 * ||C||``) is promised.

    Raises:
        NoConvergence: if the QR iteration exhausts its sweep budget.
    """
    C = as_matrix(C, "C")
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got {C.shape}")
    try:
        w, V = np.linalg.eig(C)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    pairs = []
    for i in range(C.shape[0]):
        v = V[:, i]
        v = v / np.linalg.norm(v)
        pairs.append((complex(w[i]), v))
    return pairs


def clustered_flags(values, tol: float = 1e-8) -> list[bool]:
    """Flag each value that has another value within ``tol * max|value|``."""
    vals = np.asarray(list(values), dtype=np.complex128)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    thr = tol * scale
    flags = []
    for i, v in enumerate(vals):
        d = np.abs(vals - v)
        d[i] = np.inf
        flags.append(bool(np.min(d) <= thr))
    return flags


def svd(G) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``G = U diag(s) V^H`` with square unitary ``U`` (n x n), ``V`` (m x m).

    Singular values are returned nonincreasing and nonnegative.

    Raises:
        NoConvergence: if the SVD sweep budget is exhausted.
    """
    G = as_matrix(G, "G")
    try:
        U, s, Vh = np.linalg.svd(G, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed: {exc}") from exc
    return U, s, Vh.conj().T


def _right_singulars(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) and matching right singular vectors of ``G``."""
    try:
        _, s, Vh = np.linalg.svd(G, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed: {exc}") from exc
    return s, Vh.conj().T


def smallest_right_singular(G) -> tuple[float, np.ndarray]:
    """Smallest singular value of a tall matrix and its right singular vector.

    ``||G v|| = sigma_min`` within ``1e-12 * ||G||``; ``v`` is unit norm.
    """
    G = as_matrix(G, "G")
    n, m = G.shape
    if n < m:
        raise ValueError(f"expected n >= m, got {G.shape}")
    s, V = _right_singulars(G)
    v = V[:, -1]
    return float(s[-1]), v / np.linalg.norm(v)


def unitary_completion(v) -> np.ndarray:
    """Columns extending a unit vector to a unitary matrix ``[v, X]``.

    Raises:
        BadNorm: if ``| ||v|| - 1 | > UNIT_TOL``.
    """
    v = as_vector(v, "v")
    k = v.size
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise BadNorm(f"expected unit vector, got norm {nrm!r}")
    if k == 1:
        return np.zeros((1, 0), dtype=np.complex128)
    # Householder QR of v: the remaining columns of the complete Q span the
    # orthogonal complement of v regardless of the phase LAPACK gives q1.
    Qfull, _ = np.linalg.qr(v.reshape(k, 1), mode="complete")
    return Qfull[:, 1:]


def solve_linear(C, b) -> np.ndarray:
    """Solve ``C x = b`` by pivoted LU; ``b`` may be a vector or a matrix.

    Raises:
        Singular: if any pivot falls below ``PIVOT_TOL * ||C||``.
    """
    C = as_matrix(C, "C")
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got {C.shape}")
    b_arr = np.asarray(b, dtype=np.complex128)
    if b_arr.shape[0] != C.shape[0]:
        raise ValueError(f"shape mismatch: {C.shape} vs {b_arr.shape}")
    with warnings.catch_warnings():
        # The pivot check below is this package's singularity contract;
        # scipy's own advisory warning would only duplicate it.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(C, check_finite=False)
    pivots = np.abs(np.diag(lu))
    threshold = PIVOT_TOL * spectral_norm(C)
    if np.min(pivots) <= threshold:
        raise Singular(
            f"pivot {np.min(pivots):.3e} below threshold {threshold:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b_arr, check_finite=False)
