"""Dense complex linear-algebra kernels with explicit numerical contracts.

Matrices are 2-D ``complex128`` ndarrays in row-major (C) order, vectors are
1-D.  All routines are pure functions of their arguments and safe to call
concurrently.  Factorizations are delegated to LAPACK through numpy: the
eigensolver is Hessenberg reduction plus implicitly shifted QR, the SVD
is the standard bidiagonalization algorithm, and orthonormalization is
Householder QR.  ``largest_singular`` is the one iterative kernel: it reads
an operator only through its products.
"""

from __future__ import annotations

import numpy as np

from .errors import BadNorm, NoConvergence, NotOrthonormal, RankDeficient, Singular

#: Orthonormality contract for produced bases: ||Q^H Q - I|| <= ORTHO_TOL.
ORTHO_TOL = 1e-13

#: Admission tolerance for ||Q^H Q - I|| on bases passed in by callers.
BASIS_TOL = 1e-12

#: Relative singular-value threshold below which columns count as dependent.
RANK_TOL = 1e-12

#: Relative sigma_min threshold below which a linear solve refuses to proceed.
SINGULAR_TOL = 1e-14

#: Unit-norm admission tolerance for vectors that contracts require normalized.
UNIT_TOL = 1e-13

#: Relative growth of the Golub-Kahan estimate under which ``largest_singular`` stops.
STALL_TOL = 1e-15

#: Philox key of the start vector of ``largest_singular``.
START_KEY = 0x6B


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


def require_unit(v, name: str) -> np.ndarray:
    """The one unit-norm gate: ``v`` coerced by ``as_vector``.

    Raises:
        BadNorm: if ``| ||v|| - 1 | > UNIT_TOL``.
    """
    v = as_vector(v, name)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise BadNorm(f"expected unit {name}, got norm {nrm!r}")
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


def require_orthonormal(Q: np.ndarray) -> None:
    """The one admission gate for caller bases.

    Raises:
        NotOrthonormal: if ``||Q^H Q - I|| > BASIS_TOL``.
    """
    defect = orthonormality_defect(Q)
    if defect > BASIS_TOL:
        raise NotOrthonormal(f"||Q^H Q - I|| = {defect:.3e} exceeds {BASIS_TOL:.1e}")


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


def clustered_flags(values, tol: float) -> list[bool]:
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


def largest_singular(matvec, rmatvec, dim: int) -> float:
    """``||T||`` of a square operator on ``C^dim`` given only by its products.

    ``matvec(x)`` returns ``T x`` and ``rmatvec(y)`` returns ``T^H y``.
    Golub-Kahan bidiagonalization with full reorthogonalization starts from
    a fixed Philox vector (a structured operator can make ``ones`` orthogonal
    to its top singular vector).  After step ``k`` the top singular value of
    the k x k bidiagonal is a lower bound on ``||T||`` that only grows; the
    iteration stops when that growth falls to ``STALL_TOL`` relative, when
    a new direction is exactly zero (an invariant subspace), or after
    ``dim`` steps.  The zero operator gives 0.0.
    """
    g = np.random.Generator(np.random.Philox(key=START_KEY))
    v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    # Row k holds the k-th left (us) or right (vs) Lanczos vector; rows are
    # written one step at a time, so untouched rows are never paged in.
    us = np.empty((dim, dim), dtype=np.complex128)
    vs = np.empty((dim, dim), dtype=np.complex128)
    vs[0] = v / np.linalg.norm(v)
    bidiagonal = np.zeros((dim, dim))
    top = 0.0
    for k in range(dim):
        u = matvec(vs[k])
        if k:
            u = _reorthogonalized(u - bidiagonal[k - 1, k] * us[k - 1], us[:k])
        alpha = float(np.linalg.norm(u))
        if alpha == 0.0:
            break
        us[k] = u / alpha
        bidiagonal[k, k] = alpha
        prev, top = top, float(np.linalg.svd(bidiagonal[: k + 1, : k + 1], compute_uv=False)[0])
        if top - prev <= STALL_TOL * top or k + 1 == dim:
            break
        w = _reorthogonalized(rmatvec(us[k]) - alpha * vs[k], vs[: k + 1])
        beta = float(np.linalg.norm(w))
        if beta == 0.0:
            break
        vs[k + 1] = w / beta
        bidiagonal[k, k + 1] = beta
    return top


def _reorthogonalized(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``w`` less its components along the orthonormal ``rows``, in two passes."""
    for _ in range(2):
        w = w - rows.T @ np.conj(rows @ np.conj(w))
    return w


def unitary_completion(v) -> np.ndarray:
    """Columns extending a unit vector to a unitary matrix ``[v, X]``.

    Raises:
        BadNorm: if ``| ||v|| - 1 | > UNIT_TOL``.
    """
    v = require_unit(v, "v")
    k = v.size
    if k == 1:
        return np.zeros((1, 0), dtype=np.complex128)
    # Householder QR of v: the remaining columns of the complete Q span the
    # orthogonal complement of v regardless of the phase LAPACK gives q1.
    Qfull, _ = np.linalg.qr(v.reshape(k, 1), mode="complete")
    return Qfull[:, 1:]


def solve_linear(C, b) -> np.ndarray:
    """Solve ``C x = b`` with LAPACK ``gesv``; ``b`` may be a vector or a matrix.

    Raises:
        Singular: if ``sigma_min(C) <= SINGULAR_TOL * ||C||``.
    """
    C = as_matrix(C, "C")
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got {C.shape}")
    b_arr = np.asarray(b, dtype=np.complex128)
    if b_arr.shape[0] != C.shape[0]:
        raise ValueError(f"shape mismatch: {C.shape} vs {b_arr.shape}")
    sv = np.linalg.svd(C, compute_uv=False)
    threshold = SINGULAR_TOL * sv[0]
    if sv[-1] <= threshold:
        raise Singular(f"smallest singular value {sv[-1]:.3e} below threshold {threshold:.3e}")
    try:
        return np.linalg.solve(C, b_arr)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"solve failed: {exc}") from exc
