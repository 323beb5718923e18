"""Dense complex linear-algebra kernels with explicit numerical contracts.

Matrices are 2-D ``complex128`` ndarrays in row-major (C) order, vectors are
1-D.  All routines are pure functions of their arguments and safe to call
concurrently.  Factorizations are delegated to LAPACK through numpy: the
eigensolver is Hessenberg reduction plus implicitly shifted QR (a matrix
with no imaginary part takes the real solver, so conjugate values come out
exactly conjugate), the SVD is the standard bidiagonalization algorithm,
orthonormalization is Householder QR with its rank test on the R factor,
and the linear solve refuses a matrix by its ``sigma_min`` gate.
``largest_singular`` reads an operator only through its products and takes
the three operator norms of each diagnostics row: both separations and
``||A - mu B||``.  Up to order ``DENSE_OPERATOR_MAX`` it forms the operator
one column at a time and takes the values-only SVD; above it, it is the one
iterative kernel, running Lanczos on ``T^H T`` over one orthonormal basis
from the golden phases or from a caller's ``start``.  ``top_singular_triple``
is the same Lanczos run, cold, returning the top two Ritz values and the
top Ritz vector: the study takes it once per case at ``mu = lambda1`` and
starts a row's ``||A - mu1 B||`` from that vector where Weyl's bound rules
out a change of the top (``theory.Reference.norm_a_minus``).
``spectral_norm`` takes a square matrix of order ``ITERATIVE_NORM_MIN`` or
more through it, and every other matrix through the values-only SVD.

The ``as_*`` and ``require_*`` admissions are the one place an input's
shape is refused: ``as_matrix`` and ``as_vector`` (finite entries, and the
row count or length a caller requires), ``require_orthonormal`` (a basis
within ``BASIS_TOL``), ``as_direction`` (a nonzero vector over its norm),
``require_unit`` (the one unit-length gate, ``UNIT_TOL``), ``as_scalar``
(a finite scalar) and ``as_integer`` (an integer in a half-open range).
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .errors import (
    BadNorm, DimensionMismatch, NoConvergence, NotOrthonormal, RankDeficient, Singular, ZeroVector
)

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

#: Relative growth of the norm estimate under which ``largest_singular``
#: stops; the Lanczos estimate of ``||T||^2`` is held to twice this.
STALL_TOL = 1e-15

#: Order from which ``spectral_norm`` of a square matrix runs
#: ``largest_singular`` instead of the dense SVD: at one BLAS thread, a
#: clustered top of the singular spectrum, the slowest case measured for
#: the iteration, breaks even with the dense SVD near this order.
ITERATIVE_NORM_MIN = 512

#: Order up to which ``largest_singular`` forms the operator from ``dim``
#: products and takes its dense values-only SVD: exact where the Lanczos
#: stall stop can underestimate a tight top, and cheaper below this order.
DENSE_OPERATOR_MAX = 16

#: Lanczos vectors ``largest_singular`` allocates room for at first; it
#: doubles the room when an iteration needs more.
LANCZOS_ROWS = 32

#: The golden ratio of ``golden_phases``, which start a cold Lanczos run
#: and the solver's inverse iteration.
GOLDEN = (1.0 + 5.0**0.5) / 2.0


def as_matrix(a, name: str = "matrix", n: int | None = None) -> np.ndarray:
    """``a`` as a finite 2-D C-ordered ``complex128`` matrix, validating shape and entries.

    When ``n`` is given, this is the one row rule for a matrix that acts on
    a pencil of dimension ``n``: ``DimensionMismatch`` unless ``a`` has
    ``n`` rows.  No copy is made when ``a`` already is such an array: the
    result may be ``a`` itself, so callers only read it, and one that keeps
    it copies it.
    """
    m = np.asarray(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    if n is not None and m.shape[0] != n:
        raise DimensionMismatch(f"{name} has {m.shape[0]} rows but the pencil has dimension {n}")
    return m


def as_square(a) -> np.ndarray:
    """``as_matrix`` of ``a``, named ``C``, which must also be square."""
    m = as_matrix(a, "C")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    return m


def as_vector(a, name: str = "vector", n: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a finite 1-D complex vector; ``DimensionMismatch`` unless of length ``n``, if given."""
    v = np.array(a, dtype=np.complex128).reshape(-1)
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"{name} has dimension {v.size} but {n} is expected")
    return v


def as_direction(a, name: str = "vector", n: int | None = None) -> np.ndarray:
    """The one admission of a direction: ``as_vector(a, name, n)`` over its norm; ``ZeroVector`` if zero."""
    v = as_vector(a, name, n)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ZeroVector(f"{name} is the zero vector, which has no direction")
    return v / nrm


def as_scalar(z, name: str) -> complex:
    """``z`` as a complex number; ``ValueError`` if it is not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z}")
    return z


def as_integer(k, name: str, low: int, high: int) -> int:
    """``k`` as an int in ``[low, high)``; ``ValueError`` naming ``name`` otherwise."""
    try:
        value = operator.index(k)
    except TypeError:
        value = None
    if value is None or not low <= value < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {k!r}")
    return value


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
    """Spectral norm (largest singular value); 2-norm for vectors.

    A square matrix of order at least ``ITERATIVE_NORM_MIN`` goes through
    ``largest_singular`` with the products ``a @ x`` and
    ``conj(conj(y) @ a) = a^H y``, which never copy ``a``; it agrees with
    the dense value to ``1e-14`` relative.  Smaller and rectangular
    matrices take the values-only dense SVD.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim <= 1:
        return float(np.linalg.norm(a))
    n = a.shape[0]
    if n >= ITERATIVE_NORM_MIN and a.shape == (n, n):
        return largest_singular(lambda x: a @ x, lambda y: np.conj(np.conj(y) @ a), n)
    # The first of LAPACK's descending singular values: the bits of
    # np.linalg.norm(a, 2), which takes their maximum after moving axes.
    sv = np.linalg.svd(a, compute_uv=False)
    return float(sv[0]) if sv.size else 0.0


def orthonormality_defect(Q: np.ndarray) -> float:
    """``||Q^H Q - I||`` in the spectral norm."""
    k = Q.shape[1]
    return spectral_norm(Q.conj().T @ Q - np.eye(k))


def require_orthonormal(Q, n: int | None = None) -> np.ndarray:
    """The one admission of a caller basis: ``Q`` coerced by ``as_matrix``, gated and returned.

    Raises:
        DimensionMismatch: if ``n`` is given and ``Q`` does not have ``n`` rows.
        NotOrthonormal: if ``||Q^H Q - I|| > BASIS_TOL``.
    """
    Q = as_matrix(Q, "basis", n)
    defect = orthonormality_defect(Q)
    if defect > BASIS_TOL:
        raise NotOrthonormal(f"||Q^H Q - I|| = {defect:.3e} exceeds {BASIS_TOL:.1e}")
    return Q


def orthonormalize(V) -> np.ndarray:
    """Orthonormal basis ``Q`` of span{V}: the Householder QR ``V = Q R``.

    Requires the columns of ``V`` to be numerically independent: every
    singular value must clear ``RANK_TOL * ||V||``.  ``Q`` has orthonormal
    columns, so those are the singular values of the k x k ``R``, and the
    rank test reads them from ``R`` instead of the n x k ``V``.  The result
    spans the same column space and satisfies ``||Q^H Q - I|| <= ORTHO_TOL``.

    Raises:
        RankDeficient: if the numerical rank is below the column count.
    """
    V = as_matrix(V, "V")
    n, k = V.shape
    if k > n:
        raise ValueError(f"cannot orthonormalize {k} columns in dimension {n}")
    Q, R = np.linalg.qr(V)
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < RANK_TOL * sv[0]:
        rank = int(np.sum(sv >= RANK_TOL * sv[0])) if sv[0] else 0
        raise RankDeficient(
            f"numerical rank {rank} < {k} "
            f"(smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e})"
        )
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
    C = as_square(C)
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


def eigenvalues(C) -> np.ndarray:
    """All ``k`` eigenvalues of a dense square matrix, with multiplicity, and no eigenvectors.

    The QR iteration of ``eig_standard`` without the eigenvector work.  A
    matrix whose imaginary parts are all zero goes to LAPACK's real solver,
    which returns each non-real value and its conjugate exactly conjugate,
    so a real target sits at one distance from both.

    Raises:
        NoConvergence: if the QR iteration exhausts its sweep budget.
    """
    C = as_square(C)
    if not C.imag.any():
        C = C.real
    try:
        return np.linalg.eigvals(C)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


def clustered_flags(values, tol: float) -> list[bool]:
    """Flag each value that has another value within ``tol * max|value|``.

    One matrix of the pairwise distances ``|v_j - v_i|`` decides every flag.
    """
    vals = np.asarray(list(values), dtype=np.complex128)
    if not vals.size:
        return []
    dist = np.abs(vals[None, :] - vals[:, None])
    np.fill_diagonal(dist, np.inf)
    return (dist.min(axis=1) <= tol * float(np.max(np.abs(vals)))).tolist()


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


def right_singulars(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) and matching right singular vectors of ``G``."""
    try:
        _, s, Vh = np.linalg.svd(G, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed: {exc}") from exc
    return s, Vh.conj().T


def golden_phases(count: int) -> np.ndarray:
    """The unit-modulus entries ``exp(2 pi i frac(k GOLDEN))`` for k = 1..count.

    Unlike ``ones``, which a structured operator can make orthogonal to a
    wanted singular vector, these equidistributed phases follow no pattern
    of the operator, and they need no random generator.
    """
    return np.exp(2j * np.pi * (np.arange(1, count + 1) * GOLDEN % 1.0))


def largest_singular(matvec, rmatvec, dim: int, start=None) -> float:
    """``||T||`` of a square operator on ``C^dim`` given only by its products.

    ``matvec(x)`` returns ``T x`` and ``rmatvec(y)`` returns ``T^H y``.  For
    ``dim <= DENSE_OPERATOR_MAX``, ``T`` is formed from the ``dim`` products
    ``T e_j``, each copied into its column before the next call, and the
    result is the first of its values-only singular values; ``start`` is
    not read.  Above that order, it is the top Ritz value of ``_lanczos``
    from ``start`` (the golden phases when None): a norm-only call forms no
    Ritz vector and takes no ``eigh``.  The zero operator gives 0.0.
    """
    if dim <= DENSE_OPERATOR_MAX:
        T = np.empty((dim, dim), dtype=np.complex128)
        for j, e in enumerate(np.eye(dim, dtype=np.complex128)):
            T[:, j] = matvec(e)
        return float(np.linalg.svd(T, compute_uv=False)[0])
    scale, top, _, _ = _lanczos(matvec, rmatvec, dim, start)
    return scale * top**0.5


def top_singular_triple(matvec, rmatvec, dim: int) -> tuple[float, float, np.ndarray]:
    """``(sigma1, sigma2, v1)`` of one cold ``_lanczos`` run at any order.

    ``sigma1`` and ``sigma2`` are the top two Ritz values of the run (each a
    lower bound on the singular value of its rank; ``sigma2 = sigma1`` when
    the run stopped after one step) and ``v1`` is the unit top Ritz vector,
    the start that lets ``largest_singular`` take the norm of a nearby
    operator in a few steps.  The zero operator stops the run after one
    step with ``scale = 0``, so the same path gives ``(0.0, 0.0, v0)``.
    """
    scale, _, basis, tridiagonal = _lanczos(matvec, rmatvec, dim, None)
    theta, s = np.linalg.eigh(tridiagonal)
    sigma = scale * np.sqrt(np.maximum(theta[-2:], 0.0))
    v = s[:, -1] @ basis
    return float(sigma[-1]), float(sigma[0]), v / np.linalg.norm(v)


def _lanczos(matvec, rmatvec, dim: int, start) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Lanczos on ``T^H T``: ``(scale, top, basis, tridiagonal)`` at the stop.

    The iteration runs with full reorthogonalization from ``start`` over its
    norm, or from ``golden_phases(dim)`` when ``start`` is None.  This is
    Golub-Kahan bidiagonalization over one basis instead of two (Paige,
    1974): each step takes one product with ``T`` and one with ``T^H``.
    ``T`` is divided by the first ``||T v_0||``, ``scale``, so that squaring
    neither overflows nor underflows; that norm is taken of ``T v_0`` over
    its largest modulus, since numpy squares a vector's entries without
    scaling.  After step ``k`` the top eigenvalue of the
    k x k tridiagonal, whose diagonal entries are ``||T v_k||^2``, is a
    lower bound on ``||T||^2`` that only grows; the iteration stops when
    that growth falls to ``2 STALL_TOL`` relative (``STALL_TOL`` relative
    growth of ``||T||``), when a new direction is exactly zero (an invariant
    subspace), or after ``dim`` steps.  ``top`` is that eigenvalue, and
    ``basis`` and ``tridiagonal`` are the Lanczos vectors (as rows) and the
    tridiagonal of the steps taken.  When ``T v_0 = 0`` the run stops at
    once with ``scale = top = 0.0``.  The kernel never writes into an array
    that ``matvec`` or ``rmatvec`` returned, so either may return a view of
    the operator's own state.
    """
    # Row k holds the k-th Lanczos vector, the one copy of the Krylov basis; a
    # Gram-Schmidt pass takes the coefficients as conj(rows @ conj(r)), so it
    # is two matrix-vector products and no conjugate of the basis is kept.
    # The buffer starts at LANCZOS_ROWS rows and doubles when full: a dim x
    # dim buffer would be a fresh mapping, paged in anew on every call, for
    # the few dozen steps the iteration takes.
    v = golden_phases(dim) if start is None else start
    rows = np.empty((min(dim, LANCZOS_ROWS), dim), dtype=np.complex128)
    np.divide(v, np.linalg.norm(v), out=rows[0])
    tridiagonal = np.zeros((len(rows), len(rows)))
    scale = top = 0.0
    for k in range(dim):
        w = matvec(rows[k])
        if k == 0:
            peak = float(np.max(np.abs(w)))
            if peak == 0.0:
                break
            scale = peak * float(np.linalg.norm(w / peak))
        # Each product is divided into a new array, never in place: the
        # operator may return a view of its own state.
        w = w / scale
        tridiagonal[k, k] = np.vdot(w, w).real
        prev, top = top, float(np.linalg.eigvalsh(tridiagonal[: k + 1, : k + 1])[-1])
        if top - prev <= 2.0 * STALL_TOL * top or k + 1 == dim:
            break
        r = rmatvec(w) / scale
        for _ in range(2):
            r -= rows[: k + 1].T @ np.conj(rows[: k + 1] @ np.conj(r))
        beta = math.sqrt(np.vdot(r, r).real)
        if beta == 0.0:
            break
        if k + 1 == len(rows):
            extra = np.empty((min(len(rows), dim - len(rows)), dim), dtype=np.complex128)
            rows = np.concatenate([rows, extra])
            tridiagonal = np.pad(tridiagonal, (0, len(extra)))
        np.divide(r, beta, out=rows[k + 1])
        tridiagonal[k + 1, k] = beta
    return scale, top, rows[: k + 1], tridiagonal[: k + 1, : k + 1]


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


def solve_linear(C, b, *, certified: bool = False) -> np.ndarray:
    """Solve ``C x = b`` with LAPACK ``gesv``; ``b`` may be a vector or a matrix.

    ``certified`` skips the values-only SVD of the ``sigma_min`` gate, for a
    caller that has proved the gate cannot fire (``companion_matrix`` of a
    certified Hermitian positive definite mass); the solution is the same.

    Raises:
        Singular: if ``sigma_min(C) <= SINGULAR_TOL * ||C||``, or if ``gesv``
            meets an exactly zero pivot.
    """
    C = as_square(C)
    b_arr = np.asarray(b, dtype=np.complex128)
    if b_arr.shape[0] != C.shape[0]:
        raise ValueError(f"shape mismatch: {C.shape} vs {b_arr.shape}")
    if not certified:
        sv = np.linalg.svd(C, compute_uv=False)
        threshold = SINGULAR_TOL * sv[0]
        if sv[-1] <= threshold:
            raise Singular(f"smallest singular value {sv[-1]:.3e} below threshold {threshold:.3e}")
    try:
        return np.linalg.solve(C, b_arr)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"solve failed: {exc}") from exc
