"""Convergence diagnostics and a-priori bounds for projected quadratic pencils.

The machinery here quantifies, for one target eigenpair ``(lam1, x1)`` and
one search space span{Q}:

* how close the nearest Ritz value must be (an Elsner-type bound driven by a
  rank-one perturbation of the projected pencil that makes ``lam1`` exact);
* how close the Ritz vector is, conditional on the separation of ``lam1``
  from the rest of the projected spectrum (``sep`` of the deflated
  complement); and
* how close the refined vector is, conditional only on separation in the
  full-size pencil, which holds whenever ``lam1`` is simple.

``reference`` takes the unit target eigenpair of one pencil and admits it
once as an eigenpair of the full companion pair; ``full_diagnostics`` reads
that ``Reference`` for each search space.  The bounds read theta1 from its
one ``Angle`` and the residual scale from ``QuadraticPencil.residual_scale``.

``sep(mu, (L, N)) = sigma_min(L - mu N)`` throughout.  Only the m-size
projected pair is deflated (``deflate``); the full-size separation is
``1 / ||T||`` with ``T`` applied through an (n+1) x (n+1) bordered solve
(``bordered_sep``), and ``||A||``, ``||A - mu1 B||`` and ``||T||`` come from
``kernels.largest_singular``, so no 2n x 2n matrix is formed.  A vanishing
``sep`` voids the corresponding hypothesis, which is reported as an infinite
bound rather than an exception so sweep tables stay rectangular.  A basis
orthogonal to ``x1`` (theta1 = pi/2, ``cos == 0``) voids both vector bounds
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import Angle, subspace_angle, vector_angle
from .errors import (
    BadNorm,
    NotAnEigenpair,
    OrthogonalSubspace,
    QritzError,
    ZeroBv,
    ZeroEigenvalue,
)
from .kernels import (
    as_matrix,
    as_vector,
    largest_singular,
    require_unit,
    spectral_norm,
    unitary_completion,
)
from .pencil import (
    QuadraticPencil,
    _companion,
    companion_matrix,
    companion_operator,
    linearize,
    qep_residual,
    stack_vector,
)
from .projection import ProjectedPencil, project, ritz_pairs
from .refined import refined_ritz
from .solver import select_eigenpair

#: Residual admission threshold for deflation, relative to ||A|| + |lam| ||B||.
EIGPAIR_TOL = 1e-8

#: Relative threshold under which a separation counts as vanished and the
#: bound that divides by it is reported as +inf.
SEP_FLOOR = 1e-14


@dataclass(frozen=True)
class Deflation:
    """Unitary deflation of one eigenvalue from a matrix pair.

    ``[y1, Y]^H A [v1, X] = [[alpha, *], [0, L]]`` and likewise for B with
    ``(beta, *, N)``; the deflated eigenvalue is ``alpha / beta`` and the
    complement pair ``(L, N)`` carries the remaining spectrum.  The
    off-diagonal rows ``*`` enter no bound and are not formed.
    """

    alpha: complex
    beta: complex
    L: np.ndarray
    N: np.ndarray
    y1: np.ndarray
    Y: np.ndarray
    X: np.ndarray

    @property
    def eigenvalue(self) -> complex:
        return self.alpha / self.beta


@dataclass(frozen=True)
class PerturbationTriple:
    """Rank-one perturbations making a reference eigenpair exact after projection.

    With ``r1`` the projected residual of the normalized coefficient vector
    ``q1_hat`` at ``lam1``, the three matrices are ``-r1 q1_hat^H`` scaled by
    ``1/(3 lam1^2)``, ``1/(3 lam1)`` and ``1/3`` respectively.  Their norms
    are bounded by ``norm_bounds``: ``residual_scale(lam1) tan(theta1) / 3``
    divided by ``|lam1|^2``, ``|lam1|`` and 1 respectively.
    """

    EM: np.ndarray
    ED: np.ndarray
    EK: np.ndarray
    norm_bounds: tuple[float, float, float]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Angles, separations, perturbation-based bounds for one approximate pair.

    Fields that could not be computed (a prerequisite stage failed) are None.
    Bounds whose hypothesis fails numerically (vanishing sep) are ``inf``.
    """

    ref_value: complex
    sin_theta1: float
    ritz_value: complex | None
    ritz_value_error: float | None
    ritz_angle: float | None
    refined_angle: float | None
    ritz_residual: float | None
    refined_residual: float | None
    clustered: bool | None
    sep_full: float | None
    sep_projected: float | None
    elsner_bound: float | None
    ritz_vector_bound: float | None
    refined_vector_bound: float | None


@dataclass(frozen=True)
class Reference:
    """The reference eigenpair of one pencil, admitted against its companion pair.

    Nothing here depends on the search space, so a study builds one
    ``Reference`` and passes it to ``full_diagnostics`` for every basis.
    ``v = [value x; x] / sqrt(1 + |value|^2)`` is the stacked eigenvector of
    the companion pair ``(A, B)`` and ``y1 = B v / ||B v||`` its left vector;
    the pair ``(v, y1)`` borders ``A - mu B`` in ``bordered_sep``, which is
    how the full-size deflation enters without being formed.  ``norm_a`` is
    ``||A||`` from ``kernels.largest_singular``.  ``rejection`` is the
    ``NotAnEigenpair`` or ``ZeroBv`` that refused the pair under the
    ``deflate`` rules (``y1`` is then None and the refined bound is left
    unset), or None when the pair is admitted.
    """

    pencil: QuadraticPencil
    value: complex
    vector: np.ndarray
    v: np.ndarray
    y1: np.ndarray | None
    norm_a: float
    rejection: QritzError | None


def reference(p: QuadraticPencil, value: complex, vector) -> Reference:
    """The reference eigenpair ``(value, vector)`` of ``p``, admitted once.

    A refused admission is stored in ``rejection``, not raised.

    Raises:
        BadNorm: if ``vector`` is not unit (``kernels.require_unit``).
    """
    lam1 = complex(value)
    x1 = require_unit(vector, "reference vector")
    n = p.n
    v = stack_vector(lam1, x1)
    norm_a = largest_singular(*companion_operator(p, 0.0), 2 * n)
    Bv = np.concatenate([p.M @ v[:n], v[n:]])
    nb = np.linalg.norm(Bv)
    residual = np.linalg.norm(companion_operator(p, lam1)[0](v))
    y1 = rejection = None
    try:
        _admit(lam1, residual, nb, norm_a, max(p.m0, 1.0))
        y1 = Bv / nb
    except (NotAnEigenpair, ZeroBv) as exc:
        rejection = exc
    return Reference(
        pencil=p, value=lam1, vector=x1, v=v, y1=y1, norm_a=norm_a, rejection=rejection
    )


def _admit(lam: complex, residual: float, norm_bv: float, norm_a: float, norm_b: float) -> None:
    """The admission rules of ``deflate`` for ``(lam, v)`` with unit ``v``.

    Raises:
        NotAnEigenpair: if ``residual = ||A v - lam B v||`` exceeds
            ``EIGPAIR_TOL * (||A|| + |lam| ||B||)``.
        ZeroBv: if ``||B v|| <= 1e-14 ||B||``.
    """
    scale = norm_a + abs(lam) * norm_b
    if residual > EIGPAIR_TOL * scale:
        raise NotAnEigenpair(f"residual {residual:.3e} exceeds {EIGPAIR_TOL:.1e} * {scale:.3e}")
    if norm_bv <= 1e-14 * norm_b:
        raise ZeroBv(f"||B v|| = {norm_bv:.3e} is numerically zero")


def deflate(A, B, lam: complex, v) -> Deflation:
    """Deflate the eigenpair ``(lam, v)`` from the pair ``(A, B)``.

    The left vector is chosen as ``y1 = B v / ||B v||``, which zeroes both
    lower-left blocks simultaneously for every finite ``lam`` (including 0):
    ``Y^H B v = 0`` by construction and ``Y^H A v = lam Y^H B v = 0``.

    Raises:
        NotAnEigenpair: if ``||A v - lam B v||`` exceeds
            ``EIGPAIR_TOL * (||A|| + |lam| ||B||)``.
        ZeroBv: if ``||B v|| <= 1e-14 ||B||`` (no left vector available).
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    v = as_vector(v, "v")
    lam = complex(lam)
    v = v / np.linalg.norm(v)
    Bv = B @ v
    nb = np.linalg.norm(Bv)
    _admit(lam, np.linalg.norm(A @ v - lam * Bv), nb, spectral_norm(A), spectral_norm(B))
    y1 = Bv / nb
    X = unitary_completion(v)
    Y = unitary_completion(y1)
    L = Y.conj().T @ A @ X
    N = Y.conj().T @ B @ X
    alpha = complex(y1.conj() @ (A @ v))
    beta = complex(y1.conj() @ Bv)
    return Deflation(alpha=alpha, beta=beta, L=L, N=N, y1=y1, Y=Y, X=X)


def sep(mu: complex, L, N) -> float:
    """``sigma_min(L - mu N)``: separation of ``mu`` from the pair (L, N).

    Zero means ``mu`` collides with an eigenvalue of (L, N).  An empty pair
    separates everything, so the value is +inf.
    """
    L = np.asarray(L, dtype=np.complex128)
    N = np.asarray(N, dtype=np.complex128)
    if L.size == 0:
        return math.inf
    sv = np.linalg.svd(L - complex(mu) * N, compute_uv=False)
    return float(sv[-1])


def bordered_sep(ref: Reference, mu: complex) -> float:
    """``sep(mu, L, N)`` of the full-size deflation of an admitted ``ref``, without ``L`` or ``N``.

    ``X (L - mu N)^{-1} Y^H`` is the top-left 2n x 2n block ``T`` of
    ``[[A - mu B, y1], [v^H, 0]]^{-1}`` (Govaerts & Pryce, 1993), so the
    separation is ``1 / ||T||``.  Writing t and b for the top and bottom
    halves, ``T b`` solves the bordered system; its second block row gives
    ``z_t = b_b + mu z_b - zeta y1_b`` and leaves the (n+1) x (n+1) matrix

        S(mu) = [[-P(mu), (D + mu M) y1_b + y1_t], [mu v_t^H + v_b^H, -v_t^H y1_b]]

    for ``[z_b; zeta]``, with right-hand side ``[b_t + (D + mu M) b_b; -v_t^H b_b]``.
    ``T^H`` is applied through ``S(mu)^H`` the same way.  ``S`` is inverted
    once per call and ``kernels.largest_singular`` takes ``||T||``.  An
    exactly singular ``S`` means ``mu`` is an eigenvalue of ``(L, N)``: the
    separation is 0.0.

    Raises:
        NotAnEigenpair, ZeroBv: the ``rejection`` of a reference that was not admitted.
    """
    if ref.rejection is not None:
        raise ref.rejection
    p = ref.pencil
    n = p.n
    mu = complex(mu)
    vt, vb = ref.v[:n], ref.v[n:]
    yt, yb = ref.y1[:n], ref.y1[n:]
    DmuM = p.D + mu * p.M
    S = np.empty((n + 1, n + 1), dtype=np.complex128)
    S[:n, :n] = -p.evaluate(mu)
    S[:n, n] = DmuM @ yb + yt
    S[n, :n] = mu * vt.conj() + vb.conj()
    S[n, n] = -np.vdot(vt, yb)
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return 0.0
    S_inv_h = S_inv.conj().T

    def matvec(b):
        bt, bb = b[:n], b[n:]
        z = S_inv @ np.append(bt + DmuM @ bb, -np.vdot(vt, bb))
        return np.concatenate([bb + mu * z[:n] - z[n] * yb, z[:n]])

    def rmatvec(c):
        ct, cb = c[:n], c[n:]
        w = S_inv_h @ np.append(cb + mu.conjugate() * ct, -np.vdot(yb, ct))
        return np.concatenate([w[:n], ct + DmuM.conj().T @ w[:n] - w[n] * vt])

    return 1.0 / largest_singular(matvec, rmatvec, 2 * n)


def perturbation_triple(
    p: QuadraticPencil, pp: ProjectedPencil, lam1: complex, x1, theta: Angle
) -> PerturbationTriple:
    """Rank-one triple making ``(lam1, q1_hat)`` exact for the perturbed projection.

    ``theta`` is the angle from ``x1`` to span{Q} (``subspace_angle``), which
    scales ``norm_bounds``.

    Raises:
        ZeroEigenvalue: if ``lam1 == 0`` (the scaling divides by it).
        OrthogonalSubspace: if ``x1`` is numerically orthogonal to span{Q}.
    """
    lam1 = complex(lam1)
    if lam1 == 0:
        raise ZeroEigenvalue("the perturbation construction requires lam1 != 0")
    x1 = as_vector(x1, "x1")
    x1 = x1 / np.linalg.norm(x1)
    q1 = pp.basis.conj().T @ x1
    cos = np.linalg.norm(q1)
    if cos <= 1e-14:
        raise OrthogonalSubspace("x1 is orthogonal to the projection subspace")
    q1_hat = q1 / cos
    r1, _ = qep_residual(pp.pencil, lam1, q1_hat)
    outer = np.outer(r1, q1_hat.conj())
    EM = -outer / (3.0 * lam1 * lam1)
    ED = -outer / (3.0 * lam1)
    EK = -outer / 3.0
    a = abs(lam1)
    third = p.residual_scale(lam1) * theta.tan / 3.0
    return PerturbationTriple(EM=EM, ED=ED, EK=EK, norm_bounds=(third / (a * a), third / a, third))


def elsner_bound(pp: ProjectedPencil, pert: PerturbationTriple) -> float:
    """Eigenvalue-distance bound between the projected pencil and its perturbation.

    Forms the companion matrices ``C = Bh^{-1} Ah`` of the projected pencil
    and ``Ct`` of the perturbed one (``pencil.companion_matrix``) and returns

        (||C|| + ||Ct||)^(1 - 1/(2m)) * ||C - Ct||^(1/(2m)),

    which dominates the distance from the reference eigenvalue to the
    nearest Ritz value.

    Raises:
        Singular: if either projected mass matrix ``N`` has
            ``sigma_min(N) <= SINGULAR_TOL * ||N||``.
    """
    inner = pp.pencil
    C = companion_matrix(inner)
    Ct = _companion(inner.M + pert.EM, inner.D + pert.ED, inner.K + pert.EK)
    gap = spectral_norm(C - Ct)
    total = spectral_norm(C) + spectral_norm(Ct)
    k = 2 * inner.n
    return float(total ** (1.0 - 1.0 / k) * gap ** (1.0 / k))


def ritz_vector_bound(scale: float, theta: Angle, sep_projected: float) -> float:
    """A-priori Ritz-vector angle bound; +inf when the separation or cos(theta1) vanishes.

    ``sin(theta1) + scale / sep_projected * tan(theta1)`` with ``scale`` the
    pencil's ``residual_scale(lam1)`` and ``sep_projected`` the separation of
    ``lam1`` from the deflated complement of the projected companion pair.
    """
    if theta.cos == 0.0 or sep_projected <= SEP_FLOOR * scale:
        return math.inf
    return theta.sin + scale / sep_projected * theta.tan


def refined_vector_bound(
    lam1: complex,
    mu1: complex,
    norm_b: float,
    norm_a_minus: float,
    theta: Angle,
    sep_full: float,
) -> float:
    """A-priori refined-vector angle bound; +inf when the separation or cos(theta1) vanishes.

    ``sqrt(1+|lam1|^2) (|lam1-mu1| (||B|| + ||A - mu1 B||) +
    ||A - mu1 B|| sin(theta1)) / (cos(theta1) sep_full)`` with ``sep_full``
    the separation of ``mu1`` from the deflated complement of the full-size
    companion pair.  Since that separation tends to a fixed positive constant
    for a simple eigenvalue, this bound vanishes with theta1 unconditionally.
    """
    if theta.cos == 0.0 or sep_full <= SEP_FLOOR * (norm_b + norm_a_minus):
        return math.inf
    lam1 = complex(lam1)
    mu1 = complex(mu1)
    num = math.sqrt(1.0 + abs(lam1) ** 2) * (
        abs(lam1 - mu1) * (norm_b + norm_a_minus) + norm_a_minus * theta.sin
    )
    return num / (theta.cos * sep_full)


def stacked_angle_inequality_check(u, u_tilde) -> bool:
    """Check ``sin(angle of lower blocks) <= min(||u||, ||u~||) sin(angle of wholes)``.

    Both stacked vectors must have unit-norm lower halves.

    Raises:
        BadNorm: if a lower block is not unit length within 1e-12.
    """
    u = as_vector(u, "u")
    ut = as_vector(u_tilde, "u_tilde")
    if u.size != ut.size or u.size % 2:
        raise ValueError("expected two stacked vectors of one even dimension")
    n = u.size // 2
    u1, ut1 = u[n:], ut[n:]
    for blk in (u1, ut1):
        if abs(np.linalg.norm(blk) - 1.0) > 1e-12:
            raise BadNorm("lower blocks must be unit length")
    lhs = vector_angle(u1, ut1).sin
    rhs = min(np.linalg.norm(u), np.linalg.norm(ut)) * vector_angle(u, ut).sin
    return bool(lhs <= rhs + 1e-12)


def refined_residual_identity_check(p: QuadraticPencil, Q, mu: complex, z) -> bool:
    """Check ``||(A - mu B) [mu Qz; Qz]|| == ||(mu^2 M + mu D + K) Qz||``.

    The stacked form of the residual carries no extra factor for the raw
    (unnormalized) stacked vector; this identity is what ties refined
    extraction to the linearized residual.
    """
    Q = as_matrix(Q, "Q")
    z = as_vector(z, "z")
    mu = complex(mu)
    qz = Q @ z
    w = np.concatenate([mu * qz, qz])
    A, B = linearize(p)
    lhs = float(np.linalg.norm(A @ w - mu * (B @ w)))
    _, rhs = qep_residual(p, mu, qz)
    scale = max(1.0, p.residual_scale(mu))
    return bool(abs(lhs - rhs) <= 1e-12 * scale)


def full_diagnostics(ref: Reference, Q) -> DiagnosticsReport:
    """Assemble every diagnostic for the reference eigenpair ``ref`` and one basis.

    Stages that fail leave their fields None while independent fields are
    still filled.
    """
    Q = as_matrix(Q, "Q")
    p = ref.pencil
    lam1, x1 = ref.value, ref.vector

    pp = project(p, Q)
    theta = subspace_angle(Q, x1)

    mu1 = None
    ritz_err = None
    ritz_angle = None
    ritz_res = None
    clustered = None
    sel = None
    try:
        pairs = ritz_pairs(pp, p)
        sel = select_eigenpair(pairs, lam1)
        mu1 = sel.value
        ritz_err = abs(mu1 - lam1)
        ritz_angle = vector_angle(x1, sel.vector).sin
        ritz_res = sel.residual_norm
        clustered = sel.clustered
    except QritzError:
        pass

    refined_angle = None
    refined_res = None
    if mu1 is not None:
        try:
            rr = refined_ritz(p, Q, mu1)
            refined_angle = vector_angle(x1, rr.vector).sin
            refined_res = rr.residual_norm
        except QritzError:
            pass

    sep_projected = None
    if sel is not None:
        try:
            vh = stack_vector(mu1, sel.coeff)
            dl_proj = deflate(*linearize(pp.pencil), mu1, vh)
            sep_projected = sep(lam1, dl_proj.L, dl_proj.N)
        except QritzError:
            pass

    elsner = None
    try:
        pert = perturbation_triple(p, pp, lam1, x1, theta)
        elsner = elsner_bound(pp, pert)
    except QritzError:
        pass

    bound_ritz = None
    if sep_projected is not None:
        bound_ritz = ritz_vector_bound(p.residual_scale(lam1), theta, sep_projected)

    sep_full = None
    bound_refined = None
    if mu1 is not None and ref.rejection is None:
        sep_full = bordered_sep(ref, mu1)
        norm_a_minus = largest_singular(*companion_operator(p, mu1), 2 * p.n)
        # ||diag(M, I)|| = max(||M||, 1).
        bound_refined = refined_vector_bound(
            lam1, mu1, max(p.m0, 1.0), norm_a_minus, theta, sep_full
        )

    return DiagnosticsReport(
        ref_value=lam1,
        sin_theta1=theta.sin,
        ritz_value=mu1,
        ritz_value_error=ritz_err,
        ritz_angle=ritz_angle,
        refined_angle=refined_angle,
        ritz_residual=ritz_res,
        refined_residual=refined_res,
        clustered=clustered,
        sep_full=sep_full,
        sep_projected=sep_projected,
        elsner_bound=elsner,
        ritz_vector_bound=bound_ritz,
        refined_vector_bound=bound_refined,
    )
