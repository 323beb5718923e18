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
once, through ``deflate``, as an eigenpair of that pencil's companion pair;
``full_diagnostics`` reads that ``Reference`` for each search space.  The
bounds read theta1 from its one ``Angle`` and the residual scale from
``QuadraticPencil.residual_scale``.

``sep(mu, L, N) = sigma_min(L - mu N)`` throughout, and one function takes
both separations, ``sep(ref, mu)``: on the ``Reference`` of the full pencil
for the refined-vector bound and on one of the projected pencil, built from
the selected Ritz pair, for the Ritz-vector bound.  With ``v`` the deflated
unit eigenvector and ``y1 = B v / ||B v||``, ``1 / sep`` is the norm of the
top-left block ``T`` of ``[[A - mu B, y1], [v^H, 0]]^{-1}``; ``sep`` splits
the stacked unknown along the orthogonal ``[mu; 1]`` and ``[1; -conj(mu)]``,
applies ``T`` through one (n+1) x (n+1) solve for every ``mu`` and takes
``||T||`` with ``kernels.largest_singular``, which also gives ``||A - mu1
B||``, so no companion-size matrix is formed.  A vanishing ``sep`` voids the
corresponding hypothesis, which is reported as an infinite bound rather
than an exception so sweep tables stay rectangular.  A basis orthogonal to
``x1`` (theta1 = pi/2, ``cos == 0``) voids both vector bounds the same way.
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
)
from .pencil import (
    QuadraticPencil,
    _companion,
    companion_matrix,
    companion_operator,
    qep_residual,
    stack_vector,
)
from .projection import ProjectedPencil, project, ritz_pairs
from .refined import refined_ritz
from .solver import select_eigenpair

#: Admission threshold of ``deflate`` on the backward error
#: ``||P(lam) x|| / residual_scale(lam)`` of a unit pair ``(lam, x)``.
EIGPAIR_TOL = 1e-8

#: Relative threshold under which a separation counts as vanished and the
#: bound that divides by it is reported as +inf.
SEP_FLOOR = 1e-14


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
    """One eigenpair of a pencil, admitted once against its companion pair.

    Nothing here depends on a search space: a study builds the full-size
    ``Reference`` once and passes it to ``full_diagnostics`` for every basis,
    and each row builds one for the selected Ritz pair of its projected
    pencil.  ``y1 = B v / ||B v||`` is the left vector of the stacked
    eigenvector ``v = stack_vector(value, vector)`` of the companion pair
    ``(A, B)``; ``(v, y1)`` borders ``A - mu B`` in ``sep``, which is how the
    deflation enters without being formed.  ``rejection`` is the
    ``NotAnEigenpair`` or ``ZeroBv`` that ``deflate`` raised (``y1`` is then
    None and ``sep`` raises it), or None when the pair is admitted.
    """

    pencil: QuadraticPencil
    value: complex
    vector: np.ndarray
    y1: np.ndarray | None
    rejection: QritzError | None


def reference(p: QuadraticPencil, value: complex, vector) -> Reference:
    """The eigenpair ``(value, vector)`` of ``p``, admitted once by ``deflate``.

    A refused admission is stored in ``rejection``, not raised.

    Raises:
        BadNorm: if ``vector`` is not unit (``kernels.require_unit``).
    """
    lam1 = complex(value)
    x1 = require_unit(vector, "reference vector")
    y1 = rejection = None
    try:
        y1 = deflate(p, lam1, x1)
    except (NotAnEigenpair, ZeroBv) as exc:
        rejection = exc
    return Reference(pencil=p, value=lam1, vector=x1, y1=y1, rejection=rejection)


def deflate(p: QuadraticPencil, lam: complex, x) -> np.ndarray:
    """The left vector ``y1 = B v / ||B v||`` that deflates ``(lam, v)`` from the companion pair of ``p``.

    ``v = stack_vector(lam, x)``.  For any unitary ``[v, X]`` and ``[y1,
    Y]``, ``[y1, Y]^H (A, B) [v, X]`` is block upper triangular for every
    finite ``lam`` (including 0): ``Y^H B v = 0`` by construction and ``Y^H
    A v = lam Y^H B v = 0``.  The complement pair ``(L, N) = (Y^H A X, Y^H B
    X)`` carries the remaining spectrum; ``sep`` reaches it through ``(v,
    y1)`` alone.

    Raises:
        BadNorm: if ``x`` is not unit (``kernels.require_unit``).
        NotAnEigenpair: if the backward error ``||P(lam) x|| /
            p.residual_scale(lam)`` exceeds ``EIGPAIR_TOL``.
        ZeroBv: if ``||B v|| <= 1e-14 ||B||``, with ``||B|| = max(||M||, 1)``
            (no left vector available).
    """
    lam = complex(lam)
    v = stack_vector(lam, x)
    _, residual = qep_residual(p, lam, x)
    scale = p.residual_scale(lam)
    if residual > EIGPAIR_TOL * scale:
        raise NotAnEigenpair(f"residual {residual:.3e} exceeds {EIGPAIR_TOL:.1e} * {scale:.3e}")
    n = p.n
    Bv = np.concatenate([p.M @ v[:n], v[n:]])
    nb = np.linalg.norm(Bv)
    if nb <= 1e-14 * max(p.m0, 1.0):
        raise ZeroBv(f"||B v|| = {nb:.3e} is numerically zero")
    return Bv / nb


def sep(ref: Reference, mu: complex) -> float:
    """``sep(mu, L, N) = sigma_min(L - mu N)`` of the deflation of an admitted ``ref``, without ``L`` or ``N``.

    ``X (L - mu N)^{-1} Y^H`` is the top-left 2n x 2n block ``T`` of
    ``[[A - mu B, y1], [v^H, 0]]^{-1}`` (Govaerts & Pryce, 1993), so the
    separation is ``1 / ||T||``.  Writing t and b for the top and bottom
    halves, ``T b = z`` solves the bordered system with right-hand side
    ``[b; 0]``, whose second block row is ``z_t - mu z_b = w`` with ``w =
    b_b - zeta y1_b``.  Every ``mu`` splits ``z`` along the orthogonal
    directions ``[mu; 1]`` and ``[1; -conj(mu)]``:

        z = [mu u + c w; u - conj(mu) c w],    c = 1 / (1 + |mu|^2),

    so neither part cancels the other at any ``|mu|``.  With ``G = c (D +
    mu M - conj(mu) K)`` and ``h = c (mu v_b - v_t)``, ``[u; zeta]`` solves
    the (n+1) x (n+1) system

        S(mu) = [[-P(mu), y1_t + G y1_b], [mu v_t^H + v_b^H, h^H y1_b]]

    with right-hand side ``[b_t + G b_b; h^H b_b]``.  ``T^H`` is applied
    through ``S(mu)^H`` the same way.  ``S`` is inverted once per call and
    ``kernels.largest_singular`` takes ``||T||``.  An exactly singular ``S``
    means ``mu`` is an eigenvalue of ``(L, N)``: the separation is 0.0.

    Raises:
        NotAnEigenpair, ZeroBv: the ``rejection`` of a reference that was not admitted.
    """
    if ref.rejection is not None:
        raise ref.rejection
    p = ref.pencil
    n = p.n
    mu = complex(mu)
    mu_h = mu.conjugate()
    c = 1.0 / (1.0 + abs(mu) ** 2)
    v = stack_vector(ref.value, ref.vector)
    vt, vb = v[:n], v[n:]
    yt, yb = ref.y1[:n], ref.y1[n:]
    G = c * (p.D + mu * p.M - mu_h * p.K)
    h = c * (mu * vb - vt)
    S = np.empty((n + 1, n + 1), dtype=np.complex128)
    S[:n, :n] = -p.evaluate(mu)
    S[:n, n] = yt + G @ yb
    S[n, :n] = mu * vt.conj() + vb.conj()
    S[n, n] = np.vdot(h, yb)
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return 0.0

    # The (n+1)-vectors the solves read, filled in place at every product.
    rhs = np.empty(n + 1, dtype=np.complex128)
    lhs = np.empty(n + 1, dtype=np.complex128)

    def matvec(b):
        bt, bb = b[:n], b[n:]
        np.add(bt, G @ bb, out=rhs[:n])
        rhs[n] = np.vdot(h, bb)
        z = S_inv @ rhs
        w = c * (bb - z[n] * yb)
        return np.concatenate([mu * z[:n] + w, z[:n] - mu_h * w])

    def rmatvec(r):
        rt, rb = r[:n], r[n:]
        d = c * (rt - mu * rb)
        np.add(mu_h * rt, rb, out=lhs[:n])
        lhs[n] = -np.vdot(yb, d)
        # Each X^H r is taken as conj(conj(r) @ X), so no adjoint is copied.
        q = np.conj(np.conj(lhs) @ S_inv)
        return np.concatenate([q[:n], np.conj(np.conj(q[:n]) @ G) + q[n] * h + d])

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

    From its own 2m x 2m companions ``C = Bh^{-1} Ah`` of the projected pencil
    (``pencil.companion_matrix``) and ``Ct`` of the perturbed one, returns

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
    lhs = float(np.linalg.norm(companion_operator(p, mu)[0](w)))
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
            sep_projected = sep(reference(pp.pencil, mu1, sel.coeff), lam1)
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
        sep_full = sep(ref, mu1)
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
