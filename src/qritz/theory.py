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
B||``, so no companion-size matrix is formed.  ``Reference.norm_a_minus``
starts that last norm from the top right singular vector of ``A - lam1 B``,
taken once per reference, wherever Weyl's bound rules out a change of the
top, and cold everywhere else.  A vanishing ``sep`` voids the
corresponding hypothesis, which is reported as an infinite bound rather
than an exception so sweep tables stay rectangular.  A basis numerically
orthogonal to ``x1`` (``cos(theta1) <= ORTHOGONAL_TOL``) voids both vector
bounds the same way, and the perturbation triple refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angles import Angle, subspace_angle, vector_angle
from .errors import (
    NotAnEigenpair,
    OrthogonalSubspace,
    QritzError,
    ZeroBv,
    ZeroEigenvalue,
)
from .kernels import (
    DENSE_OPERATOR_MAX,
    as_direction,
    as_matrix,
    as_scalar,
    as_vector,
    largest_singular,
    require_unit,
    solve_linear,
    spectral_norm,
    top_singular_triple,
)
from .pencil import (
    ProjectedPencil,
    QuadraticPencil,
    companion_matrix,
    companion_operator,
    qep_residual,
    stack_vector,
)
from .projection import project, ritz_pairs
from .refined import refined_ritz
from .solver import select_eigenpair

#: Admission threshold of ``deflate`` on the backward error
#: ``||P(lam) x|| / residual_scale(lam)`` of a unit pair ``(lam, x)``.
EIGPAIR_TOL = 1e-8

#: Relative threshold under which a separation counts as vanished and the
#: bound that divides by it is reported as +inf.
SEP_FLOOR = 1e-14

#: ``cos(theta1)`` at or below which ``x1`` counts as orthogonal to span{Q}.
ORTHOGONAL_TOL = 1e-14

#: ``||B v||`` at or below this times ``||B|| = QuadraticPencil.b0`` counts as zero in ``deflate``.
ZERO_BV_TOL = 1e-14

#: ``Reference.norm_a_minus`` starts from the top vector at ``lam1`` when
#: ``WEYL_MARGIN |mu - lam1| ||B||`` is at most the gap ``sigma1 - sigma2``.
WEYL_MARGIN = 4.0

#: Check thresholds: absolute slack of the stacked angle inequality, and
#: slack of the refined-residual identity relative to ``max(1, residual_scale)``.
ANGLE_SLACK = 1e-12
IDENTITY_TOL = 1e-12


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

    ``top`` is the per-case triple ``(sigma1, sigma2, v1)`` of ``A - value
    B`` from one cold ``kernels.top_singular_triple`` run, taken on first
    read; ``norm_a_minus`` reads it for every row of a study.
    """

    pencil: QuadraticPencil
    value: complex
    vector: np.ndarray
    y1: np.ndarray | None
    rejection: QritzError | None

    @cached_property
    def top(self) -> tuple[float, float, np.ndarray]:
        """``(sigma1, sigma2, v1)`` of ``A - value B``, taken on first read."""
        p = self.pencil
        return top_singular_triple(*companion_operator(p, self.value), 2 * p.n)

    def norm_a_minus(self, mu: complex) -> float:
        """``||A - mu B||`` by ``kernels.largest_singular``, warm where Weyl's bound allows.

        ``A - mu B`` differs from ``A - value B`` by ``(value - mu) B``, so
        by Weyl's inequality each singular value moves by at most ``delta =
        |mu - value| ||B||``, with ``||B|| = p.b0``.  When ``WEYL_MARGIN
        delta <= sigma1 - sigma2`` for the triple ``top``, no other singular
        value can overtake the top, which stays at least ``2 delta`` apart
        from the rest, and Wedin's theorem puts its right vector within a
        sine of 1/3 of ``v1``: the Lanczos run starts from ``v1`` and stops
        in a few steps.  Every other ``mu`` runs cold, as does every operator
        of order ``DENSE_OPERATOR_MAX`` or less, which takes the dense route
        and never reads ``top``.  ``sigma1`` and ``sigma2`` are Ritz values,
        at most the singular values, so the gate is proved only for a
        converged ``sigma2``; the margin of 4, twice what Weyl's bound needs,
        is the allowance for the rest.
        """
        p = self.pencil
        start = None
        if 2 * p.n > DENSE_OPERATOR_MAX:
            sigma1, sigma2, v1 = self.top
            if WEYL_MARGIN * abs(mu - self.value) * p.b0 <= sigma1 - sigma2:
                start = v1
        return largest_singular(*companion_operator(p, mu), 2 * p.n, start=start)


def reference(p: QuadraticPencil, value: complex, vector) -> Reference:
    """The eigenpair ``(value, vector)`` of ``p``, admitted once by ``deflate``.

    A refused admission is stored in ``rejection``, not raised.

    Raises:
        ValueError: if ``value`` is not finite.
        BadNorm: if ``vector`` is not unit (``kernels.require_unit``).
    """
    lam1 = as_scalar(value, "reference value")
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
        ValueError: if ``lam`` is not finite.
        BadNorm: if ``x`` is not unit (``kernels.require_unit``).
        NotAnEigenpair: if the backward error ``||P(lam) x|| /
            p.residual_scale(lam)`` exceeds ``EIGPAIR_TOL``.
        ZeroBv: if ``||B v|| <= ZERO_BV_TOL ||B||``, with ``||B||`` read from
            ``p.b0`` (no left vector available).
    """
    lam = as_scalar(lam, "lam")
    v = stack_vector(lam, x)
    _, residual = qep_residual(p, lam, x)
    scale = p.residual_scale(lam)
    if residual > EIGPAIR_TOL * scale:
        raise NotAnEigenpair(f"residual {residual:.3e} exceeds {EIGPAIR_TOL:.1e} * {scale:.3e}")
    n = p.n
    Bv = np.concatenate([p.M @ v[:n], v[n:]])
    nb = np.linalg.norm(Bv)
    if nb <= ZERO_BV_TOL * p.b0:
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
        ValueError: if ``mu`` is not finite.
        NotAnEigenpair, ZeroBv: the ``rejection`` of a reference that was not admitted.
    """
    mu = as_scalar(mu, "mu")
    if ref.rejection is not None:
        raise ref.rejection
    p = ref.pencil
    n = p.n
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
        ValueError: if ``lam1`` is not finite.
        ZeroEigenvalue: if ``lam1 == 0`` (the scaling divides by it).
        DimensionMismatch, ZeroVector: from ``kernels.as_direction(x1, "x1", p.n)``.
        OrthogonalSubspace: if ``x1`` is numerically orthogonal to span{Q}.
    """
    lam1 = as_scalar(lam1, "lam1")
    if lam1 == 0:
        raise ZeroEigenvalue("the perturbation construction requires lam1 != 0")
    x1 = as_direction(x1, "x1", p.n)
    q1 = pp.basis.conj().T @ x1
    cos = np.linalg.norm(q1)
    if cos <= ORTHOGONAL_TOL:
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

    With ``C`` the 2m x 2m companion of the projected pencil
    (``pencil.companion_matrix``) and ``Ct`` that of the perturbed one, returns

        (||C|| + ||Ct||)^(1 - 1/(2m)) * ||C - Ct||^(1/(2m)),

    which dominates the distance from the reference eigenvalue to the
    nearest Ritz value.  Only the top block rows of ``C - Ct`` are nonzero;
    they are solved for as ``(Mh + EM)^{-1} ([ED, EK] + EM C_top)``, so the
    gap carries no cancellation between two companions.

    Raises:
        Singular: if ``Mh`` or ``Mh + EM`` fails ``kernels.solve_linear``'s gate.
    """
    inner = pp.pencil
    m = inner.n
    C = companion_matrix(inner)
    delta = solve_linear(inner.M + pert.EM, np.hstack([pert.ED, pert.EK]) + pert.EM @ C[:m])
    Ct = C.copy()
    Ct[:m] -= delta
    total = spectral_norm(C) + spectral_norm(Ct)
    gap = spectral_norm(delta)
    k = 2 * m
    return float(total ** (1.0 - 1.0 / k) * gap ** (1.0 / k))


def ritz_vector_bound(scale: float, theta: Angle, sep_projected: float) -> float:
    """A-priori Ritz-vector angle bound; +inf when the separation or cos(theta1) vanishes.

    ``sin(theta1) + scale / sep_projected * tan(theta1)`` with ``scale`` the
    pencil's ``residual_scale(lam1)`` and ``sep_projected`` the separation of
    ``lam1`` from the deflated complement of the projected companion pair.
    ``cos(theta1)`` vanishes at or below ``ORTHOGONAL_TOL``.
    """
    if theta.cos <= ORTHOGONAL_TOL or sep_projected <= SEP_FLOOR * scale:
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
    ``cos(theta1)`` vanishes at or below ``ORTHOGONAL_TOL``.
    """
    if theta.cos <= ORTHOGONAL_TOL or sep_full <= SEP_FLOOR * (norm_b + norm_a_minus):
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
        DimensionMismatch: if the two vectors differ in length.
        BadNorm: if a lower block is not unit (``kernels.require_unit``).
    """
    u = as_vector(u, "u")
    ut = as_vector(u_tilde, "u_tilde", u.size)
    if u.size % 2:
        raise ValueError("expected stacked vectors of even dimension")
    n = u.size // 2
    u1 = require_unit(u[n:], "lower block of u")
    ut1 = require_unit(ut[n:], "lower block of u_tilde")
    lhs = vector_angle(u1, ut1).sin
    rhs = min(np.linalg.norm(u), np.linalg.norm(ut)) * vector_angle(u, ut).sin
    return bool(lhs <= rhs + ANGLE_SLACK)


def refined_residual_identity_check(p: QuadraticPencil, Q, mu: complex, z) -> bool:
    """Check ``||(A - mu B) [mu Qz; Qz]|| == ||(mu^2 M + mu D + K) Qz||``.

    The stacked form of the residual carries no extra factor for the raw
    (unnormalized) stacked vector; this identity is what ties refined
    extraction to the linearized residual.

    Raises:
        DimensionMismatch: if ``z`` does not fit the columns of ``Q``, or ``Q`` the pencil.
        ValueError: if ``mu`` is not finite.
    """
    Q = as_matrix(Q, "Q")
    z = as_vector(z, "z", Q.shape[1])
    mu = as_scalar(mu, "mu")
    qz = Q @ z
    # qep_residual admits Q z against p before the companion product reads it.
    _, rhs = qep_residual(p, mu, qz)
    w = np.concatenate([mu * qz, qz])
    lhs = float(np.linalg.norm(companion_operator(p, mu)[0](w)))
    scale = max(1.0, p.residual_scale(mu))
    return bool(abs(lhs - rhs) <= IDENTITY_TOL * scale)


def _stage(run):
    """``run()``, or None when it raises a ``QritzError``: the one place a diagnostics stage may fail."""
    try:
        return run()
    except QritzError:
        return None


def full_diagnostics(ref: Reference, Q) -> DiagnosticsReport:
    """Assemble every diagnostic for the reference eigenpair ``ref`` and one basis.

    The Ritz pair, its refined vector, the projected and full separations
    and the Elsner bound each run through ``_stage``: a failed stage leaves
    the fields built from it None, and the other fields are still filled.
    The refined-vector bound, and the ``||A - mu1 B||`` it reads, are taken
    only when ``sep_full`` is, so a rejected reference leaves both None.
    """
    p = ref.pencil
    lam1, x1 = ref.value, ref.vector

    pp = project(p, Q)
    theta = subspace_angle(Q, x1)

    sel = _stage(lambda: select_eigenpair(ritz_pairs(pp, p), lam1))
    mu1 = rr = sep_projected = sep_full = bound_refined = None
    if sel is not None:
        mu1 = sel.value
        rr = _stage(lambda: refined_ritz(p, Q, mu1))
        sep_projected = _stage(lambda: sep(reference(pp.pencil, mu1, sel.coeff), lam1))
        sep_full = _stage(lambda: sep(ref, mu1))
    elsner = _stage(lambda: elsner_bound(pp, perturbation_triple(p, pp, lam1, x1, theta)))
    if sep_full is not None:
        norm_a_minus = ref.norm_a_minus(mu1)
        bound_refined = refined_vector_bound(lam1, mu1, p.b0, norm_a_minus, theta, sep_full)

    return DiagnosticsReport(
        ref_value=lam1,
        sin_theta1=theta.sin,
        ritz_value=mu1,
        ritz_value_error=None if sel is None else abs(mu1 - lam1),
        ritz_angle=None if sel is None else vector_angle(x1, sel.vector).sin,
        refined_angle=None if rr is None else vector_angle(x1, rr.vector).sin,
        ritz_residual=None if sel is None else sel.residual_norm,
        refined_residual=None if rr is None else rr.residual_norm,
        clustered=None if sel is None else sel.clustered,
        sep_full=sep_full,
        sep_projected=sep_projected,
        elsner_bound=elsner,
        ritz_vector_bound=None
        if sep_projected is None
        else ritz_vector_bound(p.residual_scale(lam1), theta, sep_projected),
        refined_vector_bound=bound_refined,
    )
