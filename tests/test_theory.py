import math
import sys

import numpy as np
import pytest
from mpmath import mp

from conftest import (
    DenseDeflation,
    cnormal,
    hermitian_with_spectrum,
    isolated_eigenpair,
    random_hpd,
    random_pencil,
    rng,
)
from qritz import kernels, refined, theory
from qritz.angles import Angle, stacked_subspace_angle, subspace_angle, vector_angle
from qritz.builtin import example31_basis, example31_eigenvector, example31_pencil
from qritz.errors import (
    BadNorm,
    NoConvergence,
    NotAnEigenpair,
    NotOrthonormal,
    OrthogonalSubspace,
    ZeroBv,
    ZeroEigenvalue,
    ZeroVector,
)
from qritz.kernels import (
    eig_standard,
    largest_singular,
    orthonormalize,
    solve_linear,
    spectral_norm,
)
from qritz.pencil import QuadraticPencil, companion_operator, linearize, qep_residual, stack_vector
from qritz.projection import project, ritz_pairs
from qritz.solver import select_eigenpair, solve_full
from qritz.subspace import perturbed_subspace
from qritz.theory import (
    SEP_FLOOR,
    deflate,
    elsner_bound,
    full_diagnostics,
    perturbation_triple,
    reference,
    refined_residual_identity_check,
    refined_vector_bound,
    ritz_vector_bound,
    sep,
    stacked_angle_inequality_check,
)

X1 = example31_eigenvector()


class TestSubspaceAngle:
    def test_exact_containment(self):
        assert subspace_angle(example31_basis(), X1).sin == 0.0

    def test_orthogonal_vector(self):
        Q = np.eye(3)[:, :2]
        a = subspace_angle(Q, np.array([0.0, 0.0, 1.0]))
        assert a.sin == pytest.approx(1.0, abs=1e-15)
        assert a.cos == pytest.approx(0.0, abs=1e-15)

    def test_forty_five_degrees(self):
        Q = np.eye(2)[:, :1]
        a = subspace_angle(Q, np.array([1.0, 1.0]) / np.sqrt(2))
        assert a.sin == pytest.approx(1.0 / np.sqrt(2), abs=1e-14)

    def test_pythagorean_identity(self, g):
        Q = orthonormalize(cnormal(g, 7, 3))
        for _ in range(10):
            x = cnormal(g, 7)
            a = subspace_angle(Q, x)
            assert a.sin**2 + a.cos**2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_basis(self, g):
        with pytest.raises(NotOrthonormal):
            subspace_angle(cnormal(g, 4, 2), np.ones(4))


class TestVectorAngle:
    def test_phase_gives_zero(self, g):
        x = cnormal(g, 4)
        assert vector_angle(x, np.exp(0.7j) * x).sin <= 1e-13

    def test_orthogonal_pair(self):
        a = vector_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert (a.sin, a.cos) == (1.0, 0.0)

    def test_printed_stagnant_vector(self):
        # Frozen digits of a stagnated lifted vector; its angle to e3.
        y = np.array([-0.005598212938803, 0.002099329850230, 0.999982126253300])
        assert vector_angle(X1, y).sin == pytest.approx(0.005979, abs=1e-5)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            vector_angle(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


class TestStackedSubspaceAngle:
    def test_exact_containment(self):
        a = stacked_subspace_angle(example31_basis(), 1.0, X1)
        assert a.sin <= 1e-14

    def test_small_direct_oracle(self):
        # n=2, Q = [e1], x = (e1+e2)/sqrt(2), lam = 2: the stacked vector is
        # [2x; x]/sqrt(5) and the block projector keeps [2e1/2; e1/2]-type
        # components; hand reduction gives sin = 1/sqrt(2).
        Q = np.eye(2)[:, :1]
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        a = stacked_subspace_angle(Q, 2.0, x)
        assert a.sin == pytest.approx(1.0 / np.sqrt(2), abs=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_plain_subspace_angle(self, seed):
        g = rng(seed + 2100)
        n = int(g.integers(2, 9))
        m = int(g.integers(1, n + 1))
        Q = orthonormalize(cnormal(g, n, m))
        x = cnormal(g, n)
        x = x / np.linalg.norm(x)
        lam = complex(g.standard_normal(), g.standard_normal())
        assert abs(
            stacked_subspace_angle(Q, lam, x).sin - subspace_angle(Q, x).sin
        ) <= 1e-12


def make_gep(g, k, values=None):
    """Diagonalizable pair (A, B) with prescribed eigenvalues and the exact
    eigenvector for the first one."""
    if values is None:
        values = cnormal(g, k) + np.arange(1, k + 1)
    S = cnormal(g, k, k) + 2.0 * np.eye(k)
    T = cnormal(g, k, k) + 2.0 * np.eye(k)
    A = S @ np.diag(values) @ T
    B = S @ T
    v1 = np.linalg.solve(T, np.eye(k)[:, 0])
    return A, B, np.asarray(values), v1 / np.linalg.norm(v1)


def _dense(p, lam, x):
    """The unitary-frame oracle for the eigenpair ``(lam, x)`` of ``p``."""
    return DenseDeflation(*linearize(p), stack_vector(lam, x))


def _isolated(p):
    """The most isolated eigenpair of ``p`` and the eigenvalue nearest it."""
    pairs = solve_full(p)
    ep, _ = isolated_eigenpair(pairs)
    nearest = min((e.value for e in pairs if e is not ep), key=lambda w: abs(w - ep.value))
    return ep, nearest


class TestDeflate:
    def test_left_vector(self, g):
        p = random_pencil(g, 3)
        ep, _ = _isolated(p)
        y1 = deflate(p, ep.value, ep.vector)
        A, B = linearize(p)
        v = stack_vector(ep.value, ep.vector)
        assert np.linalg.norm(y1 - B @ v / np.linalg.norm(B @ v)) <= 1e-14
        with pytest.raises(BadNorm):
            deflate(p, ep.value, 3.0 * ep.vector)

    def test_hand_two_by_two(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        B = np.eye(2)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        dl = DenseDeflation(A, B, v)
        assert complex(dl.y1.conj() @ A @ v) == pytest.approx(1.0, abs=1e-14)
        assert complex(dl.y1.conj() @ B @ v) == pytest.approx(1.0, abs=1e-14)
        assert complex(dl.L[0, 0]) == pytest.approx(-1.0, abs=1e-14)
        assert complex(dl.N[0, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        dl = DenseDeflation(np.diag([1.0, 2.0]), np.eye(2), np.eye(2)[:, 0])
        assert complex(dl.L[0, 0]) == pytest.approx(2.0, abs=1e-14)
        assert complex(dl.N[0, 0]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_block_triangular_and_complement(self, seed):
        g = rng(seed + 2200)
        k = int(g.integers(3, 7))
        A, B, values, v1 = make_gep(g, k)
        dl = DenseDeflation(A, B, v1)
        # Unitarity of both frames.
        left = np.column_stack([dl.y1, dl.Y])
        right_v = np.column_stack([v1, dl.X])
        assert spectral_norm(left.conj().T @ left - np.eye(k)) <= 1e-12
        assert spectral_norm(right_v.conj().T @ right_v - np.eye(k)) <= 1e-12
        # Lower-left blocks vanish.
        assert np.linalg.norm(dl.Y.conj().T @ A @ v1) <= 1e-11 * spectral_norm(A)
        assert np.linalg.norm(dl.Y.conj().T @ B @ v1) <= 1e-11 * spectral_norm(B)
        # Deflated value and the complement spectrum.
        deflated = (dl.y1.conj() @ A @ v1) / (dl.y1.conj() @ B @ v1)
        assert abs(deflated - values[0]) <= 1e-10 * max(1.0, abs(values[0]))
        rest = sorted(
            (v for v, _ in eig_standard(solve_linear(dl.N, dl.L))),
            key=lambda z: (z.real, z.imag),
        )
        want = sorted(values[1:], key=lambda z: (z.real, z.imag))
        for a, b in zip(rest, want):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_full_frame_block_structure(self, g):
        A, B, values, v1 = make_gep(g, 5)
        dl = DenseDeflation(A, B, v1)
        left = np.column_stack([dl.y1, dl.Y]).conj().T
        right = np.column_stack([v1, dl.X])
        TA = left @ A @ right
        TB = left @ B @ right
        assert np.linalg.norm(TA[1:, 0]) <= 1e-11 * spectral_norm(A)
        assert np.linalg.norm(TB[1:, 0]) <= 1e-11 * spectral_norm(B)

    def test_rejects_non_eigenpair(self, g):
        p = random_pencil(g, 3)
        ep, nearest = _isolated(p)
        with pytest.raises(NotAnEigenpair):
            deflate(p, ep.value + 0.5, ep.vector)
        with pytest.raises(NotAnEigenpair):
            sep(reference(p, ep.value + 0.5, ep.vector), nearest)

    def test_rejects_zero_bv(self):
        # 1e-16 lam^2 + lam + 1 has the root lam ~ -1e16 with x = 1, where
        # B v = [1e-16 lam; 1] / sqrt(1 + lam^2) has norm ~1.4e-16.
        p = QuadraticPencil([[1e-16]], [[1.0]], [[1.0]])
        lam = (-1.0 - math.sqrt(1.0 - 4e-16)) / 2e-16
        with pytest.raises(ZeroBv):
            deflate(p, lam, [1.0])

    @pytest.mark.parametrize("eta, admitted", [(2e-8, False), (0.5e-8, True)])
    def test_admits_on_the_backward_error(self, g, eta, admitted):
        p = random_pencil(g, 4)
        ep, _ = _isolated(p)

        def backward_error(lam):
            return qep_residual(p, lam, ep.vector)[1] / p.residual_scale(lam)

        # The backward error grows linearly with a small shift of the value.
        step = 1e-6 * (1 + 1j)
        lam = ep.value + step * eta / backward_error(ep.value + step)
        assert backward_error(lam) == pytest.approx(eta, rel=1e-3)
        ref = reference(p, lam, ep.vector)
        assert (ref.rejection is None) == admitted
        if not admitted:
            assert isinstance(ref.rejection, NotAnEigenpair) and ref.y1 is None


class TestSep:
    def test_diagonal(self):
        # (lam - 1)(lam - 2): deflating 1 leaves the 1 x 1 pair with the
        # eigenvalue 2, and B = I gives |N| = 1, so sep(mu) = |2 - mu|.
        p = QuadraticPencil([[1.0]], [[-3.0]], [[2.0]])
        assert sep(reference(p, 1.0, [1.0]), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_vanishes_at_eigenvalue(self, g):
        p = random_pencil(g, 2)
        ep, mu = _isolated(p)
        dl = _dense(p, ep.value, ep.vector)
        got = sep(reference(p, ep.value, ep.vector), mu)
        assert got <= 1e-12 * spectral_norm(dl.L - mu * dl.N)

    def test_exactly_singular_bordered_matrix(self):
        # (lam - 1)^2: deflating (1, 1) leaves the 1 x 1 pair with the
        # eigenvalue 1, and at mu = 1 the bordered S(1) has a zero row.
        # B = I gives |N| = 1, so sep(mu) = |1 - mu|.
        ref = reference(QuadraticPencil([[1.0]], [[-2.0]], [[1.0]]), 1.0, [1.0])
        assert sep(ref, 1.0) == 0.0
        assert sep(ref, 1.5) == pytest.approx(0.5, rel=1e-15)

    def test_lipschitz_in_mu(self, g):
        p = random_pencil(g, 3)
        ep, _ = _isolated(p)
        ref = reference(p, ep.value, ep.vector)
        norm_n = spectral_norm(_dense(p, ep.value, ep.vector).N)
        for _ in range(20):
            mu = complex(g.standard_normal(), g.standard_normal())
            nu = mu + complex(g.standard_normal(), g.standard_normal()) * 0.1
            gap = abs(sep(ref, mu) - sep(ref, nu))
            assert gap <= abs(mu - nu) * norm_n + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10])
    def test_matches_unitary_frame_oracle(self, seed, delta):
        g = rng(seed + 2300)
        p = random_pencil(g, int(g.integers(2, 5)))
        ep, nearest = _isolated(p)
        mu = nearest + delta * (1 + 1j)
        dl = _dense(p, ep.value, ep.vector)
        assert abs(sep(reference(p, ep.value, ep.vector), mu) - dl.sep(mu)) <= dl.allowance(mu)

    @pytest.mark.parametrize("eps", [10.0 ** (-k) for k in range(2, 13)])
    def test_example31_projected_sweep(self, eps):
        p = example31_pencil()
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], eps, seed=1)
        pp = project(p, Q)
        sel = select_eigenpair(ritz_pairs(pp, p), 1.0)
        dl = _dense(pp.pencil, sel.value, sel.coeff)
        rep = full_diagnostics(reference(p, 1.0, X1), Q)
        assert abs(rep.sep_projected - dl.sep(1.0)) <= dl.allowance(1.0)


def _criterion_3_pencil(index):
    """The random pencil of the criterion-3 domination instance ``index``."""
    g = rng((777 << 32) + index)
    n = int(g.integers(3, 7))
    g.integers(2, min(4, n) + 1)
    return random_pencil(g, n)


def _graded_mass_pencil(seed):
    """HPD mass graded over six orders of magnitude."""
    g = rng(seed + 2600)
    scale = np.diag(10.0 ** np.linspace(-3.0, 3.0, 7))
    p = random_pencil(g, 7)
    return QuadraticPencil(scale @ random_hpd(g, 7) @ scale, p.D, p.K)


def _non_hermitian_mass_pencil(seed):
    g = rng(seed + 2650)
    return random_pencil(g, int(g.integers(3, 9)), hpd_mass=False)


def _stiff_pencil(seed):
    """``||K|| ~ 1e6``: the eigenvalues sit near ``|lam| ~ 1e3``."""
    g = rng(seed + 2675)
    p = random_pencil(g, int(g.integers(3, 9)))
    return QuadraticPencil(p.M, p.D, 1e6 * p.K)


class TestBorderedSeparation:
    """``sep`` and the Golub-Kahan norms against the dense companion-size oracle."""

    @pytest.mark.parametrize(
        "make, index",
        [(_criterion_3_pencil, i) for i in range(8)]
        + [(_graded_mass_pencil, i) for i in range(3)]
        + [(_non_hermitian_mass_pencil, i) for i in range(3)]
        + [(_stiff_pencil, i) for i in range(3)],
    )
    # mu at ``delta (1 + 1j)`` from the eigenvalue, or far from it at ``|mu| = modulus``.
    @pytest.mark.parametrize(
        "delta, modulus",
        [pytest.param(d, None, id=str(d)) for d in (1e-2, 1e-6, 1e-10, 0.0)]
        + [pytest.param(None, r, id=f"abs{r}") for r in (0.999, 1.001, 30.0, 1e3)],
    )
    @pytest.mark.filterwarnings("ignore::qritz.errors.IndefiniteMass")
    def test_matches_dense_deflation(self, make, index, delta, modulus):
        p = make(index)
        ep, _ = isolated_eigenpair(solve_full(p))
        ref = reference(p, ep.value, ep.vector)
        assert ref.rejection is None
        mu = ep.value + delta * (1 + 1j) if modulus is None else modulus * (0.6 + 0.8j)
        A, B = linearize(p)
        dl = DenseDeflation(A, B, stack_vector(ep.value, ep.vector))
        norm_a = spectral_norm(A)
        assert abs(largest_singular(*companion_operator(p, 0.0), 2 * p.n) - norm_a) <= 1e-14 * norm_a
        norm = largest_singular(*companion_operator(p, mu), 2 * p.n)
        assert abs(norm - dl.norm_minus(mu)) <= 1e-14 * dl.norm_minus(mu)
        assert abs(sep(ref, mu) - dl.sep(mu)) <= dl.allowance(mu)

    @pytest.mark.parametrize(
        "make, index",
        [(_criterion_3_pencil, i) for i in range(8)]
        + [(_graded_mass_pencil, i) for i in range(3)]
        + [(_non_hermitian_mass_pencil, i) for i in range(3)],
    )
    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    @pytest.mark.filterwarnings("ignore::qritz.errors.IndefiniteMass")
    def test_projected_matches_dense_deflation(self, make, index, eps):
        # The Ritz-vector bound's separation, for every eigenpair (lam1, x1):
        # sep at lam1 of the 2m-size companion pair of the projected pencil,
        # deflated at the selected Ritz pair.  The graded pencils put |lam1|
        # up to 1e5, where a split of z that degenerates with |mu| loses sep.
        p = make(index)
        m = min(3, p.n - 1)
        companions = cnormal(rng(index + 2800), p.n, m - 1)
        for ep in solve_full(p):
            pp = project(p, perturbed_subspace(ep.vector, companions, eps, seed=index))
            sel = select_eigenpair(ritz_pairs(pp, p), ep.value)
            ref = reference(pp.pencil, sel.value, sel.coeff)
            assert ref.rejection is None
            dl = _dense(pp.pencil, sel.value, sel.coeff)
            got = sep(ref, ep.value)
            assert abs(got - dl.sep(ep.value)) <= dl.allowance(ep.value)
            rep = full_diagnostics(reference(p, ep.value, ep.vector), pp.basis)
            assert rep.sep_projected == got

    @pytest.mark.parametrize("eps", [10.0 ** (-k) for k in range(2, 13)] + [0.0])
    def test_example31_sweep(self, eps):
        p = example31_pencil()
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], eps, seed=1)
        rep = full_diagnostics(reference(p, 1.0, X1), Q)
        mu1 = rep.ritz_value
        dl = _dense(p, 1.0, X1)
        sep_dense, allowance = dl.sep(mu1), dl.allowance(mu1)
        assert abs(rep.sep_full - sep_dense) <= allowance
        theta = subspace_angle(Q, X1)
        bound = refined_vector_bound(1.0, mu1, max(p.m0, 1.0), dl.norm_minus(mu1), theta, sep_dense)
        if math.isinf(bound):
            assert rep.refined_vector_bound == math.inf
        else:
            relative = allowance / sep_dense + 1e-12
            assert abs(rep.refined_vector_bound - bound) <= relative * bound

    def test_refuses_a_rejected_reference(self):
        ref = reference(example31_pencil(), 1.0, np.array([1.0, 0.0, 0.0]))
        assert isinstance(ref.rejection, NotAnEigenpair) and ref.y1 is None
        with pytest.raises(NotAnEigenpair):
            sep(ref, 1.0)

    def test_exactly_singular_bordered_matrix_means_no_separation(self):
        # lambda = 1 is a double eigenvalue of example 3.1, so at mu = 1 the
        # deflated pair (L, N) still has the eigenvalue 1 and S(1) is singular.
        p = example31_pencil()
        ref = reference(p, 1.0, X1)
        assert sep(ref, 1.0) == 0.0
        norm = largest_singular(*companion_operator(p, 1.0), 2 * p.n)
        assert refined_vector_bound(1.0, 1.0, max(p.m0, 1.0), norm, _angle(1e-3), 0.0) == math.inf
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], 0.0, seed=1)
        rep = full_diagnostics(ref, Q)
        assert rep.ritz_value == 1.0
        assert rep.sep_full == 0.0 and rep.refined_vector_bound == math.inf


def _extended_sep(A, B, v, y1, mu) -> float:
    """``1 / ||T||`` in 40-digit arithmetic, with ``T`` the top-left block of
    ``[[A - mu B, y1], [v^H, 0]]^{-1}``: the separation ``sep`` computes."""
    N = A.shape[0]
    with mp.workdps(40):
        S = mp.matrix(N + 1, N + 1)
        for i in range(N):
            for j in range(N):
                S[i, j] = mp.mpc(complex(A[i, j])) - mp.mpc(mu) * mp.mpc(complex(B[i, j]))
            S[i, N] = mp.mpc(complex(y1[i]))
            S[N, i] = mp.conj(mp.mpc(complex(v[i])))
        T = mp.inverse(S)[:N, :N]
        return float(1 / max(mp.svd_c(T, compute_uv=False)))


@pytest.mark.parametrize("seed", range(3))
def test_sep_matches_extended_precision_on_huge_eigenvalues(seed):
    # cond(M) = 1e8 puts damping-dominated eigenvalues at |lam| ~ 1e7-1e8.
    # On these inputs DenseDeflation misses the 40-digit 1/||T|| by up to 9.4e2
    # times its allowance (at |mu| <= 30), so sep is pinned to 1/||T|| itself.
    g = rng(seed + 3100)
    n = 6
    M = hermitian_with_spectrum(g, np.logspace(0.0, -8.0, n))
    p = QuadraticPencil(M, cnormal(g, n, n) / np.sqrt(n), cnormal(g, n, n) / np.sqrt(n))
    A, B = linearize(p)
    norm_b = spectral_norm(B)
    refs = [reference(p, ep.value, ep.vector) for ep in solve_full(p) if 1e7 <= abs(ep.value) <= 1e8]
    refs = [ref for ref in refs if ref.rejection is None]
    assert refs
    for ref in refs:
        v = stack_vector(ref.value, ref.vector)
        for mu in (ref.value * (1 + 1e-6 * (1 + 1j)), 1e3 * (0.6 + 0.8j), 30.0 * (0.6 + 0.8j), 0.0):
            want = _extended_sep(A, B, v, ref.y1, mu)
            allowance = 1e-12 * want + SEP_FLOOR * (norm_b + spectral_norm(A - mu * B))
            assert abs(sep(ref, mu) - want) <= allowance


class TestPerturbationTriple:
    def test_exact_subspace_gives_zero(self):
        p = example31_pencil()
        pp = project(p, example31_basis())
        pert = perturbation_triple(p, pp, 1.0, X1, subspace_angle(pp.basis, X1))
        assert spectral_norm(pert.EM) <= 1e-13
        assert spectral_norm(pert.ED) <= 1e-13
        assert spectral_norm(pert.EK) <= 1e-13

    @pytest.mark.parametrize("seed", range(8))
    def test_annihilation_and_norm_bounds(self, seed):
        g = rng(seed + 2500)
        n = int(g.integers(3, 7))
        p = random_pencil(g, n)
        pairs = solve_full(p)
        ep = max(pairs, key=lambda e: abs(e.value))
        Q = perturbed_subspace(ep.vector, cnormal(g, n, 1), 10.0 ** g.uniform(-8, -3), int(seed))
        pp = project(p, Q)
        pert = perturbation_triple(p, pp, ep.value, ep.vector, subspace_angle(pp.basis, ep.vector))
        q1 = Q.conj().T @ ep.vector
        q1 = q1 / np.linalg.norm(q1)
        lam = ep.value
        Mh = pp.pencil.M + pert.EM
        Dh = pp.pencil.D + pert.ED
        Kh = pp.pencil.K + pert.EK
        res = np.linalg.norm(lam * (lam * (Mh @ q1) + Dh @ q1) + Kh @ q1)
        assert res <= 1e-12 * p.residual_scale(lam)
        for E, bound in zip((pert.EM, pert.ED, pert.EK), pert.norm_bounds):
            assert spectral_norm(E) <= bound * (1 + 1e-9) + 1e-12

    def test_rejects_zero_eigenvalue(self, g):
        p = random_pencil(g, 3)
        pp = project(p, np.eye(3))
        x = np.eye(3)[:, 0]
        with pytest.raises(ZeroEigenvalue):
            perturbation_triple(p, pp, 0.0, x, subspace_angle(pp.basis, x))

    def test_rejects_orthogonal_vector(self, g):
        p = random_pencil(g, 3)
        pp = project(p, np.eye(3)[:, :2])
        x = np.array([0.0, 0.0, 1.0])
        with pytest.raises(OrthogonalSubspace):
            perturbation_triple(p, pp, 1.0, x, subspace_angle(pp.basis, x))


class TestElsnerBound:
    def test_zero_perturbation_gives_zero(self):
        p = example31_pencil()
        pp = project(p, example31_basis())
        pert = perturbation_triple(p, pp, 1.0, X1, subspace_angle(pp.basis, X1))
        assert elsner_bound(pp, pert) <= 1e-10

    def test_dominates_value_error(self, g):
        for _ in range(10):
            n = int(g.integers(3, 6))
            p = random_pencil(g, n)
            pairs = solve_full(p)
            ep = max(pairs, key=lambda e: abs(e.value))
            Q = perturbed_subspace(
                ep.vector, cnormal(g, n, 1), 10.0 ** g.uniform(-8, -3), 3
            )
            pp = project(p, Q)
            pert = perturbation_triple(p, pp, ep.value, ep.vector, subspace_angle(pp.basis, ep.vector))
            bound = elsner_bound(pp, pert)
            mu = select_eigenpair(ritz_pairs(pp, p), ep.value).value
            assert abs(mu - ep.value) <= bound


def _extended_elsner(pp, pert) -> float:
    """``elsner_bound``'s formula in 40-digit arithmetic: both companions are
    formed whole, from the exact sums of the projected blocks and the
    perturbations."""
    inner = pp.pencil
    m = inner.n
    with mp.workdps(40):
        M, D, K, EM, ED, EK = (
            mp.matrix(a.tolist()) for a in (inner.M, inner.D, inner.K, pert.EM, pert.ED, pert.EK)
        )

        def companion(M, D, K):
            """``[[-M^{-1} D, -M^{-1} K], [I, 0]]``."""
            M_inv = mp.inverse(M)
            top_d, top_k = -(M_inv * D), -(M_inv * K)
            C = mp.zeros(2 * m, 2 * m)
            for i in range(m):
                C[m + i, i] = 1
                for j in range(m):
                    C[i, j], C[i, m + j] = top_d[i, j], top_k[i, j]
            return C

        def norm(a):
            return max(mp.svd_c(a, compute_uv=False))

        C, Ct = companion(M, D, K), companion(M + EM, D + ED, K + EK)
        k = 2 * m
        return float((norm(C) + norm(Ct)) ** (1 - mp.mpf(1) / k) * norm(C - Ct) ** (mp.mpf(1) / k))


@pytest.mark.parametrize("seed", range(4))
def test_elsner_bound_matches_extended_precision_at_small_eps(seed):
    # At eps = 1e-11 the companion gap ||C - Ct|| is of order 1e-11 ||C||, so
    # forming it as the difference of two rounded companions loses most of it.
    g = rng(seed + 3300)
    n, m = 10, 3
    p = random_pencil(g, n)
    ep = select_eigenpair(solve_full(p), 0.5)
    Q = perturbed_subspace(ep.vector, cnormal(g, n, m - 1), 1e-11, seed=seed)
    pp = project(p, Q)
    pert = perturbation_triple(p, pp, ep.value, ep.vector, subspace_angle(Q, ep.vector))
    want = _extended_elsner(pp, pert)
    assert abs(elsner_bound(pp, pert) - want) <= 1e-13 * want


def _angle(radians):
    return Angle(sin=math.sin(radians), cos=math.cos(radians))


class TestClosedFormBounds:
    def test_ritz_vector_bound_trivial(self):
        # |1|^2 * 1 + |1| * 1 + 1 is the residual scale of m0 = d0 = k0 = 1 at lam1 = 1.
        assert ritz_vector_bound(3.0, _angle(0.0), 0.5) == 0.0
        assert ritz_vector_bound(3.0, _angle(0.1), 0.0) == math.inf

    def test_ritz_vector_bound_formula(self):
        num = 4.0 * 1.0 + 2.0 * 3.0 + 5.0
        got = ritz_vector_bound(num, _angle(0.3), 0.25)
        assert got == pytest.approx(math.sin(0.3) + num / 0.25 * math.tan(0.3), rel=1e-14)

    def test_refined_vector_bound_trivial(self):
        assert refined_vector_bound(1.0, 1.0, 1.0, 1.0, _angle(0.0), 0.5) == 0.0
        assert refined_vector_bound(1.0, 1.0, 1.0, 1.0, _angle(0.1), 0.0) == math.inf

    def test_refined_vector_bound_formula(self):
        got = refined_vector_bound(1.0 + 1.0j, 1.0, 2.0, 3.0, _angle(0.2), 0.4)
        num = math.sqrt(3.0) * (abs(1j) * (2.0 + 3.0) + 3.0 * math.sin(0.2))
        assert got == pytest.approx(num / (math.cos(0.2) * 0.4), rel=1e-14)


    def test_bounds_are_infinite_at_a_right_angle(self):
        right = Angle(sin=1.0, cos=0.0)
        assert ritz_vector_bound(3.0, right, 0.5) == math.inf
        assert refined_vector_bound(1.0, 1.0, 1.0, 1.0, right, 0.5) == math.inf


class TestStackedInequality:
    def test_identical(self, g):
        x = cnormal(g, 3)
        x = x / np.linalg.norm(x)
        u = np.concatenate([2.0 * x, x])
        assert stacked_angle_inequality_check(u, u)

    def test_orthogonal_lower_blocks(self):
        u = np.concatenate([np.zeros(2), np.array([1.0, 0.0])])
        ut = np.concatenate([np.zeros(2), np.array([0.0, 1.0])])
        assert stacked_angle_inequality_check(u, ut)

    def test_rejects_bad_lower_norm(self):
        u = np.ones(4)
        with pytest.raises(BadNorm):
            stacked_angle_inequality_check(u, u)

    def test_lower_blocks_pass_the_one_unit_gate(self):
        # A lower block off unit length by a few UNIT_TOL is refused, as
        # kernels.require_unit refuses it anywhere else.
        x = np.array([0.6, 0.8j])
        u = np.concatenate([x, x])
        ut = np.concatenate([x, x * (1.0 + 5.0 * kernels.UNIT_TOL)])
        assert stacked_angle_inequality_check(u, u)
        with pytest.raises(BadNorm, match="lower block of u_tilde"):
            stacked_angle_inequality_check(u, ut)

    def test_many_random_pairs(self, g):
        for _ in range(200):
            n = int(g.integers(1, 6))
            u1 = cnormal(g, n)
            u1 = u1 / np.linalg.norm(u1)
            ut1 = cnormal(g, n)
            ut1 = ut1 / np.linalg.norm(ut1)
            u = np.concatenate([cnormal(g, n) * g.uniform(0, 3), u1])
            ut = np.concatenate([cnormal(g, n) * g.uniform(0, 3), ut1])
            assert stacked_angle_inequality_check(u, ut)


class TestRefinedResidualIdentity:
    def test_builtin_any_coefficient(self, g):
        p = example31_pencil()
        Q = example31_basis()
        for _ in range(10):
            z = cnormal(g, 2)
            z = z / np.linalg.norm(z)
            assert refined_residual_identity_check(p, Q, 1.0, z)

    def test_exact_minimizer_both_sides_zero(self):
        p = example31_pencil()
        Q = example31_basis()
        z = np.array([1.0, 0.0])
        qz = Q @ z
        w = np.concatenate([qz, qz])
        A, B = linearize(p)
        assert np.linalg.norm(A @ w - B @ w) <= 1e-13
        _, rn = qep_residual(p, 1.0, qz)
        assert rn <= 1e-13
        assert refined_residual_identity_check(p, Q, 1.0, z)

    def test_forms_no_companion_pair(self, monkeypatch):
        def refuse(p):
            raise AssertionError("the identity check formed the 2n x 2n pair")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qritz" and hasattr(module, "linearize"):
                monkeypatch.setattr(module, "linearize", refuse)
        z = np.array([0.6, 0.8j])
        assert refined_residual_identity_check(example31_pencil(), example31_basis(), 1.0 + 0.5j, z)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_property(self, seed):
        g = rng(seed + 2700)
        n = int(g.integers(2, 7))
        m = int(g.integers(1, n + 1))
        p = random_pencil(g, n)
        Q = orthonormalize(cnormal(g, n, m))
        mu = complex(g.standard_normal(), g.standard_normal())
        z = cnormal(g, m)
        z = z / np.linalg.norm(z)
        assert refined_residual_identity_check(p, Q, mu, z)


class TestFullDiagnostics:
    def test_builtin_exact_subspace(self):
        p = example31_pencil()
        rep = full_diagnostics(reference(p, 1.0, X1), example31_basis())
        assert rep.sin_theta1 == 0.0
        assert rep.ritz_value_error <= 1e-11
        assert rep.refined_angle <= 1e-12
        assert rep.sep_projected <= 1e-12
        assert rep.ritz_vector_bound == math.inf
        assert rep.clustered

    def test_identity_basis(self, g):
        p = random_pencil(g, 4)
        pairs = solve_full(p)
        ep = max(
            pairs,
            key=lambda e: min(
                abs(e.value - o.value) for o in pairs if abs(o.value - e.value) > 1e-9
            ),
        )
        rep = full_diagnostics(reference(p, ep.value, ep.vector), np.eye(4))
        assert rep.sin_theta1 <= 1e-13
        assert rep.ritz_value_error <= 1e-10
        assert rep.ritz_angle <= 1e-8
        assert rep.refined_angle <= 1e-8
        assert rep.sep_projected > 0
        assert rep.ritz_vector_bound < math.inf
        assert rep.elsner_bound is not None

    def test_one_orthonormality_gate_per_basis_consumer(self, g, monkeypatch):
        # subspace_angle, project and refined_ritz each gate Q once;
        # perturbation_triple reads the angle full_diagnostics already holds.
        p = random_pencil(g, 5)
        ep = select_eigenpair(solve_full(p), 0.5)
        ref = reference(p, ep.value, ep.vector)
        Q = perturbed_subspace(ep.vector, cnormal(g, 5, 2), 1e-4, seed=3)
        calls = []
        gate = kernels.orthonormality_defect

        def counting(Q):
            calls.append(Q.shape)
            return gate(Q)

        monkeypatch.setattr(kernels, "orthonormality_defect", counting)
        rep = full_diagnostics(ref, Q)
        assert rep.refined_angle is not None and rep.elsner_bound is not None
        assert len(calls) == 3

    def test_two_projected_mass_solves_per_row(self, g, monkeypatch):
        # The Ritz pairs and the Elsner bound each build the companion matrix
        # of the projected pencil; the perturbed mass is solved once more.
        n, m = 10, 3
        p = random_pencil(g, n)
        ep = select_eigenpair(solve_full(p), 0.5)
        ref = reference(p, ep.value, ep.vector)
        Q = perturbed_subspace(ep.vector, cnormal(g, n, m - 1), 1e-4, seed=5)
        mass = project(p, Q).pencil.M
        solved = []
        solve = kernels.solve_linear

        def counting(C, b, **kwargs):
            solved.append(np.array(C))
            return solve(C, b, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qritz" and hasattr(module, "solve_linear"):
                monkeypatch.setattr(module, "solve_linear", counting)
        rep = full_diagnostics(ref, Q)
        assert rep.ritz_value is not None and rep.elsner_bound is not None
        assert sum(np.array_equal(C, mass) for C in solved) == 2
        assert len(solved) == 3

    def test_three_operator_norms_per_row(self, g, monkeypatch):
        # sep_projected (order 2m), sep_full and ||A - mu1 B|| (order 2n):
        # the whole per-row budget of iterative norms.  The triple of
        # A - lam1 B that can start the last of them is one more run, taken
        # once per reference: a second row on the same reference adds three.
        n, m = 10, 3
        p = random_pencil(g, n)
        ep = select_eigenpair(solve_full(p), 0.5)
        ref = reference(p, ep.value, ep.vector)
        assert ref.rejection is None
        Q = perturbed_subspace(ep.vector, cnormal(g, n, m - 1), 1e-4, seed=3)
        dims, triples = [], []
        iterative, triple = kernels.largest_singular, kernels.top_singular_triple

        def counting(matvec, rmatvec, dim, **options):
            dims.append(dim)
            return iterative(matvec, rmatvec, dim, **options)

        def counting_triple(matvec, rmatvec, dim):
            triples.append(dim)
            return triple(matvec, rmatvec, dim)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qritz" and hasattr(module, "largest_singular"):
                monkeypatch.setattr(module, "largest_singular", counting)
            if name.split(".")[0] == "qritz" and hasattr(module, "top_singular_triple"):
                monkeypatch.setattr(module, "top_singular_triple", counting_triple)
        rep = full_diagnostics(ref, Q)
        assert math.isfinite(rep.sep_projected) and math.isfinite(rep.refined_vector_bound)
        assert sorted(dims) == [2 * m, 2 * n, 2 * n]
        assert triples == [2 * n]
        full_diagnostics(ref, Q)
        assert sorted(dims) == [2 * m, 2 * m, 2 * n, 2 * n, 2 * n, 2 * n]
        assert triples == [2 * n]

    @pytest.fixture
    def stage_case(self, g):
        """An admitted reference and a basis at eps = 1e-4 on which every stage succeeds."""
        n, m = 10, 3
        p = random_pencil(g, n)
        ep = select_eigenpair(solve_full(p), 0.5)
        ref = reference(p, ep.value, ep.vector)
        assert ref.rejection is None
        return ref, perturbed_subspace(ep.vector, cnormal(g, n, m - 1), 1e-4, seed=7)

    def test_refused_projected_reference_unsets_only_its_fields(self, stage_case, monkeypatch):
        ref, Q = stage_case
        monkeypatch.setattr(theory, "EIGPAIR_TOL", 0.0)
        rep = full_diagnostics(ref, Q)
        unset = [name for name, value in vars(rep).items() if value is None]
        assert unset == ["sep_projected", "ritz_vector_bound"]

    def test_failed_refinement_unsets_only_its_fields(self, stage_case, monkeypatch):
        ref, Q = stage_case

        def no_convergence(G):
            raise NoConvergence("SVD failed")

        monkeypatch.setattr(refined, "right_singulars", no_convergence)
        rep = full_diagnostics(ref, Q)
        unset = [name for name, value in vars(rep).items() if value is None]
        assert unset == ["refined_angle", "refined_residual"]

    def test_reference_computed_when_absent(self):
        p = example31_pencil()
        ep = select_eigenpair(solve_full(p), 1.05)
        rep = full_diagnostics(reference(p, ep.value, ep.vector), example31_basis())
        assert abs(rep.ref_value - 1.0) <= 1e-6
        assert rep.refined_angle <= 1e-6

    def test_reference_requires_a_unit_vector(self):
        with pytest.raises(BadNorm):
            reference(example31_pencil(), 1.0, 2.0 * X1)

    def test_basis_orthogonal_to_x1_reports_infinite_bounds(self):
        from qritz.pencil import QuadraticPencil

        p = QuadraticPencil(np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.1, 0.2]), np.diag([4.0, 1.0, 9.0]))
        ep = select_eigenpair(solve_full(p), 1.7j)
        assert abs(abs(ep.vector[2]) - 1.0) <= 1e-14
        rep = full_diagnostics(reference(p, ep.value, ep.vector), np.eye(3)[:, :2])
        assert rep.sin_theta1 == 1.0
        assert rep.ritz_vector_bound == rep.refined_vector_bound == math.inf
        # Every stage that does not divide by cos(theta1) still reports.
        assert rep.ritz_value is not None and rep.refined_angle is not None
        assert rep.sep_projected > 0 and rep.sep_full is not None
        # The perturbation triple needs x1 to reach span{Q}.
        assert rep.elsner_bound is None

    def test_partial_failure_marks_fields(self):
        # Indefinite mass projected to a singular block: Ritz extraction
        # fails but the subspace angle survives.
        from qritz.pencil import QuadraticPencil

        p = QuadraticPencil(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
        Q = np.array([[1.0], [1.0]]) / np.sqrt(2)
        with pytest.warns():
            rep = full_diagnostics(reference(p, 1.0, np.array([1.0, 0.0])), Q)
        assert rep.sin_theta1 == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)
        assert rep.ritz_value is None
        assert rep.refined_angle is None
        assert rep.sep_projected is None
