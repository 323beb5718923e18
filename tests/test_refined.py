import sys
import threading

import numpy as np
import pytest

from conftest import cnormal, random_hpd, random_pencil, random_unitary, rng
from qritz.angles import vector_angle
from qritz.builtin import example31_basis, example31_eigenvector, example31_pencil
from qritz.errors import AmbiguousMinimizer, NotOrthonormal
from qritz.kernels import orthonormalize
from qritz.pencil import QuadraticPencil, qep_residual
from qritz.projection import project, ritz_pairs
from qritz.refined import refined_ritz
from qritz.solver import select_eigenpair, solve_full
from qritz.subspace import perturbed_subspace

X1 = example31_eigenvector()


class TestRefinedRitz:
    def test_builtin_exact_subspace(self):
        p = example31_pencil()
        rr = refined_ritz(p, example31_basis(), 1.0)
        assert rr.sigma_min <= 1e-13
        assert vector_angle(rr.coeff, np.array([1.0, 0.0])).sin <= 1e-12
        assert vector_angle(rr.vector, X1).sin <= 1e-12

    def test_full_basis_exact_value(self, g):
        p = random_pencil(g, 4)
        ep = select_eigenpair(solve_full(p), 0.5)
        rr = refined_ritz(p, np.eye(4), ep.value)
        assert rr.sigma_min <= 1e-12 * p.residual_scale(ep.value)
        assert vector_angle(rr.vector, ep.vector).sin <= 1e-8

    def test_perturbed_builtin_tracks_subspace_angle(self):
        from qritz.angles import subspace_angle

        p = example31_pencil()
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-12, seed=42)
        sin_theta = subspace_angle(Q, X1).sin
        mu = select_eigenpair_ritz(p, Q)
        rr = refined_ritz(p, Q, mu)
        assert vector_angle(rr.vector, X1).sin <= 10.0 * sin_theta
        assert rr.sigma_min <= 1e-11

    def test_residual_equals_sigma(self, g):
        p = random_pencil(g, 6)
        Q = orthonormalize(cnormal(g, 6, 3))
        rr = refined_ritz(p, Q, 0.3 + 0.2j)
        scale = p.residual_scale(rr.value)
        assert abs(rr.residual_norm - rr.sigma_min) <= 1e-10 * scale

    def test_minimality_probes(self, g):
        p = random_pencil(g, 5)
        Q = orthonormalize(cnormal(g, 5, 3))
        mu = 0.8 - 0.1j
        rr = refined_ritz(p, Q, mu)
        scale = p.residual_scale(mu)
        for _ in range(50):
            z = cnormal(g, 3)
            z = z / np.linalg.norm(z)
            _, rn = qep_residual(p, mu, Q @ z)
            assert rr.residual_norm <= rn + 1e-10 * scale

    def test_phase_invariance(self, g):
        # Unit column phases move the coefficient vector but leave the
        # minimum and the lifted direction's angles unchanged.
        p = random_pencil(g, 5)
        Q = orthonormalize(cnormal(g, 5, 3))
        mu = 1.1 + 0.3j
        base = refined_ritz(p, Q, mu)
        phases = np.exp(1j * g.uniform(0, 2 * np.pi, size=3))
        other = refined_ritz(p, Q * phases, mu)
        assert abs(base.sigma_min - other.sigma_min) <= 1e-12 * max(1.0, base.sigma_min)
        ref_dir = cnormal(rng(999), 5)
        assert (
            abs(vector_angle(base.vector, ref_dir).sin
                - vector_angle(other.vector, ref_dir).sin)
            <= 1e-12
        )

    def test_ambiguous_minimizer_warns(self):
        # Two coincident smallest singular values: pencil with a doubly
        # degenerate residual direction.
        p = QuadraticPencil(np.eye(3), np.zeros((3, 3)), -np.eye(3))
        with pytest.warns(AmbiguousMinimizer):
            refined_ritz(p, np.eye(3)[:, :2], 1.0)

    def test_rejects_bad_basis(self, g):
        p = random_pencil(g, 4)
        with pytest.raises(NotOrthonormal):
            refined_ritz(p, cnormal(g, 4, 2), 1.0)


def select_eigenpair_ritz(p, Q):
    return select_eigenpair(ritz_pairs(project(p, Q), p), 1.0).value


def scaled_pencil(g, n):
    """HPD-mass pencil whose three matrices carry scales from 1e-6 to 1e6."""
    sm, sd, sk = 10.0 ** g.uniform(-6.0, 6.0, size=3)
    return QuadraticPencil(
        sm * random_hpd(g, n), sd * cnormal(g, n, n) / np.sqrt(n), sk * cnormal(g, n, n) / np.sqrt(n)
    )


#: (n, m) shapes of the oracle tests: one column, a full basis, n < 3m, tall.
ORACLE_SHAPES = [(6, 1), (5, 5), (4, 3), (9, 4)]


class TestCompressedOracle:
    """The basis-image route against the tall matrix (mu^2 M + mu D + K) Q."""

    @pytest.mark.parametrize("n,m", ORACLE_SHAPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_refined_matches_direct_svd(self, n, m, seed):
        g = rng(seed + 700)
        p = scaled_pencil(g, n)
        Q = random_unitary(g, n)[:, :m]
        pairs = ritz_pairs(project(p, Q), p)
        values = [rp.value for rp in pairs] + [complex(*g.standard_normal(2))]
        for mu in values:
            rr = refined_ritz(p, Q, mu)
            tol = 1e-13 * p.residual_scale(mu)
            s = np.linalg.svd(p.evaluate(mu) @ Q, compute_uv=False)
            assert abs(rr.sigma_min - s[-1]) <= tol
            _, rn = qep_residual(p, mu, rr.vector)
            assert abs(rr.residual_norm - rn) <= tol

    @pytest.mark.parametrize("n,m", ORACLE_SHAPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_ritz_residuals_match_direct(self, n, m, seed):
        g = rng(seed + 800)
        p = scaled_pencil(g, n)
        Q = random_unitary(g, n)[:, :m]
        pairs = ritz_pairs(project(p, Q), p)
        assert len(pairs) == 2 * m
        for rp in pairs:
            _, rn = qep_residual(p, rp.value, rp.vector)
            assert abs(rp.residual_norm - rn) <= 1e-13 * p.residual_scale(rp.value)


    @pytest.mark.parametrize("epsilon", [0.0, 1e-12])
    def test_residuals_on_a_rank_deficient_image(self, epsilon):
        # p = U diag(.) U^H, and Q spans (at epsilon 0) the common invariant
        # subspace U[:, :m] of M, D and K, so W = [MQ, DQ, KQ] has rank m and
        # the trailing diagonal of its R factor is rounding.
        g = rng(900)
        n, m = 60, 4
        U = random_unitary(g, n)
        a, b = cnormal(g, 2, n)
        mass = g.uniform(1.0, 2.0, n)
        Uh = U.conj().T
        p = QuadraticPencil((U * mass) @ Uh, (U * (-mass * (a + b))) @ Uh, (U * (mass * a * b)) @ Uh)
        Q = perturbed_subspace(U[:, 0], U[:, 1:m], epsilon, seed=3)
        diagonal = np.abs(np.diag(p.image(Q).R))
        assert diagonal[m:].max() <= 1e-10 * diagonal.max()
        for rp in ritz_pairs(project(p, Q), p):
            tol = 1e-13 * p.residual_scale(rp.value)
            _, rn = qep_residual(p, rp.value, rp.vector)
            assert abs(rp.residual_norm - rn) <= tol
            rr = refined_ritz(p, Q, rp.value)
            _, rn = qep_residual(p, rp.value, rr.vector)
            assert abs(rr.residual_norm - rn) <= tol


def _same(a, b):
    return (
        a.sigma_min == b.sigma_min
        and a.residual_norm == b.residual_norm
        and np.array_equal(a.coeff, b.coeff)
        and np.array_equal(a.vector, b.vector)
    )


class TestBasisImageMemo:
    """Results never depend on what the pencil's basis-image memo holds."""

    def test_hit_after_project_is_bit_identical(self, g):
        M, D, K = random_hpd(g, 7), cnormal(g, 7, 7), cnormal(g, 7, 7)
        Q = random_unitary(g, 7)[:, :3]
        mu = 0.7 - 0.4j
        cold = refined_ritz(QuadraticPencil(M, D, K), Q, mu)
        p = QuadraticPencil(M, D, K)
        project(p, Q)
        image = p.image(Q)
        warm = refined_ritz(p, Q, mu)
        assert p.image(Q) is image
        assert _same(cold, warm)

    def test_mutated_basis_is_not_stale(self, g):
        M, D, K = random_hpd(g, 7), cnormal(g, 7, 7), cnormal(g, 7, 7)
        p = QuadraticPencil(M, D, K)
        Q = random_unitary(g, 7)[:, :3].copy()
        mu = 1.2 + 0.1j
        refined_ritz(p, Q, mu)
        Q[:] = Q[:, [2, 0, 1]]
        assert _same(refined_ritz(p, Q, mu), refined_ritz(QuadraticPencil(M, D, K), Q, mu))

    def test_other_basis_is_not_stale(self, g):
        M, D, K = random_hpd(g, 7), cnormal(g, 7, 7), cnormal(g, 7, 7)
        p = QuadraticPencil(M, D, K)
        mu = -0.3 + 0.9j
        refined_ritz(p, random_unitary(g, 7)[:, :3], mu)
        Q2 = random_unitary(g, 7)[:, :3]
        assert _same(refined_ritz(p, Q2, mu), refined_ritz(QuadraticPencil(M, D, K), Q2, mu))

    def test_threads_sharing_a_pencil_get_fresh_results(self, g):
        # More threads than cores alternate two bases on one pencil; a memo
        # entry torn between bases would change the bits of some result.
        M, D, K = random_hpd(g, 9), cnormal(g, 9, 9), cnormal(g, 9, 9)
        bases = [random_unitary(g, 9)[:, :3], random_unitary(g, 9)[:, :3]]
        mu = 0.5 + 0.5j
        expected = [refined_ritz(QuadraticPencil(M, D, K), Q, mu) for Q in bases]
        p = QuadraticPencil(M, D, K)
        mismatches = []

        def worker(k):
            for i in range(200):
                j = (i + k) % 2
                if not _same(refined_ritz(p, bases[j], mu), expected[j]):
                    mismatches.append((k, i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


def extractions(p, Q, mu, x1):
    """Sines of the angles to ``x1`` and residuals of the Ritz pair nearest
    ``mu`` and of the refined vector for ``mu``: (ritz, refined, ritz, refined)."""
    pair = select_eigenpair(ritz_pairs(project(p, Q), p), mu)
    rr = refined_ritz(p, Q, mu)
    return (
        vector_angle(x1, pair.vector).sin,
        vector_angle(x1, rr.vector).sin,
        pair.residual_norm,
        rr.residual_norm,
    )


class TestCompareExtractions:
    def test_builtin_adversarial_coefficient(self):
        # On the exact subspace any unit coefficient solves the projected
        # problem; the worst-case mixed choice lifts to a vector far from
        # the true eigenvector, while refined extraction recovers it.
        p = example31_pencil()
        Q = example31_basis()
        bad_coeff = np.array([1.0, 1.0]) / np.sqrt(2)
        bad_vector = Q @ bad_coeff
        expected = np.array(
            [4.0 * np.sqrt(2.0 / 73.0), -3.0 / np.sqrt(146.0), 1.0 / np.sqrt(2.0)]
        )
        assert np.allclose(bad_vector, expected, atol=1e-14)
        # It really is a valid projected eigenvector for the double value.
        pp_res = np.linalg.norm(
            (Q.conj().T @ p.evaluate(1.0) @ Q) @ bad_coeff
        )
        assert pp_res <= 1e-13
        assert vector_angle(bad_vector, X1).sin >= 0.7  # no accuracy at all

        _, refined_angle, ritz_residual, refined_residual = extractions(p, Q, 1.0, X1)
        assert refined_angle <= 1e-12
        assert refined_residual <= ritz_residual + 1e-12

    def test_subspace_containing_eigenvector(self, g):
        p = random_pencil(g, 5)
        pairs = solve_full(p)
        ep = max(
            pairs,
            key=lambda e: min(
                abs(e.value - o.value) for o in pairs if abs(o.value - e.value) > 1e-9
            ),
        )
        Q = orthonormalize(np.column_stack([ep.vector, cnormal(g, 5, 2)]))
        ritz_angle, refined_angle, _, _ = extractions(p, Q, ep.value, ep.vector)
        assert ritz_angle <= 1e-9
        assert refined_angle <= 1e-9

    def test_perturbed_builtin_gap(self):
        from qritz.angles import subspace_angle

        p = example31_pencil()
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-12, seed=7)
        sin_theta = subspace_angle(Q, X1).sin
        mu = select_eigenpair_ritz(p, Q)
        ritz_angle, refined_angle, ritz_residual, refined_residual = extractions(p, Q, mu, X1)
        # Refined beats plain extraction by orders of magnitude here; the
        # stagnated residual sits at working scale, nowhere near sin_theta.
        assert refined_angle <= 1e-3 * ritz_angle
        assert refined_residual <= ritz_residual + 1e-12
        assert 1e4 * sin_theta <= ritz_residual <= 10.0

