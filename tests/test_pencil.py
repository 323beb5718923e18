import re
import tracemalloc

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

import qritz.pencil

from conftest import cnormal, hermitian_with_spectrum, random_hpd, random_pencil, rng
from qritz.builtin import example31_pencil
from qritz.errors import BadNorm, DimensionMismatch, Singular
from qritz.kernels import (
    ITERATIVE_NORM_MIN,
    eig_standard,
    orthonormalize,
    solve_linear,
    spectral_norm,
)
from qritz.pencil import (
    HPD_TOL,
    QuadraticPencil,
    companion_matrix,
    companion_operator,
    linearize,
    qep_residual,
    stack_vector,
)
from qritz.angles import subspace_angle
from qritz.projection import project, ritz_pairs
from qritz.refined import refined_ritz
from qritz.solver import solve_full
from qritz.theory import full_diagnostics, reference


def sorted_values(pairs):
    return sorted((p.value for p in pairs), key=lambda z: (z.real, z.imag))


class TestQuadraticPencil:
    @pytest.mark.parametrize("n", [4, ITERATIVE_NORM_MIN])
    def test_norms_cached(self, g, n):
        p = random_pencil(g, n)
        assert p.m0 == pytest.approx(np.linalg.norm(p.M, 2), rel=1e-12)
        assert p.d0 == pytest.approx(np.linalg.norm(p.D, 2), rel=1e-12)
        assert p.k0 == pytest.approx(np.linalg.norm(p.K, 2), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_b0_is_the_norm_of_the_companion_b(self, g, scale):
        # ||diag(M, I)|| is 1 below ||M|| = 1 and ||M|| above it.
        p = random_pencil(g, 5)
        p = QuadraticPencil(scale * p.M / p.m0, p.D, p.K)
        assert p.b0 == max(p.m0, 1.0)
        assert p.b0 == pytest.approx(np.linalg.norm(linearize(p)[1], 2), rel=1e-12)

    def test_large_pencil_factorizes_nothing_of_its_size(self, g, monkeypatch):
        # From ITERATIVE_NORM_MIN on, the three norms and the skew test run
        # Golub-Kahan and definiteness is one Cholesky: no SVD or Hermitian
        # eigensolve sees an n x n matrix.
        n = ITERATIVE_NORM_MIN
        M, D, K = random_hpd(g, n), cnormal(g, n, n), cnormal(g, n, n)
        shapes = []
        for module in (np.linalg, np_linalg_impl):
            for name in ("svd", "eigvalsh", "eigh"):
                factor = getattr(module, name)

                def recording(a, *args, _factor=factor, **kwargs):
                    shapes.append(np.shape(a))
                    return _factor(a, *args, **kwargs)

                monkeypatch.setattr(module, name, recording)
        p = QuadraticPencil(M, D, K)
        monkeypatch.undo()
        assert p.hermitian_pd
        assert shapes and max(max(shape) for shape in shapes) < n

    def test_hpd_detection(self, g):
        assert random_pencil(g, 3, hpd_mass=True).hermitian_pd
        skew = QuadraticPencil(
            np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2), np.eye(2)
        )
        assert not skew.hermitian_pd
        indef = QuadraticPencil(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
        assert not indef.hermitian_pd

    @pytest.mark.parametrize("factor, hpd", [(2.0, True), (0.5, False)])
    def test_hpd_smallest_eigenvalue_boundary(self, g, factor, hpd):
        # m0 = 1 up to rounding; the smallest eigenvalue sits a factor
        # 2 above or below the HPD_TOL * m0 threshold.
        lowest = factor * HPD_TOL
        for M in (np.diag([1.0, lowest]), hermitian_with_spectrum(g, [1.0, 0.7, 0.3, lowest])):
            n = M.shape[0]
            p = QuadraticPencil(M, np.eye(n), np.eye(n))
            assert p.m0 == pytest.approx(1.0, rel=1e-14)
            assert p.hermitian_pd is hpd

    @pytest.mark.parametrize("factor, hpd", [(0.5, True), (2.0, False)])
    def test_hpd_skew_part_boundary(self, g, factor, hpd):
        # ||M - M^H|| = 2 ||S|| is a factor 2 below or above HPD_TOL * m0.
        H = hermitian_with_spectrum(g, [2.0, 1.5, 1.0, 0.5])
        G = cnormal(g, 4, 4)
        S = G - G.conj().T
        S *= factor * HPD_TOL * spectral_norm(H) / (2.0 * spectral_norm(S))
        p = QuadraticPencil(H + S, np.eye(4), np.eye(4))
        assert spectral_norm(p.M - p.M.conj().T) == pytest.approx(factor * HPD_TOL * p.m0, rel=1e-3)
        assert p.hermitian_pd is hpd

    def test_hpd_large_indefinite(self, g):
        n = ITERATIVE_NORM_MIN
        w = g.uniform(1.0, 2.0, n)
        p = QuadraticPencil(hermitian_with_spectrum(g, w), np.eye(n), np.eye(n))
        assert p.hermitian_pd
        w[n // 2] = -1e-3
        p = QuadraticPencil(hermitian_with_spectrum(g, w), np.eye(n), np.eye(n))
        assert not p.hermitian_pd

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            QuadraticPencil(np.eye(2), np.eye(3), np.eye(2))
        with pytest.raises(ValueError):
            QuadraticPencil(np.array([[np.nan, 0], [0, 1]]), np.eye(2), np.eye(2))

    def test_validation_precedes_every_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a factorization ran before validation")

        monkeypatch.setattr(qritz.pencil, "spectral_norm", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        K = np.eye(2)
        K[0, 1] = np.nan
        with pytest.raises(ValueError, match="K contains non-finite entries"):
            QuadraticPencil(np.eye(2), np.eye(2), K)
        with pytest.raises(ValueError, match="D must be 2-D"):
            QuadraticPencil(np.eye(2), np.ones(2), np.eye(2))
        with pytest.raises(DimensionMismatch, match=re.escape("M must be square, got (2, 3)")):
            QuadraticPencil(np.ones((2, 3)), np.eye(2), np.eye(2))
        with pytest.raises(
            DimensionMismatch,
            match=re.escape("M, D, K must share one square shape, got (2, 2), (3, 3), (2, 2)"),
        ):
            QuadraticPencil(np.eye(2), np.eye(3), np.eye(2))

    def test_d0_and_k0_are_taken_on_first_read(self, g, monkeypatch):
        seen = []

        def recording(a, _norm=spectral_norm):
            seen.append(a)
            return _norm(a)

        monkeypatch.setattr(qritz.pencil, "spectral_norm", recording)
        p = random_pencil(g, 6)
        solve_full(p, 0.3 + 0.1j, 1)
        assert not any(np.shares_memory(a, b) for a in seen for b in (p.D, p.K))
        monkeypatch.undo()
        assert p.d0 == spectral_norm(p.D)
        assert p.k0 == spectral_norm(p.K)

    def test_construction_peaks_at_its_three_stored_matrices(self, g):
        # Below ITERATIVE_NORM_MIN the norm of M is a dense SVD: the
        # certificate's temporaries are freed before M, D and K are copied.
        n = 200
        M, D, K = random_hpd(g, n), cnormal(g, n, n), cnormal(g, n, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            QuadraticPencil(M, D, K)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * M.itemsize


def read_only(a) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestInputsNeitherWrittenNorKept:
    def test_read_only_inputs_pass_every_entry_point(self, g):
        n, m = 12, 3
        M, D, K = (read_only(a) for a in (random_hpd(g, n), cnormal(g, n, n), cnormal(g, n, n)))
        p = QuadraticPencil(M, D, K)
        assert not any(np.shares_memory(a, b) for a in (p.M, p.D, p.K) for b in (M, D, K))
        spectral_norm(M)
        solve_linear(M, read_only(cnormal(g, n)))
        pair = solve_full(p, 0.3 + 0.1j, 1)[0]
        x = read_only(pair.vector)
        Q = read_only(orthonormalize(read_only(np.column_stack([x, cnormal(g, n, m - 1)]))))
        pp = project(p, Q)
        assert not np.shares_memory(pp.basis, Q)
        ritz = ritz_pairs(pp, p)
        refined_ritz(p, Q, ritz[0].value)
        subspace_angle(Q, x)
        full_diagnostics(reference(p, pair.value, x), Q)

    def test_writing_the_callers_arrays_changes_no_later_result(self, g):
        n, m = 12, 3
        M, D, K = random_hpd(g, n), cnormal(g, n, n), cnormal(g, n, n)
        Q = orthonormalize(cnormal(g, n, m))
        fresh = QuadraticPencil(M.copy(), D.copy(), K.copy())
        expected = [(rp.value, rp.residual_norm) for rp in ritz_pairs(project(fresh, Q.copy()), fresh)]
        p = QuadraticPencil(M, D, K)
        pp = project(p, Q)
        for a in (M, D, K, Q):
            a[...] = 7.0
        assert [(rp.value, rp.residual_norm) for rp in ritz_pairs(pp, p)] == expected
        assert (p.d0, p.k0) == (fresh.d0, fresh.k0)
        assert solve_full(p, 0.3, 1)[0].value == solve_full(fresh, 0.3, 1)[0].value


class TestResidual:
    def test_builtin_exact_pair(self):
        p = example31_pencil()
        _, norm = qep_residual(p, 1.0, np.array([0.0, 0.0, 1.0]))
        assert norm <= 1e-14

    def test_plus_minus_one(self):
        p = QuadraticPencil(np.eye(2), np.zeros((2, 2)), -np.eye(2))
        _, norm = qep_residual(p, 1.0, np.array([1.0, 0.0]))
        assert norm == 0.0

    def test_input_not_renormalized(self, g):
        p = random_pencil(g, 3)
        x = cnormal(g, 3)
        _, n1 = qep_residual(p, 0.7, x)
        _, n2 = qep_residual(p, 0.7, 2.0 * x)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)

    def test_dimension_mismatch(self, g):
        p = random_pencil(g, 3)
        with pytest.raises(DimensionMismatch):
            qep_residual(p, 1.0, np.ones(4))


class TestLinearize:
    def test_scalar_blocks(self):
        p = QuadraticPencil(np.eye(1), np.zeros((1, 1)), -np.eye(1))
        A, B = linearize(p)
        assert np.array_equal(A, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(B, np.eye(2))

    def test_builtin_eigenpair_relation(self):
        p = example31_pencil()
        A, B = linearize(p)
        x = np.array([0.0, 0.0, 1.0])
        w = np.concatenate([1.0 * x, x])
        assert np.linalg.norm(A @ w - 1.0 * (B @ w)) <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_eigenpair_relation_random(self, seed):
        g = rng(seed + 1000)
        p = random_pencil(g, 4)
        A, B = linearize(p)
        for ep in solve_full(p):
            w = np.concatenate([ep.value * ep.vector, ep.vector])
            scale = spectral_norm(A) + abs(ep.value) * spectral_norm(B)
            assert np.linalg.norm(A @ w - ep.value * (B @ w)) <= 1e-11 * scale

    def test_spectral_equivalence(self, g):
        # The 2n eigenvalues of (A, B) match the full quadratic solve.
        p = random_pencil(g, 3)
        A, B = linearize(p)
        C = solve_linear(B, A)
        from_gep = sorted((v for v, _ in eig_standard(C)), key=lambda z: (z.real, z.imag))
        from_qep = sorted_values(solve_full(p))
        for a, b in zip(from_gep, from_qep):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


class TestCompanionMatrix:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_solve_against_linearization(self, n, seed):
        # B^{-1} A from one n x n solve against M equals the 2n x 2n solve
        # against B, for HPD and for general nonsingular mass matrices.
        g = rng(seed + 1700)
        for hpd in (True, False):
            p = random_pencil(g, n, hpd_mass=hpd)
            A, B = linearize(p)
            C = companion_matrix(p)
            assert C.shape == (2 * n, 2 * n)
            assert spectral_norm(C - solve_linear(B, A)) <= 1e-13 * spectral_norm(C)

    def _svd_shapes(self, monkeypatch):
        shapes = []
        for module in (np.linalg, np_linalg_impl):
            factor = module.svd

            def recording(a, *args, _factor=factor, **kwargs):
                shapes.append(np.shape(a))
                return _factor(a, *args, **kwargs)

            monkeypatch.setattr(module, "svd", recording)
        return shapes

    def test_certified_mass_skips_the_sigma_min_svd(self, g, monkeypatch):
        # sigma_min(M) >= lambda_min((M + M^H)/2) > HPD_TOL ||M|| for a
        # certified mass, so the SINGULAR_TOL gate cannot fire and its SVD is not taken.
        n = 160
        p = random_pencil(g, n)
        assert p.hermitian_pd
        shapes = self._svd_shapes(monkeypatch)
        C = companion_matrix(p)
        monkeypatch.undo()
        assert (n, n) not in shapes
        assert np.array_equal(C[:n], solve_linear(p.M, np.hstack([-p.D, -p.K])))

    def test_uncertified_near_singular_mass_is_refused(self, g, monkeypatch):
        n = 160
        U, V = (np.linalg.qr(cnormal(g, n, n))[0] for _ in range(2))
        s = np.linspace(1.0, 2.0, n)
        s[-1] = 1e-16
        p = QuadraticPencil((U * s) @ V.conj().T, cnormal(g, n, n), cnormal(g, n, n))
        assert not p.hermitian_pd
        shapes = self._svd_shapes(monkeypatch)
        with pytest.raises(Singular):
            companion_matrix(p)
        monkeypatch.undo()
        assert (n, n) in shapes

    def test_built_afresh_on_each_call(self, g):
        # Nothing is kept on the pencil: each call returns a new matrix with
        # the bits a fresh pencil computes.
        p = random_pencil(g, 6)
        C = companion_matrix(p)
        again = companion_matrix(p)
        assert again is not C
        assert np.array_equal(again, C)
        assert np.array_equal(C, companion_matrix(QuadraticPencil(p.M, p.D, p.K)))

    def test_refusal_is_not_memoized(self):
        p = QuadraticPencil(np.zeros((2, 2)), np.eye(2), np.eye(2))
        for _ in range(2):
            with pytest.raises(Singular):
                companion_matrix(p)

    @pytest.mark.parametrize("hpd", [True, False])
    def test_built_in_place_with_the_block_bits(self, g, hpd):
        # One 2n x 2n array and the solve's n x 2n result: the traced peak
        # stays within twice the companion, and its bits are those of the
        # block assembly from -D, -K, I and 0.
        n = 200
        p = random_pencil(g, n, hpd_mass=hpd)
        tracemalloc.start()
        try:
            C = companion_matrix(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * C.nbytes
        top = solve_linear(p.M, np.hstack([-p.D, -p.K]), certified=p.hermitian_pd)
        eye, zero = np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)
        assert C.flags.c_contiguous
        assert C.tobytes() == np.block([[top], [eye, zero]]).tobytes()


class TestCompanionOperator:
    @pytest.mark.parametrize("mu", [0.0, 1e-3, 3 + 4j, 1e6])
    @pytest.mark.parametrize("hpd", [True, False])
    def test_matches_the_dense_pencil(self, g, mu, hpd):
        p = random_pencil(g, 7, hpd_mass=hpd)
        A, B = linearize(p)
        dense = A - mu * B
        matvec, rmatvec = companion_operator(p, mu)
        tol = 1e-14 * np.linalg.norm(dense, 2)
        for _ in range(3):
            u = cnormal(g, 14)
            u /= np.linalg.norm(u)
            assert np.linalg.norm(matvec(u) - dense @ u) <= tol
            assert np.linalg.norm(rmatvec(u) - dense.conj().T @ u) <= tol


class TestStackVector:
    def test_zero_value(self):
        x = np.array([0.0, 1.0])
        assert np.allclose(stack_vector(0.0, x), np.array([0, 0, 0, 1.0]))

    def test_builtin_form(self):
        v = stack_vector(1.0, np.array([0.0, 0.0, 1.0]))
        expect = np.array([0, 0, 1.0, 0, 0, 1.0]) / np.sqrt(2)
        assert np.allclose(v, expect, atol=1e-15)

    def test_unit_norm_imaginary(self, g):
        x = cnormal(g, 5)
        x = x / np.linalg.norm(x)
        v = stack_vector(1j, x)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-13

    def test_rejects_bad_norm(self):
        with pytest.raises(BadNorm):
            stack_vector(1.0, np.array([1.0, 1.0]))


def test_projected_mass_inverse_never_grows(g):
    # For Hermitian positive definite M the projected mass matrix is at
    # least as well conditioned in the inverse norm.
    for _ in range(5):
        p = random_pencil(g, 5)
        from qritz.kernels import orthonormalize

        Q = orthonormalize(cnormal(g, 5, 3))
        pp = project(p, Q)
        inv_full = 1.0 / np.linalg.svd(p.M, compute_uv=False)[-1]
        inv_proj = 1.0 / np.linalg.svd(pp.pencil.M, compute_uv=False)[-1]
        assert inv_proj <= inv_full * (1.0 + 1e-12)
