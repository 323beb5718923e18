import numpy as np
import pytest

from conftest import cnormal, rng
from qritz.errors import BadNorm, RankDeficient, Singular
from qritz.kernels import (
    ORTHO_TOL,
    eig_standard,
    largest_singular,
    orthonormalize,
    orthonormality_defect,
    solve_linear,
    spectral_norm,
    svd,
    unitary_completion,
)


def hermitian_eig_2x2(H):
    """Closed-form 2x2 Hermitian eigendecomposition via one Jacobi rotation.

    Independent oracle: the rotation form keeps the eigenvector matrix
    exactly unitary even when the eigenvalues nearly coincide.
    """
    a = H[0, 0].real
    c = H[1, 1].real
    b = H[0, 1]
    if abs(b) == 0:
        return np.array([a, c]), np.eye(2, dtype=complex)
    phase = b / abs(b)
    tau = (c - a) / (2.0 * abs(b))
    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
    ct = 1.0 / np.sqrt(1.0 + t * t)
    st = t * ct
    lam = np.array([a - t * abs(b), c + t * abs(b)])
    U = np.array([[ct, st], [-st * np.conj(phase), ct * np.conj(phase)]])
    return lam, U


class TestOrthonormalize:
    def test_already_orthonormal(self):
        V = np.eye(3)[:, :2]
        Q = orthonormalize(V)
        assert orthonormality_defect(Q) <= ORTHO_TOL
        # Same span as the input.
        assert spectral_norm(Q @ (Q.conj().T @ V) - V) <= 1e-13

    def test_dependent_columns_rejected(self):
        V = np.array([[1.0, 1.0], [0.0, 1e-14], [0.0, 0.0]])
        with pytest.raises(RankDeficient):
            orthonormalize(V)

    def test_spanning_pair(self):
        V = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        Q = orthonormalize(V)
        assert orthonormality_defect(Q) <= ORTHO_TOL
        P = Q @ Q.conj().T
        for col in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0])):
            assert np.linalg.norm(P @ col - col) <= 1e-13

    def test_matches_symmetric_inverse_sqrt_span(self):
        # Perturbed near-orthonormal 3x2 block: the Householder basis must
        # span the same space as V (V^H V)^{-1/2}, built here from a
        # closed-form 2x2 Hermitian eigendecomposition.
        g = rng(5)
        base = np.array([[0.0, 8.0], [0.0, -3.0], [np.sqrt(73.0), 0.0]]) / np.sqrt(73.0)
        V = base + 1e-12 * (g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2)))
        lam, U = hermitian_eig_2x2(V.conj().T @ V)
        Q_sym = V @ (U @ np.diag(1.0 / np.sqrt(lam)) @ U.conj().T)
        assert spectral_norm(Q_sym.conj().T @ Q_sym - np.eye(2)) <= 1e-10
        Q = orthonormalize(V)
        assert orthonormality_defect(Q) <= ORTHO_TOL
        # Largest principal angle between the two spans.
        s = np.linalg.svd(Q.conj().T @ Q_sym, compute_uv=False)
        sin_angle = np.sqrt(max(0.0, 1.0 - s[-1] ** 2))
        assert sin_angle <= 1e-11

    @pytest.mark.parametrize("seed", range(8))
    def test_random_property(self, seed):
        g = rng(seed + 100)
        n = int(g.integers(2, 17))
        k = int(g.integers(1, n + 1))
        V = cnormal(g, n, k)
        Q = orthonormalize(V)
        assert orthonormality_defect(Q) <= ORTHO_TOL
        # Span preserved: projecting V onto span{Q} reproduces V.
        assert spectral_norm(Q @ (Q.conj().T @ V) - V) <= 1e-12 * spectral_norm(V)


class TestEigStandard:
    def test_diagonal(self):
        pairs = eig_standard(np.diag([2.0, 3.0]))
        values = sorted(p[0].real for p in pairs)
        assert values == pytest.approx([2.0, 3.0], abs=1e-14)
        for lam, v in pairs:
            idx = 0 if abs(lam - 2.0) < 0.5 else 1
            assert abs(abs(v[idx]) - 1.0) <= 1e-13

    def test_symmetric_flip(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        pairs = sorted(eig_standard(C), key=lambda p: p[0].real)
        assert pairs[0][0] == pytest.approx(-1.0, abs=1e-14)
        assert pairs[1][0] == pytest.approx(1.0, abs=1e-14)
        v = pairs[1][1]
        assert abs(abs(np.vdot(v, np.array([1.0, 1.0]) / np.sqrt(2))) - 1.0) <= 1e-13

    def test_recovers_constructed_spectrum(self):
        g = rng(7)
        lam = np.array([1.5, -0.5 + 2j, 3.0, 0.25, -2.0, 1j])
        S = cnormal(g, 6, 6)
        C = S @ np.diag(lam) @ np.linalg.inv(S)
        got = sorted((p[0] for p in eig_standard(C)), key=lambda z: (z.real, z.imag))
        want = sorted(lam, key=lambda z: (z.real, z.imag))
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_contract(self, seed):
        g = rng(seed + 300)
        n = int(g.integers(2, 17))
        C = cnormal(g, n, n)
        norm_c = spectral_norm(C)
        for lam, v in eig_standard(C):
            assert np.linalg.norm(C @ v - lam * v) <= 1e-10 * norm_c

    def test_hermitian_input_real_values(self, g):
        n = 8
        H = cnormal(g, n, n)
        H = H + H.conj().T
        for lam, _ in eig_standard(H):
            assert abs(lam.imag) <= 1e-12


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        assert list(s) == pytest.approx([3.0, 1.0], abs=1e-14)

    def test_zero_matrix(self):
        U, s, V = svd(np.zeros((3, 2)))
        assert np.all(s == 0.0)
        assert orthonormality_defect(U) <= ORTHO_TOL
        assert orthonormality_defect(V) <= ORTHO_TOL

    def test_rank_one(self, g):
        a = cnormal(g, 5)
        b = cnormal(g, 3)
        G = np.outer(a, b.conj())
        _, s, _ = svd(G)
        assert s[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-13)
        assert s[1] <= 1e-13 * s[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction(self, seed):
        g = rng(seed + 400)
        n = int(g.integers(1, 17))
        m = int(g.integers(1, 17))
        G = cnormal(g, n, m)
        U, s, V = svd(G)
        S = np.zeros((n, m))
        np.fill_diagonal(S, s)
        assert spectral_norm(G - U @ S @ V.conj().T) <= 1e-12 * spectral_norm(G)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def _operator(a, calls=None):
    """``(matvec, rmatvec)`` of the dense matrix ``a``; ``calls`` counts the matvecs."""

    def matvec(x):
        if calls is not None:
            calls.append(x.size)
        return a @ x

    return matvec, lambda y: a.conj().T @ y


class TestLargestSingular:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dense(self, seed):
        g = rng(seed + 2300)
        k = int(g.integers(2, 40))
        a = cnormal(g, k, k) * 10.0 ** g.uniform(-3, 3)
        want = np.linalg.norm(a, 2)
        assert abs(largest_singular(*_operator(a), k) - want) <= 1e-14 * want

    def test_rank_one(self, g):
        a = np.outer(cnormal(g, 9), cnormal(g, 9))
        want = np.linalg.norm(a, 2)
        assert abs(largest_singular(*_operator(a), 9) - want) <= 1e-14 * want

    def test_zero_operator(self):
        assert largest_singular(*_operator(np.zeros((5, 5), dtype=complex)), 5) == 0.0

    def test_dimension_one(self):
        assert largest_singular(*_operator(np.array([[3.0 - 4.0j]])), 1) == pytest.approx(5.0, rel=1e-15)

    def test_top_singular_vector_orthogonal_to_ones(self):
        # ||a|| = 10 along w = (e1 - e2)/sqrt(2), which is orthogonal to ones;
        # on the complement of w, a is the identity, so a start vector of ones
        # would never leave it and report 1.
        w = np.zeros(6)
        w[:2] = [1.0, -1.0]
        w /= np.sqrt(2.0)
        a = np.eye(6) + 9.0 * np.outer(w, w)
        assert a @ np.ones(6) == pytest.approx(np.ones(6))
        assert largest_singular(*_operator(a), 6) == pytest.approx(10.0, rel=1e-14)

    def test_runs_every_step(self):
        # Three distinct singular values and a generic start: the estimate
        # keeps growing until the Krylov space is the whole space.
        a = np.diag([1.0, 0.9, 0.8]).astype(complex)
        calls = []
        assert largest_singular(*_operator(a, calls), 3) == pytest.approx(1.0, rel=1e-14)
        assert calls == [3, 3, 3]

    def test_deterministic(self, g):
        a = cnormal(g, 8, 8)
        assert largest_singular(*_operator(a), 8) == largest_singular(*_operator(a), 8)


class TestUnitaryCompletion:
    def test_axis_vector(self):
        X = unitary_completion(np.array([1.0, 0.0, 0.0]))
        full = np.column_stack([np.array([1.0, 0, 0]), X])
        assert orthonormality_defect(full) <= ORTHO_TOL
        assert np.allclose(X[0, :], 0.0, atol=1e-14)

    def test_two_dimensional(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        X = unitary_completion(v)
        w = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(X[:, 0], w)) - 1.0) <= 1e-13

    def test_rejects_bad_norm(self):
        with pytest.raises(BadNorm):
            unitary_completion(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_property(self, seed):
        g = rng(seed + 500)
        v = cnormal(g, 6)
        v = v / np.linalg.norm(v)
        X = unitary_completion(v)
        full = np.column_stack([v, X])
        assert orthonormality_defect(full) <= ORTHO_TOL


class TestSolveLinear:
    def test_identity(self, g):
        b = cnormal(g, 4)
        assert np.allclose(solve_linear(np.eye(4), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_residual_oracle(self, g):
        C = cnormal(g, 8, 8) + 4.0 * np.eye(8)
        b = cnormal(g, 8)
        x = solve_linear(C, b)
        assert np.linalg.norm(C @ x - b) <= 1e-11 * spectral_norm(C) * np.linalg.norm(x)

    def test_singular_rejected(self):
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(Singular):
            solve_linear(C, np.array([1.0, 0.0]))

    def test_singular_with_unit_pivots_rejected(self):
        # Every LU pivot of I - triu(ones, 1) is 1, yet sigma_min/sigma_max ~ 2e-19.
        C = np.eye(60) - np.triu(np.ones((60, 60)), 1)
        with pytest.raises(Singular):
            solve_linear(C, np.ones(60))
