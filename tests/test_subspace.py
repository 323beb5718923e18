import numpy as np
import pytest

from conftest import cnormal, random_pencil
from qritz.angles import subspace_angle
from qritz.builtin import example31_basis, example31_eigenvector, example31_pencil
from qritz.errors import RankDeficient, Singular
from qritz.kernels import orthonormality_defect
from qritz.pencil import QuadraticPencil
from qritz.projection import project, ritz_pairs
from qritz.solver import solve_full
from qritz.subspace import (
    perturbed_subspace,
    second_order_krylov,
)

X1 = example31_eigenvector()


class TestPerturbedSubspace:
    def test_zero_epsilon_contains_vector(self):
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], 0.0, seed=1)
        assert subspace_angle(Q, X1).sin <= 1e-13

    def test_small_epsilon_angle_window(self):
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-12, seed=1)
        assert 1e-13 <= subspace_angle(Q, X1).sin <= 1e-10

    def test_unit_epsilon_large_angle(self):
        Q = perturbed_subspace(X1, example31_basis()[:, 1:], 1.0, seed=1)
        assert subspace_angle(Q, X1).sin >= 1e-2

    def test_deterministic_per_seed(self):
        a = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-6, seed=9)
        b = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-6, seed=9)
        c = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-6, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_orthonormal_output(self, g):
        for _ in range(5):
            n = int(g.integers(2, 9))
            m = int(g.integers(1, n + 1))
            x = cnormal(g, n)
            x = x / np.linalg.norm(x)
            comps = cnormal(g, n, m - 1)
            Q = perturbed_subspace(x, comps, 10.0 ** g.uniform(-12, 0), seed=5)
            assert orthonormality_defect(Q) <= 1e-12

    def test_angle_shrinks_with_epsilon(self):
        sweep = [10.0 ** (-k) for k in range(2, 13)]
        angles = [
            subspace_angle(
                perturbed_subspace(X1, example31_basis()[:, 1:], eps, seed=3), X1
            ).sin
            for eps in sweep
        ]
        for a, b in zip(angles, angles[1:]):
            assert b <= 10.0 * a  # monotone within sampling noise
        assert angles[-1] < 1e-10 < 1e-4 < angles[0]

    def test_rank_deficient_rejected(self):
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            perturbed_subspace(x, x.reshape(3, 1), 0.0, seed=1)


class TestSecondOrderKrylov:
    def test_full_space_reproduces_spectrum(self, g):
        p = random_pencil(g, 4)
        start = cnormal(g, 4)
        start = start / np.linalg.norm(start)
        res = second_order_krylov(p, start, 4, tau=0.3)
        assert not res.breakdown
        assert orthonormality_defect(res.basis) <= 1e-12
        ritz = sorted(
            (rp.value for rp in ritz_pairs(project(p, res.basis), p)),
            key=lambda z: (z.real, z.imag),
        )
        exact = sorted((ep.value for ep in solve_full(p)), key=lambda z: (z.real, z.imag))
        for a, b in zip(ritz, exact):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_single_vector(self, g):
        p = random_pencil(g, 5)
        start = cnormal(g, 5)
        start = start / np.linalg.norm(start)
        res = second_order_krylov(p, start, 1, tau=0.0)
        assert res.basis.shape == (5, 1)
        assert abs(abs(np.vdot(res.basis[:, 0], start)) - 1.0) <= 1e-13

    def test_builtin_angle_improves(self):
        p = example31_pencil()
        e3 = np.array([0.0, 0.0, 1.0])
        one = second_order_krylov(p, e3, 1, tau=0.9)
        two = second_order_krylov(p, e3, 2, tau=0.9)
        a1 = subspace_angle(one.basis, X1).sin
        a2 = subspace_angle(two.basis, X1).sin
        assert a2 <= a1 + 1e-12

    def test_breakdown_returns_smaller_basis(self):
        # Start vector is an exact eigenvector of the shifted recurrence
        # operator pair: the second direction collapses.
        p = QuadraticPencil(np.eye(2), np.zeros((2, 2)), -np.eye(2))
        res = second_order_krylov(p, np.array([1.0, 0.0]), 2, tau=0.0)
        assert res.breakdown
        assert res.basis.shape == (2, 1)

    def test_singular_shifted_term_rejected(self):
        p = QuadraticPencil(np.eye(2), np.zeros((2, 2)), -np.eye(2))
        # tau = 1 makes the shifted constant term singular.
        with pytest.raises(Singular):
            second_order_krylov(p, np.array([1.0, 0.0]), 2, tau=1.0)

    def test_deterministic(self, g):
        p = random_pencil(g, 6)
        start = cnormal(g, 6)
        start = start / np.linalg.norm(start)
        r1 = second_order_krylov(p, start, 4, tau=0.2)
        r2 = second_order_krylov(p, start, 4, tau=0.2)
        assert np.array_equal(r1.basis, r2.basis)
