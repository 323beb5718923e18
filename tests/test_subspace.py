import numpy as np
import pytest

from conftest import cnormal
from qritz.angles import subspace_angle
from qritz.builtin import example31_basis, example31_eigenvector
from qritz.errors import RankDeficient
from qritz.kernels import orthonormality_defect
from qritz.subspace import perturbed_subspace

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

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -1e-3])
    def test_bad_epsilon_is_refused_by_name(self, epsilon):
        with pytest.raises(ValueError, match=r"^epsilon must be finite and >= 0, got "):
            perturbed_subspace(X1, example31_basis()[:, 1:], epsilon, seed=1)
