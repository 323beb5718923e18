import numpy as np
import pytest

from conftest import random_pencil, rng
from qritz.builtin import example31_pencil
from qritz.errors import EmptyList, Singular
from qritz.kernels import eig_standard, solve_linear
from qritz.pencil import Eigenpair, QuadraticPencil, linearize
from qritz.solver import select_eigenpair, solve_full


def test_plus_minus_one_double():
    p = QuadraticPencil(np.eye(2), np.zeros((2, 2)), -np.eye(2))
    pairs = solve_full(p)
    values = sorted(round(ep.value.real, 9) for ep in pairs)
    assert values == [-1.0, -1.0, 1.0, 1.0]
    # Eigenvectors span the whole space for each of the two eigenvalues.
    plus = np.column_stack([ep.vector for ep in pairs if ep.value.real > 0])
    assert np.linalg.matrix_rank(plus, tol=1e-8) == 2


def test_builtin_exact_pair_recovered():
    p = example31_pencil()
    ep = select_eigenpair(solve_full(p), 1.0)
    assert abs(ep.value - 1.0) <= 1e-7  # defective double value splits at sqrt(eps)
    overlap = abs(np.vdot(ep.vector, np.array([0.0, 0.0, 1.0])))
    assert np.sqrt(max(0.0, 1.0 - overlap**2)) <= 1e-7


def test_residual_contract_random_hpd(g):
    p = random_pencil(g, 5)
    pairs = solve_full(p)
    assert len(pairs) == 10
    for ep in pairs:
        assert ep.residual_norm <= 1e-9 * p.residual_scale(ep.value)


def test_singular_mass_rejected():
    p = QuadraticPencil(np.zeros((2, 2)), np.eye(2), np.eye(2))
    with pytest.raises(Singular), pytest.warns():
        solve_full(p)


def test_huge_eigenvalue_extraction_fallback():
    # A nearly singular (but still HPD) mass matrix pushes two eigenvalues
    # to ~1e10; their linearized eigenvectors have negligible lower blocks
    # and the quadratic eigenvector must come out of the upper one.
    p = QuadraticPencil(np.diag([1.0, 1e-10]), np.eye(2), np.eye(2))
    pairs = solve_full(p)
    big = [ep for ep in pairs if abs(ep.value) > 1e6]
    assert big
    for ep in big:
        assert abs(np.linalg.norm(ep.vector) - 1.0) <= 1e-13
        assert ep.residual_norm <= 1e-9 * p.residual_scale(ep.value)


@pytest.mark.parametrize("seed", range(4))
def test_matches_generalized_eigenvalues(seed):
    g = rng(seed + 1100)
    n = int(g.integers(2, 7))
    p = random_pencil(g, n)
    A, B = linearize(p)
    C = solve_linear(B, A)
    gep = sorted((v for v, _ in eig_standard(C)), key=lambda z: (z.real, z.imag))
    qep = sorted((ep.value for ep in solve_full(p)), key=lambda z: (z.real, z.imag))
    for a, b in zip(gep, qep):
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_stacked_vectors_satisfy_pencil_relation(g):
    p = random_pencil(g, 4)
    A, B = linearize(p)
    for ep in solve_full(p):
        w = np.concatenate([ep.value * ep.vector, ep.vector])
        scale = (np.linalg.norm(A, 2) + abs(ep.value) * np.linalg.norm(B, 2)) * np.linalg.norm(w)
        assert np.linalg.norm(A @ w - ep.value * (B @ w)) <= 1e-9 * scale


class TestSelect:
    def _pair(self, value, residual=0.0):
        return Eigenpair(value=value, vector=np.array([1.0 + 0j]), residual_norm=residual)

    def test_nearest(self):
        pairs = [self._pair(1.0), self._pair(-1.0)]
        assert select_eigenpair(pairs, 0.9).value == 1.0

    def test_tie_breaks_on_residual(self):
        pairs = [self._pair(1.0, residual=1e-3), self._pair(-1.0, residual=1e-9)]
        assert select_eigenpair(pairs, 0.0).value == -1.0

    def test_tie_breaks_on_index(self):
        pairs = [self._pair(1.0, 1e-9), self._pair(-1.0, 1e-9)]
        assert select_eigenpair(pairs, 0.0) is pairs[0]

    def test_builtin_target(self):
        p = example31_pencil()
        ep = select_eigenpair(solve_full(p), 1.05)
        assert abs(ep.value - 1.0) <= 1e-6

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            select_eigenpair([], 0.0)
