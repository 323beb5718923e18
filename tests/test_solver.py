import warnings

import numpy as np
import pytest

from conftest import cnormal, random_pencil, random_unitary, rng
from qritz import solver
from qritz.builtin import example31_pencil
from qritz.errors import EmptyList, IndefiniteMass, Singular
from qritz.kernels import eig_standard, eigenvalues, solve_linear
from qritz.pencil import Eigenpair, QuadraticPencil, companion_matrix, linearize, qep_residual
from qritz.solver import nearest_first, select_eigenpair, solve_full
from qritz.study import case_from_pencil


@pytest.mark.parametrize("route", [(), (1.0, 2)], ids=["all-pairs", "value-only"])
def test_plus_minus_one_double(route):
    p = QuadraticPencil(np.eye(2), np.zeros((2, 2)), -np.eye(2))
    pairs = solve_full(p, *route)
    values = sorted(round(ep.value.real, 9) for ep in pairs)
    assert values == ([-1.0, -1.0, 1.0, 1.0] if not route else [1.0, 1.0])
    # Eigenvectors span the whole space for each of the two eigenvalues.
    plus = np.column_stack([ep.vector for ep in pairs if ep.value.real > 0])
    assert np.linalg.matrix_rank(plus, tol=1e-8) == 2


def test_builtin_exact_pair_recovered():
    p = example31_pencil()
    ep = select_eigenpair(solve_full(p), 1.0)
    assert abs(ep.value - 1.0) <= 1e-7  # defective double value splits at sqrt(eps)
    overlap = abs(np.vdot(ep.vector, np.array([0.0, 0.0, 1.0])))
    assert np.sqrt(max(0.0, 1.0 - overlap**2)) <= 1e-7


def _huge_value_pencil(g):
    """HPD mass with eigenvalues 1e-4 to 1e-7: half the pairs have ``|lam|`` ~ 1e4 to 1e7."""
    p = random_pencil(g, 5)
    U = random_unitary(g, 5)
    return QuadraticPencil((U * np.logspace(-4, -7, 5)) @ U.conj().T, p.D, p.K)


@pytest.mark.parametrize(
    "make", [lambda g: random_pencil(g, 5), _huge_value_pencil], ids=["random", "huge-values"]
)
def test_residual_contract_random_hpd(g, make):
    p = make(g)
    pairs = solve_full(p)
    assert len(pairs) == 10
    for ep in pairs:
        assert ep.residual_norm <= 1e-9 * p.residual_scale(ep.value)


@pytest.mark.parametrize("route", [(), (0.0, 1)], ids=["all-pairs", "value-only"])
def test_singular_mass_rejected(route):
    p = QuadraticPencil(np.zeros((2, 2)), np.eye(2), np.eye(2))
    with pytest.raises(Singular), pytest.warns(IndefiniteMass):
        solve_full(p, *route)


@pytest.mark.parametrize("route", [(), (-1e10, 1)], ids=["all-pairs", "value-only"])
def test_huge_eigenvalue_extraction_fallback(route):
    # A nearly singular (but still HPD) mass matrix pushes two eigenvalues
    # to ~1e10; their linearized eigenvectors have negligible lower blocks
    # and the quadratic eigenvector must come out of the upper one.
    p = QuadraticPencil(np.diag([1.0, 1e-10]), np.eye(2), np.eye(2))
    pairs = solve_full(p, *route)
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

    @pytest.mark.parametrize("target", [np.inf, np.nan, complex(0.0, -np.inf)])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="finite"):
            select_eigenpair([self._pair(1.0)], target)


def graded_pencil(k: int, n: int = 40) -> QuadraticPencil:
    """Graded HPD mass ``U diag(logspace(0, -k)) U^H``, random complex D and K."""
    g = rng(9300 + k)
    U = random_unitary(g, n)
    M = (U * np.logspace(0, -k, n)) @ U.conj().T
    return QuadraticPencil(M, cnormal(g, n, n) / np.sqrt(n), cnormal(g, n, n) / np.sqrt(n))


class TestValueRoute:
    """``solve_full(p, target, count)``: companion eigenvalues, then refined vectors."""

    @pytest.mark.parametrize("seed", range(6))
    def test_selects_the_all_pairs_values(self, seed):
        g = rng(seed + 9200)
        p = random_pencil(g, int(g.integers(3, 9)))
        for count in range(1, max(2 * p.n, 12) + 1):
            tau = complex(*(2.0 * g.standard_normal(2)))
            want = nearest_first(solve_full(p), tau)[:count]
            got = solve_full(p, tau, count)
            assert len(got) == min(count, 2 * p.n)
            for a, b in zip(got, want):
                assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(b.value))
                assert a.residual_norm <= 1e-9 * p.residual_scale(a.value)

    @pytest.mark.parametrize("k", [2, 8, 12])
    def test_residual_never_above_the_companion_vector(self, k):
        with warnings.catch_warnings():
            # At k = 12 the smallest eigenvalue of M sits at the HPD tolerance.
            warnings.simplefilter("ignore", IndefiniteMass)
            p = graded_pencil(k)
            pairs = solve_full(p)
            values = np.array([ep.value for ep in pairs])
            for i in np.argsort(np.abs(values))[::4]:
                tau = values[i] * (1.0 + 1e-9)
                want = nearest_first(pairs, tau)[0]
                got = solve_full(p, tau, 1)[0]
                assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
                slack = 1e-14 * p.residual_scale(want.value)
                assert got.residual_norm <= want.residual_norm + slack

    @pytest.mark.parametrize("seed", range(4))
    def test_vectors_take_the_companion_eigenvectors_phase(self, seed):
        # Largest entry of [lam x; x] real and positive: the value route's
        # vectors agree with the all-pairs route's entry by entry.
        g = rng(seed + 9250)
        p = random_pencil(g, 6)
        tau = complex(*g.standard_normal(2))
        for got, want in zip(solve_full(p, tau, 4), nearest_first(solve_full(p), tau)):
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert np.linalg.norm(got.vector - want.vector) <= 1e-10

    def test_printed_residual_is_the_vectors(self, g):
        p = random_pencil(g, 6)
        for ep in solve_full(p, 0.3 - 0.2j, 3):
            _, rn = qep_residual(p, ep.value, ep.vector)
            assert ep.residual_norm == pytest.approx(rn, rel=1e-12, abs=1e-15)

    def test_no_companion_eigenvectors(self, g, monkeypatch):
        # Every count route and every study case take the companion
        # eigenvalues alone and no n x n SVD: each vector comes from inverse
        # iteration on P(lam).
        p = random_pencil(g, 5)
        svd = np.linalg.svd

        def refuse_eig(*args, **kwargs):
            raise AssertionError("np.linalg.eig called")

        def refuse_square(a, *args, **kwargs):
            assert np.shape(a) != (p.n, p.n), "n x n np.linalg.svd called"
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", refuse_eig)
        monkeypatch.setattr(np.linalg, "svd", refuse_square)
        for count in range(1, max(2 * p.n, 12) + 1):
            assert len(solve_full(p, 0.0, count)) == min(count, 2 * p.n)
        for dim in range(1, p.n + 1):
            assert case_from_pencil(p, 0.3 - 0.1j, dim).companions.shape == (p.n, dim - 1)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_exact_eigenvalues_give_unit_coordinate_vectors(self, count):
        # P(lam) = lam (lam I - diag(1, 2, 3)): the companion eigenvalues
        # 1, 2 and 3 come out exactly, so P(lam) is exactly singular and the
        # inverse iteration factors it at a nudged lam.
        p = QuadraticPencil(np.eye(3), -np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)))
        pairs = solve_full(p, 2.2, count)
        assert [ep.value for ep in pairs] == [2.0, 3.0, 1.0][:count]
        for ep in pairs:
            k = int(ep.value.real) - 1
            assert ep.vector == pytest.approx(np.eye(3)[k], rel=0, abs=1e-15)
            assert ep.residual_norm == 0.0

    def test_exactly_singular_repeated_value_keeps_independent_vectors(self):
        # P(2) = diag(0, 0, -2) exactly: both copies of 2 take one block
        # iteration at a nudged value, and its two golden-phase columns stay
        # independent in the null space span{e_1, e_2}.
        p = QuadraticPencil(np.eye(3), -np.diag([2.0, 2.0, 3.0]), np.zeros((3, 3)))
        pairs = solve_full(p, 2.2, 2)
        assert [ep.value for ep in pairs] == [2.0, 2.0]
        V = np.column_stack([ep.vector for ep in pairs])
        assert np.linalg.norm(V.conj().T @ V - np.eye(2)) <= 1e-15
        assert np.abs(V[2]).max() <= 1e-15
        assert all(ep.residual_norm == 0.0 for ep in pairs)

    def test_equidistant_conjugates_break_on_the_residual(self, monkeypatch):
        # Real pencils and real targets: the companion eigenvalues of a
        # conjugate pair are often exactly equidistant from the target.  Both
        # are candidates for count 1, in either eigensolver order, and the
        # one with the smaller residual comes first.
        ties = 0
        for reverse in (False, True):
            if reverse:
                monkeypatch.setattr(solver, "eigenvalues", lambda C: eigenvalues(C)[::-1])
            for seed in range(60):
                g = rng(7000 + seed)
                R, D, K = (g.standard_normal((3, 3)) for _ in range(3))
                p = QuadraticPencil(R @ R.T + 3.0 * np.eye(3), D, K)
                for tau in (lam.real for lam in eigenvalues(companion_matrix(p)) if lam.imag > 0):
                    first, second = solve_full(p, tau, 2)
                    if abs(first.value - tau) != abs(second.value - tau):
                        continue
                    if first.residual_norm == second.residual_norm:
                        continue
                    assert first.value == pytest.approx(second.value.conjugate(), rel=1e-10)
                    assert first.residual_norm < second.residual_norm
                    assert solve_full(p, tau, 1)[0].value == first.value
                    ties += 1
        assert ties >= 2

    @pytest.mark.parametrize("seed", range(24))
    def test_each_count_is_a_prefix_of_the_largest(self, seed):
        # A value's refined vector and residual are computed from that value
        # alone, so a larger count only appends pairs, bit for bit.  Even
        # seeds are real pencils with real targets, whose conjugate values
        # tie in distance.
        g = rng(9500 + seed)
        n = int(g.integers(3, 12))
        if seed % 2 == 0:
            R, D, K = (g.standard_normal((n, n)) for _ in range(3))
            p = QuadraticPencil(R @ R.T + n * np.eye(n), D, K)
            tau = float(g.standard_normal())
        else:
            p = random_pencil(g, n)
            tau = complex(*g.standard_normal(2))

        def bits(pairs):
            return [(np.complex128(ep.value).tobytes(), ep.vector.tobytes(),
                     np.float64(ep.residual_norm).tobytes()) for ep in pairs]

        everything = bits(solve_full(p, tau, 2 * n))
        for count in range(1, 2 * n + 1):
            assert bits(solve_full(p, tau, count)) == everything[:count], count

    @pytest.fixture
    def solve_log(self, monkeypatch):
        """One entry per ``np.linalg.solve`` call."""
        log = []
        solve = np.linalg.solve

        def counted(a, b):
            log.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return log

    @pytest.mark.parametrize("seed", range(3))
    def test_one_solve_pair_per_value_at_the_rounding_floor(self, seed, solve_log):
        # On a random HPD-mass pencil the first P^H / P solve pair already
        # leaves ||P(lam) x|| at rounding level, below INVERSE_FLOOR, so
        # each value stops there, within the minimality slack of the
        # companion eigenvector's residual.
        p = random_pencil(rng(9400 + seed), 60)
        values = solver.nearest_values(eigenvalues(companion_matrix(p)), 0.3 + 0.2j, 5)
        solve_log.clear()
        pairs = solver.refined_pairs(p, values)
        assert len(values) == 5 and len(solve_log) == 2 * len(values)
        companion = solve_full(p)
        for ep in pairs:
            want = min(companion, key=lambda c: abs(c.value - ep.value))
            assert ep.value == pytest.approx(want.value, rel=1e-12)
            slack = 1e-14 * p.residual_scale(ep.value)
            assert ep.residual_norm <= want.residual_norm + slack

    def test_a_value_off_an_eigenvalue_runs_until_the_residual_stops_halving(self, g, solve_log):
        # 1e-8 relative off an eigenvalue, the smallest residual is about
        # sigma_min(P(lam)), far above the floor: the floor never stops the
        # iteration, and the second step, which does not halve the residual,
        # does.
        p = random_pencil(g, 40)
        lam = eigenvalues(companion_matrix(p))[0] * (1.0 + 1e-8)
        solve_log.clear()
        (ep,) = solver.refined_pairs(p, [lam])
        F = p.evaluate(lam)
        assert ep.residual_norm > 1e3 * solver.INVERSE_FLOOR * np.linalg.norm(F) / np.sqrt(p.n)
        assert ep.residual_norm <= 1.01 * np.linalg.svd(F, compute_uv=False)[-1]
        assert len(solve_log) >= 4

    def test_count_clamps_to_2n(self, g):
        p = random_pencil(g, 2)
        pairs = solve_full(p, 0.5, 9)
        assert [ep.value for ep in pairs] == [ep.value for ep in nearest_first(solve_full(p), 0.5)]

    @pytest.mark.parametrize(
        "target, count",
        [
            (None, 1),
            (0.0, 0),
            (np.nan, 1),
            (np.inf, 9),
            (complex(1.0, -np.inf), 13),
            (np.nan, None),
            (1.0, None),
            (0.0, 2.5),
            (0.0, "2"),
        ],
    )
    def test_bad_arguments(self, g, monkeypatch, target, count):
        # Every refusal comes before the companion solve and any eigensolve.
        def refuse(*args, **kwargs):
            raise AssertionError("solve reached")

        p = random_pencil(g, 2)
        for name in ("companion_matrix", "eigenvalues", "quadratic_vectors"):
            monkeypatch.setattr(solver, name, refuse)
        with pytest.raises(ValueError):
            solve_full(p, target, count)
