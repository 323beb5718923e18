import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cnormal, hermitian_with_spectrum, random_hpd, rng
from qritz import kernels
from qritz.errors import BadNorm, RankDeficient, Singular
from qritz.kernels import (
    ITERATIVE_NORM_MIN,
    ORTHO_TOL,
    RANK_TOL,
    clustered_flags,
    eig_standard,
    golden_phases,
    largest_singular,
    orthonormalize,
    orthonormality_defect,
    solve_linear,
    spectral_norm,
    svd,
    top_singular_triple,
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

    @pytest.mark.parametrize("n,k", [(800, 12), (12, 12)])
    def test_returns_the_householder_factor(self, n, k):
        V = cnormal(rng(n + k), n, k)
        assert np.array_equal(orthonormalize(V), np.linalg.qr(V)[0])

    @pytest.mark.parametrize("n,k", [(800, 12), (12, 12)])
    @pytest.mark.parametrize("ratio", [1e-11, 1e-13])
    def test_rank_tol_decides_on_both_sides(self, n, k, ratio):
        # Singular values from 1 down to ratio, a decade either side of RANK_TOL.
        g = rng(17)
        left, _ = np.linalg.qr(cnormal(g, n, k))
        right, _ = np.linalg.qr(cnormal(g, k, k))
        V = (left * np.logspace(0.0, np.log10(ratio), k)) @ right.conj().T
        if ratio > RANK_TOL:
            assert orthonormality_defect(orthonormalize(V)) <= ORTHO_TOL
        else:
            with pytest.raises(RankDeficient, match=f"^numerical rank {k - 1} < {k} "):
                orthonormalize(V)

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


#: An order above ``DENSE_OPERATOR_MAX``, where ``largest_singular`` runs Lanczos.
LANCZOS_DIM = kernels.DENSE_OPERATOR_MAX + 4


def _operator(a, calls=None, rcalls=None):
    """``(matvec, rmatvec)`` of the dense matrix ``a``; ``calls`` and ``rcalls`` log their sizes."""

    def matvec(x):
        if calls is not None:
            calls.append(x.size)
        return a @ x

    def rmatvec(y):
        if rcalls is not None:
            rcalls.append(y.size)
        return a.conj().T @ y

    return matvec, rmatvec


class TestLargestSingular:
    @pytest.mark.parametrize("above", [0, kernels.DENSE_OPERATOR_MAX], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dense(self, seed, above):
        # The drawn orders, 2 to 15, take the dense route; the same draws
        # moved up by DENSE_OPERATOR_MAX run Lanczos.
        g = rng(seed + 2300)
        k = int(g.integers(2, 40)) + above
        a = cnormal(g, k, k) * 10.0 ** g.uniform(-3, 3)
        want = np.linalg.norm(a, 2)
        assert abs(largest_singular(*_operator(a), k) - want) <= 1e-14 * want

    @pytest.mark.parametrize("dim", [9, LANCZOS_DIM])
    def test_rank_one(self, g, dim):
        # Lanczos on T^H T of a rank-one T meets its one nonzero singular
        # value within two steps and stops by the third product with T.
        a = np.outer(cnormal(g, dim), cnormal(g, dim))
        want = np.linalg.norm(a, 2)
        calls = []
        assert abs(largest_singular(*_operator(a, calls), dim) - want) <= 1e-14 * want
        if dim <= kernels.DENSE_OPERATOR_MAX:
            assert len(calls) == dim
        else:
            assert len(calls) <= 3

    def test_identity_stops_at_its_invariant_subspace(self):
        # T^H T v_0 = v_0, so the first new direction orthogonalizes to
        # exactly zero: Lanczos stops after one product with each of T and
        # T^H instead of dividing by beta = 0.
        dim = LANCZOS_DIM
        calls, rcalls = [], []
        norm = largest_singular(*_operator(np.eye(dim, dtype=complex), calls, rcalls), dim)
        assert norm == pytest.approx(1.0, rel=1e-15)
        assert len(calls) == 1 and len(rcalls) == 1

    @pytest.mark.parametrize("dim", [5, LANCZOS_DIM])
    def test_zero_operator(self, dim):
        # Lanczos returns 0.0 at the first product, which is exactly zero.
        calls = []
        assert largest_singular(*_operator(np.zeros((dim, dim), dtype=complex), calls), dim) == 0.0
        assert len(calls) == (dim if dim <= kernels.DENSE_OPERATOR_MAX else 1)

    def test_dimension_one(self):
        assert largest_singular(*_operator(np.array([[3.0 - 4.0j]])), 1) == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("dim", [6, LANCZOS_DIM])
    def test_top_singular_vector_orthogonal_to_ones(self, dim):
        # ||a|| = 10 along w = (e1 - e2)/sqrt(2), which is orthogonal to ones;
        # on the complement of w, a is the identity, so a Lanczos start
        # vector of ones would never leave it and report 1.
        w = np.zeros(dim)
        w[:2] = [1.0, -1.0]
        w /= np.sqrt(2.0)
        a = np.eye(dim) + 9.0 * np.outer(w, w)
        assert a @ np.ones(dim) == pytest.approx(np.ones(dim))
        assert largest_singular(*_operator(a), dim) == pytest.approx(10.0, rel=1e-14)

    def test_runs_every_step(self):
        # Order 3 is formed densely, one product with T per column;
        # test_runs_every_step_of_a_larger_diagonal runs every Lanczos step.
        a = np.diag([1.0, 0.9, 0.8]).astype(complex)
        calls = []
        assert largest_singular(*_operator(a, calls), 3) == pytest.approx(1.0, rel=1e-14)
        assert calls == [3, 3, 3]

    @pytest.mark.parametrize("dim", [8, LANCZOS_DIM])
    def test_deterministic(self, g, dim):
        a = cnormal(g, dim, dim)
        assert largest_singular(*_operator(a), dim) == largest_singular(*_operator(a), dim)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scales(self, g, scale):
        # ||T v||^2 of these operators underflows or overflows; the kernel
        # squares only products divided by ||T v_0||, and takes that norm
        # of T v_0 over its largest modulus.
        a = cnormal(g, 30, 30) * scale
        want = np.linalg.norm(a, 2)
        assert abs(largest_singular(*_operator(a), 30) - want) <= 1e-14 * want

    def test_runs_every_step_of_a_larger_diagonal(self):
        # Twenty distinct singular values, gaps 0.04, above the dense order:
        # the estimate grows at every step, so each of the 20 Lanczos steps
        # takes a product with T and all but the last one with T^H.
        a = np.diag(1.0 - 0.04 * np.arange(20)).astype(complex)
        calls, rcalls = [], []
        assert 20 > kernels.DENSE_OPERATOR_MAX
        assert largest_singular(*_operator(a, calls, rcalls), 20) == pytest.approx(1.0, rel=1e-14)
        assert len(calls) == 20 and len(rcalls) == 19

    @pytest.mark.parametrize("dim", [1, 9, kernels.DENSE_OPERATOR_MAX])
    def test_small_orders_form_the_operator(self, dim):
        # Up to DENSE_OPERATOR_MAX the norm is the dense SVD's of the dim
        # products T e_j: no product with T^H, and the bits of the matrix norm.
        a = cnormal(rng(2700 + dim), dim, dim)
        calls, rcalls = [], []
        assert largest_singular(*_operator(a, calls, rcalls), dim) == np.linalg.norm(a, 2)
        assert len(calls) == dim and rcalls == []

    @pytest.mark.parametrize("n", [200, 513])
    @pytest.mark.parametrize(
        "spectrum",
        [lambda g, n: g.uniform(1.0, 2.0, n), lambda g, n: 10.0 ** -g.uniform(0.0, 12.0, n)],
        ids=["clustered-top", "graded"],
    )
    def test_hard_spectra_match_dense(self, spectrum, n):
        g = rng(2600 + n)
        a = hermitian_with_spectrum(g, spectrum(g, n))
        want = np.linalg.norm(a, 2)
        assert abs(largest_singular(*_operator(a), n) - want) <= 1e-14 * want

    def test_buffers_grow_with_the_steps_taken(self):
        # A diagonal operator with one dominant entry stops within a few
        # steps, so the Lanczos buffers stay at their first LANCZOS_ROWS rows
        # instead of two dim x dim complex arrays (11.5 MB at dim = 600).
        dim = 600
        d = np.linspace(1.0, 2.0, dim)
        d[0] = 100.0
        tracemalloc.start()
        try:
            norm = largest_singular(lambda x: d * x, lambda y: d * y, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(100.0, rel=1e-14)
        assert peak <= 3 * kernels.LANCZOS_ROWS * dim * 16

    @pytest.mark.parametrize("dim", [7, LANCZOS_DIM])
    def test_leaves_the_operators_arrays_untouched(self, g, dim):
        # Every product is a view of the operator's one state buffer; each
        # call first checks that the kernel left the previous product as it
        # was returned.  The dense route takes dim products with T, Lanczos
        # several with each of T and T^H.
        a = cnormal(g, dim, dim)
        state = np.zeros(dim, dtype=complex)
        snapshot = state.copy()
        calls, rcalls = [], []

        def keeping(product, log):
            assert np.array_equal(state, snapshot)
            state[:] = product
            snapshot[:] = product
            log.append(1)
            return state[:]

        norm = largest_singular(
            lambda x: keeping(a @ x, calls), lambda y: keeping(a.conj().T @ y, rcalls), dim
        )
        assert np.array_equal(state, snapshot)
        if dim <= kernels.DENSE_OPERATOR_MAX:
            assert len(calls) == dim and rcalls == []
        else:
            assert len(calls) >= 4 and len(rcalls) >= 3
        want = np.linalg.norm(a, 2)
        assert abs(norm - want) <= 1e-14 * want

    def test_exact_top_vector_start_stops_at_once(self):
        # From the exact top right singular vector, T^H T v_0 = sigma1^2 v_0:
        # the first new direction is rounding noise, and the estimate stalls
        # by the second step, so at most three products with T or T^H.
        a = cnormal(rng(2800), LANCZOS_DIM, LANCZOS_DIM)
        _, s, vh = np.linalg.svd(a)
        calls, rcalls = [], []
        norm = largest_singular(*_operator(a, calls, rcalls), LANCZOS_DIM, start=vh[0].conj())
        assert abs(norm - s[0]) <= 1e-14 * s[0]
        assert len(calls) + len(rcalls) <= 3

    def test_golden_start_is_the_cold_start(self, g):
        # start=None and an explicit golden-phase start run the same bits;
        # on the dense route a start is not read.
        a = cnormal(g, LANCZOS_DIM, LANCZOS_DIM)
        cold = largest_singular(*_operator(a), LANCZOS_DIM)
        assert largest_singular(*_operator(a), LANCZOS_DIM, start=golden_phases(LANCZOS_DIM)) == cold
        b = a[:9, :9]
        assert largest_singular(*_operator(b), 9, start=np.ones(9)) == largest_singular(*_operator(b), 9)


class TestTopSingularTriple:
    def test_top_two_values_and_the_top_vector(self):
        # A separated top: the run's sigma1 is the norm, its vector is the
        # top right singular vector up to a phase, and sigma2 the next value
        # from below.
        g = rng(2900)
        w = np.concatenate([[3.0, 2.0], g.uniform(0.5, 1.5, 38)])
        a = hermitian_with_spectrum(g, w)
        sigma1, sigma2, v1 = top_singular_triple(*_operator(a), 40)
        assert sigma1 == pytest.approx(3.0, rel=1e-14)
        assert sigma2 <= 2.0 * (1.0 + 1e-14) and sigma2 >= 1.5
        assert np.linalg.norm(v1) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(a @ v1 - 3.0 * v1) <= 1e-6

    def test_one_step_gives_sigma2_equal_sigma1(self):
        # The identity stops at its invariant subspace after one step: no
        # second Ritz value exists, and the gap reads zero.
        eye = np.eye(LANCZOS_DIM, dtype=complex)
        sigma1, sigma2, v1 = top_singular_triple(*_operator(eye), LANCZOS_DIM)
        assert sigma1 == sigma2 == pytest.approx(1.0, rel=1e-15)
        assert np.linalg.norm(v1) == pytest.approx(1.0, rel=1e-15)

    def test_zero_operator(self):
        zero = np.zeros((LANCZOS_DIM, LANCZOS_DIM))
        sigma1, sigma2, v1 = top_singular_triple(*_operator(zero), LANCZOS_DIM)
        assert sigma1 == sigma2 == 0.0
        assert np.linalg.norm(v1) == pytest.approx(1.0, rel=1e-15)


def _clustered_loop(values, tol):
    """The pairwise loop that ``clustered_flags`` replaces: one distance vector per value."""
    vals = np.asarray(list(values), dtype=np.complex128)
    thr = tol * (float(np.max(np.abs(vals))) if vals.size else 0.0)
    flags = []
    for i, v in enumerate(vals):
        d = np.abs(vals - v)
        d[i] = np.inf
        flags.append(bool(np.min(d) <= thr))
    return flags


#: Few distinct parts, so that drawn lists hold exact ties and near ties.
_PART = st.sampled_from([0.0, 1.0, -1.0, 1.0 + 1e-9, 1e-300, 3.5, -2.25e8])


class TestClusteredFlags:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.builds(complex, _PART, _PART), max_size=9),
        st.sampled_from([0.0, 1e-8, 0.5]),
    )
    def test_matches_the_pairwise_loop(self, values, tol):
        flags = clustered_flags(values, tol)
        assert flags == _clustered_loop(values, tol)
        assert all(type(f) is bool for f in flags)

    def test_edge_lists(self):
        assert clustered_flags([], 1e-8) == []
        assert clustered_flags([2.0 + 1j], 1e-8) == [False]
        assert clustered_flags([0.0, 0.0, 0.0], 1e-8) == [True, True, True]
        assert clustered_flags([1.0, 1.0, 3.0], 1e-8) == [True, True, False]


#: Matrix families of the route tests; the clustered top (every singular
#: value in [1, 2], gaps about 1/n) is the slowest one for Golub-Kahan.
NORM_FAMILIES = {
    "ginibre": lambda g, n: cnormal(g, n, n),
    "wishart": random_hpd,
    "clustered-top": lambda g, n: hermitian_with_spectrum(g, g.uniform(1.0, 2.0, n)),
}


@pytest.fixture
def route_log(monkeypatch):
    """Orders passed to ``kernels.largest_singular`` and the products it takes."""
    log = {"dims": [], "products": 0}
    iterative = kernels.largest_singular

    def spy(matvec, rmatvec, dim):
        def counted(x):
            log["products"] += 1
            return matvec(x)

        log["dims"].append(dim)
        return iterative(counted, rmatvec, dim)

    monkeypatch.setattr(kernels, "largest_singular", spy)
    return log


class TestSpectralNormRoutes:
    @pytest.mark.parametrize("n", [ITERATIVE_NORM_MIN - 1, ITERATIVE_NORM_MIN])
    @pytest.mark.parametrize("family", NORM_FAMILIES)
    def test_matches_dense_across_crossover(self, family, n, route_log):
        a = NORM_FAMILIES[family](rng(2500 + n), n)
        want = float(np.linalg.norm(a, 2))
        if n < ITERATIVE_NORM_MIN:
            assert spectral_norm(a) == want
            assert route_log["dims"] == []
        else:
            assert abs(spectral_norm(a) - want) <= 1e-14 * want
            assert route_log["dims"] == [n]

    def test_zero_matrix(self, route_log):
        n = ITERATIVE_NORM_MIN
        assert spectral_norm(np.zeros((n, n), dtype=complex)) == 0.0
        assert route_log["dims"] == [n]

    def test_exactly_hermitian_skew_part(self, g, route_log):
        # M - M^H of an exactly Hermitian M is the zero matrix bit for bit.
        H = hermitian_with_spectrum(g, g.uniform(1.0, 2.0, ITERATIVE_NORM_MIN))
        assert spectral_norm(H - H.conj().T) == 0.0
        assert route_log["dims"] == [ITERATIVE_NORM_MIN]

    def test_rank_one_stops_at_its_krylov_space(self, g, route_log):
        # The Krylov space of a rank-one matrix has dimension 2: the second
        # new direction vanishes up to rounding and the estimate stalls.
        n = ITERATIVE_NORM_MIN
        a = np.outer(cnormal(g, n), cnormal(g, n))
        want = np.linalg.norm(a, 2)
        assert abs(spectral_norm(a) - want) <= 1e-14 * want
        assert route_log["products"] <= 3

    def test_rectangular_stays_dense(self, g, route_log):
        a = cnormal(g, ITERATIVE_NORM_MIN, 600)
        assert spectral_norm(a) == float(np.linalg.norm(a, 2))
        assert route_log["dims"] == []


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
