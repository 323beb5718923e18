import sys
import warnings

import numpy as np
import pytest

from conftest import cnormal, graded_projection, pencil_with_mass, random_pencil, rng, scaled_hpd
from qritz.angles import vector_angle
from qritz.builtin import (
    example31_basis,
    example31_pencil,
    example31_projected_mass,
)
from qritz.errors import DimensionMismatch, IndefiniteMass, NotOrthonormal, Singular
from qritz.kernels import orthonormalize, spectral_norm
from qritz.pencil import BasisImage, Eigenpair, QuadraticPencil, qep_residual
from qritz.projection import (
    ProjectedPencil,
    RitzPair,
    project,
    ritz_pairs,
)
from qritz.solver import select_eigenpair, solve_full
from qritz.subspace import perturbed_subspace


def galerkin_defect(pp: ProjectedPencil, p: QuadraticPencil, pair: RitzPair) -> float:
    """``||Q^H (mu^2 M + mu D + K) x~||``, zero for an exact Ritz pair."""
    r, _ = qep_residual(p, pair.value, pair.vector)
    return float(np.linalg.norm(pp.basis.conj().T @ r))


class TestProject:
    def test_identity_basis(self, g):
        p = random_pencil(g, 4)
        pp = project(p, np.eye(4))
        assert np.allclose(pp.pencil.M, p.M)
        assert np.allclose(pp.pencil.D, p.D)
        assert np.allclose(pp.pencil.K, p.K)

    def test_builtin_projected_mass(self):
        pp = project(example31_pencil(), example31_basis())
        assert spectral_norm(pp.pencil.M - example31_projected_mass()) <= 1e-13

    def test_builtin_projected_sum_vanishes(self):
        pp = project(example31_pencil(), example31_basis())
        assert spectral_norm(pp.pencil.M + pp.pencil.D + pp.pencil.K) <= 1e-13

    def test_rejects_skewed_basis(self, g):
        p = random_pencil(g, 4)
        Q = cnormal(g, 4, 2)
        with pytest.raises(NotOrthonormal):
            project(p, Q)

    def test_rejects_wrong_row_count(self, g):
        p = random_pencil(g, 4)
        with pytest.raises(DimensionMismatch, match="3 rows"):
            project(p, np.eye(3)[:, :2])

    def test_warns_without_hpd_mass(self):
        p = QuadraticPencil(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), np.eye(2))
        with pytest.warns(IndefiniteMass):
            project(p, np.eye(2))

    def test_hpd_propagates(self, g):
        p = random_pencil(g, 5)
        Q = orthonormalize(cnormal(g, 5, 3))
        assert project(p, Q).pencil.hermitian_pd

    @pytest.mark.parametrize("seed", range(8))
    def test_graded_mass_projects_to_a_certified_mass(self, seed):
        # ||Q^H M Q|| ~ 1e-6 ||M||: the rounding of Q^H (M Q) scales with
        # ||M||, so only the Hermitian part keeps the certificate.
        p, Q = graded_projection(seed)
        assert p.hermitian_pd
        pp = project(p, Q)
        M = pp.pencil.M
        assert np.array_equal(M, M.conj().T)
        assert pp.pencil.hermitian_pd
        assert len(ritz_pairs(pp, p)) == 4


class TestRitzPairs:
    def test_identity_basis_reproduces_eigenpairs(self, g):
        p = random_pencil(g, 3)
        pp = project(p, np.eye(3))
        ritz = ritz_pairs(pp, p)
        assert len(ritz) == 6
        exact = sorted((ep.value for ep in solve_full(p)), key=lambda z: (z.real, z.imag))
        got = sorted((rp.value for rp in ritz), key=lambda z: (z.real, z.imag))
        for a, b in zip(exact, got):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_builtin_double_ritz_value(self):
        p = example31_pencil()
        pp = project(p, example31_basis())
        ritz = ritz_pairs(pp, p)
        assert len(ritz) == 4
        near_one = [rp for rp in ritz if abs(rp.value - 1.0) <= 1e-9]
        assert len(near_one) == 2
        assert all(rp.clustered for rp in near_one)

    def test_perturbed_builtin_values_stay_close(self):
        p = example31_pencil()
        Q = perturbed_subspace(
            np.array([0.0, 0.0, 1.0]), example31_basis()[:, 1:], 1e-12, seed=42
        )
        ritz = ritz_pairs(project(p, Q), p)
        near_one = [rp for rp in ritz if abs(rp.value - 1.0) <= 1e-9]
        assert len(near_one) == 2

    def test_singular_projected_mass_rejected(self):
        # Indefinite Hermitian mass can project to a singular block.
        p = QuadraticPencil(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
        Q = np.array([[1.0], [1.0]]) / np.sqrt(2)
        with pytest.warns(IndefiniteMass), pytest.raises(Singular):
            ritz_pairs(project(p, Q), p)

    @pytest.mark.parametrize("seed", range(5))
    def test_small_projected_mass_of_a_large_mass_is_factored(self, seed):
        # sigma_min(M^) / ||M^|| ~ 3e-3, while ||M^|| ~ 1e-6 ||M||: the
        # projected mass is refused only by solve_linear's rule, not against
        # the scale of the full M.
        g = rng(seed)
        p = pencil_with_mass(g, scaled_hpd(g, 6))
        Q = orthonormalize(np.eye(6)[:, :2] + 1e-9 * cnormal(g, 6, 2))
        with pytest.warns(IndefiniteMass):
            pp = project(p, Q)
        pairs = ritz_pairs(pp, p)
        want = solve_full(pp.pencil)
        assert [rp.value for rp in pairs] == [ep.value for ep in want]
        assert all(np.array_equal(rp.coeff, ep.vector) for rp, ep in zip(pairs, want))

    def test_galerkin_orthogonality(self, g):
        p = random_pencil(g, 6)
        Q = orthonormalize(cnormal(g, 6, 3))
        pp = project(p, Q)
        for rp in ritz_pairs(pp, p):
            assert galerkin_defect(pp, p, rp) <= 1e-10 * p.residual_scale(rp.value)

    def test_lifted_vector_consistency(self, g):
        p = random_pencil(g, 5)
        Q = orthonormalize(cnormal(g, 5, 2))
        pp = project(p, Q)
        for rp in ritz_pairs(pp, p):
            assert np.linalg.norm(rp.vector - Q @ rp.coeff) <= 1e-13
            assert abs(np.linalg.norm(rp.vector) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_exactness_for_invariant_subspace(self, seed):
        # If the true eigenvector lies in span{Q} and its Ritz value is
        # simple, the Ritz vector recovers it up to phase.
        g = rng(seed + 1300)
        p = random_pencil(g, 5)
        ep = max(solve_full(p), key=lambda e: min(
            abs(e.value - o.value) for o in solve_full(p) if abs(o.value - e.value) > 1e-9
        ))
        Q = orthonormalize(np.column_stack([ep.vector, cnormal(g, 5, 2)]))
        ritz = ritz_pairs(project(p, Q), p)
        sel = select_eigenpair(ritz, ep.value)
        assert abs(sel.value - ep.value) <= 1e-8
        if not sel.clustered:
            assert vector_angle(sel.vector, ep.vector).sin <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_residuals_match_the_basis_image(self, seed):
        g = rng(seed + 1400)
        p = random_pencil(g, 12)
        Q = orthonormalize(cnormal(g, 12, 4))
        pairs = ritz_pairs(project(p, Q), p)
        image = p.image(Q)
        for rp in pairs:
            want = image.residual_norm(rp.value, rp.coeff)
            assert abs(rp.residual_norm - want) <= 1e-14 * p.residual_scale(rp.value)

    def test_one_product_with_the_basis_image(self, g, monkeypatch):
        # All 2m residuals come from one product with W = [MQ, DQ, KQ].  The
        # values and coefficient vectors are read from the projected companion
        # matrix, without solve_full or any Eigenpair, with solve_full's bits.
        products, solves, built = [], [], []

        class CountedW(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(1)
                plain = [np.asarray(x) if isinstance(x, CountedW) else x for x in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve_full(*args, **kwargs)

        def counting_post_init(self, _post_init=Eigenpair.__post_init__):
            built.append(1)
            _post_init(self)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qritz" and hasattr(module, "solve_full"):
                monkeypatch.setattr(module, "solve_full", counting_solve)
        monkeypatch.setattr(Eigenpair, "__post_init__", counting_post_init)
        cases = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefiniteMass)
            for hpd in (True, False):
                p = random_pencil(g, 9, hpd_mass=hpd)
                Q = orthonormalize(cnormal(g, 9, 3))
                pp = project(p, Q)
                assert pp.pencil.hermitian_pd == hpd
                image = p.image(Q)
                counted = BasisImage(basis=image.basis, W=image.W.view(CountedW), R=image.R)
                monkeypatch.setattr(p, "image", lambda basis, counted=counted: counted)
                cases.append((pp, ritz_pairs(pp, p)))
            assert len(products) == 2
            assert not solves and not built
            monkeypatch.undo()
            for pp, pairs in cases:
                want = solve_full(pp.pencil)
                assert len(pairs) == len(want) == 6
                assert [rp.value for rp in pairs] == [ep.value for ep in want]
                assert all(np.array_equal(rp.coeff, ep.vector) for rp, ep in zip(pairs, want))


class TestSelectRitz:
    def test_single_pair(self, g):
        p = random_pencil(g, 2)
        pp = project(p, orthonormalize(cnormal(g, 2, 1)))
        pairs = ritz_pairs(pp, p)
        assert select_eigenpair(pairs[:1], 0.0) is pairs[0]

    def test_distance_rule(self, g):
        p = random_pencil(g, 3)
        pairs = ritz_pairs(project(p, np.eye(3)), p)
        target = 1.0 + 0.5j
        sel = select_eigenpair(pairs, target)
        assert abs(sel.value - target) == min(abs(rp.value - target) for rp in pairs)

    def test_builtin_exact_subspace_clustered_choice(self):
        p = example31_pencil()
        pairs = ritz_pairs(project(p, example31_basis()), p)
        sel = select_eigenpair(pairs, 1.0)
        assert abs(sel.value - 1.0) <= 1e-12
        assert sel.clustered
