"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion also asserts, so a plain ``pytest`` run enforces them.
All randomness is pinned to the fixed seeds below.
"""

import time

import numpy as np

from conftest import cnormal, isolated_eigenpair, random_pencil, rng, run_cli
from qritz.angles import subspace_angle, vector_angle
from qritz.builtin import (
    example31_basis,
    example31_eigenvector,
    example31_pencil,
    example31_projected_mass,
    golden_checks,
)
from qritz.kernels import (
    eig_standard,
    orthonormality_defect,
    orthonormalize,
    spectral_norm,
    svd,
)
from qritz.projection import project, ritz_pairs
from qritz.refined import refined_ritz
from qritz.solver import solve_full
from qritz.study import builtin_case, case_from_pencil, run_study
from qritz.subspace import perturbed_subspace
from qritz.theory import (
    full_diagnostics,
    perturbation_triple,
    reference,
    refined_residual_identity_check,
    stacked_angle_inequality_check,
)
from qritz.angles import stacked_subspace_angle

X1 = example31_eigenvector()

# Frozen seeds for every randomized criterion.
SEED_PERTURBED = 42
SEED_DOMINATION = 777
SEED_IDENTITIES = 2025
SEED_KERNELS = 4096
SWEEP = [10.0 ** (-k) for k in range(2, 13)]
SWEEP_CASES = (("example31", None, 1), ("pencil-11", 11, 111), ("pencil-12", 12, 112))


def report(name: str, elapsed: float, detail: str = ""):
    print(f"PASS {name} ({elapsed:.2f}s) {detail}".rstrip())


def test_criterion_1_exact_subspace_goldens():
    start = time.perf_counter()
    p = example31_pencil()
    Q = example31_basis()

    pp = project(p, Q)
    assert spectral_norm(pp.pencil.M - example31_projected_mass()) <= 1e-13
    assert spectral_norm(pp.pencil.M + pp.pencil.D + pp.pencil.K) <= 1e-13

    pairs = ritz_pairs(pp, p)
    assert sum(1 for rp in pairs if abs(rp.value - 1.0) <= 1e-9) == 2

    rr = refined_ritz(p, Q, 1.0)
    assert vector_angle(rr.coeff, np.array([1.0, 0.0])).sin <= 1e-12
    assert vector_angle(rr.vector, X1).sin <= 1e-12

    checks = golden_checks()
    assert all(ck.passed for ck in checks)
    sep_check = next(ck for ck in checks if ck.name == "projected-sep-vanishes")
    assert sep_check.measured <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion-1 exact-subspace goldens", elapsed)


def test_criterion_2_perturbed_subspace_contrast():
    start = time.perf_counter()
    p = example31_pencil()
    Q = perturbed_subspace(X1, example31_basis()[:, 1:], 1e-12, seed=SEED_PERTURBED)
    rep = full_diagnostics(reference(p, 1.0, X1), Q)

    assert rep.ritz_value_error <= 1e-8
    assert rep.refined_angle <= 100.0 * rep.sin_theta1
    assert rep.ritz_angle >= 1000.0 * rep.sin_theta1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        "criterion-2 perturbed-subspace contrast",
        elapsed,
        f"sin_theta={rep.sin_theta1:.2e} ritz={rep.ritz_angle:.2e} "
        f"refined={rep.refined_angle:.2e}",
    )


def _domination_instance(index: int):
    """One random pencil + subspace with sin(theta1) inside [1e-10, 1e-2];
    None when the draw misses the window or the spectrum is too crowded."""
    g = rng((SEED_DOMINATION << 32) + index)
    n = int(g.integers(3, 7))
    m = int(g.integers(2, min(4, n) + 1))
    p = random_pencil(g, n)
    ref, isolation = isolated_eigenpair(solve_full(p))
    if isolation < 1e-3:
        return None
    case = case_from_pencil(p, ref.value, m)
    eps = 10.0 ** g.uniform(-9.3, -2.7)
    Q = perturbed_subspace(
        case.ref_vector, case.companions, eps, (SEED_DOMINATION << 32) + 2 * index + 1
    )
    if not 1e-10 <= subspace_angle(Q, case.ref_vector).sin <= 1e-2:
        return None
    return full_diagnostics(reference(p, case.ref_value, case.ref_vector), Q)


def test_criterion_3_bound_domination():
    start = time.perf_counter()
    count = index = 0
    gated_23 = gated_33 = 0
    while count < 200:
        rep = _domination_instance(index)
        index += 1
        if rep is None:
            continue
        count += 1
        assert rep.elsner_bound is not None
        assert rep.elsner_bound >= rep.ritz_value_error, f"instance {index - 1}"
        if rep.sep_projected is not None and rep.sep_projected > 1e-6:
            gated_23 += 1
            assert rep.ritz_vector_bound >= rep.ritz_angle, f"instance {index - 1}"
        if rep.sep_full is not None and rep.sep_full > 1e-6:
            gated_33 += 1
            assert rep.refined_vector_bound >= rep.refined_angle, f"instance {index - 1}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert gated_23 >= 50 and gated_33 >= 50  # the gates must actually engage
    report(
        "criterion-3 bound domination",
        elapsed,
        f"instances=200 ritz-gated={gated_23} refined-gated={gated_33}",
    )


def test_criterion_4_identity_suite():
    start = time.perf_counter()

    # Rank-one perturbation construction: 100 instances.
    for i in range(100):
        g = rng((SEED_IDENTITIES << 32) + i)
        n = int(g.integers(3, 7))
        p = random_pencil(g, n)
        ep = max(solve_full(p), key=lambda e: abs(e.value))
        Q = perturbed_subspace(
            ep.vector, cnormal(g, n, int(g.integers(1, 3))),
            10.0 ** g.uniform(-8, -3), i,
        )
        pp = project(p, Q)
        pert = perturbation_triple(p, pp, ep.value, ep.vector, subspace_angle(pp.basis, ep.vector))
        q1 = Q.conj().T @ ep.vector
        q1 = q1 / np.linalg.norm(q1)
        lam = ep.value
        res = np.linalg.norm(
            lam * (lam * ((pp.pencil.M + pert.EM) @ q1) + (pp.pencil.D + pert.ED) @ q1)
            + (pp.pencil.K + pert.EK) @ q1
        )
        assert res <= 1e-12 * p.residual_scale(lam), f"instance {i}"
        for E, bound in zip((pert.EM, pert.ED, pert.EK), pert.norm_bounds):
            assert spectral_norm(E) <= bound * (1 + 1e-9) + 1e-12, f"instance {i}"

    # Stacked-vector angle inequality: 500 random pairs.
    g = rng(SEED_IDENTITIES + 1)
    for _ in range(500):
        n = int(g.integers(1, 6))
        u1 = cnormal(g, n)
        ut1 = cnormal(g, n)
        u = np.concatenate([g.uniform(0, 3) * cnormal(g, n), u1 / np.linalg.norm(u1)])
        ut = np.concatenate([g.uniform(0, 3) * cnormal(g, n), ut1 / np.linalg.norm(ut1)])
        assert stacked_angle_inequality_check(u, ut)

    # Stacked-subspace angle identity: 200 instances.
    for i in range(200):
        g = rng((SEED_IDENTITIES << 16) + i)
        n = int(g.integers(2, 9))
        m = int(g.integers(1, n + 1))
        Q = orthonormalize(cnormal(g, n, m))
        x = cnormal(g, n)
        x = x / np.linalg.norm(x)
        lam = complex(g.standard_normal(), g.standard_normal())
        assert abs(
            stacked_subspace_angle(Q, lam, x).sin - subspace_angle(Q, x).sin
        ) <= 1e-12

    # Factor-free residual identity: 200 instances.
    for i in range(200):
        g = rng((SEED_IDENTITIES << 8) + i)
        n = int(g.integers(2, 7))
        m = int(g.integers(1, n + 1))
        p = random_pencil(g, n)
        Q = orthonormalize(cnormal(g, n, m))
        z = cnormal(g, m)
        z = z / np.linalg.norm(z)
        mu = complex(g.standard_normal(), g.standard_normal())
        assert refined_residual_identity_check(p, Q, mu, z)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion-4 identity suite", elapsed, "100+500+200+200 instances")


def _sweep_case(name, pencil_seed, study_seed):
    if pencil_seed is None:
        return builtin_case(), study_seed
    g = rng(pencil_seed)
    n = int(g.integers(4, 7))
    p = random_pencil(g, n)
    ref, _ = isolated_eigenpair(solve_full(p))
    return case_from_pencil(p, ref.value, 3), study_seed


def test_criterion_5_unconditional_convergence_sweep():
    start = time.perf_counter()
    any_stagnant = False
    for name, pencil_seed, study_seed in SWEEP_CASES:
        case, seed = _sweep_case(name, pencil_seed, study_seed)
        rows, verdicts = run_study(case, SWEEP, seed)
        any_stagnant = any_stagnant or any("RITZ-STAGNANT" in v for v in verdicts)
        for column in ("ritz_value_err", "refined_angle"):
            values = [getattr(r, column) for r in rows]
            for a, b in zip(values, values[1:]):
                assert b <= max(10.0 * a, 1e-14), f"{name}/{column}: {a:.2e} -> {b:.2e}"
            for r in rows:
                if r.epsilon <= 1e-10:
                    assert getattr(r, column) <= 1e-9, (
                        f"{name}/{column} at eps={r.epsilon:.0e}: "
                        f"{getattr(r, column):.2e}"
                    )
        if pencil_seed is not None:
            # With a simple reference eigenvalue the refined-vector bound
            # itself vanishes along the sweep, not just the observed angle.
            assert rows[-1].refined_vector_bound <= 1e-8, name
    assert any_stagnant
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion-5 convergence sweep", elapsed, "3 cases x 11 epsilons")


def test_criterion_6_kernel_contracts():
    start = time.perf_counter()
    g = rng(SEED_KERNELS)
    for _ in range(30):
        n = int(g.integers(2, 17))
        C = cnormal(g, n, n)
        pairs = eig_standard(C)
        values = np.array([lam for lam, _ in pairs])
        scale = max(np.abs(values))
        norm_c = spectral_norm(C)
        for i, (lam, v) in enumerate(pairs):
            gaps = np.abs(values - lam)
            gaps[i] = np.inf
            if np.min(gaps) > 1e-8 * scale:
                assert np.linalg.norm(C @ v - lam * v) <= 1e-10 * norm_c
    for _ in range(30):
        n = int(g.integers(1, 17))
        m = int(g.integers(1, 17))
        G = cnormal(g, n, m)
        U, s, V = svd(G)
        S = np.zeros((n, m))
        np.fill_diagonal(S, s)
        assert spectral_norm(G - U @ S @ V.conj().T) <= 1e-12 * spectral_norm(G)
    for _ in range(30):
        n = int(g.integers(1, 17))
        k = int(g.integers(1, n + 1))
        Q = orthonormalize(cnormal(g, n, k))
        assert orthonormality_defect(Q) <= 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion-6 kernel contracts", elapsed, "90 randomized checks")


def test_criterion_7_cli_determinism(tmp_path):
    start = time.perf_counter()

    def run(args):
        r = run_cli(args, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        return r.stdout

    study_args = [
        "study", "--builtin", "example31",
        "--eps-list", ",".join(f"{e:.0e}" for e in SWEEP),
        "--seed", "1", "--out", "sweep.csv",
    ]
    out1 = run(study_args)
    csv1 = (tmp_path / "sweep.csv").read_bytes()
    out2 = run(study_args)
    csv2 = (tmp_path / "sweep.csv").read_bytes()
    assert out1 == out2
    assert csv1 == csv2

    ex1 = run(["example31"])
    ex2 = run(["example31"])
    assert ex1 == ex2

    elapsed = time.perf_counter() - start
    report("criterion-7 cli determinism", elapsed)
