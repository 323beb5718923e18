import dataclasses
import math
import sys

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from conftest import DenseDeflation, cnormal, random_pencil, random_unitary, rng
from qritz import cli, theory
from qritz.angles import subspace_angle, vector_angle
from qritz.builtin import golden_checks
from qritz.errors import NotAnEigenpair, RankDeficient
from qritz.kernels import eigenvalues, largest_singular
from qritz.mmio import write_matrix_market
from qritz.pencil import (
    Eigenpair,
    QuadraticPencil,
    companion_matrix,
    companion_operator,
    linearize,
    qep_residual,
    stack_vector,
)
from qritz.projection import project, ritz_pairs
from qritz.refined import refined_ritz
from qritz.solver import nearest_first, refined_pairs, select_eigenpair, solve_full
from qritz.study import (
    STUDY_COLUMNS,
    StudyCase,
    StudyRow,
    builtin_case,
    case_from_pencil,
    format_float,
    row_seed,
    run_study,
    verdict,
    write_study_csv,
)
from qritz.subspace import perturbed_subspace
from qritz.theory import (
    EIGPAIR_TOL,
    deflate,
    elsner_bound,
    perturbation_triple,
    reference,
    refined_vector_bound,
    ritz_vector_bound,
    sep,
)

#: Perturbation sizes of the hoisted-reference tests.
HOIST_EPS = [1e-2, 1e-5, 1e-8, 1e-11]
HOIST_SEED = 9


def test_format_float_corner_values():
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(math.nan) == "nan"
    assert format_float(0.25) == "2.5000000000000000e-01"


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_study_csv([], path)
    lines = path.read_text().splitlines()
    assert lines == [",".join(STUDY_COLUMNS)]


def test_csv_one_row(tmp_path):
    row = StudyRow(*([1.0] * len(STUDY_COLUMNS)))
    path = tmp_path / "one.csv"
    write_study_csv([row], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "1.0000000000000000e+00"


def test_csv_deterministic_bytes(tmp_path):
    case = builtin_case()
    rows, _ = run_study(case, [1e-4, 1e-8], seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_study_csv(rows, p1)
    rows2, _ = run_study(case, [1e-4, 1e-8], seed=5)
    write_study_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_epsilon_row():
    case = builtin_case()
    rows, verdicts = run_study(case, [0.0], seed=2)
    row = rows[0]
    assert row.sin_theta == 0.0
    assert row.refined_angle <= 1e-13
    assert row.ritz_value_err <= 1e-11
    assert "REFINED-OK" in verdicts[0]


def test_scaled_reference_vector_gives_the_unit_rows():
    # epsilon is relative to the admitted unit reference vector, not to the
    # caller's scaling of it; a power-of-two scale normalizes back exactly.
    case = builtin_case()
    scaled = dataclasses.replace(case, ref_vector=case.ref_vector * 2.0**20)
    eps = [1e-2, 1e-6, 1e-12]
    unit_rows, unit_verdicts = run_study(case, eps, seed=3)
    rows, verdicts = run_study(scaled, eps, seed=3)
    np.testing.assert_array_equal(
        [dataclasses.astuple(r) for r in rows], [dataclasses.astuple(r) for r in unit_rows]
    )
    assert verdicts == unit_verdicts


def test_builtin_small_epsilon_stagnates():
    case = builtin_case()
    rows, verdicts = run_study(case, [1e-12], seed=1)
    assert "RITZ-STAGNANT" in verdicts[0]
    assert "REFINED-OK" in verdicts[0]
    assert rows[0].ritz_vector_bound > 1.0  # bound rightly refuses to promise


def test_case_from_pencil_picks_reference(g):
    p = random_pencil(g, 5)
    pairs = solve_full(p)
    target = pairs[0].value
    case = case_from_pencil(p, target, dim=3)
    assert abs(case.ref_value - target) <= 1e-12
    assert case.companions.shape == (5, 2)
    stacked = np.column_stack([case.ref_vector, case.companions])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 3


def _exact_conjugates(C):
    """``eigenvalues(C)`` for a real pencil, each conjugate pair made exact.

    The complex eigensolver returns a real pencil's conjugate values only
    to rounding; a real one returns them exact, and then a real target sits
    at exactly one distance from both.
    """
    values = [complex(lam) for lam in eigenvalues(C)]
    values = [complex(lam.real) if abs(lam.imag) <= 1e-8 * abs(lam) else lam for lam in values]
    upper = [lam for lam in values if lam.imag > 0]
    return np.array(
        [min(upper, key=lambda mu: abs(mu - lam.conjugate())).conjugate() if lam.imag < 0 else lam
         for lam in values]
    )


def test_conjugate_ties_give_the_solvers_reference(monkeypatch):
    # A real pencil and a real target: a complex nearest value ties with its
    # conjugate, and a real reference value sees conjugate pairs tied in its
    # walk.  Either way the case's reference pair is solve_full's first.
    monkeypatch.setattr("qritz.study.eigenvalues", _exact_conjugates)
    monkeypatch.setattr("qritz.solver.eigenvalues", _exact_conjugates)
    complex_references = 0
    for seed in range(24):
        g = rng(9600 + seed)
        n = int(g.integers(4, 10))
        R, D, K = (g.standard_normal((n, n)) for _ in range(3))
        p = QuadraticPencil(R @ R.T + n * np.eye(n), D, K)
        tau = float(g.standard_normal())
        dim = int(g.integers(2, n + 1))
        case = case_from_pencil(p, tau, dim)
        want = solve_full(p, tau, 1)[0]
        assert np.complex128(case.ref_value).tobytes() == np.complex128(want.value).tobytes()
        assert case.ref_vector.tobytes() == want.vector.tobytes()
        stacked = np.column_stack([case.ref_vector, case.companions])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == dim
        complex_references += case.ref_value.imag != 0.0
    assert complex_references >= 3


def test_conjugate_ties_on_real_pencils_give_the_solvers_reference():
    # The conjugate-tie scenario above without exact conjugates put in by
    # hand: the real eigensolver of a real companion returns them itself.
    complex_references = 0
    for seed in range(24):
        g = rng(9600 + seed)
        n = int(g.integers(4, 10))
        R, D, K = (g.standard_normal((n, n)) for _ in range(3))
        p = QuadraticPencil(R @ R.T + n * np.eye(n), D, K)
        tau = float(g.standard_normal())
        dim = int(g.integers(2, n + 1))
        case = case_from_pencil(p, tau, dim)
        want = solve_full(p, tau, 1)[0]
        assert np.complex128(case.ref_value).tobytes() == np.complex128(want.value).tobytes()
        assert case.ref_vector.tobytes() == want.vector.tobytes()
        stacked = np.column_stack([case.ref_vector, case.companions])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == dim
        if case.ref_value.imag:
            assert case.ref_value.conjugate() in eigenvalues(companion_matrix(p))
            complex_references += 1
    assert complex_references >= 3


def test_a_repeated_reference_value_gives_its_second_block_vector_first(monkeypatch):
    # U diag(P0, P0) U^H has each eigenvalue of P0 twice, with a two-dimensional
    # null space; eigenvalues, patched, returns each of them exactly twice.
    # Both copies of the reference value take one block iteration: the
    # reference is one column, and the first companion the other, from the
    # same null space.
    g = rng(9650)
    n0 = 4
    U = random_unitary(g, 2 * n0)
    M0, D0, K0 = (cnormal(g, n0, n0) for _ in range(3))
    M0 = M0 @ M0.conj().T + n0 * np.eye(n0)
    p = QuadraticPencil(*(U @ np.kron(np.eye(2), A) @ U.conj().T for A in (M0, D0, K0)))
    values0 = eigenvalues(companion_matrix(QuadraticPencil(M0, D0, K0)))
    monkeypatch.setattr("qritz.study.eigenvalues", lambda C: np.concatenate([values0, values0]))
    case = case_from_pencil(p, 0.1 + 0.2j, dim=3)
    lam1 = complex(case.ref_value)
    assert abs(lam1 - (0.1 + 0.2j)) == min(abs(values0 - (0.1 + 0.2j)))
    block = nearest_first(refined_pairs(p, [lam1, lam1]), lam1)
    assert case.ref_vector.tobytes() == block[0].vector.tobytes()
    companion = case.companions[:, 0]
    assert companion.tobytes() == block[1].vector.tobytes()
    assert abs(np.vdot(case.ref_vector, companion)) <= 1e-14
    assert qep_residual(p, lam1, companion)[1] <= 1e-12 * p.residual_scale(lam1)


def test_failed_row_marks_nan():
    # A dimension-1 "companion" block identical to the eigenvector cannot
    # be orthonormalized at epsilon 0: the row fails but the run continues.
    case = builtin_case()
    bad = case.__class__(
        pencil=case.pencil,
        ref_value=case.ref_value,
        ref_vector=case.ref_vector,
        companions=case.ref_vector.reshape(-1, 1),
    )
    rows, verdicts = run_study(bad, [0.0, 1e-6], seed=1)
    assert math.isnan(rows[0].sin_theta)
    assert verdicts[0] == "FAILED"
    assert not math.isnan(rows[1].sin_theta)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_bad_epsilon_refuses_the_study_before_any_row(bad, monkeypatch):
    # The whole list is admitted first: a bad last epsilon costs no row.
    rows = []

    def counting(*args, _run=theory.full_diagnostics):
        rows.append(1)
        return _run(*args)

    monkeypatch.setattr("qritz.study.full_diagnostics", counting)
    with pytest.raises(ValueError, match=r"^epsilon must be finite and >= 0"):
        run_study(builtin_case(), [1e-4, 1e-8, bad], seed=1)
    assert rows == []


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
def test_bad_ref_value_refuses_the_study_by_name(bad):
    # Admitted before any row, so the refusal names the case's value and
    # not the target of row 0's Ritz selection.
    case = dataclasses.replace(builtin_case(), ref_value=bad)
    with pytest.raises(ValueError, match=r"^ref_value must be finite"):
        run_study(case, [1e-4], seed=1)


def test_bad_target_is_refused_before_the_full_solve(g, monkeypatch):
    def refuse(p):
        raise AssertionError("companion solve ran before target was admitted")

    monkeypatch.setattr("qritz.study.warned_companion", refuse)
    with pytest.raises(ValueError, match=r"^target must be finite"):
        case_from_pencil(random_pencil(g, 5), math.nan, dim=2)


def _one_direction(p, values):
    """A degenerate ``refined_pairs``: every value gets the vector ``e_1``."""
    return [Eigenpair(value=lam, vector=np.eye(p.n)[:, 0], residual_norm=0.0) for lam in values]


def test_dependent_directions_are_refused_as_rank_deficient(g, monkeypatch):
    monkeypatch.setattr("qritz.solver.refined_pairs", _one_direction)
    with pytest.raises(RankDeficient, match="^could not find 2 independent companion directions$"):
        case_from_pencil(random_pencil(g, 5), 0.0, dim=3)


def test_rank_deficient_case_exits_2(tmp_path, monkeypatch, capsys):
    p = random_pencil(rng(9500), 4)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    monkeypatch.setattr("qritz.solver.refined_pairs", _one_direction)
    paths = [str(tmp_path / f"{name}.mtx") for name in "MDK"]
    code = cli.main(["study", *paths, "--dim", "2", "--out", str(tmp_path / "s.csv")])
    assert code == cli.NUMERICAL_EXIT == 2
    assert "RankDeficient: could not find 1 independent companion directions" in capsys.readouterr().err


def test_verdict_thresholds():
    base = dict.fromkeys(STUDY_COLUMNS, 0.0)
    base.update(epsilon=1e-6, sin_theta=1e-8)
    ok = StudyRow(**{**base, "ritz_angle": 5e-7, "refined_angle": 1e-8})
    assert verdict(ok) == "RITZ-OK REFINED-OK"
    stag = StudyRow(**{**base, "ritz_angle": 2e-6, "refined_angle": 1e-8})
    assert verdict(stag) == "RITZ-STAGNANT REFINED-OK"
    poor = StudyRow(**{**base, "ritz_angle": 2e-6, "refined_angle": 5e-5})
    assert verdict(poor) == "RITZ-STAGNANT REFINED-POOR"


def _hoist_case():
    """Random HPD-mass pencil, n = 12, with a dimension-3 study case."""
    g = rng(4242)
    p = random_pencil(g, 12)
    return case_from_pencil(p, complex(g.standard_normal(), g.standard_normal()), dim=3)


def _oracle_row(case: StudyCase, eps: float, index: int) -> tuple[StudyRow, float]:
    """One study row recomputed from the primitives, with ``sep_full`` from the
    unitary-frame deflation of a freshly built 2n x 2n companion pair; the two
    columns that read that deflation are NaN when the reference pair's
    backward error exceeds ``EIGPAIR_TOL``.

    Also returns that oracle's mixed-gate allowance on ``sep_full`` (NaN with
    the columns).
    """
    p = case.pencil
    lam1 = case.ref_value
    x1 = case.ref_vector / np.linalg.norm(case.ref_vector)
    Q = perturbed_subspace(x1, case.companions, eps, row_seed(HOIST_SEED, index))
    theta = subspace_angle(Q, x1)
    pp = project(p, Q)
    sel = select_eigenpair(ritz_pairs(pp, p), lam1)
    mu1 = sel.value
    rr = refined_ritz(p, Q, mu1)
    sep_projected = sep(reference(pp.pencil, mu1, sel.coeff), lam1)
    if qep_residual(p, lam1, x1)[1] > EIGPAIR_TOL * p.residual_scale(lam1):
        sep_full = bound_refined = allowance = math.nan
    else:
        dl = DenseDeflation(*linearize(p), stack_vector(lam1, x1))
        sep_full, allowance = dl.sep(mu1), dl.allowance(mu1)
        norm_b = max(p.m0, 1.0)
        bound_refined = refined_vector_bound(lam1, mu1, norm_b, dl.norm_minus(mu1), theta, sep_full)
    row = StudyRow(
        epsilon=eps,
        sin_theta=theta.sin,
        ritz_value_err=abs(mu1 - lam1),
        ritz_angle=vector_angle(x1, sel.vector).sin,
        refined_angle=vector_angle(x1, rr.vector).sin,
        ritz_residual=sel.residual_norm,
        refined_residual=rr.residual_norm,
        sep_projected=sep_projected,
        sep_full=sep_full,
        elsner_bound=elsner_bound(pp, perturbation_triple(p, pp, lam1, x1, theta)),
        ritz_vector_bound=ritz_vector_bound(p.residual_scale(lam1), theta, sep_projected),
        refined_vector_bound=bound_refined,
    )
    return row, allowance


#: The columns that read the full-size separation; every other column is
#: the same arithmetic on the same inputs as the oracle's.
FULL_SIZE_COLUMNS = ("sep_full", "refined_vector_bound")


def test_hoisted_reference_matches_fresh_deflation():
    case = _hoist_case()
    rows, _ = run_study(case, HOIST_EPS, seed=HOIST_SEED)
    others = [c for c in STUDY_COLUMNS if c not in FULL_SIZE_COLUMNS]
    for i, (row, eps) in enumerate(zip(rows, HOIST_EPS)):
        expected, allowance = _oracle_row(case, eps, i)
        assert math.isfinite(row.sep_full) and row.sep_full > 0
        assert math.isfinite(row.refined_vector_bound)
        # Bit-identical, not merely close.
        assert [getattr(row, c) for c in others] == [getattr(expected, c) for c in others]
        # The bordered solve and the dense deflation agree to the mixed gate,
        # and the bound, which divides by sep_full, to the matching relative amount.
        assert abs(row.sep_full - expected.sep_full) <= allowance
        relative = allowance / expected.sep_full + 1e-12
        bound_error = abs(row.refined_vector_bound - expected.refined_vector_bound)
        assert bound_error <= relative * expected.refined_vector_bound


@pytest.mark.parametrize("wrong_vector", [False, True])
def test_reference_deflated_once_per_study(monkeypatch, wrong_vector):
    case = _hoist_case()
    if wrong_vector:
        case = dataclasses.replace(case, ref_vector=case.companions[:, 0])
    calls = []

    def counting_deflate(p, *args, **kwargs):
        calls.append(p.n)
        return deflate(p, *args, **kwargs)

    monkeypatch.setattr(theory, "deflate", counting_deflate)
    rows, _ = run_study(case, HOIST_EPS, seed=HOIST_SEED)
    # The full pencil is deflated once per study, the projected one once per row.
    m = case.companions.shape[1] + 1
    assert calls == [case.pencil.n] + [m] * len(rows)


def test_failed_reference_deflation_keeps_rows():
    case = _hoist_case()
    wrong = dataclasses.replace(case, ref_vector=case.companions[:, 0])
    ref = reference(wrong.pencil, wrong.ref_value, wrong.ref_vector)
    assert isinstance(ref.rejection, NotAnEigenpair) and ref.y1 is None
    rows, verdicts = run_study(wrong, HOIST_EPS, seed=HOIST_SEED)
    others = [c for c in STUDY_COLUMNS if c not in FULL_SIZE_COLUMNS]
    for i, (row, eps) in enumerate(zip(rows, HOIST_EPS)):
        assert math.isnan(row.sep_full) and math.isnan(row.refined_vector_bound)
        assert not any(math.isnan(getattr(row, c)) for c in others)
        expected, _ = _oracle_row(wrong, eps, i)
        assert [getattr(row, c) for c in others] == [getattr(expected, c) for c in others]
    assert "FAILED" not in verdicts


def test_study_factorizes_nothing_of_companion_size(monkeypatch):
    # Every svd, qr and inv a study makes, including the svd inside
    # np.linalg.norm(a, 2), is of a matrix smaller than the 2n x 2n companion pair.
    case = _hoist_case()
    shapes = []
    for module in (np.linalg, np_linalg_impl):
        for name in ("svd", "qr", "inv"):
            factor = getattr(module, name)

            def recording(a, *args, _factor=factor, **kwargs):
                shapes.append(np.shape(a))
                return _factor(a, *args, **kwargs)

            monkeypatch.setattr(module, name, recording)
    rows, _ = run_study(case, HOIST_EPS + [0.0], seed=HOIST_SEED)
    monkeypatch.undo()
    assert all(math.isfinite(row.sep_full) for row in rows)
    n = case.pencil.n
    assert shapes and max(max(shape) for shape in shapes) < 2 * n


def test_no_unitary_frame_in_study_or_goldens(monkeypatch):
    # Every qritz module that binds kernels.unitary_completion or
    # pencil.linearize gets one that raises; a study row and the built-in
    # goldens need neither the frame nor the dense companion pair.
    def refuse(*args):
        raise AssertionError("unitary frame or companion pair built")

    for name, module in list(sys.modules.items()):
        for attr in ("unitary_completion", "linearize"):
            if name.split(".")[0] == "qritz" and hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    rows, verdicts = run_study(_hoist_case(), HOIST_EPS, seed=HOIST_SEED)
    assert "FAILED" not in verdicts
    assert all(math.isfinite(row.sep_projected) and math.isfinite(row.sep_full) for row in rows)
    assert all(check.passed for check in golden_checks())


def test_pencil_keeps_no_companion_sized_array():
    # The companion matrix is built where it is read: after a full solve, a
    # case and its study, no attribute of the pencil holds a 2n x 2n array.
    n = 8
    p = random_pencil(rng(1900), n)

    def companion_sized():
        return [name for name, value in vars(p).items() if np.shape(value) == (2 * n, 2 * n)]

    solve_full(p)
    assert companion_sized() == []
    case = case_from_pencil(p, 0.5, 3)
    assert case.pencil is p and companion_sized() == []
    rows, _ = run_study(case, [1e-4], seed=1)
    assert len(rows) == 1 and companion_sized() == []


#: Modal pencils of the warm-start test: draw i from Philox key MODAL_SEED + i.
MODAL_SEED = 77000
MODAL_N = 20

#: 1e-1 down to 1e-12 in half decades.
MODAL_EPS = [10.0 ** (-k / 2.0) for k in range(2, 25)]


def _modal_case(index: int) -> StudyCase:
    """A dimension-4 case of a modal pencil: ``n`` decoupled quadratics.

    Each mode has a mass in [1, 2] and two complex normal roots.  The
    pencil is diagonal for even ``index`` and rotated by one Haar unitary
    for odd ``index``; the target is a complex normal draw.
    """
    g = rng(MODAL_SEED + index)
    mass = g.uniform(1.0, 2.0, MODAL_N)
    a, b = cnormal(g, 2, MODAL_N)
    coefficients = (mass, -mass * (a + b), mass * a * b)
    if index % 2 == 0:
        p = QuadraticPencil(*(np.diag(c) for c in coefficients))
    else:
        U, R = np.linalg.qr(cnormal(g, MODAL_N, MODAL_N))
        U = U * (np.diag(R) / np.abs(np.diag(R)))
        p = QuadraticPencil(*((U * c) @ U.conj().T for c in coefficients))
    return case_from_pencil(p, complex(*g.standard_normal(2)), 4)


def test_warm_started_norms_match_the_cold_norm_on_modal_pencils(monkeypatch):
    # Every row's ||A - mu1 B||, read as the argument refined_vector_bound
    # takes, is the cold Lanczos norm of the same operator: bit for bit
    # where Weyl's gate sends the row cold, within 1e-14 where it starts
    # from the top vector at lam1.  Both routes occur.
    seen = []

    def recording(lam1, mu1, norm_b, norm_a_minus, *rest):
        seen.append((mu1, norm_a_minus))
        return refined_vector_bound(lam1, mu1, norm_b, norm_a_minus, *rest)

    monkeypatch.setattr(theory, "refined_vector_bound", recording)
    routes = {"warm": 0, "cold": 0}
    for index in range(60):
        case = _modal_case(index)
        seen.clear()
        rows, _ = run_study(case, MODAL_EPS, seed=index)
        assert len(seen) == len(rows), f"pencil {index}"
        p, ref = case.pencil, case.reference()
        sigma1, sigma2, _ = ref.top
        for mu1, norm in seen:
            cold = largest_singular(*companion_operator(p, mu1), 2 * p.n)
            warm = theory.WEYL_MARGIN * abs(mu1 - ref.value) * p.b0 <= sigma1 - sigma2
            routes["warm" if warm else "cold"] += 1
            if warm:
                assert abs(norm - cold) <= 1e-14 * cold, f"pencil {index}, mu1 = {mu1}"
            else:
                assert norm == cold, f"pencil {index}, mu1 = {mu1}"
    assert routes["warm"] > 0 and routes["cold"] > 0, routes


def _row_bytes(rows) -> list[bytes]:
    return [np.array([getattr(row, c) for c in STUDY_COLUMNS]).tobytes() for row in rows]


def test_cached_reference_gives_the_rows_of_a_fresh_case():
    # The first study of a case takes the triple at lam1; a second study
    # of it reads the memo.  Both give the rows of a fresh case, byte for byte.
    fresh, _ = run_study(_hoist_case(), HOIST_EPS, seed=HOIST_SEED)
    case = _hoist_case()
    run_study(case, [1e-3], seed=1)
    ref = case.reference()
    assert "top" in vars(ref)
    cached, _ = run_study(case, HOIST_EPS, seed=HOIST_SEED)
    assert case.reference() is ref
    assert _row_bytes(cached) == _row_bytes(fresh)


def test_a_prefix_of_the_epsilons_gives_a_prefix_of_the_rows():
    case = _hoist_case()
    eps = HOIST_EPS + [1e-3, 0.0, 1e-13]
    whole, _ = run_study(case, eps, seed=HOIST_SEED)
    for k in range(len(eps) + 1):
        prefix, _ = run_study(_hoist_case(), eps[:k], seed=HOIST_SEED)
        assert _row_bytes(prefix) == _row_bytes(whole[:k])


def test_a_reference_vector_changed_in_place_gets_a_fresh_reference():
    case = _hoist_case()
    before = case.reference()
    assert before.top[0] > 0.0
    case.ref_vector[:] *= 1j
    after = case.reference()
    assert after is not before and "top" not in vars(after)
    assert np.array_equal(after.vector, 1j * before.vector)
    fresh = dataclasses.replace(case, ref_vector=case.ref_vector.copy())
    rows, _ = run_study(case, HOIST_EPS, seed=HOIST_SEED)
    assert _row_bytes(rows) == _row_bytes(run_study(fresh, HOIST_EPS, seed=HOIST_SEED)[0])
