import dataclasses
import math
import sys

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from conftest import DenseDeflation, random_pencil, rng
from qritz import theory
from qritz.angles import subspace_angle, vector_angle
from qritz.builtin import golden_checks
from qritz.errors import NotAnEigenpair
from qritz.pencil import linearize, qep_residual, stack_vector
from qritz.projection import project, ritz_pairs
from qritz.refined import refined_ritz
from qritz.solver import select_eigenpair, solve_full
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
    Q = perturbed_subspace(case.ref_vector, case.companions, eps, row_seed(HOIST_SEED, index))
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
