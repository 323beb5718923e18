"""Convergence-study harness: perturbation sweeps and their CSV emission.

A study fixes a pencil, a reference eigenpair and a companion block, then
for each perturbation size ``epsilon`` builds the noisy subspace, runs the
full diagnostics and records one row.  Verdicts classify each row by order
of magnitude: the projection method stagnates when the Ritz-vector angle
exceeds 100x the subspace angle, while refined extraction is "OK" when its
angle stays within that factor (or under an absolute floor of 1e-13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .builtin import example31_basis, example31_eigenvector, example31_pencil, EXACT_VALUE
from .errors import QritzError
from .kernels import as_vector
from .pencil import QuadraticPencil
from .solver import nearest_first, select_eigenpair, solve_full
from .subspace import perturbed_subspace
from .theory import DiagnosticsReport, full_diagnostics, reference

#: Ritz-vector stagnation factor: angle > RITZ_FACTOR * sin(theta1).
RITZ_FACTOR = 100.0

#: Absolute floor under which a refined angle counts as converged outright.
REFINED_FLOOR = 1e-13


@dataclass(frozen=True)
class StudyRow:
    """One sweep row; bound columns may be ``inf``, failed columns ``nan``."""

    epsilon: float
    sin_theta: float
    ritz_value_err: float
    ritz_angle: float
    refined_angle: float
    ritz_residual: float
    refined_residual: float
    sep_projected: float
    sep_full: float
    elsner_bound: float
    ritz_vector_bound: float
    refined_vector_bound: float


STUDY_COLUMNS = tuple(f.name for f in fields(StudyRow))


def format_float(x: float) -> str:
    """17-significant-digit scientific notation; ``inf``/``nan`` spelled out."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.16e}"


def write_study_csv(rows: list[StudyRow], path) -> None:
    """Write rows in column order, deterministically, full precision."""
    with open(str(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(STUDY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(format_float(getattr(row, c)) for c in STUDY_COLUMNS) + "\n")


def _num(value) -> float:
    return math.nan if value is None else float(value)


def row_from_report(epsilon: float, rep: DiagnosticsReport) -> StudyRow:
    return StudyRow(
        epsilon=epsilon,
        sin_theta=rep.sin_theta1,
        ritz_value_err=_num(rep.ritz_value_error),
        ritz_angle=_num(rep.ritz_angle),
        refined_angle=_num(rep.refined_angle),
        ritz_residual=_num(rep.ritz_residual),
        refined_residual=_num(rep.refined_residual),
        sep_projected=_num(rep.sep_projected),
        sep_full=_num(rep.sep_full),
        elsner_bound=_num(rep.elsner_bound),
        ritz_vector_bound=_num(rep.ritz_vector_bound),
        refined_vector_bound=_num(rep.refined_vector_bound),
    )


def failed_row(epsilon: float) -> StudyRow:
    return StudyRow(epsilon, *([math.nan] * (len(STUDY_COLUMNS) - 1)))


def verdict(row: StudyRow) -> str:
    """Order-of-magnitude classification of one row."""
    if math.isnan(row.ritz_angle) or math.isnan(row.refined_angle):
        return "FAILED"
    ritz = "RITZ-OK" if row.ritz_angle <= RITZ_FACTOR * row.sin_theta else "RITZ-STAGNANT"
    refined_ok = row.refined_angle <= max(RITZ_FACTOR * row.sin_theta, REFINED_FLOOR)
    refined = "REFINED-OK" if refined_ok else "REFINED-POOR"
    return f"{ritz} {refined}"


def row_seed(seed: int, index: int) -> int:
    """Per-row Philox key: high word the study seed, low word the row index."""
    return (int(seed) << 32) + index


@dataclass(frozen=True)
class StudyCase:
    """A pencil with its reference eigenpair and companion directions."""

    pencil: QuadraticPencil
    ref_value: complex
    ref_vector: np.ndarray
    companions: np.ndarray


def builtin_case() -> StudyCase:
    """The built-in showcase problem as a study case (dimension-2 subspace)."""
    return StudyCase(
        pencil=example31_pencil(),
        ref_value=EXACT_VALUE,
        ref_vector=example31_eigenvector(),
        companions=example31_basis()[:, 1:],
    )


def case_from_pencil(p: QuadraticPencil, target: complex, dim: int) -> StudyCase:
    """Build a case from a pencil: reference pair nearest ``target`` plus
    the eigenvectors of the next-nearest, directionally independent pairs."""
    if not 1 <= dim <= p.n:
        raise ValueError(f"need 1 <= dim <= n, got dim={dim}, n={p.n}")
    pairs = solve_full(p)
    ref = select_eigenpair(pairs, target)
    chosen = [ref.vector]
    test_basis = [ref.vector]
    for ep in nearest_first([ep for ep in pairs if ep is not ref], ref.value):
        if len(chosen) >= dim:
            break
        w = ep.vector.copy()
        for b in test_basis:
            w = w - b * np.vdot(b, w)
        if np.linalg.norm(w) > 1e-6:
            chosen.append(ep.vector)
            test_basis.append(w / np.linalg.norm(w))
    if len(chosen) < dim:
        raise QritzError(
            f"could not find {dim - 1} independent companion directions"
        )
    companions = np.column_stack(chosen[1:]) if dim > 1 else np.zeros((p.n, 0))
    return StudyCase(
        pencil=p,
        ref_value=ref.value,
        ref_vector=ref.vector,
        companions=companions,
    )


def run_study(
    case: StudyCase, eps_list: list[float], seed: int
) -> tuple[list[StudyRow], list[str]]:
    """One diagnostics row and verdict per epsilon; failures mark their row
    with NaN columns and the run continues.  The reference pair is admitted
    once, before the first row."""
    ref_vector = as_vector(case.ref_vector, "ref_vector")
    ref = reference(case.pencil, case.ref_value, ref_vector / np.linalg.norm(ref_vector))
    rows = []
    verdicts = []
    for i, eps in enumerate(eps_list):
        try:
            Q = perturbed_subspace(ref_vector, case.companions, eps, row_seed(seed, i))
            rep = full_diagnostics(ref, Q)
            row = row_from_report(eps, rep)
        except QritzError:
            row = failed_row(eps)
        rows.append(row)
        verdicts.append(verdict(row))
    return rows, verdicts
