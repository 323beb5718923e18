"""Convergence-study harness: perturbation sweeps and their CSV emission.

A study fixes a pencil, a reference eigenpair and a companion block, then
for each perturbation size ``epsilon`` builds the noisy subspace, runs the
full diagnostics and records one row.  ``case_from_pencil`` takes the case
from one companion eigensolve without eigenvectors and two walks of
``solver.nearest_pairs``: the first pair around the target gives the
reference value, and the walk around that value gives the reference pair
and the next-nearest independent directions.  Every value fixed for a
case is computed once per case: ``StudyCase.reference`` memoizes the
admitted reference, which deflates the pair and, on the first row that
needs it, takes the top singular triple of ``A - lam1 B`` that starts each
row's ``||A - mu1 B||`` wherever Weyl's bound rules out a change of the top
(``theory.Reference.norm_a_minus``).  Verdicts classify each row
by order of magnitude: the projection method stagnates when the Ritz-vector
angle exceeds 100x the subspace angle, while refined extraction is "OK"
when its angle stays within that factor (or under an absolute floor of
1e-13).  Rows go to a CSV in column order with 17 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .builtin import example31_basis, example31_eigenvector, example31_pencil, EXACT_VALUE
from .errors import QritzError, RankDeficient
from .kernels import as_direction, as_integer, as_matrix, as_scalar, eigenvalues
from .pencil import QuadraticPencil
from .solver import nearest_pairs, warned_companion
from .subspace import as_epsilon, perturbed_subspace
from .theory import DiagnosticsReport, Reference, full_diagnostics, reference

#: Ritz-vector stagnation factor: angle > RITZ_FACTOR * sin(theta1).
RITZ_FACTOR = 100.0

#: Absolute floor under which a refined angle counts as converged outright.
REFINED_FLOOR = 1e-13

#: A companion vector joins a case when its part orthogonal to those before exceeds this.
INDEPENDENCE_TOL = 1e-6


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
    """The row of ``rep``: each column reads the report field of its name, or of its alias."""
    alias = {"sin_theta": "sin_theta1", "ritz_value_err": "ritz_value_error"}
    return StudyRow(epsilon, *(_num(getattr(rep, alias.get(c, c))) for c in STUDY_COLUMNS[1:]))


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


#: A study's row key ``(seed << 32) + i`` must fit the 128-bit Philox key.
SEED_BITS = 96


def row_seed(seed: int, index: int) -> int:
    """Per-row Philox key: high word the study seed, low word the row index."""
    return (int(seed) << 32) + index


@dataclass(frozen=True)
class StudyCase:
    """A pencil with its reference eigenpair and companion directions.

    The case's memo is the ``Reference`` of its admitted pair, which holds
    the per-case triple at ``lam1`` (``theory.Reference.top``) once a row
    has read it.  Like ``QuadraticPencil.image``, the memo is keyed on exact
    equality with the admitted value and a private copy of the admitted
    vector, so a ``ref_vector`` changed in place gets a fresh reference; a
    hit and a miss give the same rows.
    """

    pencil: QuadraticPencil
    ref_value: complex
    ref_vector: np.ndarray
    companions: np.ndarray
    _reference: Reference | None = field(default=None, init=False, repr=False, compare=False)

    def reference(self) -> Reference:
        """The ``theory.reference`` of the admitted pair: ``ref_value`` by
        ``as_scalar`` and ``ref_vector`` by ``as_direction`` (``p.n``
        entries), memoized for the last pair admitted."""
        value = as_scalar(self.ref_value, "ref_value")
        x1 = as_direction(self.ref_vector, "ref_vector", self.pencil.n)
        memo = self._reference
        if memo is not None and memo.value == value and np.array_equal(memo.vector, x1):
            return memo
        memo = reference(self.pencil, value, x1)
        object.__setattr__(self, "_reference", memo)
        return memo


def builtin_case() -> StudyCase:
    """The built-in showcase problem as a study case (dimension-2 subspace)."""
    return StudyCase(
        pencil=example31_pencil(),
        ref_value=EXACT_VALUE,
        ref_vector=example31_eigenvector(),
        companions=example31_basis()[:, 1:],
    )


def case_from_pencil(p: QuadraticPencil, target: complex, dim: int) -> StudyCase:
    """Build a case from a pencil: the reference pair nearest ``target`` and
    the vectors of the next-nearest, directionally independent pairs.

    ``target`` and ``dim``, an integer in ``[1, n]``, are admitted before
    the one companion eigensolve, which takes the 2n eigenvalues and no
    eigenvectors.  The reference value is that of the first pair of
    ``solver.nearest_pairs`` around ``target``.  The case walks
    ``nearest_pairs`` around the reference value, the reference first: a
    pair joins when its vector's component orthogonal to the vectors before
    it has norm above ``INDEPENDENCE_TOL``, until ``dim`` have joined.

    Raises:
        RankDeficient: if fewer than ``dim`` independent directions exist.
    """
    target = as_scalar(target, "target")
    dim = as_integer(dim, "dim", 1, p.n + 1)
    values = eigenvalues(warned_companion(p))
    ref_value = next(nearest_pairs(p, values, target)).value
    chosen = []
    test_basis = []
    for ep in nearest_pairs(p, values, ref_value):
        w = ep.vector.copy()
        for b in test_basis:
            w = w - b * np.vdot(b, w)
        if np.linalg.norm(w) > INDEPENDENCE_TOL:
            chosen.append(ep)
            test_basis.append(w / np.linalg.norm(w))
            if len(chosen) == dim:
                break
    else:
        raise RankDeficient(f"could not find {dim - 1} independent companion directions")
    ref, *rest = chosen
    companions = np.column_stack([ep.vector for ep in rest]) if rest else np.zeros((p.n, 0))
    return StudyCase(pencil=p, ref_value=ref.value, ref_vector=ref.vector, companions=companions)


def run_study(
    case: StudyCase, eps_list: list[float], seed: int
) -> tuple[list[StudyRow], list[str]]:
    """One diagnostics row and verdict per epsilon; failures mark their row
    with NaN columns and the run continues.  The reference pair
    (``case.reference()``), the seed, an integer in ``[0, 2**SEED_BITS)``,
    the companions (``p.n`` rows, finite entries) and every epsilon
    (``subspace.as_epsilon``) are admitted once, before the first row, so a
    bad input refuses the whole study instead of a row or the rows after it.
    Each row perturbs the admitted unit reference vector, so epsilon does not
    depend on the scaling of ``case.ref_vector``.  The reference comes from
    the case's memo, so repeated studies of one case deflate its pair and
    take its triple at ``lam1`` once."""
    ref = case.reference()
    seed = as_integer(seed, "seed", 0, 2**SEED_BITS)
    if np.size(case.companions):
        as_matrix(case.companions, "companions", case.pencil.n)
    eps_list = [as_epsilon(eps) for eps in eps_list]
    rows = []
    verdicts = []
    for i, eps in enumerate(eps_list):
        try:
            Q = perturbed_subspace(ref.vector, case.companions, eps, row_seed(seed, i))
            rep = full_diagnostics(ref, Q)
            row = row_from_report(eps, rep)
        except QritzError:
            row = failed_row(eps)
        rows.append(row)
        verdicts.append(verdict(row))
    return rows, verdicts
