"""Every public entry point that takes a basis, a direction or a scalar
refuses a bad one with a typed error, through the admissions of ``kernels``.

A basis of the wrong height or a vector of the wrong length is a
``DimensionMismatch``, a zero direction a ``ZeroVector``, and a non-finite
entry or scalar a ``ValueError`` that names it; none of them reaches numpy
as a bare shape or arithmetic error.
"""

import warnings

import numpy as np
import pytest

from conftest import cnormal, random_pencil, random_unitary, rng
from qritz.angles import stacked_subspace_angle, subspace_angle, vector_angle
from qritz.errors import DimensionMismatch, ZeroVector
from qritz.pencil import qep_residual, stack_vector
from qritz.projection import project
from qritz.refined import refined_ritz
from qritz.solver import solve_full
from qritz.study import StudyCase, case_from_pencil, run_study
from qritz.subspace import perturbed_subspace
from qritz.theory import (
    deflate,
    full_diagnostics,
    perturbation_triple,
    reference,
    refined_residual_identity_check,
    sep,
    stacked_angle_inequality_check,
)

N = 5

G = rng(24)
P = random_pencil(G, N)
Q = random_unitary(G, N)[:, :2]
X = Q[:, 0] + 1e-3 * cnormal(G, N)
PP = project(P, Q)
THETA = subspace_angle(Q, X)
X_UNIT = X / np.linalg.norm(X)
Z = np.ones(2)
NAN = complex(np.nan, 0.0)
#: An orthonormal basis one row short of the pencil's dimension.
Q_SHORT = random_unitary(G, N - 1)[:, :2]


def short(a):
    """``a`` with its last row dropped: one row or entry too few."""
    return a[:-1]


def nan(a):
    """A copy of ``a`` with one NaN entry."""
    b = a.astype(np.complex128)
    b.flat[0] = np.nan
    return b


def zero(a):
    return np.zeros_like(a)


def case(vector=X, companions=Q[:, 1:]):
    return StudyCase(pencil=P, ref_value=1.0, ref_vector=vector, companions=companions)


def ref():
    return reference(P, 1.0, X_UNIT)


def admitted():
    """The reference of an eigenpair of ``P``, which ``deflate`` admits."""
    pair = solve_full(P)[0]
    r = reference(P, pair.value, pair.vector)
    assert r.rejection is None
    return r


#: (entry point and bad input, call, expected error)
CASES = [
    ("project-short-Q", lambda: project(P, Q_SHORT), DimensionMismatch),
    ("project-nan-Q", lambda: project(P, nan(Q)), ValueError),
    ("refined_ritz-short-Q", lambda: refined_ritz(P, Q_SHORT, 0.5), DimensionMismatch),
    ("refined_ritz-nan-Q", lambda: refined_ritz(P, nan(Q), 0.5), ValueError),
    ("refined_ritz-nan-mu", lambda: refined_ritz(P, Q, complex(np.nan, 0.0)), ValueError),
    ("subspace_angle-short-x", lambda: subspace_angle(Q, short(X)), DimensionMismatch),
    ("subspace_angle-short-Q", lambda: subspace_angle(Q_SHORT, X), DimensionMismatch),
    ("subspace_angle-zero-x", lambda: subspace_angle(Q, zero(X)), ZeroVector),
    ("subspace_angle-nan-x", lambda: subspace_angle(Q, nan(X)), ValueError),
    ("stacked_subspace_angle-short-x", lambda: stacked_subspace_angle(Q, 2.0, short(X)), DimensionMismatch),
    ("stacked_subspace_angle-zero-x", lambda: stacked_subspace_angle(Q, 2.0, zero(X)), ZeroVector),
    ("stacked_subspace_angle-nan-x", lambda: stacked_subspace_angle(Q, 2.0, nan(X)), ValueError),
    ("stacked_subspace_angle-nan-Q", lambda: stacked_subspace_angle(nan(Q), 2.0, X), ValueError),
    ("vector_angle-short-x", lambda: vector_angle(short(X), X), DimensionMismatch),
    ("vector_angle-short-y", lambda: vector_angle(X, short(X)), DimensionMismatch),
    ("vector_angle-zero-x", lambda: vector_angle(zero(X), X), ZeroVector),
    ("vector_angle-zero-y", lambda: vector_angle(X, zero(X)), ZeroVector),
    ("vector_angle-nan-x", lambda: vector_angle(nan(X), X), ValueError),
    ("vector_angle-nan-y", lambda: vector_angle(X, nan(X)), ValueError),
    ("perturbation_triple-short-x1", lambda: perturbation_triple(P, PP, 1.0, short(X), THETA), DimensionMismatch),
    ("perturbation_triple-zero-x1", lambda: perturbation_triple(P, PP, 1.0, zero(X), THETA), ZeroVector),
    ("perturbation_triple-nan-x1", lambda: perturbation_triple(P, PP, 1.0, nan(X), THETA), ValueError),
    ("perturbed_subspace-short-x1", lambda: perturbed_subspace(short(X), Q[:, 1:], 1e-3, 1), DimensionMismatch),
    ("perturbed_subspace-short-companions", lambda: perturbed_subspace(X, short(Q[:, 1:]), 1e-3, 1), DimensionMismatch),
    ("perturbed_subspace-nan-x1", lambda: perturbed_subspace(nan(X), Q[:, 1:], 1e-3, 1), ValueError),
    ("full_diagnostics-short-Q", lambda: full_diagnostics(ref(), Q_SHORT), DimensionMismatch),
    ("full_diagnostics-nan-Q", lambda: full_diagnostics(ref(), nan(Q)), ValueError),
    ("run_study-short-ref_vector", lambda: run_study(case(short(X)), [1e-3], 1), DimensionMismatch),
    ("run_study-zero-ref_vector", lambda: run_study(case(zero(X)), [1e-3], 1), ZeroVector),
    ("run_study-nan-ref_vector", lambda: run_study(case(nan(X)), [1e-3], 1), ValueError),
    ("run_study-short-companions", lambda: run_study(case(companions=short(Q[:, 1:])), [1e-3], 1), DimensionMismatch),
    ("run_study-nan-companions", lambda: run_study(case(companions=nan(Q[:, 1:])), [1e-3], 1), ValueError),
    ("identity_check-short-Q", lambda: refined_residual_identity_check(P, Q_SHORT, 0.5, Z), DimensionMismatch),
    ("identity_check-short-z", lambda: refined_residual_identity_check(P, Q, 0.5, short(Z)), DimensionMismatch),
    ("identity_check-nan-z", lambda: refined_residual_identity_check(P, Q, 0.5, nan(Z)), ValueError),
    ("inequality_check-short-u_tilde", lambda: stacked_angle_inequality_check(Z, short(Z)), DimensionMismatch),
    ("qep_residual-nan-lam", lambda: qep_residual(P, NAN, X), ValueError),
    ("stack_vector-nan-lam", lambda: stack_vector(NAN, X_UNIT), ValueError),
    ("stacked_subspace_angle-nan-lam", lambda: stacked_subspace_angle(Q, NAN, X), ValueError),
    ("reference-nan-value", lambda: reference(P, NAN, X_UNIT), ValueError),
    ("deflate-nan-lam", lambda: deflate(P, NAN, X_UNIT), ValueError),
    ("sep-nan-mu", lambda: sep(admitted(), NAN), ValueError),
    ("perturbation_triple-nan-lam1", lambda: perturbation_triple(P, PP, NAN, X, THETA), ValueError),
    ("identity_check-nan-mu", lambda: refined_residual_identity_check(P, Q, NAN, Z), ValueError),
    ("run_study-negative-seed", lambda: run_study(case(), [1e-3], -1), ValueError),
    ("run_study-wide-seed", lambda: run_study(case(), [1e-3], 2**96), ValueError),
    ("run_study-float-seed", lambda: run_study(case(), [1e-3], 1.5), ValueError),
    ("perturbed_subspace-float-seed", lambda: perturbed_subspace(X, Q[:, 1:], 1e-3, 1.5), ValueError),
    ("perturbed_subspace-wide-seed", lambda: perturbed_subspace(X, Q[:, 1:], 1e-3, 2**128), ValueError),
    ("case_from_pencil-float-dim", lambda: case_from_pencil(P, 0, 2.5), ValueError),
    ("case_from_pencil-wide-dim", lambda: case_from_pencil(P, 0, N + 1), ValueError),
    ("solve_full-float-count", lambda: solve_full(P, 0.0, 2.5), ValueError),
]

#: Each ValueError row's message names the refused value, so no numpy error passes for it.
VALUE_ERROR_MESSAGE = "non-finite entries|must be finite|must be an integer"


@pytest.mark.parametrize("call, error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_is_a_typed_failure(call, error):
    # Every warning is an error here, so a zero direction must be refused
    # before any division by its norm warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=VALUE_ERROR_MESSAGE if error is ValueError else None):
            call()

