"""Criterion 3 and row completeness across five conditioning regimes of the mass.

Each family draws ``DRAWS`` pencils with n in 4-8 and a search space of
dimension m in 2-4, admitted by criterion 3's window: the reference
eigenvalue isolated by at least 1e-3 and ``sin(theta1)`` in [1e-10, 1e-2].
Every admitted row must be complete (Ritz value, refined angle, both
separations and the Elsner bound set) and satisfy criterion 3's three
inequalities under its gates.  In every family, the reference vector of a
study case, which comes from inverse iteration, has a residual no larger
than the companion eigenvector's, up to rounding, and ``||A - mu B||`` at
the reference value is the dense norm.
"""

import warnings

import numpy as np
import pytest

from conftest import (
    cnormal,
    hermitian_with_spectrum,
    isolated_eigenpair,
    pencil_with_mass,
    random_pencil,
    rng,
    scaled_hpd,
)
from qritz.angles import subspace_angle
from qritz.errors import IndefiniteMass, QritzError
from qritz.kernels import largest_singular
from qritz.pencil import QuadraticPencil, companion_operator, linearize, qep_residual
from qritz.solver import solve_full
from qritz.study import case_from_pencil
from qritz.subspace import perturbed_subspace
from qritz.theory import full_diagnostics, reference

SEED_REGIMES = 3100
SEED_NORMS = 9100
DRAWS = 60


def _stiff(g, n):
    p = random_pencil(g, n)
    return QuadraticPencil(p.M, p.D, 1e6 * p.K)


FAMILIES = [
    ("graded-1e8", lambda g, n: pencil_with_mass(g, hermitian_with_spectrum(g, np.logspace(0, -8, n)))),
    ("graded-1e12", lambda g, n: pencil_with_mass(g, hermitian_with_spectrum(g, np.logspace(0, -12, n)))),
    ("SHS", lambda g, n: pencil_with_mass(g, scaled_hpd(g, n))),
    ("non-HPD", lambda g, n: pencil_with_mass(g, cnormal(g, n, n) + 2.0 * np.eye(n))),
    ("stiff", _stiff),
]


def _diagnostics(g, p, m: int, index: int):
    """The diagnostics row of one pencil, or None outside criterion 3's window."""
    ref, isolation = isolated_eigenpair(solve_full(p))
    if isolation < 1e-3:
        return None
    try:
        case = case_from_pencil(p, ref.value, m)
    except QritzError:
        return None
    eps = 10.0 ** g.uniform(-9.3, -2.7)
    Q = perturbed_subspace(case.ref_vector, case.companions, eps, 2 * index + 1)
    if not 1e-10 <= subspace_angle(Q, case.ref_vector).sin <= 1e-2:
        return None
    return full_diagnostics(reference(p, case.ref_value, case.ref_vector), Q)


def _row(family: int, make, index: int):
    """``_diagnostics`` of draw ``index`` of a family.

    A pencil whose mass is not certified Hermitian positive definite must
    warn ``IndefiniteMass`` (in the full solve and in ``project``), and
    nothing else may warn.
    """
    g = rng(((SEED_REGIMES + family) << 32) + index)
    n = int(g.integers(4, 9))
    m = int(g.integers(2, min(4, n) + 1))
    p = make(g, n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = _diagnostics(g, p, m, index)
    assert all(w.category is IndefiniteMass for w in caught), [str(w.message) for w in caught]
    assert bool(caught) == (not p.hermitian_pd)
    return rep


@pytest.mark.parametrize(
    "family, make", [pytest.param(k, make, id=name) for k, (name, make) in enumerate(FAMILIES)]
)
def test_every_admitted_row_is_complete_and_bounded(family, make):
    rows = [(i, _row(family, make, i)) for i in range(DRAWS)]
    admitted = [(i, rep) for i, rep in rows if rep is not None]
    assert len(admitted) >= 50
    for i, rep in admitted:
        fields = (rep.ritz_value, rep.refined_angle, rep.sep_projected, rep.sep_full, rep.elsner_bound)
        assert all(f is not None for f in fields), f"draw {i}"
        assert rep.elsner_bound >= rep.ritz_value_error, f"draw {i}"
        if rep.sep_projected > 1e-6:
            assert rep.ritz_vector_bound >= rep.ritz_angle, f"draw {i}"
        if rep.sep_full > 1e-6:
            assert rep.refined_vector_bound >= rep.refined_angle, f"draw {i}"


@pytest.mark.parametrize(
    "family, make", [pytest.param(k, make, id=name) for k, (name, make) in enumerate(FAMILIES)]
)
def test_case_reference_residual_never_above_the_companion_vector(family, make):
    for index in range(DRAWS):
        g = rng(((SEED_REGIMES + family) << 32) + index)
        n = int(g.integers(4, 9))
        m = int(g.integers(2, min(4, n) + 1))
        p = make(g, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefiniteMass)
            ref, _ = isolated_eigenpair(solve_full(p))
            case = case_from_pencil(p, ref.value, m)
        assert case.ref_value == ref.value, f"draw {index}"
        _, residual = qep_residual(p, case.ref_value, case.ref_vector)
        slack = 1e-14 * p.residual_scale(ref.value)
        assert residual <= ref.residual_norm + slack, f"draw {index}"


@pytest.mark.parametrize(
    "family, make", [pytest.param(k, make, id=name) for k, (name, make) in enumerate(FAMILIES)]
)
@pytest.mark.filterwarnings("ignore::qritz.errors.IndefiniteMass")
def test_norm_of_a_minus_mu_b_is_the_dense_norm(family, make):
    # At n = 5 the operator has order 10.  The graded-1e12 family's top two
    # singular values agree to about six digits, where a Lanczos stop on a
    # stalled estimate fell short of the dense norm by up to 4e-12.
    for index in range(40):
        p = make(rng(((SEED_NORMS + family) << 32) + index), 5)
        mu = isolated_eigenpair(solve_full(p))[0].value
        A, B = linearize(p)
        want = np.linalg.svd(A - mu * B, compute_uv=False)[0]
        got = largest_singular(*companion_operator(p, mu), 2 * p.n)
        assert abs(got - want) <= 1e-14 * want, f"draw {index}"
