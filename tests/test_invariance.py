"""A study is invariant under scaling the pencil by a power of two.

``(2^k M, 2^k D, 2^k K)`` has the eigenpairs of ``(M, D, K)``, and away
from overflow and underflow the scaling rounds nothing in binary floating
point.  So with the same case vectors, the columns that do not depend on
the pencil's scale, ``sin_theta``, ``ritz_value_err``, ``ritz_angle`` and
``refined_angle``, must come out bit-identical, and so must the verdicts
read from them.  The residual, separation and bound columns move with the
scale and are not compared.  The pencils are one random HPD-mass pencil at
n = 60 and one draw of each conditioning family of ``test_regimes`` at
n = 40.
"""

import numpy as np
import pytest

from conftest import random_pencil, rng
from qritz.pencil import QuadraticPencil
from qritz.study import StudyCase, case_from_pencil, run_study
from test_regimes import FAMILIES

SEED_RANDOM = 9000
SEED_FAMILIES = 9100
EPS = [1e-2, 1e-5, 1e-8, 1e-11]
POWERS = [20, -20]
INVARIANT = ("sin_theta", "ritz_value_err", "ritz_angle", "refined_angle")


def _random(g):
    return random_pencil(g, 60), 6


def _family(make):
    return lambda g: (make(g, 40), 4)


PENCILS = [pytest.param(SEED_RANDOM, _random, id="random-n60")] + [
    pytest.param(((SEED_FAMILIES + family) << 32), _family(make), id=name)
    for family, (name, make) in enumerate(FAMILIES)
]


def _columns(rows):
    """The invariant columns of ``rows`` as bytes, so NaN and signed zeros compare bitwise."""
    return {c: np.array([getattr(row, c) for row in rows]).tobytes() for c in INVARIANT}


@pytest.mark.parametrize("key, make", PENCILS)
@pytest.mark.filterwarnings("ignore::qritz.errors.IndefiniteMass")
def test_angle_and_value_columns_are_bit_identical_under_power_of_two_scaling(key, make):
    g = rng(key)
    p, dim = make(g)
    case = case_from_pencil(p, complex(*g.standard_normal(2)), dim)
    rows, verdicts = run_study(case, EPS, seed=1)
    for k in POWERS:
        s = 2.0**k
        scaled = StudyCase(
            pencil=QuadraticPencil(s * p.M, s * p.D, s * p.K),
            ref_value=case.ref_value,
            ref_vector=case.ref_vector,
            companions=case.companions,
        )
        rows_k, verdicts_k = run_study(scaled, EPS, seed=1)
        assert _columns(rows_k) == _columns(rows), f"k = {k}"
        assert verdicts_k == verdicts, f"k = {k}"
