"""Built-in 3x3 showcase problem with a degenerate projection.

The pencil below has symmetric positive definite mass and stiffness matrices
and the exact eigenpair ``(1, e3)``.  Projected onto the embedded 2-column
basis (whose span contains ``e3`` exactly), the three projected matrices sum
to zero, so 1 becomes a double Ritz value and every unit coefficient vector
is an "eigenvector": the projection method cannot recover ``e3`` even though
the subspace holds it exactly, while refined extraction pins it down.  This
makes the problem a compact end-to-end regression target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import vector_angle
from .kernels import spectral_norm
from .pencil import QuadraticPencil
from .projection import project, ritz_pairs
from .refined import refined_ritz
from .solver import select_eigenpair
from .theory import reference, sep

#: Name accepted by the CLI for this problem.
BUILTIN_NAME = "example31"

#: Exact eigenvalue and eigenvector index of the showcase pencil.
EXACT_VALUE = 1.0 + 0.0j

#: Golden-check thresholds: projected-matrix deviation, distance of a Ritz
#: value counted at ``EXACT_VALUE``, refined-vector angle and projected sep.
PROJECTED_TOL = 1e-13
DOUBLE_VALUE_TOL = 1e-9
RECOVERED_TOL = 1e-12
SEP_VANISH_TOL = 1e-12


def example31_pencil() -> QuadraticPencil:
    """The built-in 3x3 pencil (SPD mass and stiffness)."""
    M = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    D = np.array([[-5.5, -5.0, 0.0], [-5.0, -11.0, -3.0], [0.0, -3.0, -4.0]])
    K = np.array([[6.0, 6.0, 0.0], [6.0, 9.0, 2.0], [0.0, 2.0, 2.0]])
    return QuadraticPencil(M, D, K)


def example31_basis() -> np.ndarray:
    """The embedded orthonormal 3x2 basis containing the exact eigenvector."""
    r = math.sqrt(73.0)
    return np.array([[0.0, 8.0 / r], [0.0, -3.0 / r], [1.0, 0.0]], dtype=np.complex128)


def example31_eigenvector() -> np.ndarray:
    """The exact eigenvector for the eigenvalue 1."""
    return np.array([0.0, 0.0, 1.0], dtype=np.complex128)


def example31_projected_mass() -> np.ndarray:
    """Closed form of the projected mass matrix on the embedded basis."""
    r = math.sqrt(73.0)
    return np.array([[2.0, -3.0 / r], [-3.0 / r, 34.0 / 73.0]], dtype=np.complex128)


@dataclass(frozen=True)
class GoldenCheck:
    """One named pass/fail with the measured quantity."""

    name: str
    passed: bool
    measured: float
    threshold: float


def golden_checks() -> list[GoldenCheck]:
    """The five exact-subspace regression checks for the built-in problem."""
    p = example31_pencil()
    Q = example31_basis()
    checks = []

    pp = project(p, Q)
    dev_mass = spectral_norm(pp.pencil.M - example31_projected_mass())
    checks.append(
        GoldenCheck("projected-mass-entries", dev_mass <= PROJECTED_TOL, dev_mass, PROJECTED_TOL)
    )

    dev_sum = spectral_norm(pp.pencil.M + pp.pencil.D + pp.pencil.K)
    checks.append(
        GoldenCheck("projected-sum-zero", dev_sum <= PROJECTED_TOL, dev_sum, PROJECTED_TOL)
    )

    pairs = ritz_pairs(pp, p)
    n_at_one = sum(1 for rp in pairs if abs(rp.value - EXACT_VALUE) <= DOUBLE_VALUE_TOL)
    checks.append(
        GoldenCheck("double-ritz-value-one", n_at_one == 2, float(n_at_one), 2.0)
    )

    rr = refined_ritz(p, Q, EXACT_VALUE)
    ang_coeff = vector_angle(rr.coeff, np.array([1.0, 0.0])).sin
    ang_vec = vector_angle(rr.vector, example31_eigenvector()).sin
    worst = max(ang_coeff, ang_vec)
    checks.append(
        GoldenCheck("refined-vector-recovered", worst <= RECOVERED_TOL, worst, RECOVERED_TOL)
    )

    sel = select_eigenpair(pairs, EXACT_VALUE)
    s = sep(reference(pp.pencil, sel.value, sel.coeff), EXACT_VALUE)
    checks.append(GoldenCheck("projected-sep-vanishes", s <= SEP_VANISH_TOL, s, SEP_VANISH_TOL))

    return checks
