"""Shared deterministic generators and the CLI runner for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qritz
from qritz.kernels import orthonormalize, spectral_norm, unitary_completion
from qritz.pencil import QuadraticPencil
from qritz.theory import SEP_FLOOR

#: Directory holding the ``qritz`` package this test process imported
#: (``src/`` of a checkout, or site-packages of an install).
QRITZ_ROOT = str(Path(qritz.__file__).resolve().parents[1])


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def cnormal(g: np.random.Generator, *shape) -> np.ndarray:
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def random_unitary(g: np.random.Generator, n: int) -> np.ndarray:
    Q, _ = np.linalg.qr(cnormal(g, n, n))
    return Q


def random_hpd(g: np.random.Generator, n: int) -> np.ndarray:
    R = cnormal(g, n, n) / np.sqrt(n)
    return R @ R.conj().T + 0.5 * np.eye(n)


def hermitian_with_spectrum(g: np.random.Generator, w) -> np.ndarray:
    """``U diag(w) U^H`` for a random unitary ``U``, made exactly Hermitian."""
    U = random_unitary(g, len(w))
    H = (U * w) @ U.conj().T
    return 0.5 * (H + H.conj().T)


def random_pencil(g: np.random.Generator, n: int, hpd_mass: bool = True) -> QuadraticPencil:
    M = random_hpd(g, n) if hpd_mass else cnormal(g, n, n)
    D = cnormal(g, n, n) / np.sqrt(n)
    K = cnormal(g, n, n) / np.sqrt(n)
    return QuadraticPencil(M, D, K)


def pencil_with_mass(g: np.random.Generator, M) -> QuadraticPencil:
    """``(M, D, K)`` with random ``D`` and ``K`` over ``sqrt(n)``, as in ``random_pencil``."""
    n = len(M)
    return QuadraticPencil(M, cnormal(g, n, n) / np.sqrt(n), cnormal(g, n, n) / np.sqrt(n))


def scaled_hpd(g: np.random.Generator, n: int) -> np.ndarray:
    """``S (C C^H + n I) S`` with ``S = diag(10^linspace(-3, 3, n))``.

    Hermitian positive definite in exact arithmetic, with ``||M||`` near 1e7;
    a basis near the first coordinates projects it to a well conditioned mass
    about 1e-6 times that.
    """
    C = cnormal(g, n, n)
    S = 10.0 ** np.linspace(-3.0, 3.0, n)
    return S[:, None] * (C @ C.conj().T + n * np.eye(n)) * S


def graded_projection(seed: int, n: int = 6):
    """A pencil with graded HPD mass ``U diag(logspace(0, -8, n)) U^H`` and an
    orthonormal 2-column basis near the mass's two smallest directions.

    The projected mass is well conditioned, but about 1e-6 times ``||M||``.
    """
    g = rng(seed)
    U = random_unitary(g, n)
    M = (U * np.logspace(0.0, -8.0, n)) @ U.conj().T
    p = pencil_with_mass(g, 0.5 * (M + M.conj().T))
    return p, orthonormalize(U[:, -2:] + 1e-3 * cnormal(g, n, 2))


def isolated_eigenpair(pairs):
    """The pair whose eigenvalue maximizes the distance to the rest,
    among pairs with non-tiny eigenvalues."""
    values = np.array([p.value for p in pairs])

    def isolation(i):
        d = np.abs(values - values[i])
        d[i] = np.inf
        return float(np.min(d))

    candidates = [i for i in range(len(pairs)) if abs(values[i]) >= 0.15]
    if not candidates:
        candidates = list(range(len(pairs)))
    best = max(candidates, key=isolation)
    return pairs[best], isolation(best)


class DenseDeflation:
    """The unitary-frame deflation of the eigenvector ``v`` from ``(A, B)``:
    the dense oracle of ``theory.sep``.

    ``v`` is normalized, ``y1 = B v / ||B v||`` is formed here (the oracle
    admits nothing and calls nothing it checks), ``[v, X]`` and ``[y1, Y]``
    are unitary by ``kernels.unitary_completion``, and ``(L, N) = (Y^H A X,
    Y^H B X)`` is the complement pair.  The frame is block triangular when
    ``v`` is an eigenvector of ``(A, B)``.

    Untrusted on large eigenvalues of an ill-conditioned mass: at ``|lam|``
    near 1e7-1e8 with cond(M) = 1e8, ``sep`` has been measured up to 5.3e2
    times its own ``allowance`` away from a 40-digit ``1/||T||`` built from
    the same ``(v, y1)``, so no test should pin ``theory.sep`` to it there;
    ``test_theory.py::test_sep_matches_extended_precision_on_huge_eigenvalues``
    pins it to that ``1/||T||`` instead.
    """

    def __init__(self, A, B, v):
        self.A = np.asarray(A, dtype=np.complex128)
        self.B = np.asarray(B, dtype=np.complex128)
        self.v = np.asarray(v, dtype=np.complex128) / np.linalg.norm(v)
        Bv = self.B @ self.v
        self.y1 = Bv / np.linalg.norm(Bv)
        self.X = unitary_completion(self.v)
        self.Y = unitary_completion(self.y1)
        self.L = self.Y.conj().T @ self.A @ self.X
        self.N = self.Y.conj().T @ self.B @ self.X

    def sep(self, mu):
        """``sigma_min(L - mu N)``."""
        return float(np.linalg.svd(self.L - mu * self.N, compute_uv=False)[-1])

    def norm_minus(self, mu):
        """``||A - mu B||``."""
        return spectral_norm(self.A - mu * self.B)

    def allowance(self, mu):
        """The mixed gate on a separation at ``mu``, ``1e-12 sep + SEP_FLOOR
        (||B|| + ||A - mu B||)``: the oracle is itself only accurate to about
        eps ||A - mu B||."""
        return 1e-12 * self.sep(mu) + SEP_FLOOR * (spectral_norm(self.B) + self.norm_minus(mu))


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this process's ``qritz``.

    The child's ``PYTHONPATH`` starts with ``QRITZ_ROOT`` as an absolute
    path, so a relative ``PYTHONPATH=src`` still resolves when the child
    runs elsewhere.  Inherited ``QRITZ_*`` variables are dropped, since the
    CLI reads them as option defaults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("QRITZ_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (QRITZ_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(args, cwd):
    """Run ``python -m qritz *args`` in a child process from ``cwd``, with
    the environment of ``child_env()``."""
    return subprocess.run(
        [sys.executable, "-m", "qritz", *args],
        capture_output=True,
        cwd=cwd,
        env=child_env(),
        timeout=120,
    )


@pytest.fixture
def g():
    return rng(1234)
