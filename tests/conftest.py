"""Shared deterministic generators and the CLI runner for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qritz
from qritz.pencil import QuadraticPencil

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


def random_pencil(g: np.random.Generator, n: int, hpd_mass: bool = True) -> QuadraticPencil:
    M = random_hpd(g, n) if hpd_mass else cnormal(g, n, n)
    D = cnormal(g, n, n) / np.sqrt(n)
    K = cnormal(g, n, n) / np.sqrt(n)
    return QuadraticPencil(M, D, K)


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
