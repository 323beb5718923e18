"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload is a closed loop with one caller: library and CLI users wait
for each result before asking for the next.  ``setup`` builds every input
from Philox streams keyed by the benchmark seed, ``op(i)`` is the timed
operation and returns what it produced, and ``check(i, out)`` returns the
list of correctness failures of that output (empty when it is right).
Checks use plain numpy, not the library under test.

``qritz`` modules are looked up as attributes at call time so that a tracer
installed between operations sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qritz.cli
import qritz.mmio
import qritz.pencil
import qritz.projection
import qritz.refined
import qritz.solver
import qritz.study
import qritz.subspace

#: Sizes used by the benchmark runs and by the smoke test.
SIZES = {
    "full": {
        "study": {"n": 100, "dim": 8},
        "extract": {"n": 800, "m": 12},
        "files": {"n": 160},
    },
    "smoke": {
        "study": {"n": 12, "dim": 3},
        "extract": {"n": 40, "m": 4},
        "files": {"n": 10},
    },
}

#: Perturbation sizes of one study operation (four rows).
STUDY_EPS = (1e-2, 1e-5, 1e-8, 1e-11)

#: Rounding allowance for "refined residual <= Ritz residual", relative to
#: the residual scale |mu|^2 ||M|| + |mu| ||D|| + ||K||: the refined vector
#: is an exact minimizer only up to the backward error of the SVD.
MINIMALITY_SLACK = 1e-13

#: A refined vector must lie within this factor of sin(theta), with the same
#: absolute floor the study verdicts use.
ANGLE_FACTOR = 100.0
ANGLE_FLOOR = 1e-13

#: Eigenvalue agreement and residual contract checked on the CLI output.
VALUE_TOL = 1e-8
RESIDUAL_TOL = 1e-10

# Stream tags: each input family draws from its own Philox stream.
_PENCIL, _TARGET, _OP = 1, 2, 3


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Philox stream keyed by the benchmark seed, a stream tag and an index."""
    return np.random.Generator(np.random.Philox(key=[seed, (stream << 32) | index]))


def cnormal(g: np.random.Generator, *shape) -> np.ndarray:
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def random_pencil(g: np.random.Generator, n: int):
    """Random pencil with Hermitian positive definite mass matrix."""
    R = cnormal(g, n, n) / np.sqrt(n)
    M = R @ R.conj().T + 0.5 * np.eye(n)
    D = cnormal(g, n, n) / np.sqrt(n)
    K = cnormal(g, n, n) / np.sqrt(n)
    return qritz.pencil.QuadraticPencil(M, D, K)


def sin_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Sine of the acute angle between two nonzero vectors."""
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    return float(np.linalg.norm(y - np.vdot(x, y) * x))


def residual_scale(p, lam: complex) -> float:
    a = abs(lam)
    return a * a * p.m0 + a * p.d0 + p.k0


def op_seed(seed: int, i: int) -> int:
    """Library seed of operation ``i``, distinct across benchmark seeds."""
    return (seed << 32) + i


@dataclass
class Study:
    """``run_study`` over four perturbation sizes on a random HPD-mass pencil."""

    seed: int
    n: int
    dim: int
    workdir: Path

    def setup(self) -> None:
        p = random_pencil(rng(self.seed, _PENCIL), self.n)
        target = complex(*rng(self.seed, _TARGET).standard_normal(2))
        self.case = qritz.study.case_from_pencil(p, target, dim=self.dim)

    def op(self, i: int):
        return qritz.study.run_study(self.case, list(STUDY_EPS), seed=op_seed(self.seed, i))

    def check(self, i: int, out) -> list[str]:
        rows, verdicts = out
        slack = MINIMALITY_SLACK * residual_scale(self.case.pencil, self.case.ref_value)
        bad = []
        if len(rows) != len(STUDY_EPS):
            bad.append(f"{len(rows)} rows for {len(STUDY_EPS)} epsilons")
        for row, verdict in zip(rows, verdicts):
            tag = f"eps={row.epsilon:g}"
            values = [getattr(row, f) for f in qritz.study.STUDY_COLUMNS]
            if verdict == "FAILED" or any(math.isnan(v) for v in values):
                bad.append(f"{tag}: failed row")
                continue
            if not row.ritz_angle <= row.ritz_vector_bound:
                bad.append(f"{tag}: ritz_angle {row.ritz_angle:.3e} > bound {row.ritz_vector_bound:.3e}")
            if not row.refined_angle <= row.refined_vector_bound:
                bad.append(f"{tag}: refined_angle {row.refined_angle:.3e} > bound {row.refined_vector_bound:.3e}")
            if not row.ritz_value_err <= row.elsner_bound:
                bad.append(f"{tag}: ritz_value_err {row.ritz_value_err:.3e} > elsner {row.elsner_bound:.3e}")
            if not row.refined_residual <= row.ritz_residual + slack:
                bad.append(f"{tag}: refined residual {row.refined_residual:.3e} > ritz {row.ritz_residual:.3e}")
        return bad


@dataclass
class Extract:
    """Projection, all 2m Ritz pairs and refined extraction for every Ritz value.

    The pencil is ``U diag(.) U^H`` with a seeded unitary ``U``, so column 0
    of ``U`` is a known eigenvector without a full-size solve.  Each diagonal
    quadratic has seeded roots; the reference root sits on a circle of
    radius 3 and the other roots inside radius 1.5, so it is well separated.
    """

    seed: int
    n: int
    m: int
    workdir: Path

    def setup(self) -> None:
        g = rng(self.seed, _PENCIL)
        U, _ = np.linalg.qr(cnormal(g, self.n, self.n))
        a, b = (z / np.maximum(1.0, np.abs(z) / 1.5) for z in cnormal(g, 2, self.n) / np.sqrt(2.0))
        self.lam1 = 3.0 * np.exp(2j * np.pi * g.uniform())
        a[0], b[0] = self.lam1, -self.lam1
        mass = g.uniform(1.0, 2.0, self.n)
        Uh = U.conj().T
        self.pencil = qritz.pencil.QuadraticPencil(
            (U * mass) @ Uh, (U * (-mass * (a + b))) @ Uh, (U * (mass * a * b)) @ Uh
        )
        self.x1 = U[:, 0].copy()
        self.companions = U[:, 1 : self.m].copy()

    def op(self, i: int):
        eps = 10.0 ** rng(self.seed, _OP, i).uniform(-10.0, -2.0)
        Q = qritz.subspace.perturbed_subspace(self.x1, self.companions, eps, op_seed(self.seed, i))
        pp = qritz.projection.project(self.pencil, Q)
        pairs = qritz.projection.ritz_pairs(pp, self.pencil)
        refined = [qritz.refined.refined_ritz(self.pencil, Q, rp.value) for rp in pairs]
        return Q, pairs, refined

    def check(self, i: int, out) -> list[str]:
        Q, pairs, refined = out
        bad = []
        if len(pairs) != 2 * self.m or len(refined) != len(pairs):
            bad.append(f"{len(pairs)} Ritz pairs, {len(refined)} refined for m={self.m}")
        for rp, rr in zip(pairs, refined):
            slack = MINIMALITY_SLACK * residual_scale(self.pencil, rp.value)
            if not rr.residual_norm <= rp.residual_norm + slack:
                bad.append(f"mu={rp.value:.6g}: refined residual {rr.residual_norm:.3e} > ritz {rp.residual_norm:.3e}")
        if pairs:
            k = min(range(len(pairs)), key=lambda j: abs(pairs[j].value - self.lam1))
            sin_theta = float(np.linalg.norm(self.x1 - Q @ (Q.conj().T @ self.x1)))
            angle = sin_angle(self.x1, refined[k].vector)
            limit = max(ANGLE_FACTOR * sin_theta, ANGLE_FLOOR)
            if not angle <= limit:
                bad.append(f"refined angle {angle:.3e} > {ANGLE_FACTOR:g} sin(theta) = {limit:.3e}")
        return bad


_PAIR_LINE = re.compile(r"^pair 1: lambda=(\S+) residual=(\S+)$", re.M)
_ENTRY_LINE = re.compile(r"^  x\[(\d+)\] = (\S+)$", re.M)


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}j"


@dataclass
class Files:
    """``qritz solve`` on three Matrix Market files, run in-process."""

    seed: int
    n: int
    workdir: Path

    def setup(self) -> None:
        p = random_pencil(rng(self.seed, _PENCIL), self.n)
        self.paths = [str(self.workdir / f"{x}.mtx") for x in "MDK"]
        for path, mat in zip(self.paths, (p.M, p.D, p.K)):
            qritz.mmio.write_matrix_market(path, mat)
        self.pencil = p
        self.values = np.array([ep.value for ep in qritz.solver.solve_full(p)])

    def target(self, i: int) -> tuple[int, complex]:
        """A seeded eigenvalue index and a target nearer to it than to any other."""
        g = rng(self.seed, _OP, i)
        k = int(g.integers(self.values.size))
        gap = np.abs(self.values - self.values[k])
        gap[k] = np.inf
        return k, self.values[k] + 0.1 * float(np.min(gap)) * np.exp(2j * np.pi * g.uniform())

    def op(self, i: int):
        _, tau = self.target(i)
        out, err = io.StringIO(), io.StringIO()
        argv = ["solve", *self.paths, f"--target={format_complex(tau)}", "--count", "1"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qritz.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, out) -> list[str]:
        code, stdout, stderr = out
        if code != 0:
            return [f"exit {code}: {stderr.strip()}"]
        pair = _PAIR_LINE.search(stdout)
        entries = _ENTRY_LINE.findall(stdout)
        if pair is None or len(entries) != self.n:
            return ["unparsable solve output"]
        lam, printed = complex(pair.group(1)), float(pair.group(2))
        x = np.array([complex(v) for _, v in entries])
        k, _ = self.target(i)
        bad = []
        if abs(lam - self.values[k]) > VALUE_TOL * max(1.0, abs(self.values[k])):
            bad.append(f"lambda {lam:.6g} is not the eigenvalue {self.values[k]:.6g} nearest the target")
        p = self.pencil
        limit = RESIDUAL_TOL * residual_scale(p, lam)
        recomputed = float(np.linalg.norm(lam * (lam * (p.M @ x) + p.D @ x) + p.K @ x))
        if not printed <= limit:
            bad.append(f"printed residual {printed:.3e} > {limit:.3e}")
        if not recomputed <= limit:
            bad.append(f"residual of the printed vector {recomputed:.3e} > {limit:.3e}")
        return bad


WORKLOADS = {"study": Study, "extract": Extract, "files": Files}


def make(name: str, seed: int, size: str, workdir: Path):
    return WORKLOADS[name](seed=seed, workdir=workdir, **SIZES[size][name])
