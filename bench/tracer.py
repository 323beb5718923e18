"""Per-layer call tracing of the ``qritz`` package, applied from outside it.

``Tracer.install`` replaces each traced function with a wrapper that records
a span, in the defining module and in every ``qritz`` module that imported
the name (``from .kernels import spectral_norm`` binds ``spectral_norm`` in
``theory``, ``pencil`` and ``builtin`` too).  The constructor of
``QuadraticPencil`` is traced by patching ``__init__`` on the class.  Dense
factorizations are counted where numpy and scipy expose them, including
numpy's internal ``svd`` that ``np.linalg.norm(a, 2)`` calls, but only while
a ``qritz`` span is open.  ``Tracer.uninstall`` restores every original.

A span's self time is its duration minus the durations of its direct
children, so the self times of one operation add up to the time spent
inside traced calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import scipy.linalg

#: Traced layer boundaries, as (module, name) in the ``qritz`` package.
TARGETS = (
    ("kernels", "spectral_norm"),
    ("kernels", "unitary_completion"),
    ("kernels", "orthonormality_defect"),
    ("kernels", "solve_linear"),
    ("kernels", "eig_standard"),
    ("kernels", "orthonormalize"),
    ("pencil", "QuadraticPencil"),
    ("pencil", "linearize"),
    ("pencil", "qep_residual"),
    ("solver", "solve_full"),
    ("projection", "project"),
    ("projection", "ritz_pairs"),
    ("refined", "refined_ritz"),
    ("theory", "full_diagnostics"),
    ("theory", "deflate"),
    ("theory", "sep"),
    ("theory", "perturbation_triple"),
    ("theory", "elsner_bound"),
    ("angles", "subspace_angle"),
    ("angles", "vector_angle"),
    ("subspace", "perturbed_subspace"),
    ("mmio", "read_matrix_market"),
    ("cli", "main"),
    ("study", "run_study"),
)

#: Counters taken from a traced call's arguments or result.
EXTRA_COUNTERS = {
    "mmio.read_matrix_market": ("mmio.read_matrix_market.bytes", lambda args, out: os.path.getsize(args[0])),
    "study.run_study": ("study.run_study.rows", lambda args, out: len(out[0])),
}

LAPACK_COUNTERS = (
    "kernels.lapack_svd.calls",
    "kernels.lapack_svd.mflop",
    "kernels.lapack_eig.calls",
    "kernels.lapack_eig.mflop",
    "kernels.lapack_lu.calls",
    "kernels.lapack_qr.calls",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    for suffix, u in ((".calls", "count"), (".rows", "count"), (".bytes", "bytes"), (".mflop", "Mflop")):
        if metric.endswith(suffix):
            return u
    return "ms"


def _complex_factor(a) -> int:
    # A complex multiply-add costs four real ones.
    return 4 if np.iscomplexobj(a) else 1


def _svd_flops(a, full_matrices=True, compute_uv=True, **_) -> float:
    """Golub & Van Loan (4th ed., Table 8.6.1) counts for the Golub-Reinsch SVD."""
    rows, cols = np.shape(a)[-2:]
    big, small = max(rows, cols), min(rows, cols)
    if not compute_uv:
        real = 4 * big * small**2 - 4 * small**3 / 3
    elif full_matrices:
        real = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        real = 14 * big * small**2 + 8 * small**3
    return real * _complex_factor(a)


def _eig_flops(a) -> float:
    """Hessenberg QR with eigenvectors: about 25 n^3 (Golub & Van Loan, 7.5.6)."""
    return 25 * np.shape(a)[-1] ** 3 * _complex_factor(a)


def _eigh_flops(a, vectors: bool) -> float:
    """Symmetric QR: 4n^3/3 for values, about 9 n^3 with vectors (8.3)."""
    n = np.shape(a)[-1]
    return (9 * n**3 if vectors else 4 * n**3 / 3) * _complex_factor(a)


PACKAGE = "qritz"


class Tracer:
    """Spans and counters for the traced calls of one benchmark run."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_self_s: dict[int, float] = defaultdict(float)
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # filled on exit, keeps ids in start order

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self.stack[-1][3] if self.stack else None
        if self.stack:
            self.stack[-1][2] += duration
        else:
            # The self times of a span tree add up to its root's duration.
            self.op_self_s[self.op] += duration
        self.spans[span_id] = (self.op, span_id, parent, name, start, end)

    def _span(self, name: str, fn):
        extra = EXTRA_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if extra is not None:
                self.counters[extra[0]] += extra[1](args, out)
            return out

        return traced

    def _count(self, kind: str, fn, flops=None):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                self.counters[f"kernels.lapack_{kind}.calls"] += 1
                if flops is not None:
                    self.counters[f"kernels.lapack_{kind}.mflop"] += flops(*args, **kwargs) / 1e6
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target and rebind each name wherever it was imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            if isinstance(original, type):
                self._set(original, "__init__", self._span(name, original.__init__))
            else:
                wrappers[id(original)] = self._span(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        svd = np_linalg_impl.svd
        counted_svd = self._count("svd", svd, _svd_flops)
        self._set(np.linalg, "svd", counted_svd)
        self._set(np_linalg_impl, "svd", counted_svd)  # reached by np.linalg.norm(a, 2)
        self._set(np.linalg, "eig", self._count("eig", np.linalg.eig, _eig_flops))
        self._set(np.linalg, "eigh", self._count("eig", np.linalg.eigh, lambda a, *_, **__: _eigh_flops(a, True)))
        self._set(np.linalg, "eigvalsh", self._count("eig", np.linalg.eigvalsh, lambda a, *_, **__: _eigh_flops(a, False)))
        self._set(np.linalg, "qr", self._count("qr", np.linalg.qr))
        self._set(scipy.linalg, "lu_factor", self._count("lu", scipy.linalg.lu_factor))

    def uninstall(self) -> None:
        """Restore every patched attribute, in reverse order."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        if self.stack:
            raise RuntimeError(f"spans left open: {[s[0] for s in self.stack]}")

    # -- results ----------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, float]:
        """Calls, self milliseconds and counters, each divided by ``ops``."""
        out = {}
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = self.calls.get(name, 0) / ops
            out[f"{name}.self_ms"] = 1e3 * self.self_s.get(name, 0.0) / ops
        for key in (*LAPACK_COUNTERS, *(c for c, _ in EXTRA_COUNTERS.values())):
            out[key] = self.counters.get(key, 0.0) / ops
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
