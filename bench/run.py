"""Benchmark of the ``qritz`` package checked out next to this directory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {study,extract,files} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

The package is imported from ``<checkout>/src`` by absolute path; it need
not be installed.  BLAS threads are pinned before numpy is imported.

One run sets the workload up several times (see ``SETUP_*``; it reports the
median), runs one warm-up operation, then calls the operation in a closed loop with
one caller for ``--seconds`` seconds, checking every output.  Time metrics
are calibrated (see ``calibration.py``): a fixed kernel timed around every
interval rescales it to a reference host speed, so that the host's speed
swings cancel; the raw medians are printed on the ``detail`` line.

With ``--trace 0`` the loop also times subprocess runs of
``python -m qritz example31``, spread evenly over the timed phase so that
they meet the same machine load as the operations, and the run reports the
end-to-end metrics.  With
``--trace 1`` every second operation runs under the tracer (see
``tracer.py``) and the run reports per-operation calls, self times and
factorization counts of each layer, plus the tracing overhead; the spans
are written to ``.bench_work/spans-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the warm-up operation, the timed operations and the cold starts; an
attempt fails when it raises, exits non-zero or misses a check.  A line
``detail {...}`` before it gives the tail percentile and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: BLAS threads.  One, not nproc: on two shared cores OpenBLAS threading made
#: the n=100 study operation 2.7x slower and its timings noisier.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up runs at least this many times and for at least this long (capped),
#: so cheap set-ups get enough samples for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15

#: One cold-start sample per this many seconds of the timed phase (at least one).
COLD_INTERVAL_S = 2.5

#: Index of the untimed warm-up operation, outside the timed range.
WARMUP_INDEX = 2**31 - 1

#: The tail percentile is the highest with at least this many samples beyond it.
TAIL_BEYOND = 10

UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "fail_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}

#: End-to-end metrics in the result line; fail_ratio is 0 on a correct run,
#: so it is printed but carried by ``attempted`` and ``failed`` instead.
RESULT_METRICS = ("op_p50_ms", "op_tail_ms", "ops_per_s", "setup_s", "peak_rss_mb", "cold_start_ms")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("study", "extract", "files"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_blas_threads() -> int:
    threads = min(len(os.sched_getaffinity(0)), BLAS_THREADS)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value.

    With too few samples for that, the maximum (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def setup_done(setups: list[float], trace: int) -> bool:
    """A traced run sets up once; it reports no set-up time."""
    if trace or len(setups) >= SETUP_MAX_REPEATS:
        return bool(setups)
    return len(setups) >= SETUP_MIN_REPEATS and sum(setups) >= SETUP_MIN_SECONDS


def run_op(w, i: int, failures: list[str]) -> tuple[float, bool]:
    """Time one operation and check its output; returns (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        out = w.op(i)
    except Exception:  # a failing operation is counted, and the loop goes on
        seconds = time.perf_counter() - t0
        failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        return seconds, False
    seconds = time.perf_counter() - t0
    bad = w.check(i, out)
    failures.extend(f"op {i}: {b}" for b in bad)
    return seconds, not bad


def cold_start(workdir: Path, failures: list[str]) -> tuple[float, bool]:
    """Wall time of one ``python -m qritz example31`` subprocess and its check."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qritz", "example31"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - t0
    ok = proc.returncode == 0 and re.search(r"^all \d+ checks passed$", proc.stdout, re.M)
    if not ok:
        failures.append(f"cold start: exit {proc.returncode}: {proc.stdout[-200:]}{proc.stderr[-400:]}")
    return seconds, bool(ok)


class Samples:
    """Measured seconds of one kind of interval, raw and calibrated."""

    def __init__(self):
        self.raw: list[float] = []
        self.cal: list[float] = []

    def add(self, seconds: float, scale: float) -> None:
        self.raw.append(seconds)
        self.cal.append(seconds * scale)


def measure(args, workdir: Path) -> dict:
    import calibration
    import tracer
    import workloads

    w = workloads.make(args.workload, args.seed, args.size, workdir)
    cal = calibration.Calibration()
    failures: list[str] = []
    setups = Samples()
    while not setup_done(setups.raw, args.trace):
        t0 = time.perf_counter()
        w.setup()
        setups.add(time.perf_counter() - t0, cal.scale())
    attempted = 1
    _, ok = run_op(w, WARMUP_INDEX, failures)
    cal.scale()
    failed = 0 if ok else 1

    tr = tracer.Tracer() if args.trace else None
    plain, traced, colds = Samples(), Samples(), Samples()
    self_sums = []

    def sample_cold_start():
        nonlocal attempted, failed
        seconds, ok = cold_start(workdir, failures)
        colds.add(seconds, cal.scale())
        attempted += 1
        failed += 0 if ok else 1

    n_cold = 0 if args.trace else max(1, int(args.seconds // COLD_INTERVAL_S))
    if n_cold:
        cold_start(workdir, failures)  # fills the page cache; not timed
        cal.scale()
    start = time.perf_counter()
    cold_due = [start + (k + 0.5) * args.seconds / n_cold for k in range(n_cold)]
    i = 0
    while time.perf_counter() - start < args.seconds or (tr is not None and not traced.raw):
        if cold_due and time.perf_counter() >= cold_due[0]:
            cold_due.pop(0)
            sample_cold_start()
            continue
        under_trace = tr is not None and i % 2 == 1
        if under_trace:
            tr.op = i
            tr.install()
        try:
            seconds, ok = run_op(w, i, failures)
        finally:
            if under_trace:
                tr.uninstall()
        (traced if under_trace else plain).add(seconds if ok else float("inf"), cal.scale())
        attempted += 1
        failed += 0 if ok else 1
        if under_trace:
            self_sums.append(tr.op_self_s[i])
        i += 1
    for _ in cold_due:
        sample_cold_start()

    result = {"ops": plain, "cold": colds, "setups": setups, "calibration": cal.samples,
              "attempted": attempted, "failed": failed, "failures": failures}
    if tr is not None:
        WORK.mkdir(exist_ok=True)
        tr.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        layers = tr.per_op(max(len(traced.raw), 1))
        # Self times are raw, so the traced operation they add up to is too.
        layers["trace.op_p50_ms"] = 1e3 * statistics.median(traced.raw)
        layers["trace.self_sum_ms"] = 1e3 * statistics.median(self_sums)
        # Calibrated, so a change of host speed between operations cancels.
        layers["trace.overhead_ms"] = 1e3 * (statistics.median(traced.cal) - statistics.median(plain.cal))
        result["layers"] = layers
    return result


def end_to_end(r: dict) -> tuple[dict, dict]:
    ops, cold, setups = r["ops"], r["cold"], r["setups"]
    pct, tail_s = tail(ops.cal)
    good = [t for t in ops.cal if t != float("inf")]
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(ops.cal),
        "op_tail_ms": 1e3 * tail_s,
        "ops_per_s": len(good) / sum(good) if good else 0.0,
        "fail_ratio": r["failed"] / r["attempted"],
        "setup_s": statistics.median(setups.cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_start_ms": 1e3 * statistics.median(cold.cal),
    }
    detail = {
        "op_tail_percentile": round(pct, 2),
        "op_samples": len(ops.cal),
        "setup_samples": len(setups.cal),
        "cold_start_samples": len(cold.cal),
        "raw_op_p50_ms": 1e3 * statistics.median(ops.raw),
        "raw_op_tail_ms": 1e3 * tail(ops.raw)[1],
        "raw_setup_s": statistics.median(setups.raw),
        "raw_cold_start_ms": 1e3 * statistics.median(cold.raw),
        "calibration_ms_median": 1e3 * statistics.median(r["calibration"]),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "qritz" / "__init__.py").is_file():
        print(f"bench: no qritz package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qritz

    if Path(qritz.__file__).resolve().parent != SRC / "qritz":
        print(f"bench: imported qritz from {qritz.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        r = measure(args, workdir)
    finally:
        shutil.rmtree(workdir)

    for line in r["failures"][:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    sizes = workloads.SIZES[args.size][args.workload]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"size={args.size} " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    print("env " + json.dumps(environment(threads)))
    if args.trace:
        import tracer

        metrics = shown = r["layers"]
        units = {k: tracer.unit(k) for k in metrics}
    else:
        shown, detail = end_to_end(r)
        units = UNITS
        metrics = {k: shown[k] for k in RESULT_METRICS}
        print("detail " + json.dumps(detail))
    for k, v in shown.items():
        print(f"{k:40s} {v:14.6g} {units[k]}")
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
