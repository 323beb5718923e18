"""Run-to-run spread of the end-to-end metrics, one run per seed.

Usage, from the root of a checkout:

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload W ...] [--out FILE]

Runs the command of ``BENCHMARK.json`` once per seed and workload with
``--trace 0`` and reports, per metric, the median and the interquartile
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound.  A spread under a third of the bound is marked
steady.  ``--out`` writes the figures, the run environment and the CPU model
as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, dict, float]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    return result, env, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"runs": args.runs, "first_seed": args.first_seed, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {k: [] for k in bounds}
        walls, failed, env = [], 0, {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, wall = run_once(spec, workload, seed)
            walls.append(wall)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for k in bounds:
                values[k].append(result["metrics"][k]["value"])
        print(f"{workload}: {args.runs} runs, failures {failed}, wall per run "
              f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        figures = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            ok = share < bounds[k] / 3 or k == "setup_s"
            steady &= ok
            figures[k] = {"median": med, "q1": q1, "q3": q3, "spread": share, "bound": bounds[k],
                          "values": vs}
            print(f"  {k:16s} median {med:12.6g}  spread {share:7.2%}  bound {bounds[k]:5.0%}"
                  f"  {'steady' if ok else 'NOT STEADY'}")
        report["workloads"][workload] = {"figures": figures, "failures": failed,
                                         "wall_s_median": statistics.median(walls),
                                         "wall_s_max": max(walls)}
        report["environment"] = {**env, "cpu_model": cpu_model()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
