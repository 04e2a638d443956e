"""Run the benchmark several times and print every metric.

    python3 qmbench/report.py              # 3 untraced runs per workload
    python3 qmbench/report.py --runs 10

Every workload of BENCHMARK.json runs ``--runs`` times untraced, with
seeds 1, 2, ..., and once traced with seed 1, each for the
``run_seconds`` of BENCHMARK.json.  For each workload it prints every
end-to-end metric with its unit, its sample count per run, the median
over the untraced runs, the quartiles, the spread (interquartile range
over median, from ``statistics.quantiles(values, n=4)``) and the bound
from BENCHMARK.json, flagging a spread above its bound; then every
per-layer metric of the traced run with its unit and sample count.
The machine-speed probe ``machine.ref_ms`` is shown beside them so that
a host that changed speed can be told from a program that did.
Exits 1 if any run was incorrect or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _ref_ms(run: dict) -> float:
    ref = run["detail"]["machine.ref_ms"]
    return statistics.median([ref["before"], ref["after"]])


def _n_range(runs, name: str) -> str:
    counts = [r["detail"]["samples"][name] for r in runs]
    lo, hi = min(counts), max(counts)
    return str(lo) if lo == hi else f"{lo}-{hi}"


def summarize(runs, spec, out=sys.stdout) -> bool:
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        bad = [r["seed"] for r in plain + traced if not r["result"]["correct"]]
        ok &= not bad
        print(f"\n== {workload}: {len(plain)} untraced runs, {len(traced)} traced"
              + (f"; INCORRECT seeds {bad}" if bad else ""), file=out)
        print(f"   machine.ref_ms median "
              f"{statistics.median(_ref_ms(r) for r in plain + traced):.3f} ms",
              file=out)
        print(f"   {'metric':14s} {'unit':9s} {'n/run':>8s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}", file=out)
        for name, m in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            med, q1, q3, sp = spread(values)
            flag = ""
            if sp > m["bound"]:
                flag = "  SPREAD ABOVE BOUND"
                ok = False
            print(f"   {name:14s} {m['unit']:9s} {_n_range(plain, name):>8s} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                  f"{m['bound']:6.3f}{flag}", file=out)
        for run in traced:
            print(f"   per-layer, traced run seed {run['seed']}:", file=out)
            for m in spec["per_layer"]:
                value = run["result"]["metrics"][m["name"]]["value"]
                n = run["detail"]["samples"][m["name"]]
                print(f"   {m['name']:52s} {value:12.6g} {m['unit']:10s} n={n}",
                      file=out)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (default 3)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    spec = load_spec()

    runs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        plan = [(seed, 0) for seed in range(1, args.runs + 1)] + [(1, 1)]
        for seed, trace in plan:
            run = run_once(workload, seed, spec["run_seconds"], trace)
            runs.append(run)
            print(f"{workload} seed {seed} trace {trace}: "
                  f"correct={run['result']['correct']} "
                  f"attempted={run['result']['attempted']}", flush=True)
    return 0 if summarize(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
