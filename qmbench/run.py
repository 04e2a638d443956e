"""levyqm benchmark: one workload, a closed loop with one client.

    python3 qmbench/run.py --workload jump_picture --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the library is imported from
its ``src`` directory.  With ``--trace 0`` the run measures the
end-to-end metrics: one untimed warm-up job, then jobs back to back for
``--seconds``, split into equal segments with a fresh-interpreter
set-up probe before each, so that the median set-up time samples the
host's speed across the whole run.  With ``--trace 1`` it measures the
per-layer metrics instead (see ``layers.py``).  Every job is checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the line
before it holds the run's details (machine facts, the sample count of
every metric, the machine-speed probe, failures).

BLAS and OpenMP pools are pinned to one thread before numpy is
imported: OpenBLAS otherwise spreads ``bessel_k``'s trapezoid matmul
over both cores and its run-to-run spread quadruples.
"""

import os

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".qmbench_tmp"
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120.0


def bootstrap() -> None:
    """Import levyqm from this checkout's sources, or stop."""
    if not (SRC / "levyqm" / "__init__.py").is_file():
        sys.exit(f"error: no levyqm sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first checked job."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload",
           workload, "--seed", str(seed), "--workdir", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ok" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip() or proc.returncode}")
    return elapsed


def run_probe(args) -> int:
    bootstrap()
    from jobs import WORKLOADS, Loop
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    if not Loop(workload).job(0):
        print("fail", flush=True)
        return 1
    print("ok", flush=True)
    return 0


def measure_end_to_end(args, workload_cls, workdir: Path) -> tuple:
    import numpy as np

    import machine
    from jobs import Loop

    loop = Loop(workload_cls(args.seed, workdir))
    warm_ok = loop.job(0)
    ref_before = machine.ref_ms()
    loop.latencies_ms.clear()
    setup = []
    probe_error = None
    ran = passed = 0
    wall = 0.0
    for k in range(SETUP_PROBES):
        if probe_error is None:
            probe_dir = workdir / f"probe{k}"
            probe_dir.mkdir()
            try:
                setup.append(setup_probe(args.workload, args.seed, probe_dir))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                probe_error = str(exc)
        seg_ran, seg_passed, seg_wall = loop.window(1 + ran,
                                                    args.seconds / SETUP_PROBES)
        ran += seg_ran
        passed += seg_passed
        wall += seg_wall
    ref_after = machine.ref_ms()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    lat = loop.latencies_ms
    metrics = {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s", len(setup)),
        "jobs_per_s": (passed / wall, "1/s", ran),
        "job_ms_p50": (float(np.percentile(lat, 50)), "ms", len(lat)),
        "job_ms_p90": (float(np.percentile(lat, 90)), "ms", len(lat)),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB", 1),
        "success_frac": (passed / ran, "fraction", ran),
    }
    detail = {
        "setup_s_probes": setup,
        "machine.ref_ms": {"before": ref_before, "after": ref_after},
        "failures": loop.failures[:5] + ([probe_error] if probe_error else []),
    }
    correct = warm_ok and probe_error is None and passed == ran
    return correct, ran, ran - passed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.probe:
        return run_probe(args)

    bootstrap()
    import machine
    from jobs import WORKLOADS

    facts = machine.facts(SRC)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            import layers
            correct, ran, failed, metrics, detail = layers.measure(
                args, WORKLOADS, workdir)
        else:
            correct, ran, failed, metrics, detail = measure_end_to_end(
                args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts,
              "samples": {name: n for name, (_, _, n) in metrics.items()},
              **detail}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct), "attempted": ran, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
