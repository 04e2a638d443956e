"""The traced run: per-layer metrics of one workload.

Order of a traced run:

1. one untimed warm-up job;
2. the window, in which every other job runs with every layer function
   wrapped in spans (``tracing.Tracer``, installed before and removed
   after each traced job).  The traced jobs give each layer's self
   share, calls and failures on this workload; traced against untraced
   job time gives ``trace.overhead_frac``.  Alternating, rather than
   tracing one part of the window, lets both halves see the same host
   speed;
3. one battery job of each of the three workloads, traced, so that
   every per-layer rate has calls to measure on every workload;
4. untraced extras: the aliasing L1 of the transition density and the
   ``tracemalloc`` peak of a steps=100 endpoint draw.

Rates (ns per point, ms per call, ...) are taken over every traced call
of the run, steps 2 and 3.  Counts that must repeat exactly for a given
seed (kernel evaluations per u, jump cells, bytes written) are taken
from the battery jobs, whose inputs depend on the seed alone.  Quality
numbers are maxima over every job of the run.  ``cli.<command>.ms`` is
timed on untraced jobs only: on ``readme_cli`` the untraced jobs of the
window, elsewhere one untraced ``readme_cli`` battery job.  Every metric
carries the number of samples it was taken over.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import statistics
import tracemalloc

import numpy as np

from levyqm import densities, exponents, sampler

import machine
from jobs import Loop, MonteCarlo
from tracing import LAYERS, Tracer

BATTERY_INDEX = 0
ALIAS_DTS = {"dt_1": 1.0, "dt_1e-2": 1e-2}
ALIAS_WIDEN = 16
# flops per grid point per kernel cell of the explicit jump step:
# two complex adds (rolled pair), one complex-by-real scale, one complex
# subtract, one complex-by-real weight and one complex accumulate
JUMP_FLOPS_PER_CELL_POINT = 10


def aliased_l1(dt: float) -> float:
    """L1 distance of the default-grid density from the same density on a
    grid ALIAS_WIDEN times wider with the same dx."""
    p = exponents.ExponentParams.from_mass(1.0)
    eta = exponents.LogCharacteristic.relativistic(p)
    grid = densities.default_grid(p, dt)
    wide = densities.GridSpec(n=ALIAS_WIDEN * grid.n, dx=grid.dx)
    narrow = densities.transition_density(dt, p, eta, grid).values
    full = densities.transition_density(dt, p, eta, wide).values
    lo = (wide.n - grid.n) // 2
    inside = full[lo:lo + grid.n]
    outside = full.sum() - inside.sum()
    return float((np.abs(narrow - inside).sum() + outside) * grid.dx)


def endpoints_peak_mb(n_paths: int, steps: int) -> float:
    p = exponents.ExponentParams.from_mass(1.0)
    tracemalloc.start()
    try:
        sampler.sample_endpoints(1.0, p, sampler.SeededGenerator(0, 0),
                                 n_paths, steps=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _per_call(stats, name: str, scale: float, unit: str) -> tuple:
    st = stats[name]
    return scale * st.total / st.calls, unit, st.calls


def _per_work(stats, name: str, bucket: str, scale: float, unit: str) -> tuple:
    work, secs = stats[name].buckets[bucket]
    return scale * secs / work, unit, stats[name].calls


def _worst(results, key: str, unit: str) -> tuple:
    return max(r[key] for r in results), unit, len(results)


def measure(args, workloads: dict, workdir) -> tuple:
    loops = {name: Loop(cls(args.seed, workdir)) for name, cls in workloads.items()}
    main = loops[args.workload]
    warm_ok = main.job(0)
    ref_before = machine.ref_ms()

    tracer = Tracer()
    turn = itertools.count()
    untraced_results = []

    @contextlib.contextmanager
    def every_other_job_traced():
        if next(turn) % 2 == 0:
            done = len(main.results)
            yield
            untraced_results.extend(main.results[done:])
            return
        tracer.install()
        try:
            with tracer.job():
                yield
        finally:
            tracer.uninstall()

    main.latencies_ms.clear()
    ran, passed, _ = main.window(1, args.seconds, around=every_other_job_traced,
                                 min_jobs=2)
    untraced, traced = main.latencies_ms[0::2], main.latencies_ms[1::2]
    untraced_ms, traced_ms = statistics.median(untraced), statistics.median(traced)
    window = {name: copy.deepcopy(st) for name, st in tracer.stats.items()}
    window_job_time, window_jobs = tracer.job_time, tracer.jobs

    tracer.install()
    try:
        battery = {}
        for name, loop in loops.items():
            with tracer.job():
                ok = loop.job(BATTERY_INDEX)
            battery[name] = loop.results[-1] if ok else None
    finally:
        tracer.uninstall()
    cli_results = untraced_results
    if args.workload != "readme_cli":
        cli_loop = loops["readme_cli"]
        cli_results = [cli_loop.results[-1]] if cli_loop.job(BATTERY_INDEX) else []
    ref_after = machine.ref_ms()

    metrics = {}
    stats = tracer.stats

    # -- shares, calls and failures of this workload's traced jobs -------
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    failed = {layer: 0 for layer in LAYERS}
    for name, st in window.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] += st.self_time
        calls[layer] += st.calls
        failed[layer] += st.failed
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self[layer] / window_job_time,
                                          "fraction", window_jobs)
        metrics[f"{layer}.calls"] = (calls[layer] / window_jobs, "calls/job",
                                     window_jobs)
        metrics[f"{layer}.failed"] = (failed[layer], "count", window_jobs)
    metrics["trace.unattributed_share"] = (
        1.0 - sum(layer_self.values()) / window_job_time, "fraction", window_jobs)
    metrics["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "fraction",
                                      ran)

    # -- rates over every traced call ----------------------------------
    results = {name: loop.results for name, loop in loops.items()}
    jp, mc, rc = (battery["jump_picture"], battery["monte_carlo"],
                  battery["readme_cli"])
    if None in (jp, mc, rc):
        raise RuntimeError("a battery job failed; see the failures above")

    tdp = stats["densities.transition_density"]
    metrics.update({
        "exponents.eta_from_triplet.ms_per_u":
            _per_call(stats, "exponents.eta_from_triplet", 1e3, "ms"),
        "exponents.eta_from_triplet.kernel_evals_per_u":
            (jp["kernel_evals"] / jp["u_count"], "count", 1),
        "exponents.bessel_k.ns_per_point":
            _per_work(stats, "exponents.bessel_k", "array", 1e9, "ns"),
        "exponents.lk_rel_err_max":
            _worst(results["jump_picture"], "lk_rel_err", "ratio"),
        "densities.levy_density_1d.ns_per_point":
            _per_work(stats, "densities.levy_density_1d", "array", 1e9, "ns"),
        "densities.levy_density_3d.ns_per_point":
            _per_work(stats, "densities.levy_density_3d", "array", 1e9, "ns"),
        "densities.transition_density.ms_per_call":
            _per_call(stats, "densities.transition_density", 1e3, "ms"),
        "densities.transition_density.grid_points":
            (tdp.buckets["all"][0] / tdp.calls, "count", tdp.calls),
        "evolution.evolve_jump_quadrature.ms_per_step":
            _per_call(stats, "evolution.evolve_jump_quadrature", 1e3, "ms"),
        "evolution.jump_cells": (jp["jump_cells"], "count", 1),
        "evolution.jump_flop_computed":
            (JUMP_FLOPS_PER_CELL_POINT * jp["jump_cells"] * jp["jump_n"],
             "flop/step", 1),
        "evolution.evolve_spectral.us_per_step":
            _per_call(stats, "evolution.evolve_spectral", 1e6, "us"),
        "evolution.evolve_modified.us_per_step":
            _per_call(stats, "evolution.evolve_modified", 1e6, "us"),
        "evolution.observables.us_per_call":
            _per_call(stats, "evolution.observables", 1e6, "us"),
        "evolution.jump_vs_spectral_l2":
            _worst(results["jump_picture"], "jump_l2", "L2"),
        "spectrum.masses_from_lambdas.us_per_call":
            _per_call(stats, "spectrum.masses_from_lambdas", 1e6, "us"),
        "spectrum.mass_roundtrip_rel_err":
            _worst(results["readme_cli"], "mass_roundtrip_rel_err", "ratio"),
        "propagators.find_poles.us_per_call":
            _per_call(stats, "propagators.find_poles", 1e6, "us"),
        "propagators.loop_integral.ms_per_call":
            _per_call(stats, "propagators.loop_integral", 1e3, "ms"),
        "propagators.residue_mismatch_max":
            _worst(results["readme_cli"], "residue_mismatch", "ratio"),
        "sampler.sample_endpoints.ns_per_increment.steps100":
            _per_work(stats, "sampler.sample_endpoints", "steps100", 1e9, "ns"),
        "sampler.sample_endpoints.ns_per_increment.steps1":
            _per_work(stats, "sampler.sample_endpoints", "steps1", 1e9, "ns"),
        "sampler.sample_path.us_per_path":
            _per_call(stats, "sampler.sample_path", 1e6, "us"),
        "sampler.ks_validate.ms_per_call":
            _per_call(stats, "sampler.ks_validate", 1e3, "ms"),
        "sampler.ks_d_over_crit_max":
            _worst(results["monte_carlo"] + results["readme_cli"],
                   "ks_d_over_crit", "ratio"),
        "cli.write_csv.ns_per_value":
            _per_work(stats, "cli.write_csv", "all", 1e9, "ns"),
        "cli.bytes_written": (rc["bytes_written"], "bytes/job", 1),
    })
    for label in rc["command_ms"]:
        metrics[f"cli.{label}.ms"] = (statistics.median(
            r["command_ms"][label] for r in cli_results), "ms", len(cli_results))

    # -- untraced extras --------------------------------------------------
    for key, dt in ALIAS_DTS.items():
        metrics[f"densities.aliased_l1.{key}"] = (aliased_l1(dt), "L1", 1)
    metrics["sampler.sample_endpoints.peak_mb.steps100"] = (
        endpoints_peak_mb(MonteCarlo.PATHS_STEPS100, 100), "MB", 1)
    metrics["machine.ref_ms"] = (statistics.median([ref_before, ref_after]),
                                 "ms", 2)

    failures = [f for loop in loops.values() for f in loop.failures]
    detail = {
        "job_ms_p50": {"untraced": untraced_ms, "traced": traced_ms},
        "job_ms_p90": {"untraced": float(np.percentile(untraced, 90)),
                       "traced": float(np.percentile(traced, 90))},
        "machine.ref_ms": {"before": ref_before, "after": ref_after},
        "failures": failures[:5],
    }
    correct = warm_ok and passed == ran and not failures
    return correct, ran, ran - passed, metrics, detail
