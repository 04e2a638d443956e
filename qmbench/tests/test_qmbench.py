"""The benchmark's own tests: smoke runs, output contract, and checks
that catch wrong results, not only raised exceptions.

    python3 -m pytest qmbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyqm.cli
from levyqm import densities, evolution, exponents, sampler

import jobs
from jobs import CheckFailed, JumpPicture, Loop, MonteCarlo, ReadmeCli
from tracing import Tracer

BENCH = Path(jobs.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "qmbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample_counts(proc):
    return json.loads(proc.stdout.strip().splitlines()[-2])["detail"]["samples"]


# -- smoke runs and the output contract --------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert out["metrics"]["success_frac"]["value"] == 1.0
    samples = sample_counts(proc)
    assert set(samples) == set(out["metrics"])
    assert samples["job_ms_p50"] == out["attempted"]
    assert samples["setup_s"] == 8


def test_smoke_traced():
    proc = run_bench("--workload", "monte_carlo", "--seed", "3", "--seconds",
                     "0.6", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in out["metrics"].items())
    shares = sum(v["value"] for k, v in out["metrics"].items()
                 if k.endswith("_share"))
    assert shares == pytest.approx(1.0)
    assert out["metrics"]["sampler.self_share"]["value"] > 0.8
    samples = sample_counts(proc)
    assert set(samples) == set(out["metrics"])
    assert all(n >= 1 for n in samples.values())
    # untraced readme_cli battery job only
    assert samples["cli.simulate.ms"] == 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "qmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "jump_picture", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- inputs --------------------------------------------------------------------

def test_inputs_depend_on_seed_and_index_only(tmp_path):
    def argv(seed, index):
        preset, commands = ReadmeCli(seed, tmp_path).commands(index)
        return preset, [c[1] for c in commands]

    assert argv(5, 7) == argv(5, 7)
    assert len({str(argv(5, i)) for i in range(12)}) > 1
    first = MonteCarlo(5).run(2)
    assert MonteCarlo(5).run(2) == first
    assert MonteCarlo(6).run(2) != first


def test_ks_critical_value_is_the_1e6_quantile():
    # 2 exp(-2 x^2) = 1e-6 at x = 2.69
    assert 2.0 * np.exp(-2.0 * 2.69 ** 2) == pytest.approx(1e-6, rel=0.05)
    assert jobs.ks_critical(10_000) == pytest.approx(0.0269)


# -- wrong results count against success_frac ---------------------------------

def test_scaled_sampler_output_fails_ks(monkeypatch):
    draw = sampler.sample_endpoints
    monkeypatch.setattr(sampler, "sample_endpoints",
                        lambda *a, **k: 1.1 * draw(*a, **k))
    loop = Loop(MonteCarlo(1))
    ran, passed, _ = loop.window(0, 0.0)
    assert (ran, passed) == (1, 0)
    assert "KS" in loop.failures[0] and "CheckFailed" in loop.failures[0]


def test_perturbed_eta_fails_the_lk_check(monkeypatch):
    lk = exponents.eta_from_triplet
    monkeypatch.setattr(exponents, "eta_from_triplet",
                        lambda *a, **k: lk(*a, **k) * (1.0 + 2e-4))
    with pytest.raises(CheckFailed, match="LK"):
        JumpPicture(1).run(0)


def test_perturbed_jump_step_fails_against_spectral(monkeypatch):
    step = evolution.evolve_jump_quadrature

    def off_by_a_bit(psi, dt, params):
        new, report = step(psi, dt, params)
        shifted = np.roll(new.values, 1)
        return evolution.WaveFunction.from_samples(psi.grid, shifted), report

    monkeypatch.setattr(evolution, "evolve_jump_quadrature", off_by_a_bit)
    with pytest.raises(CheckFailed, match="jump-vs-spectral"):
        JumpPicture(1).run(0)


def test_cli_simulate_ks_is_recomputed_at_1e6(monkeypatch, tmp_path):
    draw = levyqm.cli.sample_endpoints
    monkeypatch.setattr(levyqm.cli, "sample_endpoints",
                        lambda *a, **k: 1.1 * draw(*a, **k))
    with pytest.raises(CheckFailed, match="simulate: KS"):
        ReadmeCli(1, tmp_path).run(0)


def test_cli_rerun_with_different_bytes_fails(monkeypatch, tmp_path):
    workload = ReadmeCli(1, tmp_path)
    workload.run(0)
    draw = levyqm.cli.sample_endpoints
    monkeypatch.setattr(levyqm.cli, "sample_endpoints",
                        lambda *a, **k: draw(*a, **k) * (1.0 + 1e-15))
    with pytest.raises(CheckFailed, match="simulate: CSV bytes differ"):
        workload.run(0)


def test_raising_job_is_a_failed_job(monkeypatch):
    def broken(*a, **k):
        raise densities.GridError("injected")

    monkeypatch.setattr(densities, "transition_density", broken)
    loop = Loop(MonteCarlo(1))
    ran, passed, _ = loop.window(0, 0.0)
    assert (ran, passed) == (1, 0)
    assert "GridError: injected" in loop.failures[0]


# -- tracing -------------------------------------------------------------------

def test_tracer_splits_a_call_into_layer_self_times():
    original = densities.levy_density_1d
    params = exponents.ExponentParams.from_mass(1.0)
    tracer = Tracer()
    tracer.install()
    try:
        assert levyqm.densities.levy_density_1d is not original
        assert levyqm.levy_density_1d is levyqm.densities.levy_density_1d
        with tracer.job():
            densities.levy_density_1d(np.linspace(0.5, 2.0, 64), params)
    finally:
        tracer.uninstall()
    assert densities.levy_density_1d is original
    outer = tracer.stats["densities.levy_density_1d"]
    inner = tracer.stats["exponents.bessel_k"]
    assert outer.calls == inner.calls == 1
    assert outer.buckets["array"][0] == inner.buckets["array"][0] == 64
    assert outer.self_time == pytest.approx(outer.total - inner.total)
    assert outer.self_time + inner.self_time <= tracer.job_time

