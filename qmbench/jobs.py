"""The three benchmark workloads: one kind of checked job each.

A workload object is built once per run with the workload seed and a
scratch directory.  ``run(index)`` performs job ``index``: it derives
every input and every Philox ``(seed, stream)`` key from the workload
seed and the job index, calls the library, checks every result and
returns the job's diagnostics.  A check that does not hold raises
``CheckFailed``; the runner counts that job, like one that raises any
other exception, as failed.

Library calls go through module attributes (``densities.transition_density``
and so on) so that the tracer's wrappers, installed on those attributes,
see them.

Tolerances are those of the acceptance suite (LK 1e-4, jump-vs-spectral
L2 1e-5, poles and residues 1e-6, coefficient tables 5e-3, norm drift
1e-10, group velocity 1%), with one change: every KS test is judged at
a false-rejection rate of 1e-6, critical D = 2.69/sqrt(N), so that
correct code fails about once in a million checks rather than once in a
hundred.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import special

from levyqm import cli, densities, evolution, exponents, sampler
from levyqm.presets import PRESET_MASSES, PRESET_NAMES, REFERENCE_LAMBDAS

# sqrt(ln(2 / 1e-6) / 2): asymptotic one-sample KS quantile at alpha = 1e-6
KS_COEFF_1E6 = 2.69

LK_TOL = 1e-4
JUMP_L2_TOL = 1e-5
POLE_TOL = 1e-6
TABLE_TOL = 5e-3
NORM_DRIFT_TOL = 1e-10
VELOCITY_TOL = 0.01
# the in-repo K_n is documented to ~1e-13 and unit-tested at 1e-12 against scipy
KERNEL_TOL = 1e-10


class CheckFailed(AssertionError):
    """A job's output failed one of its checks."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def ks_critical(n: int) -> float:
    return KS_COEFF_1E6 / math.sqrt(n)


def job_seeds(seed: int, workload: str, index: int) -> np.random.SeedSequence:
    """Entropy for job ``index``: a pure function of its three arguments."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8], "little")
    return np.random.SeedSequence([seed, tag, index])


def philox_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def l2_distance(a, b, dx: float) -> float:
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * dx))


def ks_check(samples, table, label: str) -> float:
    """KS test at false-rejection 1e-6; returns D over its critical value."""
    rep = sampler.ks_validate(samples, table)
    ratio = rep.d / ks_critical(rep.n)
    check(ratio < 1.0, f"{label}: KS D={rep.d:.5f} >= {ks_critical(rep.n):.5f} "
                       f"at N={rep.n}")
    return ratio


class JumpPicture:
    """Jump picture: LK quadrature, kernel tables and the explicit jump step.

    Per job: eta(u) by the Levy-Khintchine quadrature at three seeded u,
    the 1D and 3D jump kernels on 2^13 seeded points each,
    and two explicit jump steps on n = 2048 from seeded packets, each
    checked against the exact spectral step.
    """

    name = "jump_picture"
    U_PER_JOB = 3
    TABLE_POINTS = 2 ** 13
    JUMP_STEPS = 2
    GRID = densities.GridSpec(n=2048, dx=0.05)

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.params = exponents.ExponentParams.from_mass(1.0)
        self.eta = exponents.LogCharacteristic.relativistic(self.params)
        self.kernel_evals = 0
        # the jump density counts its own calls: an exact count of the
        # kernel evaluations QUADPACK asks for
        self.triplet = exponents.LevyTriplet(jump_density=self._kernel,
                                             scale=self.params.a)
        self.quadrature = exponents.QuadratureSpec(tol=1e-9)

    def _kernel(self, x):
        self.kernel_evals += 1
        return densities.levy_density_1d(x, self.params)

    def run(self, index: int) -> dict:
        p = self.params
        a = p.a
        rng = np.random.default_rng(job_seeds(self.seed, self.name, index))
        us = rng.uniform(0.1, 0.5, self.U_PER_JOB) / a
        x1 = a * 10.0 ** rng.uniform(-3.0, math.log10(30.0), self.TABLE_POINTS)
        r3 = a * 10.0 ** rng.uniform(-3.0, math.log10(30.0), self.TABLE_POINTS)
        packets = [(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0),
                    rng.uniform(0.8, 1.5)) for _ in range(self.JUMP_STEPS)]

        lk_err = 0.0
        self.kernel_evals = 0
        for u in us:
            got = exponents.eta_from_triplet(float(u), self.triplet, self.quadrature)
            want = exponents.eta_relativistic(float(u), p)
            err = abs(got / want - 1.0)
            check(err < LK_TOL, f"LK eta({u:.4g}) relative error {err:.2e}")
            lk_err = max(lk_err, err)
        kernel_evals = self.kernel_evals

        w1 = densities.levy_density_1d(x1, p)
        w1_ref = special.k1(x1 / a) / (math.pi * x1)
        w3 = densities.levy_density_3d(r3, p)
        w3_ref = special.kn(2, r3 / a) / (2.0 * a * math.pi ** 2 * r3 ** 2)
        table_err = max(float(np.max(np.abs(w1 / w1_ref - 1.0))),
                        float(np.max(np.abs(w3 / w3_ref - 1.0))))
        check(table_err < KERNEL_TOL,
              f"jump-kernel table relative error {table_err:.2e}")

        dt = 1e-4 * p.tau
        jump_l2 = 0.0
        for x0, p0, sigma in packets:
            psi = evolution.gaussian_packet(x0, p0, sigma, self.GRID)
            jumped, report = evolution.evolve_jump_quadrature(psi, dt, p)
            exact = evolution.evolve_spectral(psi, dt, self.eta, p.tau)
            l2 = l2_distance(jumped.values, exact.values, self.GRID.dx)
            check(l2 < JUMP_L2_TOL, f"jump-vs-spectral L2 {l2:.2e}")
            jump_l2 = max(jump_l2, l2)

        return {"lk_rel_err": lk_err, "kernel_evals": kernel_evals,
                "u_count": len(us), "table_rel_err": table_err,
                "jump_l2": jump_l2, "jump_cells": report.cells,
                "jump_n": self.GRID.n}


class MonteCarlo:
    """Sampler law check: endpoints at steps=1 and steps=100, and paths.

    Per job: 7.5e4 endpoints at steps=1 and 2.5e4 at steps=100 (1e5 paths
    in all), each KS-checked against the transition density at the
    seeded horizon T on the default grid, and 200 ``sample_path``
    trajectories of 10 steps whose pooled increments are KS-checked
    against the density at T/10.
    """

    name = "monte_carlo"
    PATHS_STEPS1 = 75_000
    PATHS_STEPS100 = 25_000
    PATH_BATCH = 200
    PATH_STEPS = 10

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.params = exponents.ExponentParams.from_mass(1.0)
        self.eta = exponents.LogCharacteristic.relativistic(self.params)

    def reference(self, t: float):
        grid = densities.default_grid(self.params, t)
        return densities.transition_density(t, self.params, self.eta, grid)

    def run(self, index: int) -> dict:
        p = self.params
        ss = job_seeds(self.seed, self.name, index)
        rng = np.random.default_rng(ss)
        t = float(rng.uniform(0.5, 2.0))
        key = philox_seed(ss)
        table = self.reference(t)

        ends1 = sampler.sample_endpoints(
            t, p, sampler.SeededGenerator(key, 0), self.PATHS_STEPS1, steps=1)
        ends100 = sampler.sample_endpoints(
            t, p, sampler.SeededGenerator(key, 1), self.PATHS_STEPS100, steps=100)
        ratio = max(ks_check(ends1, table, "steps=1 endpoints"),
                    ks_check(ends100, table, "steps=100 endpoints"))

        gen = sampler.SeededGenerator(key, 2).generator()
        incs = []
        for _ in range(self.PATH_BATCH):
            path = sampler.sample_path(t, self.PATH_STEPS, p, gen)
            check(path.times[-1] == t, "path does not end at the horizon")
            incs.append(path.increments())
        ratio = max(ratio, ks_check(np.concatenate(incs),
                                    self.reference(t / self.PATH_STEPS),
                                    "sample_path increments"))
        return {"ks_d_over_crit": ratio, "horizon": t}


def _csv(path: Path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class ReadmeCli:
    """Every README command, in-process through ``cli.main``.

    The README's arguments, except two sizes: ``simulate --paths 20000``
    (README: 100000) and ``evolve --steps 50`` (README: 200), so that a
    job takes about 0.25 s and a run holds over a hundred of them.  The seed picks the preset of
    ``spectrum``, ``propagator`` and ``loop`` and the simulate seed from
    small pools, so that argument lists recur within a run and the
    byte-identity check of their CSVs has something to compare.
    """

    name = "readme_cli"
    SIM_PATHS = 20_000
    EVOLVE_STEPS = 50
    SIM_SEEDS = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.first_digest = {}

    def commands(self, index: int):
        rng = np.random.default_rng(job_seeds(self.seed, self.name, index))
        preset = PRESET_NAMES[int(rng.integers(len(PRESET_NAMES)))]
        sim_seed = int(rng.integers(self.SIM_SEEDS))
        masses = ",".join(repr(m) for m in PRESET_MASSES[preset])
        lambdas = ",".join(repr(v) for v in REFERENCE_LAMBDAS[preset])
        steps = str(self.EVOLVE_STEPS)
        return preset, [
            ("reproduce-tables", ["reproduce-tables"], "tables.json",
             self._check_tables),
            ("spectrum-fit", ["spectrum", "fit", "--masses", masses], "fit.json",
             self._check_fit),
            ("spectrum-solve", ["spectrum", "solve", f"--lambdas={lambdas}",
                                "--mass", repr(PRESET_MASSES[preset][0])],
             "solve.json", self._check_solve),
            ("density", ["density", "--mass", "1", "--dt", "1"], "density.csv",
             self._check_density),
            ("levy-measure", ["levy-measure", "--mass", "1", "--dim", "3",
                              "--log-spacing"], "levy_measure.csv",
             self._check_levy_measure),
            ("evolve", ["evolve", "--mass", "1", "--dt", "0.05", "--steps", steps,
                        "--sigma", "2", "--p0", "1"], "evolve.csv",
             self._check_evolve),
            ("evolve-branch", ["evolve", "--mass", "1", "--dt", "0.05", "--steps",
                               steps, "--branch", "1", "--masses", "1,2,3"],
             "evolve_branch.csv", self._check_evolve_branch),
            ("propagator", ["propagator", "--preset", preset, "--p2-max", "3.2"],
             "propagator.csv", self._check_propagator),
            ("loop", ["loop", "--preset", preset, "--variant", "scalar"],
             "loop.csv", self._check_loop),
            ("simulate", ["simulate", "--mass", "1", "--t", "1", "--paths",
                          str(self.SIM_PATHS), "--seed", str(sim_seed)],
             "simulate.csv", self._check_simulate),
            ("exponent", ["exponent", "--mass", "1", "--u-max", "20",
                          "--root-x", "4"], "exponent.csv", self._check_exponent),
        ]

    def run(self, index: int) -> dict:
        preset, commands = self.commands(index)
        command_ms = {}
        bytes_written = 0
        quality = {"residue_mismatch": 0.0, "mass_roundtrip_rel_err": 0.0,
                   "ks_d_over_crit": 0.0}
        for label, argv, filename, check_output in commands:
            out = self.workdir / filename
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["-o", str(out)])
            command_ms[label] = 1e3 * (time.perf_counter() - start)
            check(code == 0, f"{label}: exit code {code}")
            if out.suffix == ".csv":
                data = out.read_bytes()
                bytes_written += len(data)
                key = tuple(argv)
                digest = hashlib.sha256(data).digest()
                first = self.first_digest.setdefault(key, digest)
                check(digest == first, f"{label}: CSV bytes differ from the "
                                       "first run with the same arguments")
            check_output(out, preset, quality)
        return {"command_ms": command_ms, "bytes_written": bytes_written,
                **quality}

    # -- per-command output checks ------------------------------------------

    @staticmethod
    def _meta(out: Path) -> dict:
        return json.loads(out.with_suffix(out.suffix + ".meta.json").read_text())

    def _check_tables(self, out, preset, quality):
        payload = json.loads(out.read_text())
        check(payload["passed"] == payload["total"] == 5, "tables: not 5/5 rows")
        worst = max(r["max_rel_err"] for r in payload["rows"])
        check(worst < TABLE_TOL, f"tables: coefficient error {worst:.2e}")

    def _check_fit(self, out, preset, quality):
        got = json.loads(out.read_text())["masses"]
        err = max(abs(g / w - 1.0) for g, w in zip(got, PRESET_MASSES[preset]))
        check(err < POLE_TOL, f"spectrum fit: mass round trip {err:.2e}")
        quality["mass_roundtrip_rel_err"] = max(
            quality["mass_roundtrip_rel_err"], err)

    def _check_solve(self, out, preset, quality):
        payload = json.loads(out.read_text())
        l1, l2, l3 = payload["lambdas"]
        m = PRESET_MASSES[preset][0]
        check(len(payload["roots"]) == 3, "spectrum solve: not three real roots")
        for x, mass in zip(payload["roots"], payload["masses"]):
            f = x * (l1 + x * (l2 + x * l3))
            resid = abs(x - f - 1.0) / max(1.0, abs(x), abs(f))
            check(resid < POLE_TOL, f"spectrum solve: g(x)-1 residual {resid:.2e}")
            check(abs(mass / (m * math.sqrt(x)) - 1.0) < POLE_TOL,
                  "spectrum solve: mass is not m sqrt(x)")

    def _check_density(self, out, preset, quality):
        summary = self._meta(out)["summary"]
        check(abs(summary["normalization"] - 1.0) < 1e-6, "density: normalization")
        check(abs(summary["variance"] - 1.0) < 1e-3, "density: variance")
        check(out.read_bytes().count(b"\n") == 2 ** 14 + 1, "density: row count")

    def _check_levy_measure(self, out, preset, quality):
        r, w = _csv(out).T
        ref = special.kn(2, r) / (2.0 * math.pi ** 2 * r ** 2)
        err = float(np.max(np.abs(w / ref - 1.0)))
        check(len(r) == 512 and err < KERNEL_TOL, f"levy-measure: error {err:.2e}")

    def _check_evolution(self, out, mass, p0, sigma):
        t, norm, centroid, _, momentum = _csv(out).T
        check(len(t) == self.EVOLVE_STEPS + 1, "evolve: row count")
        drift = float(np.max(np.abs(norm - 1.0)))
        check(drift < NORM_DRIFT_TOL, f"evolve: norm drift {drift:.2e}")
        check(np.ptp(momentum) < 1e-9 * max(1.0, abs(p0)),
              "evolve: momentum not conserved")
        # free evolution moves the centroid at the packet's mean group
        # velocity, sum |psi_hat(u)|^2 u / sqrt(M^2 + u^2)
        u = 2.0 * math.pi * np.fft.fftfreq(2 ** 12, d=0.05)
        weight = np.exp(-((u - p0) * sigma) ** 2)
        v = float(np.sum(weight * u / np.hypot(mass, u)) / np.sum(weight))
        moved = centroid[-1] - centroid[0]
        check(abs(moved - v * t[-1]) <= VELOCITY_TOL * abs(v * t[-1]) + 1e-9,
              f"evolve: centroid moved {moved:.6g}, group velocity gives "
              f"{v * t[-1]:.6g}")

    def _check_evolve(self, out, preset, quality):
        self._check_evolution(out, mass=1.0, p0=1.0, sigma=2.0)

    def _check_evolve_branch(self, out, preset, quality):
        # branch 1 of masses 1,2,3 with the lightest as base: M = 2
        self._check_evolution(out, mass=2.0, p0=0.0, sigma=1.0)

    def _check_propagator(self, out, preset, quality):
        check(out.read_bytes().count(b"\n") == 2049, "propagator: row count")
        fits = self._meta(out)["pole_fits"]
        check(len(fits) == 3, "propagator: not three certified poles")
        worst = 0.0
        for fit, mass in zip(fits, PRESET_MASSES[preset]):
            check(abs(fit["p2_pole"] / mass ** 2 - 1.0) < POLE_TOL,
                  "propagator: pole location")
            worst = max(worst, fit["residue_mismatch"])
        check(worst < POLE_TOL, f"propagator: residue mismatch {worst:.2e}")
        quality["residue_mismatch"] = max(quality["residue_mismatch"], worst)

    def _check_loop(self, out, preset, quality):
        fits = self._meta(out)["tail_fits"]
        unmod, mod = fits["unmodified-scalar"], fits["modified-scalar"]
        check(unmod["log_slope"] > 0 and unmod["log_r2"] > 0.999,
              "loop: unregularized integral is not log-divergent")
        check(all(1 / 32 < r < 1 / 8 for r in mod["octave_ratios"]),
              "loop: regularized tail does not fall like L^-4")

    def _check_simulate(self, out, preset, quality):
        check(out.read_bytes().count(b"\n") == self.SIM_PATHS + 1,
              "simulate: row count")
        val = self._meta(out)["validation"]
        ratio = val["d"] / ks_critical(val["n"])
        check(val["n"] == self.SIM_PATHS and ratio < 1.0,
              f"simulate: KS D={val['d']:.5f} at N={val['n']}")
        quality["ks_d_over_crit"] = max(quality["ks_d_over_crit"], ratio)

    def _check_exponent(self, out, preset, quality):
        u, eta = _csv(out).T
        want = 1.0 - np.sqrt(1.0 + (u / 2.0) ** 2)
        check(len(u) == 256 and np.max(np.abs(eta - want)) < 1e-12,
              "exponent: branch exponent differs from 1 - sqrt(1 + u^2/M^2)")


WORKLOADS = {cls.name: cls for cls in (JumpPicture, MonteCarlo, ReadmeCli)}


class Loop:
    """Runs checked jobs of one workload and records their outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies_ms = []
        self.failures = []
        self.results = []

    def job(self, index: int) -> bool:
        start = time.perf_counter()
        try:
            result = self.workload.run(index)
        except Exception as exc:  # any raise is a failed job, not a crash
            self.failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            if len(self.failures) == 1:
                traceback.print_exc(file=sys.stderr)
            return False
        finally:
            self.latencies_ms.append(1e3 * (time.perf_counter() - start))
        self.results.append(result)
        return True

    def window(self, first_index: int, seconds: float, around=None,
               min_jobs: int = 1) -> tuple:
        """Jobs back to back until ``seconds`` have passed and at least
        ``min_jobs`` have run.

        Returns (jobs run, jobs passed, wall seconds).  ``around`` wraps
        each job (the tracer's root span).
        """
        ran = passed = 0
        start = time.perf_counter()
        while True:
            with (around or contextlib.nullcontext)():
                ok = self.job(first_index + ran)
            ran += 1
            passed += ok
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and ran >= min_jobs:
                return ran, passed, elapsed
