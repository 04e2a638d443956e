"""Acceptance gate: every shipped guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from levyqm import (ExponentParams, LogCharacteristic, QuadratureSpec,
                    eta_from_triplet, eta_relativistic)
from levyqm.cli import main
from levyqm.densities import (convolve, default_grid, moments,
                              relativistic_triplet, transition_density)
from levyqm.densities import GridSpec
from levyqm.evolution import (WaveFunction, evolve_jump_quadrature,
                              evolve_spectral, gaussian_packet, observables)
from levyqm.presets import PRESET_MASSES
from levyqm.propagators import find_poles, loop_integral
from levyqm.sampler import SeededGenerator, ks_validate, sample_endpoints
from levyqm.spectrum import (MassTriple, fit_masses, lambdas_from_roots,
                             masses_from_lambdas)

UNIT = ExponentParams.from_mass(1.0)
ETA = LogCharacteristic.relativistic(UNIT)

_MODULE_START = time.perf_counter()


def report(number, description, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_01_table_reproduction(tmp_path):
    out = tmp_path / "tables.json"
    start = time.perf_counter()
    code = main(["reproduce-tables", "-o", str(out)])
    elapsed = time.perf_counter() - start
    payload = json.loads(out.read_text())
    ok = (code == 0 and payload["passed"] == 5 and payload["total"] == 5
          and all(r["max_rel_err"] < 5e-3 for r in payload["rows"])
          and elapsed < 1.0)
    report(1, f"five coefficient triples to 3 significant figures "
              f"in {elapsed:.3f} s", ok)


def test_02_spectrum_round_trip():
    start = time.perf_counter()
    ok = True
    for name, masses in PRESET_MASSES.items():
        triple = MassTriple.from_values(masses)
        sol = fit_masses(triple)
        ok &= all(abs(got / want - 1.0) < 1e-6
                  for got, want in zip(sol.masses, triple.as_tuple()))

    rng = np.random.default_rng(1234)
    count = 0
    while count < 1000:
        xs = np.sort(10.0 ** rng.uniform(-2.0, 2.0, size=3))
        if xs[1] / xs[0] < 1.001 or xs[2] / xs[1] < 1.001:
            continue
        count += 1
        sol = masses_from_lambdas(lambdas_from_roots(*xs), 1.0)
        ok &= len(sol.roots) == 3
        ok &= all(abs(got / want - 1.0) < 1e-10
                  for got, want in zip(sol.roots, xs))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(2, f"masses->coefficients->masses identity, 5 rows at 1e-6 and "
              f"1000 random triples at 1e-10, in {elapsed:.2f} s", ok)


def test_03_levy_khintchine_consistency():
    start = time.perf_counter()
    trip = relativistic_triplet(UNIT)
    policy = QuadratureSpec(tol=1e-9)
    worst = 0.0
    for u in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        got = eta_from_triplet(u / UNIT.a, trip, policy)
        want = eta_relativistic(u / UNIT.a, UNIT)
        worst = max(worst, abs(got / want - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(3, f"jump-kernel quadrature matches the closed-form exponent, "
              f"worst rel err {worst:.2e}, in {elapsed:.2f} s", ok)


def test_04_infinite_divisibility_at_density_level():
    grid = default_grid(UNIT, 1.0, n=2 ** 14)
    d05 = transition_density(0.5, UNIT, ETA, grid)
    d10 = transition_density(1.0, UNIT, ETA, grid)
    d15 = transition_density(1.5, UNIT, ETA, grid)
    d20 = transition_density(2.0, UNIT, ETA, grid)
    l1_a = float(np.sum(np.abs(convolve(d10, d10).values - d20.values)) * grid.dx)
    l1_b = float(np.sum(np.abs(convolve(d05, d15).values - d20.values)) * grid.dx)
    norm_err = abs(d10.normalization() - 1.0)
    var_err = abs(moments(d10, 2) - 1.0)
    ok = l1_a < 1e-6 and l1_b < 1e-6 and norm_err < 1e-6 and var_err < 1e-3
    report(4, f"Chapman-Kolmogorov L1 {max(l1_a, l1_b):.2e}, normalization "
              f"{norm_err:.2e}, variance err {var_err:.2e}", ok)


def test_05_evolution():
    # unitarity over 1e3 spectral steps
    grid = GridSpec(n=2048, dx=0.05)
    psi = gaussian_packet(0.0, 1.0, 1.0, grid)
    cur = psi
    for _ in range(1000):
        cur = evolve_spectral(cur, 0.01, ETA, UNIT.tau)
    drift = abs(observables(cur).norm - 1.0)

    # plane-wave stationarity
    u_k = grid.du * 137
    wave = WaveFunction.from_samples(grid, np.exp(1j * u_k * grid.x_centers()))
    evolved = evolve_spectral(wave, 0.7, ETA, UNIT.tau)
    phase = np.exp(1j * 0.7 * eta_relativistic(u_k, UNIT))
    eigen_err = float(np.max(np.abs(evolved.values - phase * wave.values)))

    # group velocity p / sqrt(m^2 + p^2)
    wide = GridSpec(n=4096, dx=0.04)
    packet = gaussian_packet(0.0, 1.0, 6.0, wide)
    moved = evolve_spectral(packet, 5.0, ETA, UNIT.tau)
    v = (observables(moved).centroid - observables(packet).centroid) / 5.0
    v_err = abs(v * math.sqrt(2.0) - 1.0)

    # jump-quadrature step against the spectral oracle
    small = gaussian_packet(0.0, 0.0, 1.0, grid)
    dt = 1e-4 * UNIT.tau
    jumped, _ = evolve_jump_quadrature(small, dt, UNIT)
    spectral = evolve_spectral(small, dt, ETA, UNIT.tau)
    l2 = math.sqrt(float(np.sum(np.abs(jumped.values - spectral.values) ** 2)
                         * grid.dx))

    ok = drift < 1e-10 and eigen_err < 1e-12 and v_err < 0.01 and l2 < 1e-5
    report(5, f"norm drift {drift:.1e}/1e3 steps, eigenphase {eigen_err:.1e}, "
              f"group velocity err {v_err:.2%}, jump-vs-spectral L2 {l2:.1e}",
           ok)


def test_06_propagator_poles():
    worst_pole = worst_residue = 0.0
    for name, masses in PRESET_MASSES.items():
        triple = MassTriple.from_values(masses)
        fits = find_poles(fit_masses(triple))
        for fit, mass in zip(fits, triple.as_tuple()):
            worst_pole = max(worst_pole, abs(fit.p2_pole / mass ** 2 - 1.0))
            worst_residue = max(worst_residue, fit.residue_mismatch)
    ok = worst_pole < 1e-6 and worst_residue < 1e-6
    report(6, f"five rows: pole locations within {worst_pole:.1e}, read-off "
              f"residues within {worst_residue:.1e} of 1/g'", ok)


def test_07_loop_convergence_dichotomy():
    start = time.perf_counter()
    triple = MassTriple.from_values(PRESET_MASSES["table3"])
    spectrum = fit_masses(triple)
    m = triple.m1

    log_sweep = m * np.geomspace(1e2, 1e6, 13)
    unmod = loop_integral(m, spectrum, log_sweep,
                          variants=("unmodified-scalar",))
    fit = unmod.tail_fits["unmodified-scalar"]
    ok = fit.log_r2 > 0.999 and fit.log_slope > 0

    base = 100.0 * triple.m3
    octaves = base * 2.0 ** np.arange(0, 7)
    mod = loop_integral(m, spectrum, octaves,
                        variants=("modified-scalar", "modified-mass"))
    scalar_ratios = mod.tail_fits["modified-scalar"].octave_ratios
    mass_ratios = mod.tail_fits["modified-mass"].octave_ratios
    ok &= all(1.0 / 32.0 < r < 1.0 / 8.0 for r in scalar_ratios)
    ok &= all(0.25 < r < 1.0 for r in mass_ratios)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(7, f"log fit R2 {fit.log_r2:.5f} with slope {fit.log_slope:.3f}; "
              f"octave tails {scalar_ratios[-1]:.4f} (scalar) and "
              f"{mass_ratios[-1]:.3f} (mass), in {elapsed:.2f} s", ok)


def test_08_sampler_validation():
    start = time.perf_counter()
    grid = default_grid(UNIT, 1.0)
    table = transition_density(1.0, UNIT, ETA, grid)
    samples = sample_endpoints(1.0, UNIT, SeededGenerator(42), 10 ** 5)
    rep = ks_validate(samples, table)
    var_err = abs(samples.var() - 1.0)
    rerun = sample_endpoints(1.0, UNIT, SeededGenerator(42), 10 ** 5)
    identical = samples.tobytes() == rerun.tobytes()
    elapsed = time.perf_counter() - start
    ok = rep.passed and var_err < 0.02 and identical and elapsed < 30.0
    report(8, f"KS D={rep.d:.4f} < {rep.threshold:.4f} at N=1e5, variance err "
              f"{var_err:.3f}, byte-identical rerun: {identical}, "
              f"in {elapsed:.2f} s", ok)


def test_09_suite_wall_clock():
    # the full pytest run is the authoritative number (see test_output.txt);
    # this asserts that the acceptance module itself, which contains all the
    # heavy criteria, is nowhere near the 3-minute budget, with no network
    # access anywhere in the package
    elapsed = time.perf_counter() - _MODULE_START
    ok = elapsed < 180.0
    report(9, f"acceptance module wall clock {elapsed:.1f} s of the 180 s "
              f"budget (offline throughout)", ok)
