import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from levyqm import ExponentParams, LogCharacteristic, eta_relativistic
from levyqm import evolution, exponents
from levyqm.densities import GridError, GridSpec, levy_density_1d
from levyqm.evolution import (WaveFunction, evolve_jump_quadrature,
                              evolve_modified, evolve_spectral,
                              gaussian_packet, observables)
from levyqm.spectrum import lambdas_from_roots, masses_from_lambdas

UNIT = ExponentParams.from_mass(1.0)
ETA = LogCharacteristic.relativistic(UNIT)


def packet_grid():
    return GridSpec(n=2048, dx=0.05)


# ---------------------------------------------------------------------------
# packets and observables
# ---------------------------------------------------------------------------

def test_gaussian_packet_observables():
    psi = gaussian_packet(0.0, 2.0, 1.0, packet_grid())
    obs = observables(psi)
    assert obs.norm == pytest.approx(1.0, abs=1e-10)
    assert obs.centroid == pytest.approx(0.0, abs=1e-9)
    # position density of a sigma-wide envelope has variance sigma^2/2
    assert obs.variance == pytest.approx(0.5, abs=1e-6)
    assert obs.momentum_centroid == pytest.approx(2.0, abs=psi.grid.du)


def test_gaussian_packet_centroid_offset():
    psi = gaussian_packet(3.0, 0.0, 1.0, packet_grid())
    assert observables(psi).centroid == pytest.approx(3.0, abs=1e-9)


def test_packet_resolution_guard():
    with pytest.raises(GridError, match="under-resolved"):
        gaussian_packet(0.0, 0.0, 0.1, packet_grid())


def test_packet_containment_guard():
    with pytest.raises(GridError, match="boundary"):
        gaussian_packet(40.0, 0.0, 8.0, packet_grid())


def test_wavefunction_norm_gate():
    grid = packet_grid()
    bad = np.ones(grid.n) * 0.001
    with pytest.raises(ValueError, match="deviates from 1"):
        WaveFunction(grid=grid, values=bad)


def test_wavefunction_norm_gate_rejects_nan():
    # abs(nan - 1) > 1e-7 is False: a NaN norm passed the old gate
    grid = packet_grid()
    with pytest.raises(ValueError, match="norm nan deviates from 1"):
        WaveFunction(grid=grid, values=np.full(grid.n, np.nan + 0j))
    with pytest.raises(ValueError, match="norm nan deviates from 1"):
        evolve_spectral(gaussian_packet(0.0, 0.0, 1.0, grid), math.nan, ETA,
                        UNIT.tau)


def test_step_phase_must_be_resolved():
    # the largest phase dt |eta| / tau may be rounded by at most 1e-10 rad
    grid = packet_grid()
    psi = gaussian_packet(0.0, 0.0, 1.0, grid)
    limit = 1e-10 * 2.0 ** 52 * UNIT.tau / np.max(np.abs(ETA(grid.u_fft())))
    assert evolve_spectral(psi, 0.99 * limit, ETA, UNIT.tau).values.shape == (grid.n,)
    with pytest.raises(ValueError, match=r"exceeds 1e-10 rad; use dt <= "):
        evolve_spectral(psi, 1.01 * limit, ETA, UNIT.tau)


def test_writable_values_cannot_leave_a_stale_transform():
    grid = packet_grid()
    values = gaussian_packet(0.0, 1.0, 1.0, grid).values.copy()
    with pytest.raises(ValueError, match="read-only"):
        WaveFunction(grid=grid, values=values)
    psi = WaveFunction.from_samples(grid, values)
    before = psi.transform.copy()
    values *= 1j
    with pytest.raises(ValueError, match="read-only"):
        psi.values[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        psi.transform[0] = 0.0
    assert psi.transform is psi.transform
    np.testing.assert_array_equal(psi.transform, before)
    np.testing.assert_array_equal(psi.transform, np.fft.fft(psi.values))


def test_from_transform_copies_the_callers_array():
    grid = packet_grid()
    hat = np.fft.fft(gaussian_packet(0.0, 1.0, 1.0, grid).values)
    kept = hat.copy()
    psi = WaveFunction.from_transform(grid, hat)
    assert hat.flags.writeable
    assert not np.shares_memory(psi.transform, hat)
    hat *= 2.0
    assert psi.transform.tobytes() == kept.tobytes()
    assert not psi.transform.flags.writeable
    assert not psi.values.flags.writeable
    assert psi.values.tobytes() == np.fft.ifft(kept).tobytes()


@pytest.mark.parametrize("scale, shown", [(1.001, "1.002"), (math.nan, "nan")])
def test_from_transform_keeps_the_norm_gate(scale, shown):
    grid = packet_grid()
    hat = np.fft.fft(gaussian_packet(0.0, 1.0, 1.0, grid).values) * scale
    with pytest.raises(ValueError, match=f"norm {shown}.* deviates from 1 "
                                         "beyond 1e-7"):
        WaveFunction.from_transform(grid, hat)


def test_density_is_the_squared_modulus_within_one_ulp():
    # against |psi|^2 in exact arithmetic: np.abs(values) ** 2 rounds the
    # modulus before squaring it and is up to 4 ulp off on this packet
    psi = gaussian_packet(0.3, 2.0, 1.0, packet_grid())
    for _ in range(3):
        psi = evolve_spectral(psi, 0.05, ETA, UNIT.tau)
    want = np.array([float(Fraction(v.real) ** 2 + Fraction(v.imag) ** 2)
                     for v in psi.values])
    assert psi.density is psi.density
    assert not psi.density.flags.writeable
    assert np.all(np.abs(psi.density - want) <= np.spacing(want))


# ---------------------------------------------------------------------------
# spectral evolution
# ---------------------------------------------------------------------------

def test_plane_wave_eigenphase():
    grid = packet_grid()
    k = 173
    u_k = grid.du * k
    psi = WaveFunction.from_samples(grid, np.exp(1j * u_k * grid.x_centers()))
    evolved = evolve_spectral(psi, 0.7, ETA, UNIT.tau)
    phase = np.exp(1j * 0.7 * eta_relativistic(u_k, UNIT) / UNIT.tau)
    assert np.max(np.abs(evolved.values - phase * psi.values)) < 1e-12


def test_zero_time_identity():
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    same = evolve_spectral(psi, 0.0, ETA, UNIT.tau)
    assert np.max(np.abs(same.values - psi.values)) < 1e-15


def test_composition_additivity():
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    one = evolve_spectral(evolve_spectral(psi, 0.3, ETA, UNIT.tau), 0.5, ETA,
                          UNIT.tau)
    two = evolve_spectral(psi, 0.8, ETA, UNIT.tau)
    assert np.max(np.abs(one.values - two.values)) < 1e-12


def test_momentum_distribution_invariant():
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    before = np.abs(np.fft.fft(psi.values)) ** 2
    evolved = evolve_spectral(psi, 2.0, ETA, UNIT.tau)
    after = np.abs(np.fft.fft(evolved.values)) ** 2
    assert np.max(np.abs(after - before)) < 1e-12 * before.max()
    assert observables(evolved).momentum_centroid == pytest.approx(
        observables(psi).momentum_centroid, abs=1e-9)


def test_unitarity_over_many_steps():
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    for _ in range(200):
        psi = evolve_spectral(psi, 0.01, ETA, UNIT.tau)
    assert abs(observables(psi).norm - 1.0) < 1e-10


def test_group_velocity():
    grid = GridSpec(n=4096, dx=0.04)
    psi = gaussian_packet(0.0, 1.0, 6.0, grid)
    start = observables(psi).centroid
    horizon = 5.0
    psi = evolve_spectral(psi, horizon, ETA, UNIT.tau)
    v = (observables(psi).centroid - start) / horizon
    assert v == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)


def test_nonrelativistic_limit_matches_gaussian_part():
    # |p| a = 0.01: relativistic centroid motion within 0.1% of the pure
    # diffusion-term (beta^2 = a^2) Schrodinger evolution over t = tau
    grid = GridSpec(n=4096, dx=0.2)
    schrodinger = LogCharacteristic(eval=lambda u: -0.5 * UNIT.a ** 2 * u * u)
    psi = gaussian_packet(0.0, 0.01, 50.0, grid)
    rel = evolve_spectral(psi, UNIT.tau, ETA, UNIT.tau)
    gauss = evolve_spectral(psi, UNIT.tau, schrodinger, UNIT.tau)
    d_rel = observables(rel).centroid - observables(psi).centroid
    d_gauss = observables(gauss).centroid - observables(psi).centroid
    assert d_rel == pytest.approx(d_gauss, rel=1e-3)


# ---------------------------------------------------------------------------
# jump-quadrature step
# ---------------------------------------------------------------------------

def l2_norm(values, grid):
    return math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.dx))


def test_jump_step_constant_field_unchanged():
    grid = packet_grid()
    const = np.full(grid.n, 1.0 + 0.5j)
    psi = WaveFunction.from_samples(grid, const)
    stepped, _ = evolve_jump_quadrature(psi, 1e-4, UNIT)
    assert np.max(np.abs(stepped.values - psi.values)) < 1e-15


def test_jump_step_matches_spectral():
    psi = gaussian_packet(0.0, 0.0, 1.0, packet_grid())
    dt = 1e-4 * UNIT.tau
    jumped, report = evolve_jump_quadrature(psi, dt, UNIT)
    spectral = evolve_spectral(psi, dt, ETA, UNIT.tau)
    assert l2_norm(jumped.values - spectral.values, psi.grid) < 2e-6
    assert report.cells > 100


def test_jump_step_norm_drift():
    psi = gaussian_packet(0.0, 0.0, 1.0, packet_grid())
    jumped, _ = evolve_jump_quadrature(psi, 1e-4 * UNIT.tau, UNIT)
    assert abs(observables(jumped).norm - 1.0) < 1e-14


@pytest.mark.parametrize("dt_over_tau", [1.0, 10.0])
def test_jump_step_is_unitary_and_reversible_at_any_dt(dt_over_tau):
    psi = gaussian_packet(1.5, 3.0, 1.0, packet_grid())
    dt = dt_over_tau * UNIT.tau
    forward, _ = evolve_jump_quadrature(psi, dt, UNIT)
    assert abs(observables(forward).norm - 1.0) < 1e-14
    assert np.max(np.abs(forward.values - psi.values)) > 0.1
    back, _ = evolve_jump_quadrature(forward, -dt, UNIT)
    assert np.max(np.abs(back.values - psi.values)) < 1e-14


def test_jump_step_refuses_an_unresolved_phase():
    psi = gaussian_packet(0.0, 0.0, 1.0, packet_grid())
    with pytest.raises(ValueError, match=r"exceeds 1e-10 rad; use dt <= "):
        evolve_jump_quadrature(psi, 1e7 * UNIT.tau, UNIT)


def roll_sum_jump_step(psi, dt, params, cells):
    # reference: the generator applied cell by cell with np.roll, from
    # GL4 cell weights computed here, not taken from the module
    dx = psi.grid.dx
    nodes, weights = np.polynomial.legendre.leggauss(4)
    j = np.arange(1, cells + 1)
    w = 0.5 * dx * (levy_density_1d(j[:, None] * dx + 0.5 * dx * nodes,
                                    params) @ weights)
    core = 0.25 * dx * (nodes + 1.0)
    s_core = 0.5 * dx * float((core ** 2 * levy_density_1d(core, params))
                              @ weights)
    v = psi.values
    jump = np.zeros_like(v)
    for k in range(1, cells + 1):
        jump += w[k - 1] * (np.roll(v, -k) + np.roll(v, k) - 2.0 * v)
    jump += 0.5 * s_core * (np.roll(v, -1) + np.roll(v, 1) - 2.0 * v) / dx ** 2
    return 1j * (dt / params.tau) * jump


@pytest.mark.parametrize("n, dx, cells", [(256, 0.1, 127), (2048, 0.05, 684)])
def test_jump_step_matches_roll_sum(n, dx, cells):
    # n = 256: the kernel radius is capped at n/2 - 1 cells, the wrap edge
    grid = GridSpec(n=n, dx=dx)
    psi = gaussian_packet(1.5, 3.0, 1.0, grid)
    dt = 1e-4 * UNIT.tau
    stepped, report = evolve_jump_quadrature(psi, dt, UNIT)
    assert report.cells == cells
    want = roll_sum_jump_step(psi, dt, UNIT, cells)
    # the generator: i (dt/tau) ifft(S psi_hat) is the roll sum
    symbol, _, _ = evolution._jump_kernel(grid, UNIT)
    got = 1j * (dt / UNIT.tau) * np.fft.ifft(symbol * psi.transform)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    # the step: |exp(i x) - 1 - i x| <= x^2 / 2, so it is within half the
    # roll sum applied twice, |(dt S / tau)^2 psi| / 2, of the Euler step
    # (1 % over it for rounding), and so within (dt max|S| / tau)^2 / 2
    euler = l2_norm(stepped.values - (psi.values + want), grid)
    twice = roll_sum_jump_step(SimpleNamespace(grid=grid, values=want), dt,
                               UNIT, cells)
    assert euler < 1.01 * 0.5 * l2_norm(twice, grid)
    assert euler < 0.5 * (dt / UNIT.tau * np.max(np.abs(symbol))) ** 2


# ---------------------------------------------------------------------------
# branch evolution
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def three_branch_solution():
    c = lambdas_from_roots(1.0, 4.0, 100.0)
    return c, masses_from_lambdas(c, 1.0)


def test_branch_identity(three_branch_solution):
    _, sol = three_branch_solution
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    via_branch = evolve_modified(psi, 0.5, sol, branch=0)
    direct = evolve_spectral(psi, 0.5, ETA, UNIT.tau)
    assert np.max(np.abs(via_branch.values - direct.values)) < 1e-13


def test_branch_norm_conserved(three_branch_solution):
    _, sol = three_branch_solution
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    for branch in range(3):
        evolved = evolve_modified(psi, 1.0, sol, branch)
        assert abs(observables(evolved).norm - 1.0) < 1e-10


def test_heavier_branch_disperses_slower(three_branch_solution):
    # ballistic spreading rate Var(t) ~ t^2 sigma_p^2 / M^2: the root-4
    # branch (M = 2m) spreads at 1/4 the base rate
    _, sol = three_branch_solution
    grid = GridSpec(n=512, dx=0.5)
    psi = gaussian_packet(0.0, 0.0, 16.0, grid)
    var0 = observables(psi).variance
    horizon = 120.0

    def rate(branch):
        evolved = evolve_modified(psi, horizon, sol, branch)
        return (observables(evolved).variance - var0) / horizon ** 2

    ratio = rate(1) / rate(0)
    assert ratio == pytest.approx(0.25, rel=0.02)


def test_branch_index_errors(three_branch_solution):
    _, sol = three_branch_solution
    psi = gaussian_packet(0.0, 0.0, 1.0, packet_grid())
    with pytest.raises(IndexError):
        evolve_modified(psi, 0.1, sol, branch=5)


# ---------------------------------------------------------------------------
# the cached spectral multiplier
# ---------------------------------------------------------------------------

def uncached_multiplier(grid, dt, eta, tau):
    return np.exp(1j * (dt / tau) * np.asarray(eta(grid.u_fft()), dtype=float))


def uncached_step(values, grid, dt, eta, tau):
    return np.fft.ifft(uncached_multiplier(grid, dt, eta, tau)
                       * np.fft.fft(values))


def counting(eta):
    def counted(*args):
        counted.calls += 1
        return eta(*args)
    counted.calls = 0
    return counted


def test_spectral_steps_evaluate_eta_once():
    eta = counting(ETA)
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    for _ in range(50):
        psi = evolve_spectral(psi, 0.05, eta, UNIT.tau)
    assert eta.calls == 1


def test_branch_steps_evaluate_eta_once(monkeypatch, three_branch_solution):
    evolution._spectral_multiplier.cache_clear()
    counted = counting(exponents.eta_relativistic)
    monkeypatch.setattr(exponents, "eta_relativistic", counted)
    _, sol = three_branch_solution
    psi = gaussian_packet(0.0, 1.0, 1.0, packet_grid())
    for _ in range(50):
        psi = evolve_modified(psi, 0.05, sol, branch=1)
    assert counted.calls == 1


def test_cached_steps_match_uncached_reference_bytes():
    grid = packet_grid()
    psi = gaussian_packet(0.0, 1.0, 1.0, grid)
    # the uncached chain also stays in momentum space: one forward
    # transform, then psi_hat_k = multiplier psi_hat_{k-1}
    hat = np.fft.fft(psi.values)
    for _ in range(50):
        psi = evolve_spectral(psi, 0.05, ETA, UNIT.tau)
        hat = uncached_multiplier(grid, 0.05, ETA, UNIT.tau) * hat
    assert psi.transform.tobytes() == hat.tobytes()
    assert psi.values.tobytes() == np.fft.ifft(hat).tobytes()


def test_multiplier_cache_keys_on_dt_grid_and_branch(three_branch_solution):
    _, sol = three_branch_solution
    for grid in (packet_grid(), GridSpec(n=1024, dx=0.05),
                 GridSpec(n=2048, dx=0.04)):
        psi = gaussian_packet(0.5, 1.0, 1.0, grid)
        for dt in (0.05, 0.07, 0.05):
            got = evolve_spectral(psi, dt, ETA, UNIT.tau)
            want = uncached_step(psi.values, grid, dt, ETA, UNIT.tau)
            assert got.values.tobytes() == want.tobytes()
        for branch in (0, 1, 2, 1):
            params = ExponentParams.from_mass(math.sqrt(sol.roots[branch]))
            got = evolve_modified(psi, 0.05, sol, branch)
            want = uncached_step(psi.values, grid, 0.05,
                                 lambda u: eta_relativistic(u, params),
                                 params.tau)
            assert got.values.tobytes() == want.tobytes()
