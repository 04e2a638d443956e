import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from levyqm import (ExponentParams, LogCharacteristic, densities,
                    eta_relativistic, sampler)
from levyqm.densities import GridError, GridSpec, default_grid, transition_density
from levyqm.sampler import (TILE, KSReport, PathSample, SeededGenerator,
                            ks_validate, sample_endpoints, sample_increment,
                            sample_inverse_gaussian, sample_path, sample_paths)

UNIT = ExponentParams.from_mass(1.0)


@pytest.fixture(scope="module")
def reference_table():
    eta = LogCharacteristic.relativistic(UNIT)
    return transition_density(1.0, UNIT, eta, default_grid(UNIT, 1.0))


# ---------------------------------------------------------------------------
# inverse-Gaussian sampler
# ---------------------------------------------------------------------------

def test_ig_moments():
    draws = sample_inverse_gaussian(1.0, 1.0, SeededGenerator(42), size=10 ** 6)
    assert draws.mean() == pytest.approx(1.0, abs=0.005)
    assert draws.var() == pytest.approx(1.0, abs=0.02)  # mu^3 / lambda
    assert draws.min() > 0.0


def test_ig_general_parameters():
    mu, lam = 0.7, 2.3
    draws = sample_inverse_gaussian(mu, lam, SeededGenerator(1), size=10 ** 6)
    assert draws.mean() == pytest.approx(mu, rel=0.01)
    assert draws.var() == pytest.approx(mu ** 3 / lam, rel=0.05)


def test_ig_domain():
    with pytest.raises(ValueError):
        sample_inverse_gaussian(-1.0, 1.0, SeededGenerator(0))
    with pytest.raises(ValueError):
        sample_inverse_gaussian(1.0, 0.0, SeededGenerator(0))


@pytest.mark.parametrize("mean, shape", [(1.0, 1e-310), (1e200, 1.0), (1e-200, 1.0)])
def test_ig_outside_double_range_names_it(mean, shape):
    # shape subnormal, or mean^2 underflowing, made every draw 0; a huge
    # mean made every draw inf
    with pytest.raises(ValueError, match=r"double-precision range shape >= 2\.23e-308"):
        sample_inverse_gaussian(mean, shape, SeededGenerator(0), size=10)


def test_heavy_mass_clock_range_covers_the_mean():
    # at m = 1e10 (a^2 = 1e-20) and dt/tau = 1.5e-144 the shape is normal
    # but mean^2 underflows, which made every clock draw 0
    with pytest.raises(ValueError, match=r"range is 1\.49e-134 <= dt/tau < 1\.32e\+115"):
        sample_increment(1.5e-154, ExponentParams.from_mass(1e10), SeededGenerator(0))


def test_light_mass_clock_shape_keeps_its_bits():
    # at m = 1e-10 (a = 1e10) and dt/tau = 1e-160, (dt/tau)^2 alone is
    # subnormal: a^2 (dt/tau)^2 read 9.99989e-301
    params = ExponentParams.from_mass(1e-10)
    mean, shape = sampler._clock_law(1e-160 * params.tau, params)
    assert shape / 1e-300 == pytest.approx(1.0, rel=1e-15)
    assert mean / 1e-140 == pytest.approx(1.0, rel=1e-15)


def test_ig_matches_plain_formula():
    mean, shape, n = 0.7, 2.3, 1000
    rng = SeededGenerator(4).generator()
    nu, u = rng.standard_normal(n), rng.random(n)
    y = nu * nu
    # the larger root has no cancellation; the smaller is mean^2 / larger
    large = (mean + mean * mean * y / (2.0 * shape)
             + (mean / (2.0 * shape)) * np.sqrt(4.0 * mean * shape * y
                                                + (mean * y) ** 2))
    small = mean * mean / large
    expected = np.where(u <= mean / (mean + small), small, large)
    draws = sample_inverse_gaussian(mean, shape, SeededGenerator(4), size=n)
    assert draws.tobytes() == expected.tobytes()


def test_ig_scalar_draw():
    assert sample_inverse_gaussian(1.0, 1.0, SeededGenerator(0)) > 0.0


# ---------------------------------------------------------------------------
# process increments
# ---------------------------------------------------------------------------

def test_increment_moments():
    x = sample_increment(1.0, UNIT, SeededGenerator(7), size=10 ** 6)
    # second cumulant (dt/tau) a^2 = 1; symmetric law
    assert x.var() == pytest.approx(1.0, abs=0.01)
    assert abs(x.mean()) < 3.0 / math.sqrt(10 ** 6)


def test_increment_characteristic_function():
    x = sample_increment(1.0, UNIT, SeededGenerator(11), size=10 ** 6)
    for u in (0.5, 1.0, 2.0):
        sample = np.cos(u * x)
        se = sample.std() / math.sqrt(x.size)
        expected = math.exp(eta_relativistic(u, UNIT))
        assert abs(sample.mean() - expected) < 3.0 * se


def test_increment_ecf_point():
    x = sample_increment(1.0, UNIT, SeededGenerator(3), size=10 ** 6)
    assert np.cos(x).mean() == pytest.approx(math.exp(1.0 - math.sqrt(2.0)),
                                             abs=0.003)


def test_determinism_and_stream_separation():
    a = sample_increment(1.0, UNIT, SeededGenerator(5, 2), size=4096)
    b = sample_increment(1.0, UNIT, SeededGenerator(5, 2), size=4096)
    c = sample_increment(1.0, UNIT, SeededGenerator(5, 3), size=4096)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_seed_validation():
    with pytest.raises(ValueError):
        SeededGenerator(-1)
    with pytest.raises(ValueError):
        SeededGenerator(2 ** 64)
    with pytest.raises(TypeError):
        sample_increment(1.0, UNIT, "not a generator")
    # tiles draw from jumped (seed, stream) streams, which a plain
    # Generator does not have
    with pytest.raises(TypeError, match="pass a SeededGenerator"):
        sample_endpoints(1.0, UNIT, SeededGenerator(2).generator(), 10)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_path_shape_and_start():
    path = sample_path(2.0, 50, UNIT, SeededGenerator(9))
    assert path.positions[0] == 0.0
    assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(2.0)
    assert len(path.times) == 51
    with pytest.raises(ValueError):
        sample_path(2.0, 0, UNIT, SeededGenerator(9))


def test_clock_overflow_names_the_limit():
    # past dt/tau ~ 6e101 at a = 1 the Michael-Schucany-Haas products
    # overflow and every draw would collapse to 0
    for dt in (1e150, 1e300):
        with pytest.raises(ValueError, match=r"dt/tau < 6\.12e\+101"):
            sample_increment(dt, UNIT, SeededGenerator(0), size=4)
    with pytest.raises(ValueError, match="overflows"):
        sample_endpoints(1e150, UNIT, SeededGenerator(0), 4)
    x = sample_endpoints(1e101, UNIT, SeededGenerator(0), 1000)
    assert np.all(np.isfinite(x)) and np.all(x != 0.0)
    assert x.var() / 1e101 == pytest.approx(1.0, rel=0.2)


def test_clock_underflow_names_the_limit():
    # below dt/tau = sqrt(DBL_MIN) at a = 1 the clock shape (dt/tau)^2 is
    # no normal double (at 1e-200 it is 0)
    for dt in (1e-155, 1e-200):
        with pytest.raises(ValueError, match=r"1\.49e-154 <= dt/tau"):
            sample_increment(dt, UNIT, SeededGenerator(0), size=4)
    with pytest.raises(ValueError, match="underflows"):
        sample_endpoints(1e-200, UNIT, SeededGenerator(0), 4)
    # only the time-T clock is drawn, so a step T/steps of 1e-200 is fine
    x = sample_endpoints(1.0, UNIT, SeededGenerator(0), 1000, steps=10 ** 200)
    assert np.all(np.isfinite(x)) and np.all(x != 0.0)


def test_nan_clock_is_named():
    # NaN fails every range comparison; it neither over- nor underflows
    with pytest.raises(ValueError, match="dt/tau is not a number"):
        sample_increment(math.nan, UNIT, SeededGenerator(0), size=4)


@pytest.mark.parametrize("T", [1e-8, 1e-20, 1e-150])
def test_small_horizon_endpoints_are_cauchy(T):
    # the NIG law of X(T) tends to Cauchy(a T/tau) as alpha delta = T/tau
    # -> 0; a cancelling Michael-Schucany-Haas root gave NaN and exact 0
    x = sample_endpoints(T, UNIT, SeededGenerator(31), 10 ** 5)
    assert np.all(np.isfinite(x)) and np.all(x != 0.0)
    scale = UNIT.a * T / UNIT.tau
    assert kstest(x / scale, "cauchy").pvalue > 0.01


def test_path_validation():
    with pytest.raises(ValueError, match="start at"):
        PathSample(times=np.array([0.0, 1.0]), positions=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="start at"):
        PathSample(times=np.array([0.5, 1.0]), positions=np.array([0.0, 2.0]))
    for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nextafter(0.0, -1.0)]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PathSample(times=np.array(times), positions=np.zeros(len(times)))
    PathSample(times=np.array([0.0, 5e-324]), positions=np.zeros(2))


@pytest.mark.parametrize("T, steps", [(1.0, 1), (0.7, 1), (2.0, 10), (0.37, 7),
                                      (1.3, 100), (1e-3, 3), (1e5, 1000)])
def test_sample_path_keeps_the_old_bytes(T, steps):
    # the formula this replaced, written out: sample_increment's batch,
    # a leading zero by concatenate, linspace times and an np.diff gate;
    # two paths from one generator, as a stream of paths is drawn
    new_gen, old_gen = (SeededGenerator(17, 2).generator() for _ in range(2))
    for _ in range(2):
        path = sample_path(T, steps, UNIT, new_gen)
        incs = sample_increment(T / steps, UNIT, old_gen, size=steps)
        positions = np.concatenate([[0.0], np.cumsum(incs)])
        times = np.linspace(0.0, T, steps + 1)
        assert not np.any(np.diff(times) <= 0)
        assert path.times.tobytes() == times.tobytes()
        assert path.positions.tobytes() == positions.tobytes()


def test_endpoint_law_invariant_under_step_count():
    # the last column of step-by-step composed paths against one time-T clock
    composed = sample_paths(1.0, 100, UNIT, SeededGenerator(21), 20000)[:, -1]
    direct = sample_endpoints(1.0, UNIT, SeededGenerator(22), 10 ** 5, steps=100)
    assert ks_2samp(composed, direct).pvalue > 0.01


@pytest.mark.parametrize("T, steps", [(1e-3, 7), (1.3, 100), (50.0, 2)])
def test_inverse_gaussian_clocks_are_closed_under_sums(T, steps):
    # lam/mu^2 = 1/a^2 at every dt, so `steps` clocks of T/steps sum to
    # one time-T clock: what sample_endpoints draws instead of the sum
    n, rng = 2 * 10 ** 5, SeededGenerator(23).generator()
    summed = np.zeros(n)
    for _ in range(steps):
        summed += sample_inverse_gaussian(*sampler._clock_law(T / steps, UNIT),
                                          rng, size=n)
    one = sample_inverse_gaussian(*sampler._clock_law(T, UNIT),
                                  SeededGenerator(24), size=n)
    assert ks_2samp(summed, one).pvalue > 0.01


def test_increment_independence_lag_one():
    path = sample_path(10.0, 20000, UNIT, SeededGenerator(13))
    incs = path.increments()
    centered = incs - incs.mean()
    acf1 = float(np.sum(centered[1:] * centered[:-1])
                 / np.sum(centered * centered))
    assert abs(acf1) < 3.0 / math.sqrt(incs.size)


def test_semigroup_at_sample_level():
    g = SeededGenerator(17).generator()
    two_halves = (sample_increment(0.5, UNIT, g, size=10 ** 5)
                  + sample_increment(0.5, UNIT, g, size=10 ** 5))
    one_full = sample_increment(1.0, UNIT, SeededGenerator(18), size=10 ** 5)
    stat = ks_2samp(two_halves, one_full)
    assert stat.pvalue > 0.01


@pytest.mark.parametrize("t", [1.0, 0.1, 0.01])
def test_endpoints_average_to_the_euclidean_step(t):
    # exp((t/tau) eta(u)) is both the characteristic function of X_t and the
    # Euclidean propagator, so E psi0(x + X_t) = ifft(exp(t eta/tau) fft psi0)
    grid = GridSpec(n=4096, dx=0.05)
    x = grid.x_centers()

    def psi0(y):
        return np.exp(-0.5 * y * y) * np.cos(2.0 * y)

    propagator = np.exp((t / UNIT.tau) * eta_relativistic(grid.u_fft(), UNIT))
    step = np.fft.ifft(propagator * np.fft.fft(psi0(x))).real
    at = grid.n // 2 + np.array([-30, -10, 5, 20])  # x = -1.5, -0.5, 0.25, 1
    ends = sample_endpoints(t, UNIT, SeededGenerator(3), 200_000, steps=4)
    values = psi0(x[at, None] + ends)
    stderr = values.std(axis=1) / math.sqrt(ends.size)
    assert np.all(np.abs(values.mean(axis=1) - step[at]) < 4.0 * stderr), (
        (values.mean(axis=1) - step[at]) / stderr)


# ---------------------------------------------------------------------------
# tiled endpoints
# ---------------------------------------------------------------------------

def one_clock_endpoints(T, rng, n):
    """Endpoints sqrt(S(T)) Z: one time-T clock, then one normal per path,
    all from `rng`."""
    clock = sample_inverse_gaussian(*sampler._clock_law(T, UNIT), rng, size=n)
    return np.sqrt(clock) * rng.standard_normal(n)


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_single_tile_is_one_clock_draw(steps):
    n = TILE - 5
    ends = sample_endpoints(1.5, UNIT, SeededGenerator(4, 9), n, steps=steps)
    expected = one_clock_endpoints(1.5, SeededGenerator(4, 9).generator(), n)
    assert ends.tobytes() == expected.tobytes()
    one_step = sample_endpoints(1.5, UNIT, SeededGenerator(4, 9), n, steps=1)
    assert ends.tobytes() == one_step.tobytes()


def test_tile_b_draws_from_philox_jumped_b_times():
    seed, stream, steps = 6, 3, 3
    n = 2 * TILE + 100
    ends = sample_endpoints(0.9, UNIT, SeededGenerator(seed, stream), n,
                            steps=steps)
    philox = np.random.Philox(key=seed | (stream << 64))
    for b, size in enumerate((TILE, TILE, 100)):
        rng = np.random.Generator(philox.jumped(b))
        expected = one_clock_endpoints(0.9, rng, size)
        assert ends[b * TILE:b * TILE + size].tobytes() == expected.tobytes()
    one_step = sample_endpoints(0.9, UNIT, SeededGenerator(seed, stream), n)
    assert ends.tobytes() == one_step.tobytes()


def test_endpoint_memory_is_bounded():
    tracemalloc.start()
    try:
        sample_endpoints(1.0, UNIT, SeededGenerator(0), 10 ** 5, steps=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("kwargs", [{"steps": 0}, {"n_paths": 0},
                                    {"T": 0.0}])
def test_endpoint_arguments_are_validated(kwargs):
    args = {"T": 1.0, "params": UNIT, "g": SeededGenerator(0), "n_paths": 10,
            "steps": 1, **kwargs}
    with pytest.raises(ValueError):
        sample_endpoints(**args)


def test_sample_paths_is_step_major_cumulative_sum():
    steps, n = 5, 4
    pos = sample_paths(2.0, steps, UNIT, SeededGenerator(12), n)
    assert pos.shape == (n, steps + 1)
    assert not pos[:, 0].any()
    rng = SeededGenerator(12).generator()
    incs = [sample_increment(2.0 / steps, UNIT, rng, size=n) for _ in range(steps)]
    expected = np.cumsum(np.column_stack([np.zeros(n)] + incs), axis=1)
    np.testing.assert_array_equal(pos, expected)


# ---------------------------------------------------------------------------
# KS validation
# ---------------------------------------------------------------------------

def sample_from_table(reference, n: int, g) -> np.ndarray:
    """Inverse-CDF draws from a gridded density (test calibration aid)."""
    x, cdf = reference.cdf_nodes()
    return np.interp(g.generator().random(n), cdf, x)


def test_ks_validation_primary(reference_table):
    samples = sample_endpoints(1.0, UNIT, SeededGenerator(42), 10 ** 5)
    report = ks_validate(samples, reference_table)
    assert report.passed
    assert report.threshold == pytest.approx(1.63 / math.sqrt(10 ** 5))


def test_ks_validation_of_summed_clocks(reference_table):
    # 100 steps: their clocks sum to one time-T clock, one normal per path
    samples = sample_endpoints(1.0, UNIT, SeededGenerator(43), 10 ** 5,
                               steps=100)
    assert ks_validate(samples, reference_table).passed


def test_ks_calibration_from_inverse_cdf(reference_table):
    samples = sample_from_table(reference_table, 10 ** 5, SeededGenerator(5))
    assert ks_validate(samples, reference_table).passed


def test_ks_rejects_gaussian_of_equal_variance(reference_table):
    gauss = SeededGenerator(9).generator().standard_normal(10 ** 5)
    report = ks_validate(gauss, reference_table)
    assert not report.passed
    assert report.d > 5.0 * report.threshold


def test_ks_sample_count_guard(reference_table):
    with pytest.raises(ValueError):
        ks_validate(np.zeros(100) + 0.1, reference_table)


def test_ks_range_guard(reference_table):
    samples = np.concatenate([np.full(2000, 0.1), [1e6]])
    with pytest.raises(GridError):
        ks_validate(samples, reference_table)


def old_eta_relativistic(u, params):
    t = np.abs(params.a * np.asarray(u, dtype=float))
    with np.errstate(over="ignore"):
        small = -(t * t) / (1.0 + np.hypot(1.0, t))
    large = 1.0 - np.hypot(1.0, t)
    return np.where(t < 1.0, small, large)


def half_spectrum_density(t, grid):
    """The table's formula written out: |u| at k = 0..n/2, signs alternating
    through an np.where array, irfft over dx."""
    u = grid.u_fft()[:grid.n // 2 + 1]
    phi = np.exp((t / UNIT.tau) * old_eta_relativistic(u, UNIT))
    alt = np.where(np.arange(u.size) % 2 == 0, 1.0, -1.0)
    return np.fft.irfft(phi * alt, grid.n) / grid.dx


def clipped(values, dx):
    values = values.copy()
    negative = values < 0.0
    mass = float(-values[negative].sum() * dx) if negative.any() else 0.0
    values[negative] = 0.0
    return values, mass


@pytest.mark.parametrize("t", [1.3, 0.13, 0.7])
def test_density_and_ks_trims_keep_the_old_bytes(t):
    # the formulas these replaced, written out: eta took hypot twice, the
    # symmetry gate gathered values[j] and values[n - j], and D was the
    # largest of |i/n - f| and |(i - 1)/n - f|
    eta = LogCharacteristic.relativistic(UNIT)
    grid = default_grid(UNIT, t)
    u = np.linspace(-grid.u_max, grid.u_max, 10001)
    assert eta_relativistic(u, UNIT).tobytes() == \
        old_eta_relativistic(u, UNIT).tobytes()

    values, clipped_mass = clipped(half_spectrum_density(t, grid), grid.dx)
    table = transition_density(t, UNIT, eta, grid)
    assert table.values.tobytes() == values.tobytes()
    assert table.clipped_mass == clipped_mass

    # one cell off by just under and just over the gate's 1e-9 of the peak
    j = np.arange(1, grid.n)
    for factor in (0.999e-9, 1.001e-9):
        bent = values.copy()
        bent[grid.n // 2 + 5] += factor * values.max()
        old_refuses = np.abs(bent[j] - bent[grid.n - j]).max() > \
            1e-9 * bent.max()
        assert old_refuses == (factor > 1e-9)
        if old_refuses:
            with pytest.raises(GridError, match="asymmetric"):
                densities._finalize_density(grid, bent)
        else:
            densities._finalize_density(grid, bent)

    samples = sample_endpoints(t, UNIT, SeededGenerator(11), 75000)
    f_ref = np.interp(np.sort(samples), *table.cdf_nodes())
    i, n = np.arange(1, samples.size + 1), samples.size
    d = float(np.max(np.maximum(np.abs(i / n - f_ref),
                                np.abs((i - 1) / n - f_ref))))
    assert ks_validate(samples, table).d == d


@pytest.mark.parametrize("t", [1.3, 0.13, 0.7])
def test_half_spectrum_density_is_the_complex_transform(t):
    # the full complex transform Re fft(phi (-1)^k) / (n dx) of the even phi,
    # which the table took before, agrees to 1e-15 of the peak
    grid = default_grid(UNIT, t)
    phi = np.exp((t / UNIT.tau) * old_eta_relativistic(grid.u_fft(), UNIT))
    phi[1::2] *= -1.0
    full = np.fft.fft(phi) / (grid.n * grid.dx)
    assert np.abs(full.imag).max() < 1e-15 * full.real.max()
    old, _ = clipped(full.real, grid.dx)
    table = transition_density(t, UNIT, LogCharacteristic.relativistic(UNIT), grid)
    assert np.abs(table.values - old).max() <= 1e-15 * old.max()
    # irfft is not symmetric to the last bit, so the symmetry gate still
    # sees rounding; it must stay far below the gate's 1e-9 of the peak
    half = half_spectrum_density(t, grid)
    assert np.abs(half[1:] - half[:0:-1]).max() < 1e-14 * half.max()


def test_ks_report_serialization():
    rep = KSReport(n=10, d=0.1, threshold=0.2, passed=True)
    assert rep.to_dict() == {"n": 10, "d": 0.1, "threshold": 0.2, "pass": True}
