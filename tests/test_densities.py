import math

import numpy as np
import pytest
from scipy.special import k1e

from levyqm import ExponentParams, LogCharacteristic
from levyqm.densities import (GridError, GridSpec, convolve,
                              default_grid, levy_density_1d, levy_density_3d,
                              moments, nyquist_margin, required_dx,
                              transition_density, _finalize_density)

UNIT = ExponentParams.from_mass(1.0)
ETA = LogCharacteristic.relativistic(UNIT)


@pytest.fixture(scope="module")
def unit_density():
    grid = default_grid(UNIT, 1.0)
    return transition_density(1.0, UNIT, ETA, grid)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n=1000, dx=0.1)       # not a power of two
    with pytest.raises(ValueError):
        GridSpec(n=128, dx=0.1)        # too small
    with pytest.raises(ValueError):
        GridSpec(n=256, dx=0.0)
    g = GridSpec(n=256, dx=0.5)
    assert g.u_max == pytest.approx(math.pi / 0.5)
    assert g.du == pytest.approx(2.0 * math.pi / 128.0)
    x = g.x_centers()
    assert x[g.n // 2] == 0.0
    assert x[0] == -64.0


def test_default_grid_margin():
    grid = default_grid(UNIT, 1.0, margin=4.0)
    # decay criterion met with a factor-4 margin in u_max
    assert nyquist_margin(ETA, 1.0, UNIT.tau, grid) > 3.5
    quarter = GridSpec(n=grid.n, dx=4.0 * grid.dx)
    assert nyquist_margin(ETA, 1.0, UNIT.tau, quarter) >= 0.99


def test_required_dx_matches_closed_form():
    dx = required_dx(ETA, 1.0, UNIT.tau)
    c = -math.log(1e-12)
    u_star = math.sqrt((1.0 + c) ** 2 - 1.0)
    assert dx == pytest.approx(math.pi / u_star, rel=1e-6)


def test_nyquist_violation_raises_with_suggestion():
    grid = GridSpec(n=256, dx=1.0)
    with pytest.raises(GridError, match="need dx"):
        transition_density(1.0, UNIT, ETA, grid)


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------

def test_density_normalization(unit_density):
    assert abs(unit_density.normalization() - 1.0) < 1e-6


def test_density_symmetry(unit_density):
    v = unit_density.values
    n = unit_density.grid.n
    j = np.arange(1, n)
    assert np.max(np.abs(v[j] - v[n - j])) <= 1e-9 * v.max()


def test_density_moments(unit_density):
    assert moments(unit_density, 0) == pytest.approx(1.0, abs=1e-6)
    assert moments(unit_density, 1) == pytest.approx(0.0, abs=1e-9)
    # second cumulant of the increment law is (dt/tau) a^2
    assert moments(unit_density, 2) == pytest.approx(1.0, rel=1e-3)
    assert moments(unit_density, 4) > 3.0  # heavier than Gaussian


def test_density_variance_scales_with_dt():
    grid = default_grid(UNIT, 0.25)
    table = transition_density(0.25, UNIT, ETA, grid)
    assert moments(table, 2) == pytest.approx(0.25, rel=1e-3)


def test_moments_domain():
    grid = default_grid(UNIT, 1.0, n=256 * 4)
    table = transition_density(1.0, UNIT, ETA, grid)
    for bad in (-1, 5, 2.5):
        with pytest.raises(ValueError):
            moments(table, bad)


def test_dt_must_be_positive():
    grid = default_grid(UNIT, 1.0)
    with pytest.raises(ValueError):
        transition_density(-1.0, UNIT, ETA, grid)
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            default_grid(UNIT, dt)


def test_dt_must_be_finite():
    # a NaN or infinite dt gave an all-NaN table or a ZeroDivisionError
    grid = default_grid(UNIT, 1.0)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            default_grid(UNIT, dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            transition_density(dt, UNIT, ETA, grid)


def test_default_grid_at_a_huge_dt():
    # (1 + c)^2 - 1 rounds to 0 here; c (2 + c) keeps its digits
    dt = 1e300
    grid = default_grid(UNIT, dt)
    table = transition_density(dt, UNIT, ETA, grid)
    assert table.normalization() == pytest.approx(1.0, abs=1e-12)
    assert moments(table, 2) / dt == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_density_matches_closed_form(t):
    # the a = tau = 1 increment law has the closed-form Bessel density
    # p(x) = (t/pi) e^t K1(sqrt(t^2 + x^2)) / sqrt(t^2 + x^2): an oracle
    # for the entire inversion path (grid layout, phases, scaling)
    from levyqm import bessel_k
    grid = default_grid(UNIT, t)
    table = transition_density(t, UNIT, ETA, grid)
    x = grid.x_centers()
    for target in (0.0, 0.5, 1.7, 5.0):
        j = int(np.argmin(np.abs(x - target)))
        z = math.hypot(t, x[j])
        closed = (t / math.pi) * math.exp(t) * bessel_k(1, z) / z
        assert table.values[j] == pytest.approx(closed, rel=1e-10)


def nig_density(x, dt, params):
    """Exact increment law: normal-inverse-Gaussian with alpha = 1/a, beta = 0
    and delta = a dt / tau, p(x) = alpha delta e^(alpha delta) K1(alpha r)
    / (pi r) with r = sqrt(delta^2 + x^2), written with k1e so that it
    cannot overflow."""
    alpha, delta = 1.0 / params.a, params.a * dt / params.tau
    r = np.hypot(delta, x)
    return (alpha * delta / math.pi * k1e(alpha * r)
            * np.exp(-alpha * (r - delta)) / r)


@pytest.mark.parametrize("m, dt", [
    (1.0, 1.0), (1.0, 0.3), (2.0, 1.0), (0.5, 2.0),
    pytest.param(1.0, 1e-2, marks=pytest.mark.xfail(
        strict=True, reason="small-dt aliasing: default_grid keeps n fixed "
        "while dx shrinks, so the heavy tail wraps into the window "
        "(ROADMAP open item on an honest transition density)")),
])
def test_density_matches_nig_law_on_the_whole_grid(m, dt):
    params = ExponentParams.from_mass(m)
    grid = default_grid(params, dt)
    table = transition_density(dt, params,
                               LogCharacteristic.relativistic(params), grid)
    exact = nig_density(grid.x_centers(), dt, params)
    diff = np.abs(table.values - exact)
    assert np.sum(diff) * grid.dx <= 1e-12
    assert diff.max() <= 1e-12 * exact.max()


def test_chapman_kolmogorov(unit_density):
    grid = unit_density.grid
    direct = transition_density(2.0, UNIT, ETA, grid)
    via_conv = convolve(unit_density, unit_density)
    l1 = float(np.sum(np.abs(via_conv.values - direct.values)) * grid.dx)
    assert l1 < 1e-6

    a = transition_density(0.5, UNIT, ETA, grid)
    b = transition_density(1.5, UNIT, ETA, grid)
    l1b = float(np.sum(np.abs(convolve(a, b).values - direct.values)) * grid.dx)
    assert l1b < 1e-6


def test_convolve_grid_mismatch():
    g1 = default_grid(UNIT, 1.0, n=1024)
    g2 = default_grid(UNIT, 1.0, n=2048)
    t1 = transition_density(1.0, UNIT, ETA, g1)
    t2 = transition_density(1.0, UNIT, ETA, g2)
    with pytest.raises(ValueError):
        convolve(t1, t2)


def test_cdf_nodes_monotone(unit_density):
    _, cdf = unit_density.cdf_nodes()
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


def test_finalize_clips_and_records_tiny_negatives():
    grid = GridSpec(n=256, dx=0.1)
    x = grid.x_centers()
    vals = np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
    vals[3] = vals[grid.n - 3] = -5e-11
    table = _finalize_density(grid, vals)
    assert table.clipped_mass == pytest.approx(1e-11, rel=1e-6)
    assert table.values[3] == 0.0


def test_finalize_rejects_large_negatives():
    grid = GridSpec(n=256, dx=0.1)
    x = grid.x_centers()
    vals = np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
    vals[3] = vals[grid.n - 3] = -1e-9
    with pytest.raises(GridError, match="negative"):
        _finalize_density(grid, vals)


# ---------------------------------------------------------------------------
# jump kernels
# ---------------------------------------------------------------------------

def test_kernel_1d_even_and_singular():
    assert levy_density_1d(0.7, UNIT) == levy_density_1d(-0.7, UNIT)
    with pytest.raises(ValueError):
        levy_density_1d(0.0, UNIT)


def test_kernel_1d_small_argument():
    # x^2 W(x) -> 1/pi as x -> 0
    x = 1e-4
    assert x ** 2 * levy_density_1d(x, UNIT) == pytest.approx(1.0 / math.pi,
                                                              rel=0.01)


def test_kernel_1d_quadrature_bridge():
    # int (cos x - 1) W(x) dx = 1 - sqrt(2) ties the kernel to the exponent
    from scipy.integrate import quad
    val, _ = quad(lambda x: (math.cos(x) - 1.0) * levy_density_1d(x, UNIT),
                  0.0, 60.0, points=[1.0], limit=300)
    assert 2.0 * val == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-4)


def test_kernel_3d_small_argument():
    # r^4 W(r) -> 1/pi^2 as r -> 0
    r = 1e-4
    assert r ** 4 * levy_density_3d(r, UNIT) == pytest.approx(
        1.0 / math.pi ** 2, rel=0.01)


@pytest.mark.parametrize("z", [10.0, 20.0])
def test_kernel_3d_large_argument_asymptotics(z):
    # K2(z) ~ sqrt(pi/2z) e^-z (1 + 15/(8z)); the first correction is
    # needed at these z (it is 19% at z = 10)
    asym = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * (1.0 + 15.0 / (8.0 * z))
    expected = asym / (2.0 * math.pi ** 2 * z ** 2)
    assert levy_density_3d(z, UNIT) == pytest.approx(expected, rel=0.02)


def test_kernel_3d_scaling_identity():
    # W(r; a) = a^-3 What(r/a): scale covariance under (r, a) -> (L r, L a)
    scale = 2.5
    p_scaled = ExponentParams(a=scale, tau=1.0, m=1.0)
    for r in (0.3, 1.0, 4.0):
        lhs = levy_density_3d(scale * r, p_scaled) * scale ** 3
        rhs = levy_density_3d(r, UNIT)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("kernel, m, r", [
    # 2 a pi^2 r^2 underflowed: 0/0 and "overflows below r = 4.872e-153"
    (levy_density_3d, 1e300, 1e-150),
    # 2 a pi^2 r^2 overflowed: 0.0 where the kernel is 8.1e-286
    (levy_density_3d, 1e-300, 1.057e146),
    (levy_density_3d, 1e-300, 1e150),
    # underflowed, with K2(700) normal: "overflows below r = 4.872e-128"
    (levy_density_3d, 1e200, 7e-198),
    # K1(740) is subnormal over pi r < 1: 2.4% off
    (levy_density_1d, 1e110, 7.4e-108),
    # a normal 2 a pi^2 r^2 with 700 a past 1.3e154: an OverflowError from
    # the float (700 a)^2 of the branch test
    (levy_density_3d, 1e-200, 1e50),
], ids=["3d-0/0", "3d-x/inf", "3d-x/inf-far", "3d-K2-normal", "1d-K1-subnormal",
        "3d-huge-a"])
def test_kernels_at_extreme_masses_match_mpmath(kernel, m, r):
    mpmath = pytest.importorskip("mpmath")
    p = ExponentParams.from_mass(m)
    order = 2 if kernel is levy_density_3d else 1
    with mpmath.workdps(40):
        x, a = mpmath.mpf(r), mpmath.mpf(p.a)
        want = mpmath.besselk(order, x / a) / (
            (2 * a) ** (order - 1) * (mpmath.pi * x) ** order)
        want = float(want)
    assert kernel(r, p) == pytest.approx(want, rel=1e-12, abs=0)
    assert kernel(np.array([r, 2.0 * r]), p)[0] == kernel(r, p)


def test_kernel_3d_domain():
    with pytest.raises(ValueError):
        levy_density_3d(0.0, UNIT)
    with pytest.raises(ValueError):
        levy_density_3d(-1.0, UNIT)


@pytest.mark.parametrize("a", [0.35, 1.0, 3.0])
def test_kernel_3d_is_the_radial_derivative_of_kernel_1d(a):
    # an isotropic 3D kernel and its 1D marginal obey W3(r) = -W1'(r)/(2 pi r);
    # W1' by a 5-point central difference, so no K2 enters the right side
    p = ExponentParams(a=a, tau=1.0, m=1.0)
    r = a * np.geomspace(0.01, 30.0, 200)
    h = 1e-3 * r / (1.0 + r / a)
    w1_prime = (levy_density_1d(r - 2 * h, p) - 8.0 * levy_density_1d(r - h, p)
                + 8.0 * levy_density_1d(r + h, p) - levy_density_1d(r + 2 * h, p)) / (12.0 * h)
    np.testing.assert_allclose(levy_density_3d(r, p), -w1_prime / (2.0 * math.pi * r),
                               rtol=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", [levy_density_1d, levy_density_3d])
@pytest.mark.parametrize("m", [1e-300, 1e-200, 1e-30, 1.0, 1e30, 1e200, 1e300])
def test_kernel_overflow_names_the_smallest_radius(kernel, m):
    # W1 ~ a/(pi r^2) and W3 ~ a/(pi^2 r^4) passed the largest double and
    # came out inf (1e-300 and below made bessel_k's K1 or K2 overflow first);
    # that bound assumes r << a, and at m = 1e300 it named r = 4.872e-153
    # for W3, which is finite from r = 1.342e-297
    p = ExponentParams.from_mass(m)
    with pytest.raises(ValueError, match="jump kernel overflows below r = ") as info:
        kernel(np.array([1.0, 1e-320]), p)
    message = str(info.value)
    named = float(message.rsplit(">= ", 1)[1])
    assert np.isfinite(kernel(named, p))
    below = float(message.split("below r = ")[1].split(" ")[0])
    for factor in (0.999, 0.99):
        with pytest.raises(ValueError):
            kernel(factor * below, p)
