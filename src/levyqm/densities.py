"""Transition densities by characteristic-function inversion.

The time-dt transition density of a process with log-characteristic
eta is

    p(x) = (1/2pi) int exp((dt/tau) eta(u)) exp(-i u x) du,

computed here by the discrete Fourier inversion on a uniform centered
grid.  Grid convention: x_j = (j - n/2) dx, angular frequencies in
numpy fft order u_k = 2 pi k / (n dx); the centering contributes the
alternating factor (-1)^k.  phi is real and even in u, so its transform
is real and the half spectrum k = 0..n/2 determines it (Sorensen et al.
1987):

    p(x_j) = irfft(phi_k * (-1)^k, k = 0..n/2)_j / dx.

The module also evaluates the Bessel-type jump kernels of the
relativistic pure-jump process,

    W1(x) = K1(|x|/a) / (pi |x|),      (one dimension)
    W3(r) = K2(r/a) / (2 a pi^2 r^2),  (three dimensions, radial)

whose compensated integral reproduces the closed-form exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import (ExponentParams, K_SMALLEST_ARG, LevyTriplet,
                        LOG_DECAY_CRITERION, bessel_k, eta_relativistic)


class GridError(ValueError):
    """Grid too coarse/small for the requested computation."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform centered spatial grid: n points (power of two), step dx.

    Covers [-n dx / 2, n dx / 2); implied frequency step 2 pi / (n dx),
    Nyquist edge pi / dx.
    """

    n: int
    dx: float

    def __post_init__(self):
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two, at least 256")
        if not self.dx > 0:
            raise ValueError("dx must be positive")

    @property
    def du(self) -> float:
        return 2.0 * math.pi / (self.n * self.dx)

    @property
    def u_max(self) -> float:
        return math.pi / self.dx

    def x_centers(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    def u_fft(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass(frozen=True)
class DensityTable:
    """Probability density sampled on a grid.

    clipped_mass: total (negative) ringing mass set to zero
    """

    grid: GridSpec
    values: np.ndarray
    clipped_mass: float = 0.0

    def normalization(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)

    def cdf_nodes(self):
        """Node CDF with cell masses split at the node (midpoint rule)."""
        masses = self.values * self.grid.dx
        cdf = np.cumsum(masses) - 0.5 * masses
        return self.grid.x_centers(), cdf


def _finalize_density(grid: GridSpec, values: np.ndarray) -> DensityTable:
    """Gate and freeze a real table; clips ``values`` in place, so pass a
    fresh array."""
    negative = values < 0.0
    worst = float(values.min()) if negative.any() else 0.0
    if worst < -1e-10:
        raise GridError(
            f"density has negative values down to {worst:.3e}; "
            "ringing beyond -1e-10 indicates an inadequate grid")
    clipped_mass = float(-values[negative].sum() * grid.dx) if negative.any() else 0.0
    values[negative] = 0.0

    norm = float(values.sum() * grid.dx)
    if abs(norm - 1.0) > 1e-6:
        raise GridError(f"density normalization {norm!r} deviates from 1 by more "
                        "than 1e-6; widen the grid")

    asym = np.abs(values[1:] - values[:0:-1])  # p(x_j) against p(x_{n-j})
    if asym.max() > 1e-9 * values.max():
        raise GridError("density is asymmetric beyond 1e-9 of its peak")

    values.setflags(write=False)
    return DensityTable(grid=grid, values=values, clipped_mass=clipped_mass)


def nyquist_margin(eta, dt: float, tau: float, grid: GridSpec) -> float:
    """log |phi(u_max)| relative to the decay criterion; > 1 means safe."""
    edge = (dt / tau) * float(eta(grid.u_max))
    return edge / LOG_DECAY_CRITERION


def required_dx(eta, dt: float, tau: float) -> float:
    """Largest dx whose Nyquist edge meets the decay criterion, by bisection."""
    target = LOG_DECAY_CRITERION * tau / dt
    lo, hi = 0.0, 1.0
    while float(eta(hi)) > target:
        hi *= 2.0
        if hi > 1e300:
            raise GridError("exponent decays too slowly for any grid")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(eta(mid)) > target:
            lo = mid
        else:
            hi = mid
    return math.pi / hi


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite (got dt = {dt})")


def default_grid(params: ExponentParams, dt: float, n: int = 2 ** 14,
                 margin: float = 4.0) -> GridSpec:
    """Grid meeting the decay criterion with a safety margin on u_max.

    Uses the closed-form inverse of the relativistic exponent:
    |eta(u*)| = c = -log(1e-12) tau / dt, so a u* = sqrt(c (2 + c)),
    which keeps its digits at large dt; dx = pi / (margin u*).
    """
    _check_dt(dt)
    c = -LOG_DECAY_CRITERION * params.tau / dt
    u_star = math.sqrt(c * (2.0 + c)) / params.a
    return GridSpec(n=n, dx=math.pi / (margin * u_star))


def transition_density(dt: float, params: ExponentParams, eta,
                       grid: GridSpec) -> DensityTable:
    """Density of the time-dt increment by fast Fourier inversion.

    Requires |phi(u_max)| = exp((dt/tau) eta(u_max)) < 1e-12 at the
    Nyquist edge; violations raise GridError naming the dx that would
    satisfy the criterion.
    """
    _check_dt(dt)
    if nyquist_margin(eta, dt, params.tau, grid) < 1.0:
        raise GridError(
            f"grid too coarse: |phi(u_max)| >= 1e-12 at u_max = {grid.u_max:g}; "
            f"need dx <= {required_dx(eta, dt, params.tau):g}")

    u = 2.0 * math.pi * np.fft.rfftfreq(grid.n, d=grid.dx)  # |u_fft()[:n/2 + 1]|
    phi = np.exp((dt / params.tau) * np.asarray(eta(u), dtype=float))
    phi[1::2] *= -1.0  # (-1)^k centres the table's origin
    return _finalize_density(grid, np.fft.irfft(phi, grid.n) / grid.dx)


def convolve(a: DensityTable, b: DensityTable) -> DensityTable:
    """Periodic convolution of two tables on a shared grid (spectral form).

    The product of the tables' discrete transforms carries identical
    aliasing on both factors, so comparing against a directly computed
    longer-time density isolates the semigroup property itself.
    """
    if a.grid != b.grid:
        raise ValueError("tables must share a grid")
    n = a.grid.n
    fa = np.fft.rfft(np.fft.ifftshift(a.values))
    fb = np.fft.rfft(np.fft.ifftshift(b.values))
    raw = np.fft.fftshift(np.fft.irfft(fa * fb, n)) * a.grid.dx
    return _finalize_density(a.grid, raw)


def moments(table: DensityTable, k: int) -> float:
    """k-th raw moment sum x^k p(x) dx for k = 0..4."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > 4:
        raise ValueError("moment order must be an integer in 0..4")
    x = table.grid.x_centers()
    return float(np.sum(x ** k * table.values) * table.grid.dx)


# ---------------------------------------------------------------------------
# jump kernels
# ---------------------------------------------------------------------------

def levy_density_1d(x, params: ExponentParams):
    """One-dimensional jump kernel K1(|x|/a) / (pi |x|); singular at 0."""
    x_arr = np.asarray(x, dtype=float)
    if (x_arr == 0.0).any():
        raise ValueError("jump kernel is singular at x = 0")
    ax = np.abs(x_arr)
    out = _jump_kernel(1, ax, params, lambda r: math.pi * r)
    return float(out) if np.ndim(x) == 0 else out


def levy_density_3d(r, params: ExponentParams):
    """Three-dimensional radial jump kernel K2(r/a) / (2 a pi^2 r^2), r > 0."""
    r_arr = np.asarray(r, dtype=float)
    if (r_arr <= 0.0).any():
        raise ValueError("radial jump kernel requires r > 0")
    out = _jump_kernel(2, r_arr, params,
                       lambda r: 2.0 * params.a * math.pi ** 2 * r ** 2)
    return float(out) if np.ndim(r) == 0 else out


def _jump_kernel(order: int, r, params: ExponentParams, denominator):
    """K_order(r/a) / denominator(r), or a ValueError naming the smallest
    radius at which it is finite."""
    out = _kernel_values(order, r, params, denominator)
    if not np.isfinite(out).all():
        r_min = _smallest_finite_radius(order, params, denominator,
                                        float(r[~np.isfinite(out)].min()))
        raise ValueError(f"the {2 * order - 1}D jump kernel overflows below "
                         f"r = {r_min:.4g} at a = {params.a:.6g}; "
                         f"use radii >= {1.001 * r_min:.4g}")
    return out


def _kernel_values(order: int, r, params: ExponentParams, denominator):
    """K_order(r/a) / denominator(r), inf where it overflows.

    Where the denominator (2a)^(n-1) (pi r)^n is not a normal double, or
    K_order(r/a) is not and the denominator is below 1 (at extreme
    masses), the quotient would read 0/0, x/inf or a subnormal's few
    digits; there the kernel is exp(log K - log denominator), with log K
    = log kve(n, z) - z (z = r/a) where K underflows.
    """
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(all="ignore"):
        try:
            k = bessel_k(order, r / params.a)
        except ValueError:
            if not np.isfinite(r).all():
                raise
            k = np.inf  # K_order(r/a) itself overflows
        d = np.asarray(denominator(r))
        # K_order(z) is subnormal from z ~ 705, and the denominator grows
        # with r; a subnormal K over d >= 1 is as exact as a subnormal can be
        # (a numpy 700 a, as a float's ** 2 raises OverflowError past 1e154)
        inexact = False
        if (d.max() > big or d.min() < tiny
                or denominator(np.float64(700.0 * params.a)) < 1.0):
            inexact = (d < tiny) | (d > big) | ((k < tiny) & (d < 1.0))
        out = np.divide(k, d, out=d)
        if np.any(inexact):
            from scipy import special
            z, k = r[inexact] / params.a, np.broadcast_to(k, out.shape)[inexact]
            # kve reads nan from z ~ 4e9, where the kernel is 0 by far
            log_k = np.where(k >= tiny, np.log(k),
                             np.log(special.kve(order, np.minimum(z, 1e8))) - z)
            log_d = (order * (math.log(math.pi) + np.log(r[inexact]))
                     + (order - 1) * (math.log(2.0) + math.log(params.a)))
            out[inexact] = np.exp(log_k - log_d)
    return out


def _smallest_finite_radius(order: int, params: ExponentParams, denominator,
                            r_inf: float) -> float:
    """Smallest double r at which the kernel is finite, given r_inf where it
    is not; the kernel falls with r, so this bisects the doubles above
    r_inf, whose bit patterns are ordered as integers.

    K1(z) < 1/z and K2(z) < 2/z^2, so W1 < a/(pi r^2) and W3 < a/(pi^2 r^4)
    are finite from (a / (pi^n DBL_MAX))^(1/2n); that bound starts the
    search.  It is tight only where it lies far below a: at extreme masses
    the kernel overflows at r ~ a, where K_order decays exponentially.
    """
    def finite(bits):
        r = np.array([bits], dtype=np.int64).view(float)
        return np.isfinite(_kernel_values(order, r, params, denominator)[0])

    root = 0.5 / order
    hi = max((params.a / math.pi ** order) ** root / np.finfo(float).max ** root,
             params.a * K_SMALLEST_ARG[order], r_inf)
    lo, hi = (int(b) for b in np.array([r_inf, hi]).view(np.int64))
    while not finite(hi):
        hi += 1 << 52  # doubles the radius
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if finite(mid) else (mid, hi)
    return float(np.array([hi], dtype=np.int64).view(float)[0])


def relativistic_triplet(params: ExponentParams) -> LevyTriplet:
    """Generating triplet of the relativistic pure-jump process."""
    return LevyTriplet(jump_density=lambda x: levy_density_1d(x, params),
                       scale=params.a)
