"""Wave-packet dynamics generated by a log-characteristic exponent.

The free evolution i d/dt psi = -(1/tau) eta(d/dx) psi acts in Fourier
space as the unitary multiplier

    psi_hat(u) -> exp(i dt eta(u) / tau) psi_hat(u),

exactly unitary because eta is real for symmetric laws.  Plane waves
are eigenfunctions with kinetic energy E0 = -eta(u)/tau; the rest-mass
phase is absorbed throughout, so all reported energies are kinetic.
The multiplier is fixed by (grid, dt, eta, tau), so it is built once and
kept in a small cache: a run of equal steps evaluates eta and exp once.
eta must therefore be a pure function of u.  The step is diagonal in
momentum space, so it stays there: the stepped wave function keeps
multiplier * psi_hat as its transform, and its values are the one
inverse transform of that product.  A run of spectral steps does one
forward transform, of the initial packet, and one inverse transform per
step; position space is read only for the observables.  A wave
function's values are read-only, so its transform and its density
|psi|^2 are computed at most once and shared by the norm gate,
``observables`` and the next step.  Transforms use ``numpy.fft``, as
``densities`` and the jump kernel do.  A branch of a cutoff spectrum
evolves the same way at its branch mass, which ``evolve_modified``
reads from the given ``SpectrumSolution`` without solving the spectrum
again.

For the pure-jump relativistic process the same generator has the
integro-differential form

    d/dt psi = (i/tau) int [psi(x+y) - psi(x)] W(y) dy,

discretized here with cell-integrated kernel weights and the sub-cell
jump core folded into an effective diffusion: one circular convolution,
whose real DFT S is the quadrature's symbol.  Its step is then the same
unitary multiply, psi_hat -> exp(i dt S / tau) psi_hat, so the two forms
advance psi alike at any dt, and their difference after one step is the
symbol error of the kernel quadrature alone.

Boundary conditions are periodic (discrete transform); packets must
keep negligible boundary amplitude, which is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .densities import GridError, GridSpec, levy_density_1d
from .exponents import ExponentParams, LogCharacteristic
from .spectrum import SpectrumSolution

BOUNDARY_TAIL = 1e-12


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a grid, unit norm (sum |psi|^2 dx = 1).

    Every step is a unitary multiply in momentum space and keeps the
    norm to rounding (< 1e-10 drift over thousands of steps), so the
    construction gate, 1e-7, is far above any run's drift and refuses
    only a field that was never normalized or a multiplier that is not
    unitary; a NaN norm fails it too.  ``values`` must be read-only,
    since ``transform`` and ``density`` are computed once and kept;
    ``from_samples`` and ``from_transform`` make such a copy.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        norm = float(self.density.sum() * self.grid.dx)
        if not abs(norm - 1.0) <= 1e-7:
            raise ValueError(f"wave function norm {norm!r} deviates from 1 "
                             "beyond 1e-7")
        if np.asarray(self.values).flags.writeable:
            raise ValueError("wave function values must be read-only; build "
                             "one with WaveFunction.from_samples")

    @cached_property
    def density(self) -> np.ndarray:
        """|psi|^2 = re^2 + im^2 of the values, read-only."""
        values = np.asarray(self.values)
        density = values.real ** 2 + values.imag ** 2
        density.setflags(write=False)
        return density

    @cached_property
    def transform(self) -> np.ndarray:
        """psi_hat = fft(values) in numpy fft order, read-only."""
        transform = np.fft.fft(self.values)
        transform.setflags(write=False)
        return transform

    @classmethod
    def from_samples(cls, grid: GridSpec, values):
        """The wave function of ``values`` divided by their norm."""
        values = np.asarray(values, dtype=complex)
        norm = math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.dx))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero field")
        values = values / norm
        values.setflags(write=False)
        return cls(grid=grid, values=values)

    @classmethod
    def from_transform(cls, grid: GridSpec, transform):
        """The wave function whose psi_hat is a copy of ``transform``.

        The copy is kept as the read-only ``transform``, so a chain of
        momentum-space steps transforms forward only once; the values
        are its inverse transform.
        """
        transform = np.array(transform, dtype=complex)
        transform.setflags(write=False)
        values = np.fft.ifft(transform)
        values.setflags(write=False)
        psi = cls(grid=grid, values=values)
        psi.__dict__["transform"] = transform  # the cached_property's slot
        return psi


@dataclass(frozen=True)
class Observables:
    norm: float
    centroid: float
    variance: float
    momentum_centroid: float


@dataclass(frozen=True)
class JumpStepReport:
    """The kernel quadrature behind one jump step.

    kernel_tail:  jump mass discarded beyond the truncation radius
    cells:        one-sided number of kernel cells
    y_max:        truncation radius
    """

    kernel_tail: float
    cells: int
    y_max: float


def gaussian_packet(x0: float, p0: float, sigma: float,
                    grid: GridSpec) -> WaveFunction:
    """Normalized Gaussian envelope exp(-(x-x0)^2/(2 sigma^2)) e^{i p0 x}.

    The position density |psi|^2 then has variance sigma^2 / 2.  The
    envelope must be resolved (sigma >= 4 dx) and contained: boundary
    amplitude below 1e-12 of the peak.
    """
    if sigma < 4.0 * grid.dx:
        raise GridError(f"sigma = {sigma:g} under-resolved; need >= 4 dx = "
                        f"{4.0 * grid.dx:g}")
    x = grid.x_centers()
    envelope = np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2))
    if max(envelope[0], envelope[-1]) > BOUNDARY_TAIL:
        raise GridError("packet support reaches the grid boundary; enlarge "
                        "the grid or shrink sigma")
    return WaveFunction.from_samples(grid, envelope * np.exp(1j * p0 * x))


@lru_cache(maxsize=8)
def _axes(grid: GridSpec):
    """The grid's x centers and FFT frequencies u, read-only."""
    x, u = grid.x_centers(), grid.u_fft()
    x.setflags(write=False)
    u.setflags(write=False)
    return x, u


def observables(psi: WaveFunction) -> Observables:
    x, u = _axes(psi.grid)
    density = psi.density
    total = density.sum()
    norm = float(total * psi.grid.dx)
    centroid = float(x @ density / total)
    variance = float((x - centroid) ** 2 @ density / total)
    hat = psi.transform
    spectral = hat.real ** 2 + hat.imag ** 2
    momentum = float(u @ spectral / spectral.sum())
    return Observables(norm=norm, centroid=centroid, variance=variance,
                       momentum_centroid=momentum)


# A phase of P rad is rounded by up to P 2^-52 rad; a step whose largest
# phase is rounded by more (P above ~4.5e5 rad) is refused.  The README's
# evolve (m = 1, dt = 0.05, dx = 0.05) turns its fastest mode by ~3 rad.
PHASE_ROUNDING_MAX = 1e-10


def _unitary_multiplier(dt: float, phase):
    """exp(i phase) of a step dt, read-only, if its phases are resolved."""
    rounding = float(np.max(np.abs(phase))) * 2.0 ** -52
    if rounding > PHASE_ROUNDING_MAX:  # a NaN dt is left to the norm gate
        raise ValueError(
            f"dt = {dt:g} turns the fastest mode by {rounding * 2.0 ** 52:.3g} rad, "
            f"whose rounding ({rounding:.2g} rad) exceeds {PHASE_ROUNDING_MAX:g} rad; "
            f"use dt <= {dt * PHASE_ROUNDING_MAX / rounding:.3g}")
    multiplier = np.exp(1j * phase)
    multiplier.setflags(write=False)
    return multiplier


@lru_cache(maxsize=8)
def _spectral_multiplier(grid: GridSpec, dt: float, eta, tau: float):
    """exp(i dt eta(u) / tau) on the grid's FFT frequencies, read-only."""
    _, u = _axes(grid)
    return _unitary_multiplier(dt, (dt / tau) * np.asarray(eta(u), dtype=float))


def evolve_spectral(psi: WaveFunction, dt: float, eta, tau: float) -> WaveFunction:
    """Exact free step: multiply psi_hat by exp(i dt eta(u) / tau).

    The multiplier comes from a cache keyed on (grid, dt, eta, tau), and
    psi_hat from ``psi.transform``.  The product is the new wave
    function's transform, so the step does one inverse FFT and the next
    step none forward: after k steps psi_hat is the k-fold product.
    """
    multiplier = _spectral_multiplier(psi.grid, dt, eta, tau)
    return WaveFunction.from_transform(psi.grid, multiplier * psi.transform)


def evolve_modified(psi: WaveFunction, dt: float, spectrum: SpectrumSolution,
                    branch: int) -> WaveFunction:
    """Free step on one mass branch of a cutoff spectrum.

    The branch mass M = m sqrt(x_i) is read from the spectrum and
    re-scales every natural-unit parameter, i.e. a_M = tau_M = 1/M.  The
    branch exponent is the same object for equal branch parameters, so
    repeated steps reuse one cached multiplier.
    """
    if not 0 <= branch < len(spectrum.roots):
        raise IndexError(f"branch {branch} outside spectrum of "
                         f"{len(spectrum.roots)} roots")
    if not spectrum.roots[branch] > 0.0:
        raise ValueError(f"branch {branch} is not a real positive root")
    params = ExponentParams.from_mass(spectrum.masses[branch])
    return evolve_spectral(psi, dt, LogCharacteristic.relativistic(params),
                           params.tau)


# ---------------------------------------------------------------------------
# jump-quadrature step
# ---------------------------------------------------------------------------

_GL4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                       0.3399810435848563, 0.8611363115940526])
_GL4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                         0.6521451548625461, 0.3478548451374538])


# the kernel's radius over a: the outermost |y|/a where W(y) |y| = K1(y/a)/pi
# stays above 1e-16, solved on K1's asymptote sqrt(pi/(2z)) e^-z = pi 1e-16
_KERNEL_RADIUS_Z = 34.15694006058636


@lru_cache(maxsize=8)
def _jump_kernel(grid: GridSpec, params: ExponentParams):
    """Fourier symbol of the cell-integrated jump generator on the grid.

    w[j-1] = int over [(j-1/2) dx, (j+1/2) dx] of W, j = 1..jmax;
    s_core = int over |y| < dx/2 of y^2 W(y) dy (both signs), the
    truncated small-jump second moment applied as a diffusion term.
    Both go into one real, even circular kernel (weight w at +-j, the
    Laplacian stencil at +-1, minus their sum at 0), whose DFT is the
    real symbol returned.  jmax <= n/2 - 1, so the +-j cells never alias.
    """
    dx = grid.dx
    y_max = _KERNEL_RADIUS_Z * params.a
    jmax = min(int(math.ceil(y_max / dx)), grid.n // 2 - 1)

    j = np.arange(1, jmax + 1)
    nodes = j[:, None] * dx + 0.5 * dx * _GL4_NODES[None, :]
    w = 0.5 * dx * (levy_density_1d(nodes, params) @ _GL4_WEIGHTS)

    half = 0.5 * dx
    core_nodes = 0.5 * half * (_GL4_NODES + 1.0)
    core_vals = core_nodes ** 2 * levy_density_1d(core_nodes, params)
    s_core = 2.0 * 0.5 * half * float(core_vals @ _GL4_WEIGHTS)

    kernel = np.zeros(grid.n)
    kernel[1:jmax + 1] = w
    kernel[grid.n - jmax:] = w[::-1]
    kernel[[1, -1]] += 0.5 * s_core / dx ** 2
    kernel[0] = -kernel.sum()
    symbol = np.fft.fft(kernel).real

    tail = 2.0 * levy_density_1d(jmax * dx + dx, params) * params.a \
        if jmax * dx < y_max else 0.0
    symbol.setflags(write=False)
    return symbol, jmax, float(tail)


@lru_cache(maxsize=8)
def _jump_multiplier(grid: GridSpec, params: ExponentParams, dt: float):
    """exp(i dt S / tau) for the jump symbol S on the grid, read-only."""
    symbol, _, _ = _jump_kernel(grid, params)
    return _unitary_multiplier(dt, (dt / params.tau) * symbol)


def evolve_jump_quadrature(psi: WaveFunction, dt: float,
                           params: ExponentParams):
    """One step of the jump form: multiply psi_hat by exp(i dt S / tau).

    S is the real symbol of the cell-weight kernel, so the step is
    unitary at any dt, and like ``evolve_spectral`` it keeps the product
    as the new transform.  Returns (new_psi, JumpStepReport); the report
    carries the kernel's truncation.
    """
    _, jmax, tail = _jump_kernel(psi.grid, params)
    multiplier = _jump_multiplier(psi.grid, params, dt)
    report = JumpStepReport(kernel_tail=tail, cells=jmax,
                            y_max=jmax * psi.grid.dx)
    return WaveFunction.from_transform(psi.grid, multiplier * psi.transform), report
