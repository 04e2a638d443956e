"""Log-characteristics of symmetric infinitely divisible laws.

The central object is the logarithmic characteristic eta(u) of the
unit-time increment of a symmetric process: the characteristic function
of a time-t increment is exp((t/tau) * eta(u)).  For the relativistic
square-root dispersion the exponent is

    eta(u) = 1 - sqrt(1 + a^2 u^2),

with ``a`` the Compton-type length of a particle of mass m.  The same
exponent must be recovered from its jump kernel through the compensated
integral

    eta(u) = -beta^2 u^2 / 2 + integral (cos(u x) - 1) W(x) dx,

which is the consistency check tying the closed form to the jump
picture.  ``eta_from_triplet`` evaluates it for a whole array of u with
vectorized tanh-sinh quadrature (``scipy.integrate.tanhsinh``) on
doubling panels, calling W on arrays a few times per array.  The only
special function needed anywhere is the modified Bessel function K_n
for n = 0, 1, 2, taken from ``scipy.special``; the tests check it
against mpmath, quadrature and recurrence oracles.  Both scipy modules
are imported inside the function that calls them, not here: together
they take ~0.5 s to import, several times the work of most CLI
subcommands, and the spectrum, density and simulate commands need
neither.

Natural units throughout: hbar = c = 1, masses in GeV, lengths and
times in GeV^-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# log(1e-12): characteristic-function decay demanded at the Nyquist edge
LOG_DECAY_CRITERION = math.log(1e-12)

# Panels and u per tanhsinh call.  The relativistic kernel stops after
# 6-8 panels: batches of 8 to 16 panels cost about the same, ~1.3 ms for
# one u and 0.15-0.2 ms per u for 64, and below 8 a second call is
# needed.  The work arrays take ~60 kB per u (u a up to 60): 4096 u in
# slices of 256 peak at 20 MB and run faster than in one call (255 MB).
# One thread of a 2-vCPU Xeon VM.
PANEL_BATCH = 12
U_BATCH = 256

# Nodes nearer the origin than NODE_FLOOR * scale are evaluated at that
# distance.  tanh-sinh places nodes down to (and on) x = 0, where W is
# singular and sin^2 underflows, while the integrand O(x^2 W) stays
# integrable: the slab changes the integral far below any tolerance.
NODE_FLOOR = 1e-100


class TailDivergenceError(RuntimeError):
    """Compensated jump integral failed to converge on expanding panels."""

    def __init__(self, message, partial_sums):
        super().__init__(message)
        self.partial_sums = list(partial_sums)


class QuadratureToleranceError(RuntimeError):
    """Accumulated quadrature error estimate exceeded the requested tolerance."""


# ---------------------------------------------------------------------------
# modified Bessel functions K0, K1, K2
# ---------------------------------------------------------------------------

def bessel_k(order: int, z):
    """Modified Bessel function K_order(z) for order in {0, 1, 2}, z > 0.

    ``scipy.special.k0`` and ``k1`` (Cephes) and ``kn(2, .)`` (Amos,
    ACM TOMS 644); relative accuracy ~1e-15 over z in [1e-8, 690].
    Underflows cleanly to 0 for very large z.  Accepts scalars or arrays.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported Bessel order {order!r}; only K0, K1, K2")
    z_arr = np.asarray(z, dtype=float)
    if not ((z_arr > 0.0) & np.isfinite(z_arr)).all():
        raise ValueError("bessel_k requires strictly positive finite argument")
    # importing scipy.special costs ~0.23 s; spectrum, density and simulate never do
    from scipy import special
    out = special.kn(2, z_arr) if order == 2 else (special.k0, special.k1)[order](z_arr)
    return float(out) if z_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# parameter and law containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentParams:
    """Length/time/mass scales of the relativistic exponent.

    a:   Compton-type length (GeV^-1)
    tau: time scale (GeV^-1)
    m:   base mass (GeV)

    With the natural-unit identification a = 1/m and tau = 1/m.
    """

    a: float
    tau: float
    m: float

    def __post_init__(self):
        if not (self.a > 0 and self.tau > 0 and self.m > 0):
            raise ValueError("ExponentParams requires a > 0, tau > 0, m > 0")

    @classmethod
    def from_mass(cls, m: float) -> "ExponentParams":
        """Natural-unit parameters of a mass-m particle: a = tau = 1/m."""
        if m <= 0:
            raise ValueError("mass must be positive")
        return cls(a=1.0 / m, tau=1.0 / m, m=m)


@dataclass(frozen=True)
class LevyTriplet:
    """Generating triplet of a centered symmetric law (zero drift).

    The jump density W must be even and nonnegative, with
    int (x^2 ^ 1) W(x) dx finite; ``eta_from_triplet`` raises
    TailDivergenceError when it is not.  W must be elementwise on
    arrays: the quadrature passes it whole arrays of nodes.  ``scale``
    is a characteristic jump length used to place quadrature panel
    boundaries.
    """

    beta2: float = 0.0
    jump_density: Callable[[np.ndarray], np.ndarray] = None
    scale: float = 1.0

    def __post_init__(self):
        if self.beta2 < 0:
            raise ValueError("Gaussian coefficient beta2 must be >= 0")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.jump_density is not None:
            x = self.scale * np.array([0.5, 1.0, 2.0])
            wp = np.asarray(self.jump_density(x), dtype=float)
            wm = np.asarray(self.jump_density(-x), dtype=float)
            if (wp < 0).any() or (wm < 0).any():
                raise ValueError("jump density must be nonnegative")
            bound = 1e-12 * np.maximum(np.maximum(wp, wm), 1e-300)
            if (np.abs(wp - wm) > bound).any():
                raise ValueError("jump density must be even (symmetric law)")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance/panel policy for the compensated jump integral."""

    tol: float = 1e-10
    max_doublings: int = 48


@dataclass(frozen=True)
class LogCharacteristic:
    """A log-characteristic u -> eta(u), real-valued; ``eval`` takes arrays."""

    eval: Callable

    def __call__(self, u):
        return self.eval(u)

    @classmethod
    @functools.lru_cache(maxsize=32)
    def relativistic(cls, params: ExponentParams) -> "LogCharacteristic":
        """The relativistic exponent; one shared object per parameter set,
        so that caches keyed on eta (the spectral multiplier) hit."""
        return cls(eval=lambda u: eta_relativistic(u, params))

    @classmethod
    def from_triplet(cls, triplet: LevyTriplet,
                     quadrature: QuadratureSpec | None = None) -> "LogCharacteristic":
        return cls(eval=lambda u: eta_from_triplet(u, triplet, quadrature))


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def eta_relativistic(u, params: ExponentParams):
    """1 - sqrt(1 + a^2 u^2), evaluated without small-u cancellation."""
    t = np.abs(params.a * np.asarray(u, dtype=float))
    with np.errstate(over="ignore"):
        small = -(t * t) / (1.0 + np.hypot(1.0, t))
    large = 1.0 - np.hypot(1.0, t)
    out = np.where(t < 1.0, small, large)
    return float(out) if np.ndim(u) == 0 else out


def kinetic_energy(p, m: float):
    """Relativistic kinetic energy sqrt(m^2 + p^2) - m.

    Evaluated as p^2 / (hypot(m, p) + m), which is exact algebra and
    keeps full relative precision in the nonrelativistic regime; it
    must agree with -m eta(p) for the natural-unit exponent of mass m.
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    p_arr = np.asarray(p, dtype=float)
    energy = np.hypot(m, p_arr)
    with np.errstate(over="ignore"):
        small = p_arr * p_arr / (energy + m)
    out = np.where(np.abs(p_arr) < m, small, energy - m)
    return float(out) if np.ndim(p) == 0 else out


def eta_modified_branch(u, base: ExponentParams, root_x: float):
    """Exponent of the spectrum branch with squared-mass ratio root_x.

    A root x_i of the cutoff equation g(x) = 1 re-scales the mass to
    M = m sqrt(x_i); the branch exponent is the relativistic exponent
    of that mass, 1 - sqrt(1 + u^2 / M^2).
    """
    if root_x <= 0:
        raise ValueError("branch root must be positive")
    branch = ExponentParams.from_mass(base.m * math.sqrt(root_x))
    return eta_relativistic(u, branch)


def eta_from_triplet(u, triplet: LevyTriplet,
                     quadrature: QuadratureSpec | None = None):
    """Compensated Levy-Khintchine integral for a symmetric triplet.

    Returns -beta^2 u^2 / 2 + int (cos(u x) - 1) W(x) dx, a float for a
    scalar u and an array of u's shape otherwise, from the integrand
    -2 sin^2(u x / 2) W(x), which is (cos(u x) - 1) W(x) without its
    cancellation at small u x.  Each tanh-sinh call covers PANEL_BATCH of
    the panels [0, s], [s, 2s], [2s, 4s], ... (s = triplet.scale) for up
    to U_BATCH u; a u stops after two consecutive panels below
    0.25 tol max(1, |total|) and sits out the later calls.  A u that does
    not stop within max_doublings panels raises TailDivergenceError with
    one partial sum per panel; a summed error estimate above tol, or a
    panel before the stop that did not converge, raises
    QuadratureToleranceError.  Each error names the first such u.
    """
    policy = quadrature or QuadratureSpec()
    s, tol, n = triplet.scale, policy.tol, policy.max_doublings
    flat = np.asarray(u, dtype=float).ravel()
    eta = -0.5 * triplet.beta2 * flat * flat  # the Gaussian part

    def integrand(x, u_col):
        x = np.maximum(x, NODE_FLOOR * s)
        return -2.0 * np.sin(0.5 * u_col * x) ** 2 * triplet.jump_density(x)

    if flat.size > U_BATCH:
        parts = np.split(flat, range(U_BATCH, flat.size, U_BATCH))
        eta = np.concatenate([eta_from_triplet(p, triplet, quadrature) for p in parts])
    elif triplet.jump_density is not None and flat.size:
        # per u (row) and panel: integral, error estimate, failure, and their
        # running sums; stop[i] is u_i's stopping panel, 0 until it stops
        panels, sums = np.zeros((2, 3, flat.size, n))
        stop = np.zeros(flat.size, dtype=int)
        edges = np.append(0.0, s * 2.0 ** np.arange(n, dtype=float))
        # importing scipy.integrate costs ~0.48 s; no CLI subcommand runs this
        from scipy.integrate import tanhsinh
        last = 0
        while last < n and not stop.all():
            first, last = last, min(last + PANEL_BATCH, n)
            active = np.flatnonzero(stop == 0)
            res = tanhsinh(integrand, edges[first:last], edges[first + 1:last + 1],
                           args=(flat[active, None],), atol=0.1 * tol, rtol=1e-12)
            panels[:, active, first:last] = res.integral, res.error, res.status != 0
            sums = panels.cumsum(axis=2)
            vals, totals = panels[0, :, :last], sums[0, :, :last]
            small = np.abs(vals) < 0.25 * tol * np.maximum(1.0, np.abs(totals))
            pair = small[:, 1:] & small[:, :-1]
            stop = np.where(pair.any(axis=1), pair.argmax(axis=1) + 1, 0)

        i = np.argmax(stop == 0)
        if stop[i] == 0:
            raise TailDivergenceError(
                f"jump integral at u = {flat[i]:g} did not converge within {n} "
                f"panel doublings (last panel ending at {s * 2.0 ** (n - 1):g})",
                (2.0 * sums[0, i] + eta[i]).tolist())
        total, err, failed = sums[:, np.arange(flat.size), stop]
        i = np.argmax(failed > 0)
        if failed[i]:
            raise QuadratureToleranceError(
                f"tanh-sinh did not converge on {failed[i]:g} panel(s) at u = "
                f"{flat[i]:g}; loosen the tolerance {tol:.3e}")
        i = np.argmax(err > tol)
        if err[i] > tol:
            raise QuadratureToleranceError(
                f"quadrature error estimate {err[i]:.3e} at u = {flat[i]:g} "
                f"exceeds tolerance {tol:.3e}")
        eta = 2.0 * total + eta
    eta = eta.reshape(np.shape(u))
    return float(eta) if np.ndim(u) == 0 else eta
