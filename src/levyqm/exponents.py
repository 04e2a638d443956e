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
picture.  ``eta_from_triplet`` evaluates it with vectorized tanh-sinh
quadrature (``scipy.integrate.tanhsinh``) on doubling panels, calling
W on arrays a few times per u.  The only special function needed
anywhere is the modified Bessel function K_n for n = 0, 1, 2, taken
from ``scipy.special``; the tests check it against mpmath, quadrature
and recurrence oracles.

Natural units throughout: hbar = c = 1, masses in GeV, lengths and
times in GeV^-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special
from scipy.integrate import tanhsinh

# log(1e-12): characteristic-function decay demanded at the Nyquist edge
LOG_DECAY_CRITERION = math.log(1e-12)

# Panels per tanhsinh call.  The relativistic kernel stops after 6-8
# panels; batches of 8 to 16 cost the same (~1.1 ms per u, one thread
# of a 2-vCPU Xeon VM), all 48 at once ~1.5x that, and batches below 8
# need a second call.
PANEL_BATCH = 12

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

_KN = {0: special.k0, 1: special.k1, 2: functools.partial(special.kn, 2)}


def bessel_k(order: int, z):
    """Modified Bessel function K_order(z) for order in {0, 1, 2}, z > 0.

    ``scipy.special.k0`` and ``k1`` (Cephes) and ``kn(2, .)`` (Amos,
    ACM TOMS 644); relative accuracy ~1e-15 over z in [1e-8, 690].
    Underflows cleanly to 0 for very large z.  Accepts scalars or arrays.
    """
    if order not in _KN:
        raise ValueError(f"unsupported Bessel order {order!r}; only K0, K1, K2")
    z_arr = np.asarray(z, dtype=float)
    if not ((z_arr > 0.0) & np.isfinite(z_arr)).all():
        raise ValueError("bessel_k requires strictly positive finite argument")
    out = _KN[order](z_arr)
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
    scale: float | None = None
    max_doublings: int = 48


@dataclass(frozen=True)
class LogCharacteristic:
    """A log-characteristic u -> eta(u), real-valued (symmetric case).

    ``eval`` does the work and accepts arrays.
    """

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
        def _eval(u):
            u_arr = np.atleast_1d(np.asarray(u, dtype=float))
            vals = np.array([eta_from_triplet(ui, triplet, quadrature) for ui in u_arr])
            return float(vals[0]) if np.ndim(u) == 0 else vals.reshape(np.shape(u))
        return cls(eval=_eval)

    @classmethod
    def modified_branch(cls, base: ExponentParams, root_x: float) -> "LogCharacteristic":
        return cls(eval=lambda u: eta_modified_branch(u, base, root_x))


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


def eta_from_triplet(u: float, triplet: LevyTriplet,
                     quadrature: QuadratureSpec | None = None) -> float:
    """Compensated Levy-Khintchine integral for a symmetric triplet.

    Returns -beta^2 u^2 / 2 + int (cos(u x) - 1) W(x) dx.  The integrand
    is taken as -2 sin^2(u x / 2) W(x), the same function without the
    cancellation of cos(u x) - 1 at small u x; it is O(x^2 W(x)) at the
    origin.  The half-line is covered by panels [0, s], [s, 2s],
    [2s, 4s], ... (s = quadrature scale), PANEL_BATCH of them per
    vectorized tanh-sinh call, and the sum stops after two consecutive
    panels below 0.25 tol max(1, |total|).  A tail that does not stop
    within max_doublings panels raises TailDivergenceError carrying one
    partial sum per panel; a summed error estimate above tol, or a panel
    before the stop that did not converge, raises
    QuadratureToleranceError.
    """
    policy = quadrature or QuadratureSpec()
    s = policy.scale if policy.scale is not None else triplet.scale
    u = float(u)
    gaussian = -0.5 * triplet.beta2 * u * u
    if triplet.jump_density is None:
        return gaussian

    def integrand(x):
        x = np.maximum(x, NODE_FLOOR * s)
        return -2.0 * np.sin(0.5 * u * x) ** 2 * triplet.jump_density(x)

    total = 0.0
    err = 0.0
    failed = 0
    partial_sums = []
    small_streak = 0
    for val, est, status in _panel_integrals(integrand, s, policy):
        total += val
        err += est
        failed += status != 0
        partial_sums.append(2.0 * total + gaussian)
        if abs(val) < 0.25 * policy.tol * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise TailDivergenceError(
            f"jump integral did not converge within {policy.max_doublings} panel "
            f"doublings (last panel ending at {s * 2.0 ** (policy.max_doublings - 1):g})",
            partial_sums)

    if failed:
        raise QuadratureToleranceError(
            f"tanh-sinh did not converge on {failed} panel(s) at u*scale = "
            f"{u * s:.3g}; loosen the tolerance {policy.tol:.3e}")
    if err > policy.tol:
        raise QuadratureToleranceError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {policy.tol:.3e}")
    return 2.0 * total + gaussian


def _panel_integrals(integrand, s: float, policy: QuadratureSpec):
    """(integral, error estimate, status) of the panels [0, s], [s, 2s],
    [2s, 4s], ... in order, up to max_doublings of them, each batch of
    PANEL_BATCH panels from one tanhsinh call."""
    for first in range(0, policy.max_doublings, PANEL_BATCH):
        last = min(first + PANEL_BATCH, policy.max_doublings)
        edges = s * 2.0 ** np.arange(first - 1, last, dtype=float)
        if first == 0:
            edges[0] = 0.0
        res = tanhsinh(integrand, edges[:-1], edges[1:],
                       atol=0.1 * policy.tol, rtol=1e-12)
        yield from zip(res.integral.tolist(), res.error.tolist(),
                       res.status.tolist())
