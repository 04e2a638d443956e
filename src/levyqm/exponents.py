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
picture; ``eta_from_triplet`` evaluates it by Gauss-Kronrod quadrature
in numpy.  K0 and K1 come from ``scipy.special`` (Cephes), imported inside
``bessel_k``: the import takes ~0.2 s that most commands never need.  K2
is their exact recurrence; all three are checked against mpmath,
quadrature and Amos's ``kv``.

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

# Per call at most U_BATCH u and MAX_INTERVALS pieces (~1.3 kB each at the
# peak of a round), over MAX_DOUBLINGS panels; estimates below ROUNDOFF
# |integral| are rounding, here and in the loop of propagators.  GK21
# (QUADPACK qk21; Piessens et al. 1983): abscissae >= 0, K21 and G10 weights.
U_BATCH = 64
MAX_INTERVALS = 2 ** 17
MAX_DOUBLINGS = 48
ROUNDOFF = 50.0 * np.finfo(float).eps
# bessel_k(order, z) is finite for z >= K_SMALLEST_ARG[order].  K1(z) < 1/z
# and K2(z) < 2/z^2 stay below the largest double from (order/DBL_MAX)^(1/order)
# up (5.563e-309, 1.055e-154); Cephes k0 only fails at the smallest
# subnormal, where z/2 underflows inside log(z/2).
K_SMALLEST_ARG = (1e-323, 5.568e-309, 1.056e-154)
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
                0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0])
_GK21_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_GK21_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
_GK21_ERROR_WEIGHTS = _GK21_WEIGHTS - np.concatenate([_WG, _WG[-2::-1]])  # K21 - G10


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

    K0 and K1 are ``scipy.special.k0`` and ``k1`` (Cephes); K2 is the
    recurrence K0 + (2/z) K1 (DLMF 10.29.1), whose terms are all positive.
    Against mpmath (40 digits) on z in [1e-8, 705], K0 holds 1.3e-15 and
    K1 and K2 6e-16 relative wherever the value is a normal double.  K2 is
    normal up to z = 705, then goes subnormal and underflows to 0.  Where a
    value overflows (only below ``K_SMALLEST_ARG[order]``), a ValueError
    names that bound.  Accepts scalars or arrays.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported Bessel order {order!r}; only K0, K1, K2")
    z_arr = np.asarray(z, dtype=float)
    if not ((z_arr > 0.0) & np.isfinite(z_arr)).all():
        raise ValueError("bessel_k requires strictly positive finite argument")
    from scipy import special
    if order == 2:
        with np.errstate(all="ignore"):  # 2/z and (2/z) K1 overflow for tiny z
            out = special.k0(z_arr) + (2.0 / z_arr) * special.k1(z_arr)
    else:
        out = (special.k0, special.k1)[order](z_arr)
    if not np.isfinite(out).all():
        raise ValueError(f"K{order}(z) overflows near z = 0; "
                         f"use z >= {K_SMALLEST_ARG[order]:.4g}")
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
    """Tolerance of the compensated jump integral."""

    tol: float = 1e-10


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
    root = np.hypot(1.0, t)
    with np.errstate(over="ignore"):
        small = -(t * t) / (1.0 + root)
    out = np.where(t < 1.0, small, 1.0 - root)
    return float(out) if np.ndim(u) == 0 else out


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
    """Compensated Levy-Khintchine integral -beta^2 u^2/2 + int (cos(ux) - 1) W(x) dx.

    A float for a scalar u, else an array of u's shape.  Adaptive GK21 on
    the panels [0, s], [s, 2s], [2s, 4s], ... (s = triplet.scale), cut into
    periods of sin^2 where 2 width W(left edge) >= tol (the first always); a
    u stops after two consecutive panels below 0.25 tol max(1, |total|) and
    refines its own pieces only, so arrays give the scalar bytes.
    TailDivergenceError (no stop in MAX_DOUBLINGS panels) and
    QuadratureToleranceError (over MAX_INTERVALS pieces; estimate, at least
    ROUNDOFF |total|, above tol) name the u at fault, and so does the
    ValueError for a u that is not finite.
    """
    flat = np.asarray(u, dtype=float).ravel()
    if not (finite := np.isfinite(flat)).all():
        raise ValueError(f"u = {flat[np.argmin(finite)]:g} is not finite")
    eta = -0.5 * triplet.beta2 * flat * flat  # the Gaussian part
    if flat.size > U_BATCH:
        eta = np.concatenate([eta_from_triplet(flat[i:i + U_BATCH], triplet, quadrature)
                              for i in range(0, flat.size, U_BATCH)])
    elif triplet.jump_density is not None and flat.size:
        eta = _add_jump_integral(flat, eta, triplet, quadrature or QuadratureSpec())
    eta = eta.reshape(np.shape(u))
    return float(eta) if np.ndim(u) == 0 else eta


def _gk21(f, lo, half):
    """K21 and |K21 - G10| of f, which takes rows of nodes, on each [lo, lo + 2 half]."""
    fx = f((lo + half)[:, None] + half[:, None] * _GK21_NODES)
    return half * (fx * _GK21_WEIGHTS).sum(1), half * np.abs((fx * _GK21_ERROR_WEIGHTS).sum(1))


def _add_jump_integral(u, eta, triplet: LevyTriplet, policy: QuadratureSpec):
    """eta + 2 int_0^inf -2 sin^2(u x / 2) W(x) dx for 1-D u and eta."""
    s, tol, n, density = triplet.scale, policy.tol, MAX_DOUBLINGS, triplet.jump_density
    edges = np.append(0.0, s * 2.0 ** np.arange(n, dtype=float))
    split = np.append(True, 2.0 * np.diff(edges)[1:] * density(edges[1:])[:-1] >= tol)
    row, panel = np.divmod(np.arange(u.size * n), n)  # one piece per (u, panel) cell
    lo, half, val, err = edges[panel], 0.5 * np.diff(edges)[panel], *np.zeros((2, row.size))
    cut = np.maximum(1.0, np.ceil(np.abs(u)[:, None] * half[:n] / np.pi * split)).ravel()
    while True:  # piece i becomes cut[i] equal pieces, placed after the uncut ones
        if not (need := row.size + cut.sum() - np.count_nonzero(cut)) <= MAX_INTERVALS:
            if u.size == 1:
                raise QuadratureToleranceError(f"u = {u[0]:g} needs {need:.3g} intervals, over "
                                               f"{MAX_INTERVALS}; use a smaller |u| or loosen tol")
            return np.concatenate([_add_jump_integral(u[i:i + 1], eta[i:i + 1], triplet, policy)
                                   for i in range(u.size)])  # one u at a time
        one = np.repeat(np.flatnonzero(cut), cut[cut > 0].astype(int))
        h = half[one] / cut[one]
        kids = [lo[one] + 2.0 * (np.arange(one.size) - np.searchsorted(one, one)) * h, h,
                row[one], panel[one]]
        kids += _gk21(lambda x: -2.0 * np.sin(0.5 * u[kids[2], None] * x) ** 2 * density(x),
                      kids[0], h)
        lo, half, row, panel, val, err = (np.concatenate([a[cut == 0], b]) for a, b in
                                          zip((lo, half, row, panel, val, err), kids))
        sums = np.bincount(row * n + panel, val, u.size * n).reshape(u.size, n)
        totals = sums.cumsum(axis=1)
        small = np.abs(sums) < 0.25 * tol * np.maximum(1.0, np.abs(totals))
        pair = small[:, 1:] & small[:, :-1]
        stop = np.where(stopped := pair.any(axis=1), pair.argmax(axis=1) + 1, n - 1)
        total, live = totals[np.arange(u.size), stop], panel <= stop[row]
        error = np.bincount(row, err * live, u.size)
        target = np.maximum(tol, ROUNDOFF * np.abs(total))
        share = (target / edges[stop + 1])[row] * 2.0 * half
        cut = 2.0 * (live & (error > target)[row] & (err > share))
        if not cut.any():
            break

    estimate = np.where(stopped, np.maximum(error, ROUNDOFF * np.abs(total)), np.inf)
    i = np.argmax(estimate > tol)
    if not stopped[i]:
        raise TailDivergenceError(f"jump integral at u = {u[i]:g} did not converge in {n} panels "
                                  f"(to x = {edges[-1]:g})", (2.0 * totals[i] + eta[i]).tolist())
    if estimate[i] > tol:
        raise QuadratureToleranceError(f"error estimate {estimate[i]:.3e} at u = {u[i]:g} exceeds "
                                       f"tolerance {tol:.3e}; loosen the tolerance")
    return 2.0 * total + eta
