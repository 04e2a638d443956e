"""Momentum-space propagators of the cutoff theory and their poles.

The scalar two-point function is

    K(p^2) = 1 / (p^2 - m^2 [1 + f(p^2/m^2)] + i eps),

whose poles sit exactly at p^2 = m^2 x_i for the spectrum roots
g(x_i) = 1, with residue 1/g'(x_i) in the p^2 variable.  The spinor
propagator rationalizes into two additive scalar structures sharing
that denominator; only the two invariant coefficients are carried here,
no gamma-matrix algebra.  Pole finding and the loop sweep take a solved
``SpectrumSolution`` and do not solve it again, so the poles, their
fits and the loop's break points share one set of roots.

The ultraviolet behaviour of the one-loop self-energy is probed by a
scalarized Euclidean radial proxy: Wick-rotate (k^2 -> -kE^2, so
f(k^2/m^2) -> f(-kE^2/m^2)), replace the spinor numerator by its
scalar-type (1) or mass-type (m sqrt(1+f)) invariant, and use the exact
4D angular average of the massless boson line,

    <1/(p-k)^2>_angles = 1 / max(pE^2, kE^2),

leaving one radial quadrature

    I(L) = int_0^L dk k^3 N(k) / [(k^2 + m^2(1 + f(-k^2/m^2))) max(pE^2, k^2)].

This preserves exactly the UV power counting the convergence claim
rests on: without the cutoff the scalar-type integrand falls like 1/k
(log divergence); with the cubic cutoff it falls like m^4/(|l3| k^5)
(scalar-type, residual ~ L^-4) or m^2/(sqrt(|l3|) k^2) (mass-type,
residual ~ L^-1).  Increments between cutoffs are integrated directly
so the tail diagnostics never suffer cancellation against the bulk.
The modified denominator is -m^2 (g(-k^2/m^2) - 1): it vanishes exactly
at k = m sqrt(-x_i) for the negative spectrum roots x_i, and the first
such k inside the top cutoff raises NonpositiveDenominatorError, as does
the first k where the mass-type 1 + f(-k^2/m^2) turns negative.
QUADPACK (``scipy.integrate.quad``) is imported inside
``loop_integral``: importing scipy.integrate takes ~0.5 s, and pole
finding never integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import CutoffPolynomial, SpectrumSolution, f_eval

LOOP_VARIANTS = ("unmodified-scalar", "unmodified-mass",
                 "modified-scalar", "modified-mass")

# find_poles' budget for the fit residual and the residue mismatch
FIT_TOL = 1e-6
# A failed fit is blamed on another root this near (relative): it bends the
# probed K by ~7e-10/gap^2, past FIT_TOL from gap ~3e-2 down.
NEAR_POLE = 0.1


class NonpositiveDenominatorError(ValueError):
    """The Euclidean loop integrand is not real and finite from ``location`` on."""

    def __init__(self, message, location):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class DiracScalarized:
    """Invariant coefficients of the rationalized spinor propagator.

    vector_coeff multiplies the momentum-slash structure, scalar_coeff
    the identity; both share the scalar denominator, and their ratio is
    the local mass m sqrt(1 + f(p^2/m^2)) (complex where 1 + f < 0,
    reported rather than rejected).
    """

    vector_coeff: complex
    scalar_coeff: complex


@dataclass(frozen=True)
class PoleFit:
    """Local simple-pole fit K ~ R/(p^2 - pole) + C around one root."""

    root: float
    p2_pole: float
    fitted_residue: float
    algebraic_residue: float
    residue_mismatch: float
    fit_residual: float
    residue_x: float


@dataclass(frozen=True)
class TailFit:
    """Cutoff-sweep diagnostics for one loop variant.

    log_slope / log_r2:         linear fit I = a + b log(L)
    decay_exponent / decay_r2:  power fit of increments dI ~ L^q
    octave_ratios:              successive increment ratios
    """

    log_slope: float
    log_intercept: float
    log_r2: float
    decay_exponent: float | None
    decay_r2: float | None
    octave_ratios: tuple


@dataclass(frozen=True)
class LoopResult:
    """Cumulative values and increments per variant over the cutoffs.

    abserr: per variant, QUADPACK's absolute error estimates summed over
    the segments, an estimate of the error of the last cumulative value.
    """

    cutoffs: np.ndarray
    values: dict
    increments: dict
    tail_fits: dict
    abserr: dict


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

def kg_propagator(p2, m: float, c: CutoffPolynomial, eps: float):
    """Scalar propagator 1/(p^2 - m^2 (1 + f(p^2/m^2)) + i eps)."""
    if m <= 0:
        raise ValueError("mass must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    p2_arr = np.asarray(p2, dtype=float)
    x = p2_arr / m ** 2
    denom = p2_arr - m ** 2 * (1.0 + f_eval(x, c)) + 1j * eps
    out = 1.0 / denom
    return complex(out) if np.ndim(p2) == 0 else out


def dirac_propagator_scalarized(p2, m: float, c: CutoffPolynomial,
                                eps: float) -> DiracScalarized:
    """Invariant coefficients of the rationalized spinor propagator."""
    vector = kg_propagator(p2, m, c, eps)
    x = np.asarray(p2, dtype=float) / m ** 2
    local_mass = m * np.sqrt(np.asarray(1.0 + f_eval(x, c), dtype=complex))
    scalar = local_mass * vector
    if np.ndim(p2) == 0:
        return DiracScalarized(vector_coeff=complex(vector),
                               scalar_coeff=complex(scalar))
    return DiracScalarized(vector_coeff=vector, scalar_coeff=scalar)


def find_poles(spectrum: SpectrumSolution) -> tuple:
    """Poles of the spectrum's scalar propagator, certified by local fits.

    Returns one PoleFit per simple root of ``spectrum``, which is not
    solved again; multiple roots have no residue and no fit.  Each
    simple root is probed at p^2 = pole (1 + delta) for
    delta = +-{1,2,4,8}e-5 and fitted to R/(p^2 - pole) + C with
    eps = 0; the fitted residue must match 1/g'(x_i) (which is also the
    p^2-variable residue; the x-variable residue carries the extra 1/m^2
    Jacobian) and the fit must hold, both to FIT_TOL, else ValueError
    names the cause: another pole too near, or a base mass so far from
    the masses that the denominator loses its digits.
    """
    m, c = spectrum.base_mass, spectrum.coefficients
    fits = []
    for x_root, residue in zip(spectrum.roots, spectrum.residues):
        if math.isnan(residue):
            continue
        pole = m ** 2 * x_root
        deltas = np.array([s * k * 1e-5 for s in (-1.0, 1.0) for k in (1, 2, 4, 8)])
        p2_samples = pole + deltas * abs(pole)
        # eps-free evaluation away from the pole
        x = p2_samples / m ** 2
        kvals = 1.0 / (p2_samples - m ** 2 * (1.0 + f_eval(x, c)))

        design = np.column_stack([1.0 / (p2_samples - pole),
                                  np.ones_like(p2_samples)])
        coef, *_ = np.linalg.lstsq(design, kvals, rcond=None)
        fitted_r = float(coef[0])
        model = design @ coef
        residual = float(np.linalg.norm(kvals - model) / np.linalg.norm(kvals))
        mismatch = abs(fitted_r - residue) / abs(residue)
        if residual > FIT_TOL or mismatch > FIT_TOL:
            near = any(0.0 < abs(r / x_root - 1.0) < NEAR_POLE for r in spectrum.roots)
            raise ValueError(
                f"pole fit at x = {x_root:g} misses its budget {FIT_TOL:g} (fit "
                f"residual {residual:.2e}, residue mismatch {mismatch:.2e}): "
                + ("another pole is too close for a local fit" if near
                   else "choose a base mass nearer the masses"))
        fits.append(PoleFit(root=x_root, p2_pole=pole, fitted_residue=fitted_r,
                            algebraic_residue=residue,
                            residue_mismatch=mismatch, fit_residual=residual,
                            residue_x=residue / m ** 2))
    return tuple(fits)


# ---------------------------------------------------------------------------
# loop-integral convergence proxy
# ---------------------------------------------------------------------------

def _first_euclidean_zero(xs, m, k_max):
    """Smallest k = m sqrt(-x) <= k_max over the negative x in xs, or None."""
    ks = [m * math.sqrt(-x) for x in xs if x < 0.0]
    return min((k for k in ks if k <= k_max), default=None)


def _loop_integrand(k, pE, m, c, modified, mass_type):
    f_e = f_eval(-(k / m) ** 2, c) if modified else 0.0
    denom = (k ** 2 + m ** 2 * (1.0 + f_e)) * max(pE ** 2, k ** 2)
    numer = m * math.sqrt(1.0 + f_e) if mass_type else 1.0
    return k ** 3 * numer / denom


def loop_integral(pE: float, spectrum: SpectrumSolution, cutoffs,
                  variants=LOOP_VARIANTS) -> LoopResult:
    """Cutoff sweep of the regularized self-energy proxy.

    The spectrum gives the base mass, the coefficients and, from its
    masses, the quadrature break points.  Integrates each
    [cutoff_j, cutoff_j+1] increment separately (so increments are
    accurate relative to themselves, not to the bulk) and accumulates;
    per-segment relative quadrature error < 1e-8.
    """
    cutoffs = np.asarray([float(v) for v in cutoffs])
    if cutoffs.size < 2 or cutoffs[0] <= 0:
        raise ValueError("need at least two positive cutoffs")
    if np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be strictly increasing")
    if pE <= 0:
        raise ValueError("external Euclidean momentum must be positive")
    unknown = set(variants) - set(LOOP_VARIANTS)
    if unknown:
        raise ValueError(f"unknown loop variants: {sorted(unknown)}")

    m, c, top = spectrum.base_mass, spectrum.coefficients, cutoffs[-1]
    k0 = _first_euclidean_zero(spectrum.roots, m, top)
    if k0 is not None and any(v.startswith("modified") for v in variants):
        raise NonpositiveDenominatorError(
            f"Euclidean denominator vanishes at k = {k0:g} (-k^2/m^2 is a root "
            "of g(x) = 1); keep the cutoffs below it", location=k0)
    if "modified-mass" in variants:
        zeros = np.roots([c.lambda3, c.lambda2, c.lambda1, 1.0])
        k0 = _first_euclidean_zero(zeros[zeros.imag == 0.0].real, m, top)
        if k0 is not None:
            raise NonpositiveDenominatorError(
                f"1 + f(-k^2/m^2) < 0 above k = {k0:g}, so m sqrt(1 + f) is not "
                "real: use --variant scalar, or a cutoff with 1 + f >= 0 up to "
                "the top cutoff", location=k0)

    features = [pE] + [mass for mass in spectrum.masses if mass > 0]

    # importing scipy.integrate costs ~0.48 s; of the subcommands only loop needs it
    from scipy.integrate import quad
    values = {}
    increments = {}
    tail_fits = {}
    abserr = {}
    for variant in variants:
        modified = variant.startswith("modified")
        mass_type = variant.endswith("mass")
        segs = []
        abserr[variant] = 0.0
        edges = np.concatenate([[0.0], cutoffs])
        for lo, hi in zip(edges[:-1], edges[1:]):
            pts = [p for p in features if lo < p < hi] or None
            val, err = quad(_loop_integrand, lo, hi,
                            args=(pE, m, c, modified, mass_type),
                            points=pts, epsabs=0.0, epsrel=1e-10, limit=400)
            segs.append(val)
            abserr[variant] += err
        segs = np.array(segs)
        values[variant] = np.cumsum(segs)
        increments[variant] = segs[1:]
        tail_fits[variant] = _analyze_tail(cutoffs, values[variant], segs[1:])
    return LoopResult(cutoffs=cutoffs, values=values, increments=increments,
                      tail_fits=tail_fits, abserr=abserr)


def _linear_fit(x, y):
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    model = a @ coef
    ss_res = float(np.sum((y - model) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _analyze_tail(cutoffs, totals, incs) -> TailFit:
    slope, intercept, r2 = _linear_fit(np.log(cutoffs), totals)
    decay_exponent = decay_r2 = None
    ratios = ()
    positive = incs > 0
    if incs.size >= 2 and positive.all():
        ratios = tuple(incs[1:] / incs[:-1])
        decay_exponent, _, decay_r2 = _linear_fit(np.log(cutoffs[:-1]),
                                                  np.log(incs))
    return TailFit(log_slope=slope, log_intercept=intercept, log_r2=r2,
                   decay_exponent=decay_exponent, decay_r2=decay_r2,
                   octave_ratios=ratios)
