"""Momentum-space propagators of the cutoff theory and their poles.

The scalar two-point function is

    K(p^2) = 1 / (p^2 - m^2 [1 + f(p^2/m^2)] + i eps),

whose poles sit exactly at p^2 = m^2 x_i for the spectrum roots
g(x_i) = 1, with residue 1/g'(x_i) in the p^2 variable.  The spinor
propagator rationalizes into two invariants over that denominator: the
vector one is K itself and the scalar one m sqrt(1 + f) K, so their
ratio at pole i is M_i = m sqrt(x_i), because 1 + f(x_i) = x_i is the
root condition g(x_i) = 1.  Pole finding and the loop sweep take a solved
``SpectrumSolution`` and do not solve it again, so the poles, their
residues (read off K = sum_i R_i / (p^2 - M_i^2)) and the loop's break
points share one set of roots.

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
The modified denominator is D = -m^2 (g(-k^2/m^2) - 1): it vanishes
exactly at k = m sqrt(-x_i) for the negative spectrum roots x_i, and the
first such k inside the top cutoff raises NonpositiveDenominatorError,
as does the first k where the mass-type 1 + f(-k^2/m^2) turns negative.

Each segment is integrated in t = log k, where the integrand is
k^2 N/D min(1, (k/pE)^2), by the adaptive GK21 rule of ``exponents``
(numpy, no scipy module), with break points at pE, m and the masses.
The integrand is written in (m/k)^2 above m, so it stays finite up to
LOOP_K_MAX, and the error estimate of each segment is GK21's own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exponents import MAX_INTERVALS, ROUNDOFF, _gk21
from .spectrum import CutoffPolynomial, SpectrumSolution, _residual, f_eval

LOOP_VARIANTS = ("unmodified-scalar", "unmodified-mass",
                 "modified-scalar", "modified-mass")

# find_poles' budget for |R_read/R - 1|, the residue read off each probe pair
RESIDUE_TOL = 1e-6
# loop_integral's relative error budget per segment
LOOP_RTOL = 1e-10
# the largest pE and cutoff whose square is a finite double
LOOP_K_MAX = math.sqrt(sys.float_info.max)


class NonpositiveDenominatorError(ValueError):
    """The Euclidean loop integrand is not real and finite from ``location`` on."""

    def __init__(self, message, location):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class PoleFit:
    """A certified simple pole: root x, p^2 = m^2 x and residue 1/g'(x).

    residue_mismatch is the worst |R_read/R - 1| over the probe pairs.
    """

    root: float
    p2_pole: float
    algebraic_residue: float
    residue_mismatch: float


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

    abserr: per variant, the segments' GK21 error estimates |K21 - G10|,
    each floored at ROUNDOFF |segment|, summed: a bound on the error of
    the last cumulative value.
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


def find_poles(spectrum: SpectrumSolution) -> tuple:
    """Poles of the spectrum's scalar propagator, residues certified.

    Returns one PoleFit per simple root of ``spectrum``, which is not
    solved again; multiple roots have no residue.  Since g(x) - 1 =
    -l3 prod (x - x_j), the propagator m^-2 / (g(x) - 1) is
    sum_j R_j / (p^2 - m^2 x_j), and R_j = 1/g'(x_j) is both its p^2
    residue and the x residue of 1/(g(x) - 1).  Each simple root's R_i
    is read off at x = x_i (1 +- delta), delta = {1,2,4,8}e-5, as
    (x - x_i) (1/(g(x) - 1) - sum_{j != i} R_j/(x - x_j)), with g(x) - 1
    exact from ``spectrum._residual``.  Averaging each +-delta
    pair cancels the first-order term that roots without a residue (a
    repeated root, a complex pair) leave.  Every reading must match R_i
    to RESIDUE_TOL, else ValueError names the root and the mismatch.
    """
    m, c = spectrum.base_mass, spectrum.coefficients
    simple = [(x, r) for x, r in zip(spectrum.roots, spectrum.residues)
              if not math.isnan(r)]
    fits = []
    for i, (x_root, residue) in enumerate(simple):
        misses = []
        for delta in (1e-5, 2e-5, 4e-5, 8e-5):
            read = 0.0
            for x in (x_root * (1.0 - delta), x_root * (1.0 + delta)):
                others = sum(r / (x - x_j)
                             for j, (x_j, r) in enumerate(simple) if j != i)
                read += 0.5 * (x - x_root) * (1.0 / _residual(x, c) - others)
            misses.append(read / residue - 1.0)
        # np.max, not max: a NaN reading must fail the test below
        mismatch = float(np.max(np.abs(misses)))
        if not mismatch <= RESIDUE_TOL:
            raise ValueError(
                f"pole at x = {x_root:g}: the residue read off the propagator "
                f"misses 1/g'(x) by {mismatch:.2e}, above {RESIDUE_TOL:g}")
        fits.append(PoleFit(root=x_root, p2_pole=m ** 2 * x_root,
                            algebraic_residue=residue,
                            residue_mismatch=mismatch))
    return tuple(fits)


# ---------------------------------------------------------------------------
# loop-integral convergence proxy
# ---------------------------------------------------------------------------

def _first_euclidean_zero(xs, m, k_max):
    """Smallest k = m sqrt(-x) <= k_max over the negative x in xs, or None."""
    ks = [m * math.sqrt(-x) for x in xs if x < 0.0]
    return min((k for k in ks if k <= k_max), default=None)


def _loop_integrand(t, m, pE, coefficients, mass_type):
    """k^2 N / D min(1, (k/pE)^2) at k = e^t: the integrand in dt = dk/k.

    With s = (k/m)^2 below m and (m/k)^2 above, no power of k is formed:
    below m, 1 + f = Q(s) = 1 - l1 s + l2 s^2 - l3 s^3 and D = m^2 (s + Q);
    above, 1 + f = P(s)/s^3, P(s) = s^3 - l1 s^2 + l2 s - l3, and
    D = k^2 (s^2 + P)/s^2, or k^2 (1 + s) without the cutoff (coefficients
    None).  When P's j trailing coefficients vanish (j = 1 for l3 = 0,
    j = 2 for l2 = l3 = 0), P = s^j P_j and the above-m numerator and
    denominator are divided by s^j, which would otherwise underflow to
    0/0.  Every term stays finite up to LOOP_K_MAX.
    """
    x = t - math.log(m)
    above = x > 0.0
    r = np.exp(-np.abs(x))  # k/m below m, m/k above
    s = r * r
    if coefficients is None:
        lead, rest = np.where(above, 1.0, s), np.where(above, s, 1.0)
        numer = m * lead if mass_type else lead
    else:
        l1, l2, l3 = coefficients
        j = 2 if l2 == l3 == 0.0 else 1 if l3 == 0.0 else 0
        p = s - l1  # P_j(s) by Horner, P's coefficients 1, -l1, l2, -l3
        for c in (l2, -l3)[:2 - j]:
            p = p * s + c
        # above m, s^2/s^j and m sqrt(P/s^3) s^2/s^j = m sqrt(P_j) r^(1-j)
        if j == 0:
            lead_above, root_above = s * s, r
        elif j == 1:
            lead_above, root_above = s, 1.0
        else:
            lead_above, root_above = 1.0, np.exp(np.maximum(x, 0.0))  # 1/r
        lead = np.where(above, lead_above, s)
        rest = np.where(above, p, 1.0 + s * (-l1 + s * (l2 - s * l3)))
        numer = (m * np.sqrt(rest) * np.where(above, root_above, s) if mass_type
                 else lead)
    # exp(2 min(0, .)) is (k/pE)^2 below pE and never overflows
    return numer / (lead + rest) * np.exp(2.0 * np.minimum(0.0, t - math.log(pE)))


def _loop_segments(variant, pE, spectrum, cutoffs):
    """Each segment's integral and error estimate, by GK21 in t = log k.

    The segments are [0, cutoff_0] and each [cutoff_j, cutoff_j+1]; their
    pieces start at the cutoffs, pE, m and the positive masses; the
    first segment starts 40 e-folds below its lowest break, where the
    integrand has fallen like k^4.  Each round cuts in four, in every
    segment not yet resolved, the pieces whose error estimate is above their
    width's share of LOOP_RTOL |segment|, and a segment is resolved once
    its estimate, floored at ROUNDOFF |segment|, is within that budget.
    ValueError names the segment that is no finite non-zero double or
    that needs over MAX_INTERVALS pieces.
    """
    m = spectrum.base_mass
    coefficients = (spectrum.coefficients.as_tuple()
                    if variant.startswith("modified") else None)

    def integrand(t):
        return _loop_integrand(t, m, pE, coefficients, variant.endswith("mass"))

    breaks = np.log([pE, m, *(mass for mass in spectrum.masses if mass > 0)])
    ends = np.log(cutoffs)
    ends = np.append(min(breaks.min(), ends[0]) - 40.0, ends)
    points = np.union1d(ends, breaks[(breaks > ends[0]) & (breaks < ends[-1])])
    lo, half = points[:-1], 0.5 * np.diff(points)
    seg = np.searchsorted(ends, lo, side="right") - 1
    val, err = _gk21(integrand, lo, half)
    width = np.diff(ends)
    while True:
        segs = np.bincount(seg, val, cutoffs.size)
        errs = np.maximum(np.bincount(seg, err, cutoffs.size), ROUNDOFF * np.abs(segs))
        budget = LOOP_RTOL * np.abs(segs)
        cut = (errs > budget)[seg] & (err * width[seg] > budget[seg] * 2.0 * half)
        bad = ~np.isfinite(segs) | (segs == 0.0)
        if bad.any() or lo.size + 3 * np.count_nonzero(cut) > MAX_INTERVALS:
            j = int(np.argmax(bad)) if bad.any() else int(seg[np.argmax(cut)])
            why = (f"reads {segs[j]:.3g}, not a finite non-zero double" if bad.any()
                   else f"needs over {MAX_INTERVALS} pieces")
            raise ValueError(f"{variant} on [{cutoffs[j - 1] if j else 0.0:g}, "
                             f"{cutoffs[j]:g}] {why}; lower pE or the cutoffs")
        if not cut.any():
            return segs, errs
        h = 0.25 * half[cut]  # each cut piece becomes four
        kids = [(lo[cut] + 2.0 * h * np.arange(4.0)[:, None]).ravel(), np.tile(h, 4),
                np.tile(seg[cut], 4)]
        kids += _gk21(integrand, *kids[:2])
        lo, half, seg, val, err = (np.concatenate([a[~cut], b]) for a, b in
                                   zip((lo, half, seg, val, err), kids))


def loop_integral(pE: float, spectrum: SpectrumSolution, cutoffs,
                  variants=LOOP_VARIANTS) -> LoopResult:
    """Cutoff sweep of the regularized self-energy proxy.

    The spectrum gives the base mass, the coefficients and, from its
    masses, the quadrature break points.  Each [cutoff_j, cutoff_j+1]
    increment is integrated separately by ``_loop_segments`` (so
    increments are accurate relative to themselves, not to the bulk),
    each to LOOP_RTOL relative, and accumulated.  pE and the cutoffs may
    be at most LOOP_K_MAX, the largest double with a finite square;
    beyond, ValueError names the bound.
    """
    pE = float(pE)
    if not (math.isfinite(pE) and pE > 0):
        raise ValueError("external Euclidean momentum must be positive and "
                         f"finite, got pE = {pE!r}")
    if pE > LOOP_K_MAX:
        raise ValueError(f"pE = {pE:g} overflows pE^2; the largest accepted is "
                         f"{LOOP_K_MAX:.4g}")
    cutoffs = [float(v) for v in cutoffs]
    for v in cutoffs:
        if not math.isfinite(v):
            raise ValueError(f"cutoffs must be finite, got {v!r}")
        if v > LOOP_K_MAX:
            raise ValueError(f"cutoff {v:g} overflows k^2; the largest accepted "
                             f"is {LOOP_K_MAX:.4g}")
    cutoffs = np.asarray(cutoffs)
    if cutoffs.size < 2 or cutoffs[0] <= 0:
        raise ValueError("need at least two positive cutoffs")
    if np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be strictly increasing")
    same = np.flatnonzero(np.diff(np.log(cutoffs)) <= 0)
    if same.size:
        lo, hi = cutoffs[same[0]], cutoffs[same[0] + 1]
        raise ValueError(f"cutoffs {lo:.17g} and {hi:.17g} have one logarithm; log-k "
                         "quadrature cannot resolve the gap between them")
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

    values, increments, tail_fits, abserr = {}, {}, {}, {}
    for variant in variants:
        segs, errs = _loop_segments(variant, pE, spectrum, cutoffs)
        abserr[variant] = float(errs.sum())
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
