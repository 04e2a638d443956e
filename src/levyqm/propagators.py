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

The scalar-type proxy is rational in K = k^2: with three simple real
roots, 1/D = sum_i R_i / (K + M_i^2), the same partial fractions as the
propagator (Pauli & Villars 1949, Rev. Mod. Phys. 21:434), and the
unmodified 1/(K + m^2) is the one-term case.  Those variants are summed
in closed form, with the residues' sum rules cancelling analytically
what would cancel numerically.  The mass-type numerator is not
rational, so those variants, a complex pair and close roots (whose
residues round too coarsely for the closed form) take QUADPACK
(``scipy.integrate.quad``), imported only then: it costs the README
``loop`` command ~0.4 s and ~25 MB.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectrum import CutoffPolynomial, SpectrumSolution, _residual, f_eval

LOOP_VARIANTS = ("unmodified-scalar", "unmodified-mass",
                 "modified-scalar", "modified-mass")

# find_poles' budget for |R_read/R - 1|, the residue read off each probe pair
RESIDUE_TOL = 1e-6
# loop_integral's relative error budget per segment: QUADPACK's epsrel, and
# the bound the closed form's rounding must meet
LOOP_RTOL = 1e-10
# the largest pE and cutoff whose square is a finite double
LOOP_K_MAX = math.sqrt(sys.float_info.max)
# the largest cutoff QUADPACK takes: k^3, which its integrand forms below
# pE, stays finite
QUADPACK_K_MAX = math.sqrt(LOOP_K_MAX)


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

    method: per variant, "closed form" or "QUADPACK".
    abserr: per variant, the segments' absolute errors summed, a bound on
    the error of the last cumulative value: the closed form's rounding
    bound (about eps times the sum of |terms| of each segment, with the
    residues' own rounding), or QUADPACK's error estimates.
    """

    cutoffs: np.ndarray
    values: dict
    increments: dict
    tail_fits: dict
    abserr: dict
    method: dict


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


def _loop_integrand(k, pE, m, c, modified, mass_type):
    f_e = f_eval(-(k / m) ** 2, c) if modified else 0.0
    denom = k ** 2 + m ** 2 * (1.0 + f_e)
    numer = m * math.sqrt(1.0 + f_e) if mass_type else 1.0
    # above pE, k^3 / k^2 is k: denom k^2 would overflow first
    return k * numer / denom if k > pE else k ** 3 * numer / (denom * pE ** 2)


def _quadpack_segments(pE, spectrum, edges, modified, mass_type):
    """QUADPACK's integral of each [edges_j, edges_j+1] and its error estimate.

    Above the top cutoff pE sets the integrand's denominator
    D(k^2) pE^2, D(K) = K + m^2 (1 + f(-K/m^2)); where that passes the
    largest double the integrand reads 0, so such a pE raises ValueError
    naming the largest pE these cutoffs accept.
    """
    top = float(edges[-1])
    if top > QUADPACK_K_MAX:
        raise ValueError(f"cutoff {top:g} overflows QUADPACK's integrand; "
                         f"the largest accepted is {QUADPACK_K_MAX:.4g}")
    m, c = spectrum.base_mass, spectrum.coefficients
    if pE > top:
        # |D| on [0, top] is at most the sum of its terms' sizes at the top
        ratio = top / m
        x = ratio * ratio
        f_size = (abs(c.lambda1) * x + abs(c.lambda2) * x * x
                  + abs(c.lambda3) * x * x * x) if modified else 0.0
        d_max = top ** 2 + m ** 2 * (1.0 + f_size)
        if d_max * pE ** 2 > sys.float_info.max:
            raise ValueError(
                f"pE = {pE:g} overflows QUADPACK's integrand, whose "
                f"denominator is (k^2 + m^2 (1 + f)) pE^2 below pE; the "
                f"largest accepted for cutoffs up to {top:g} is "
                f"{math.sqrt(sys.float_info.max / d_max):.4g}")
    # of the subcommands only loop imports scipy.integrate, and only for
    # the variants without a closed form
    from scipy.integrate import quad
    features = [pE] + [mass for mass in spectrum.masses if mass > 0]
    segs, errs = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pts = [p for p in features if lo < p < hi] or None
        val, err = quad(_loop_integrand, lo, hi,
                        args=(pE, m, c, modified, mass_type),
                        points=pts, epsabs=0.0, epsrel=LOOP_RTOL, limit=400)
        if not math.isfinite(val):
            raise ValueError(f"QUADPACK's integrand overflows on [{lo:g}, {hi:g}]; "
                             "lower the cutoffs")
        segs.append(val)
        errs.append(err)
    return np.array(segs), np.array(errs)


def _log_abs_1p(t):
    """log|1 + t|, by log1p on either side of t = -1."""
    return np.log1p(np.where(t > -1.0, t, -2.0 - t))


# log(1 + t) - t = sum_{n >= 2} (-1)^(n+1) t^n / n, highest power first;
# below |t| = 0.1 the terms after n = 19 fall under 1e-17 of the sum
_H_SERIES = tuple((-1.0) ** (n + 1) / n for n in range(19, 1, -1))
# ulps of rounding allowed each closed-form term, above _h's worst
_TERM_ULPS = 24.0


def _h(t):
    """log|1 + t| - t, by its Taylor series where |t| < 0.1.

    The direct difference loses the digits of t^2/2 against t: 2 eps/|t|
    relative, 21 ulps at |t| = 0.1, growing without bound below it.
    """
    small = np.abs(t) < 0.1
    ts = np.where(small, t, 0.0)
    return np.where(small, np.polyval(_H_SERIES, ts) * ts * ts,
                    _log_abs_1p(t) - t)


def _partial_fractions(spectrum, variant):
    """(R_i, M_i^2, cond_i) with 1/D(K) = sum_i R_i / (K + M_i^2), K = k^2.

    D is the scalar proxy's Euclidean denominator; cond_i bounds the
    relative error of R_i in ulps.  None when the variant has no closed
    form: the mass variants, whose m sqrt(1 + f) is not rational, and a
    modified denominator without three simple real roots.
    """
    m2 = spectrum.base_mass ** 2
    if variant == "unmodified-scalar":
        return np.ones(1), np.array([m2]), np.zeros(1)
    if variant != "modified-scalar" or not spectrum.simple_cubic:
        return None
    x, r = np.array(spectrum.roots), np.array(spectrum.residues)
    l1, l2, l3 = spectrum.coefficients.as_tuple()
    # g'(x_i) rounds against the sum of its terms' sizes, and the root's own
    # last ulp moves it by |x_i g''(x_i)| eps, at most twice that sum
    size = 1.0 + abs(l1) + 2.0 * np.abs(l2 * x) + 3.0 * np.abs(l3) * x * x
    return r, m2 * x, 3.0 * size * np.abs(r)


def _closed_form_segments(pE, residues, m2, cond, edges):
    """Each segment's integral in closed form, and its rounding bound.

    With K = k^2 the integrand is dK/(2D) above pE and K dK/(2 pE^2 D)
    below, so with 1/D = sum R_i/(K + M_i^2) a segment is

      above pE:  (1/2) sum R_i log|K + M_i^2|,
      below pE:  (1/(2 pE^2)) sum R_i (K - M_i^2 log|K + M_i^2|)

    between its ends.  With three terms, sum R_i = sum R_i M_i^2 = 0
    (sum_rules) drop c0 + c1 M_i^2 from every term at each end.  Above
    pE that leaves R_i h(t_i), t_i = M_i^2/K, at an end where every
    |t_i| <= 1, so that octave increments ~ t^2 lose no digits to the
    cancelling terms ~ t, and R_i log|1 + t_i| at an end where some
    |t_i| > 1, where t_i itself would be large.  Below pE the roles of K
    and M_i^2 swap.
    """
    rules = len(residues) == 3
    lead = 0.0 if rules else residues.sum()
    # in K; a piece with equal ends is empty
    above = np.maximum(edges, pE) ** 2
    below = np.minimum(edges, pE) ** 2

    def ends(phi, scale):
        terms = scale * phi
        bound = np.abs(terms) * (_TERM_ULPS + cond)
        return terms.sum(axis=1), bound.sum(axis=1)

    t = m2 / above[:, None]
    small = np.abs(t).max(axis=1, keepdims=True) <= 1.0
    v, v_err = ends(np.where(small & rules, _h(t), _log_abs_1p(t)), residues)
    s = below[:, None] / m2
    large = np.abs(s).max(axis=1, keepdims=True) > 1.0
    w, w_err = ends(np.where(large & rules, _log_abs_1p(s), _h(s)),
                    -residues * m2)
    log_k = lead * np.log(above[1:] / above[:-1])
    up = above[1:] > above[:-1]
    down = below[1:] > below[:-1]
    segs = (np.where(up, 0.5 * (log_k + v[1:] - v[:-1]), 0.0)
            + np.where(down, 0.5 * (w[1:] - w[:-1]) / pE ** 2, 0.0))
    errs = (np.where(up, 0.5 * (_TERM_ULPS * np.abs(log_k) + v_err[1:]
                                + v_err[:-1]), 0.0)
            + np.where(down, 0.5 * (w_err[1:] + w_err[:-1]) / pE ** 2, 0.0))
    return segs, np.finfo(float).eps * errs


def loop_integral(pE: float, spectrum: SpectrumSolution, cutoffs,
                  variants=LOOP_VARIANTS) -> LoopResult:
    """Cutoff sweep of the regularized self-energy proxy.

    The spectrum gives the base mass, the coefficients and, from its
    masses, the quadrature break points.  Each [cutoff_j, cutoff_j+1]
    increment is computed separately (so increments are accurate
    relative to themselves, not to the bulk) and accumulated, each to
    LOOP_RTOL relative.  The scalar variants take the closed form of
    ``_closed_form_segments`` whenever their partial fractions exist and
    its rounding bound meets LOOP_RTOL on every segment; the rest, and
    close roots whose residues carry too few digits, take QUADPACK.
    pE and the cutoffs may be at most LOOP_K_MAX, the largest double with
    a finite square, and the cutoffs QUADPACK integrates at most
    QUADPACK_K_MAX; beyond, ValueError names the bound.
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

    edges = np.concatenate([[0.0], cutoffs])
    values, increments, tail_fits, abserr, method = {}, {}, {}, {}, {}
    for variant in variants:
        fractions = _partial_fractions(spectrum, variant)
        if fractions is not None:
            # K/M_i^2, M_i^2/K and the ratio of a segment's K ends can
            # overflow; such a segment is not finite, so it is not resolved
            # and needs no warning
            with np.errstate(all="ignore"):
                segs, errs = _closed_form_segments(pE, *fractions, edges)
            resolved = np.isfinite(segs) & (errs <= LOOP_RTOL * segs)
            method[variant] = "closed form"
        if fractions is None or not resolved.all():
            try:
                segs, errs = _quadpack_segments(pE, spectrum, edges,
                                                variant.startswith("modified"),
                                                variant.endswith("mass"))
            except ValueError as exc:
                if fractions is None:
                    raise
                # the closed form's limit is the cause: QUADPACK only
                # stood in for it
                j = int(np.argmin(resolved))
                limit = (f"reads {segs[j]:.3g} with a rounding bound of "
                         f"{errs[j]:.3g}, so it resolves no segment below "
                         f"{errs[j] / LOOP_RTOL:.3g} there"
                         if math.isfinite(errs[j]) else "overflows there")
                raise ValueError(
                    f"{variant} on [{edges[j]:g}, {edges[j + 1]:g}]: the closed "
                    f"form {limit}; lower pE or the cutoffs (QUADPACK cannot "
                    f"stand in: {exc})") from exc
            method[variant] = "QUADPACK"
        abserr[variant] = float(errs.sum())
        values[variant] = np.cumsum(segs)
        increments[variant] = segs[1:]
        tail_fits[variant] = _analyze_tail(cutoffs, values[variant], segs[1:])
    return LoopResult(cutoffs=cutoffs, values=values, increments=increments,
                      tail_fits=tail_fits, abserr=abserr, method=method)


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
