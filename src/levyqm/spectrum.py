"""Cubic-cutoff mass-spectrum algebra.

A cubic correction f(x) = l1 x + l2 x^2 + l3 x^3 to the squared-mass
constraint turns the single propagator pole into up to three: the real
positive solutions x_i of

    g(x) = x - f(x) = 1

carry masses M_i = m sqrt(x_i) and pole residues 1/g'(x_i).  The
inverse map from three roots to the coefficients is closed form
(Vieta on the monic cubic with constant term 1):

    l1 = 1 - sum 1/x_i,   l2 = sum_{i<j} 1/(x_i x_j),   l3 = -1/(x1 x2 x3).

The forward solve takes one root from the closed-form cubic on a
magnitude-rescaled variable and the other two from the quadratic left by
deflation, then polishes each by Newton's method on g(x) - 1 in the
original variable, with the residual evaluated exactly.  The rescaling
matters because realistic coefficient sets span l3 ~ 1e-16 against
roots ~ 1e10, where the raw closed form loses most of its digits to
cancellation; the deflation and the exact residual matter for nearly
coincident roots, which the closed form merges or displaces and plain
Newton cannot resolve.

A spectrum is one ``SpectrumSolution``: coefficients, base mass, roots,
masses and residues.  It has two constructors,
``masses_from_lambdas`` (coefficients and base mass given) and
``fit_masses`` (three target masses given), and every consumer takes
the solution rather than solving again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

DEGENERATE_GPRIME = 1e-12
NEAR_COINCIDENT_RATIO = 1e-6
ROOT_CERTIFICATE = 1e-9


class NearDegenerateRootsWarning(UserWarning):
    pass


@dataclass(frozen=True)
class CutoffPolynomial:
    """Coefficients (l1, l2, l3) of the cubic cutoff f(x) = l1 x + l2 x^2 + l3 x^3."""

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        for v in (self.lambda1, self.lambda2, self.lambda3):
            if not math.isfinite(v):
                raise ValueError("cutoff coefficients must be finite")

    @classmethod
    def zero(cls) -> "CutoffPolynomial":
        return cls(0.0, 0.0, 0.0)

    def as_tuple(self):
        return (self.lambda1, self.lambda2, self.lambda3)


@dataclass(frozen=True)
class MassTriple:
    """Three target masses in GeV, ascending."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        if not (0.0 < self.m1 <= self.m2 <= self.m3):
            raise ValueError("masses must satisfy 0 < m1 <= m2 <= m3")

    @classmethod
    def from_values(cls, values) -> "MassTriple":
        vals = sorted(float(v) for v in values)
        if len(vals) != 3:
            raise ValueError("exactly three masses required")
        return cls(*vals)

    def as_tuple(self):
        return (self.m1, self.m2, self.m3)


@dataclass(frozen=True)
class SpectrumSolution:
    """The spectrum of one cutoff: coefficients, base mass and real roots.

    Built only by ``masses_from_lambdas`` and ``fit_masses``, and handed
    as is to every consumer (poles, loop cut points, mass branches), so
    a run solves its spectrum once.  Complex-conjugate root pairs are
    reported through ``n_complex`` and the (sign-faithful,
    magnitude-rescaled) ``discriminant``; degenerate roots set
    ``degenerate`` and leave their residue as NaN.
    """

    coefficients: CutoffPolynomial
    base_mass: float
    roots: tuple
    masses: tuple
    residues: tuple
    discriminant: float | None
    degenerate: bool
    n_complex: int

    @property
    def simple_cubic(self) -> bool:
        """Three simple real roots: g(x) - 1 = -l3 prod (x - x_i) in full."""
        return len(self.roots) == 3 and not self.degenerate

    def sum_rules(self) -> dict:
        """How far the residues miss their sum rules.

        With three simple real roots, sum R_i = 0, sum R_i x_i = 0 and
        -l3 sum R_i x_i^2 = 1.  Reported as sum R_i / sum |R_i|,
        sum R_i x_i / sum |R_i x_i| and -l3 sum R_i x_i^2 - 1, so each
        reads 0 up to rounding; NaN for any other spectrum (a repeated
        root, a complex pair, a cutoff of lower degree).
        """
        if not self.simple_cubic:
            return dict.fromkeys(("sum_r", "sum_rx", "l3_sum_rx2"), math.nan)
        r, x = np.array(self.residues), np.array(self.roots)
        return {"sum_r": float(r.sum() / np.abs(r).sum()),
                "sum_rx": float((r * x).sum() / np.abs(r * x).sum()),
                "l3_sum_rx2": float(-self.coefficients.lambda3
                                    * (r * x * x).sum() - 1.0)}

    def to_dict(self) -> dict:
        return {
            "lambdas": list(self.coefficients.as_tuple()),
            "base_mass": self.base_mass,
            "roots": list(self.roots),
            "masses": list(self.masses),
            "residues": list(self.residues),
            "sum_rules": self.sum_rules(),
            "discriminant": self.discriminant,
            "degenerate": self.degenerate,
            "n_complex": self.n_complex,
        }


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def f_eval(x, c: CutoffPolynomial):
    """Cutoff cubic, Horner form."""
    return x * (c.lambda1 + x * (c.lambda2 + x * c.lambda3))


def g_eval(x, c: CutoffPolynomial):
    return x - f_eval(x, c)


def g_prime(x, c: CutoffPolynomial):
    return 1.0 - (c.lambda1 + x * (2.0 * c.lambda2 + 3.0 * x * c.lambda3))


# ---------------------------------------------------------------------------
# roots <-> coefficients <-> masses
# ---------------------------------------------------------------------------

def lambdas_from_roots(x1: float, x2: float, x3: float) -> CutoffPolynomial:
    """Coefficients whose spectrum equation has the given positive roots."""
    roots = (float(x1), float(x2), float(x3))
    if any(x <= 0 or not math.isfinite(x) for x in roots):
        raise ValueError("roots must be positive and finite")
    _warn_near_coincident(roots)

    r1, r2, r3 = (1.0 / x for x in roots)
    c = CutoffPolynomial(
        lambda1=1.0 - (r1 + r2 + r3),
        lambda2=r1 * r2 + r1 * r3 + r2 * r3,
        lambda3=-r1 * r2 * r3,
    )
    for x in roots:
        if not _certified(x, c):
            raise RuntimeError(f"coefficient construction failed certificate at x={x}")
    return c


def _certified(x: float, c: CutoffPolynomial) -> bool:
    """g(x) = 1 to within a ROOT_CERTIFICATE relative move of the root.

    A residual r moves a simple root by r / g'(x), so the bound scales
    with |x g'(x)|, the root's conditioning: a far root above a close
    pair carries a large residual from coefficient rounding alone and is
    still exact to a few ulps.  The floor max(1, |x|) keeps the bound
    finite at multiple roots, where g' vanishes and the degenerate flag
    takes over.
    """
    residual = abs(g_eval(x, c) - 1.0)
    return (residual <= ROOT_CERTIFICATE * max(1.0, abs(x))
            or residual <= ROOT_CERTIFICATE * abs(x * g_prime(x, c)))


def _warn_near_coincident(roots):
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(roots[i] / roots[j] - 1.0) < NEAR_COINCIDENT_RATIO:
                warnings.warn(
                    f"roots {roots[i]} and {roots[j]} are nearly coincident",
                    NearDegenerateRootsWarning, stacklevel=3)


def _residual(x: float, c: CutoffPolynomial) -> float:
    """g(x) - 1 exactly, rounded once.

    Every double is an integer over a power of two, so the sum is exact
    in integers.  Plain evaluation stalls Newton wherever the rounding of
    the residual exceeds the distance to the root, which for nearly
    coincident roots is far above the root's own rounding.
    """
    xn, xd = x.as_integer_ratio()
    num, den = xn - xd, xd
    for k, coef in enumerate(c.as_tuple(), start=1):
        cn, cd = coef.as_integer_ratio()
        tn, td = cn * xn ** k, cd * xd ** k
        if td > den:
            num, den = num * (td // den) - tn, td
        else:
            num -= tn * (den // td)
    return num / den


def _newton_polish(x: float, c: CutoffPolynomial, iters: int = 40) -> float:
    for _ in range(iters):
        df = g_prime(x, c)
        if df == 0.0:
            break
        step = _residual(x, c) / df
        limit = 0.5 * abs(x) + 1.0
        step = max(-limit, min(limit, step))
        x -= step
        if abs(step) <= np.finfo(float).eps * abs(x):
            break
    return x


def _solve_cubic_scaled(c: CutoffPolynomial):
    """Real roots of l3 x^3 + l2 x^2 + (l1-1) x + 1 = 0, closed form.

    The sign of the depressed-cubic invariant -4p^3 - 27q^2 of the
    rescaled monic polynomial picks the formula; near-coincident roots
    can give it the wrong sign.
    """
    l1, l2, l3 = c.lambda1, c.lambda2, c.lambda3
    s = abs(l3) ** (1.0 / 3.0)
    # monic in y = x*s: y^3 + B y^2 + C y + D, D = sign(l3)
    b_coef = (l2 / l3) * s
    c_coef = ((l1 - 1.0) / l3) * s * s
    d_coef = math.copysign(1.0, l3)

    p = c_coef - b_coef * b_coef / 3.0
    q = (2.0 * b_coef ** 3) / 27.0 - b_coef * c_coef / 3.0 + d_coef
    disc = -4.0 * p ** 3 - 27.0 * q * q

    if disc > 0.0:
        # three real roots, trigonometric form (p < 0 here)
        r = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * r)
        arg = max(-1.0, min(1.0, arg))
        theta = math.acos(arg)
        ts = [r * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    elif disc == 0.0:
        # multiple real roots: triple at 0 when p = 0, else double + simple
        if p == 0.0:
            ts = [0.0, 0.0, 0.0]
        else:
            ts = [3.0 * q / p, -1.5 * q / p, -1.5 * q / p]
    else:
        # one real root; Cardano with the larger-magnitude cube root to
        # dodge cancellation
        rad = math.sqrt(-disc / 108.0)
        if q >= 0.0:
            u = -_cbrt(0.5 * q + rad)
        else:
            u = _cbrt(-0.5 * q + rad)
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        ts = [u + v]

    return [(t - b_coef / 3.0) / s for t in ts]


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _real_roots(c: CutoffPolynomial):
    """(roots, discriminant, n_complex) of g(x) = 1, uncertified.

    Closed form, deflation, Newton polishing.  Complex-conjugate pairs
    are reported as absent (``n_complex``) with the discriminant
    attached; a vanished leading coefficient reduces the degree instead
    of failing.
    """
    l1, l2, l3 = c.lambda1, c.lambda2, c.lambda3

    if l3 == 0.0 and l2 == 0.0:
        return ([] if l1 == 1.0 else [1.0 / (1.0 - l1)]), None, 0

    if l3 == 0.0:
        # l2 x^2 + (l1-1) x + 1 = 0, stable two-root formula
        disc = (l1 - 1.0) ** 2 - 4.0 * l2
        if disc < 0.0:
            return [], disc, 2
        sq = math.sqrt(disc)
        b = l1 - 1.0
        qq = -0.5 * (b + math.copysign(sq, b))
        return [_newton_polish(x, c) for x in (qq / l2, 1.0 / qq)], disc, 0

    # One root from the closed form, the best-conditioned one; the other
    # two from the quadratic left by dividing it out.  Near-coincident
    # roots, which the closed form merges or displaces, stay apart there.
    raw = _solve_cubic_scaled(c)
    r = _newton_polish(max(raw, key=lambda x: abs(g_prime(x, c) * x)), c)
    # the other roots' product and sum, by whichever Vieta relation
    # does not cancel against r
    prod = -1.0 / (l3 * r)
    if r * r > abs(prod):
        total = ((l1 - 1.0) / l3 - prod) / r
    else:
        total = -l2 / l3 - r
    disc_q = total * total - 4.0 * prod
    # discriminant of the monic cubic in x |l3|^(1/3), with a, b the other
    # roots: l3^2 disc_q ((r - a)(r - b))^2
    disc = l3 * l3 * disc_q * ((r - total) * r + prod) ** 2
    if disc_q < 0.0:
        return [r], disc, 2
    big = 0.5 * (total + math.copysign(math.sqrt(disc_q), total))
    return [r, _newton_polish(big, c), _newton_polish(prod / big, c)], disc, 0


def _solution_from_roots(c, base_mass, roots, discriminant, n_complex,
                         multiple=()) -> SpectrumSolution:
    """Masses and residues at certified roots.

    A root is multiple, with no residue, when it is listed in
    ``multiple`` or when |x g'(x)| < DEGENERATE_GPRIME.  At a root of the
    cubic, x_i g'(x_i) = -prod_{j != i} (x_i / x_j - 1): unlike a bound
    on g' alone, the test does not change when the roots are rescaled.
    """
    roots = sorted(roots)
    residues = []
    for x in roots:
        if not _certified(x, c):
            raise RuntimeError(f"root certificate violated at x={x!r}")
        gp = g_prime(x, c)
        simple = x not in multiple and abs(x * gp) >= DEGENERATE_GPRIME
        residues.append(1.0 / gp if simple else math.nan)
    return SpectrumSolution(
        coefficients=c,
        base_mass=base_mass,
        roots=tuple(roots),
        masses=tuple(base_mass * math.sqrt(x) if x > 0.0 else math.nan
                     for x in roots),
        residues=tuple(residues),
        discriminant=discriminant,
        degenerate=any(math.isnan(r) for r in residues),
        n_complex=n_complex,
    )


def masses_from_lambdas(c: CutoffPolynomial, m: float) -> SpectrumSolution:
    """Spectrum of the coefficients c at base mass m, solved once."""
    if m <= 0:
        raise ValueError("base mass must be positive")
    return _solution_from_roots(c, m, *_real_roots(c))


def fit_masses(masses: MassTriple, base="lightest") -> SpectrumSolution:
    """Spectrum whose masses are the three targets.

    The base mass m is the lightest target by default, else ``base``;
    the roots are x_i = (m_i / m)^2 and the coefficients follow from
    them in closed form.  Distinct masses: the spectrum is solved back
    from the coefficients, and the solved masses must match the targets
    to ROOT_CERTIFICATE, else ValueError; a base far below the masses
    leaves too few digits in the coefficients for the round trip.
    Exactly coincident masses are a multiple pole, but rounding the
    coefficients splits a double root or turns it into a complex pair,
    so the solve-back would report whatever the rounding did.  They are
    flagged from the input instead: the spectrum is the target roots
    themselves, degenerate, with no residue at the repeated root.
    """
    m = masses.m1 if base == "lightest" else float(base)
    if m <= 0:
        raise ValueError("explicit base mass must be positive")
    values = masses.as_tuple()
    xs = [(mass / m) ** 2 for mass in values]
    c = lambdas_from_roots(*xs)
    repeated = {x for x, mass in zip(xs, values) if values.count(mass) > 1}
    if repeated:
        return _solution_from_roots(c, m, xs, discriminant=0.0, n_complex=0,
                                    multiple=repeated)
    solution = masses_from_lambdas(c, m)
    err = math.inf
    if len(solution.masses) == 3:
        err = max(abs(got / want - 1.0)
                  for got, want in zip(solution.masses, values))
    if not err <= ROOT_CERTIFICATE:
        raise ValueError(
            f"base mass {m:g}: the solved masses miss the targets by "
            f"{err:.1e} relative, above {ROOT_CERTIFICATE:g}; choose a base "
            "mass nearer the masses")
    return solution
