"""Cubic-cutoff mass-spectrum algebra.

A cubic correction f(x) = l1 x + l2 x^2 + l3 x^3 to the squared-mass
constraint turns the single propagator pole into up to three: the real
positive solutions x_i of

    g(x) = x - f(x) = 1

carry masses M_i = m sqrt(x_i) and pole residues 1/g'(x_i).  The
inverse map from three roots to the coefficients is closed form
(Vieta on the monic cubic with constant term 1):

    l1 = 1 - sum 1/x_i,   l2 = sum_{i<j} 1/(x_i x_j),   l3 = -1/(x1 x2 x3).

The forward solve brackets every real root between the critical points
of g (the roots of the quadratic g') and a root bound by the sign of the
exact residual g(x) - 1, which nearly coincident roots need, and finds
it by Newton's method from a ``numpy.roots`` seed (of the polynomial
rescaled by the bound, for l3 ~ 1e-16 against roots ~ 1e10), bisecting
whenever a step leaves the bracket.

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
EPS = np.finfo(float).eps


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
    reported through ``n_complex`` and the ``discriminant`` (exact, then
    rounded; +-inf past the doubles); degenerate roots set
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
    """g(x) - 1 exactly, rounded once (to +-inf beyond the doubles).

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
    return _ratio(num, den)


def _ratio(num: int, den: int) -> float:
    """num / den for den > 0, rounded once; +-inf beyond the doubles."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _discriminant(c: CutoffPolynomial):
    """l_n^2 prod_{i<j} (x_i - x_j)^2 over the roots of g(x) = 1 (l_n the
    leading coefficient) as exact integers (numerator, denominator), the
    latter 0 below degree 2: its sign counts the real roots however close."""
    (n1, d1), (n2, d2), (n3, d3) = (v.as_integer_ratio() for v in c.as_tuple())
    d = max(d1, d2, d3)  # the common denominator, a power of two
    a, b, k = n3 * (d // d3), n2 * (d // d2), (n1 - d1) * (d // d1)
    delta = (b * b * k * k - 4 * a * k ** 3 - 4 * b ** 3 * d
             - 27 * a * a * d * d + 18 * a * b * k * d)
    return delta, ((a or b) * d) ** 2


def _critical_points(a1: float, a2: float, a3: float) -> list:
    """Real roots of g' = a1 + 2 a2 x + 3 a3 x^2, ascending, a double one
    twice, by the form that does not cancel, with a2^2 - 3 a1 a3 formed
    from frexp mantissas and h halved, so that neither leaves the doubles."""
    (m1, e1), (m2, e2), (m3, e3) = map(math.frexp, (a1, a2, a3))
    top = max((k for m, k in ((m2, 2 * e2), (m1 * m3, e1 + e3)) if m), default=0)
    top += top % 2
    d = math.ldexp(m2 * m2, 2 * e2 - top) - math.ldexp(3.0 * m1 * m3, e1 + e3 - top)
    if d < 0.0 or not (a2 or a3):
        return []
    h = -(0.5 * a2 + math.copysign(math.ldexp(math.sqrt(d), top // 2 - 1), a2))
    return sorted([h / a3 / 1.5, 0.5 * a1 / h if h else 0.0]) if a3 else [0.5 * a1 / h]


def _root_in(c: CutoffPolynomial, lo: float, hi: float, x: float, rising) -> float:
    """The root of g(x) = 1 in [lo, hi], across which the residual changes
    sign (upwards when ``rising``): Newton's method from x, bisecting
    whenever a step leaves the bracket, until a step moves x by an ulp."""
    while True:
        r = _residual(x, c)
        if r == 0.0:
            return x
        lo, hi = (lo, x) if (r > 0.0) == rising else (x, hi)
        slope = g_prime(x, c)
        new = x - r / slope if 0.0 < abs(slope) < math.inf else math.nan
        if not lo <= new <= hi:
            new = 0.5 * lo + 0.5 * hi
        if abs(new - x) <= EPS * abs(new):
            return new
        x = new


def _real_roots(c: CutoffPolynomial):
    """(roots, discriminant, n_complex, multiple) of g(x) = 1, any degree.

    p(x) = g(x) - 1 = sum a_k x^k is monotone between its critical points,
    and its roots lie inside B = 2^e > 2 max |a_k / a_n|^(1/(n-k))
    (Fujiwara).  A piece of [-B, B] between them holds a root where the
    exact residual changes sign; a critical point where it is 0 (nearest
    0, if the discriminant is) holds the rest of the discriminant's count.
    """
    a = [-1.0, 1.0 - c.lambda1, -c.lambda2, -c.lambda3]
    while a[-1] == 0.0:
        a.pop()
    n = len(a) - 1
    lead = math.log2(abs(a[n]))
    e = 2 + math.floor(max(((math.log2(abs(v)) - lead) / (n - k)
                            for k, v in enumerate(a[:n]) if v), default=0.0))
    if e > 1023:
        raise ValueError(f"the roots of g(x) = 1 at lambdas {c.as_tuple()} "
                         f"are bounded only by 2^{e}, beyond the doubles")
    # p(2^e y) / (a_n 2^(e n)) is monic with its roots inside |y| < 1
    mn, en = math.frexp(a[n])
    q = [math.ldexp(m / mn, ek - en - e * (n - k))
         for k, (m, ek) in enumerate(map(math.frexp, a))]
    seeds = [math.ldexp(y, e) for y in np.roots(q[n::-1]).real.tolist()]
    crit = _critical_points(*(a + [0.0] * (3 - n))[1:])
    ends = [-math.ldexp(1.0, e), *crit, math.ldexp(1.0, e)]
    sign = math.copysign(1.0, a[n])  # of p beyond the bound, where p ~ a_n x^n
    values = [sign * (-1) ** n, *(_residual(t, c) for t in crit), sign]
    delta, den = _discriminant(c)
    expected = n if not den or delta >= 0 else n - 2
    if den and delta == 0 and crit:
        t0 = min(crit, key=lambda t: abs(values[ends.index(t)]))
        values = [0.0 if t == t0 else v for t, v in zip(ends, values)]
    roots = []
    for (lo, r_lo), (hi, r_hi) in zip(zip(ends, values), zip(ends[1:], values[1:])):
        if min(r_lo, r_hi) < 0.0 < max(r_lo, r_hi):
            inside = [s for s in seeds if lo < s < hi] or [0.5 * lo + 0.5 * hi]
            roots.append(_root_in(c, lo, hi, inside[0], r_hi > 0.0))
    zeros = sorted({t for t, r in zip(crit, values[1:]) if r == 0.0})
    mult = expected - len(roots)  # of the root at a zero, if any
    if mult < 0 or len(zeros) != (mult > 0):
        raise RuntimeError(f"found {len(roots)} simple and {len(zeros)} multiple real "
                           f"roots of g(x) = 1; the discriminant gives {expected}")
    roots += zeros * mult
    for x in roots:
        if not math.isfinite(c.lambda1 * x + c.lambda2 * x * x + c.lambda3 * x * x * x):
            raise ValueError("f(x) = l1 x + l2 x^2 + l3 x^3 has a term beyond the "
                             f"doubles at the root x = {x:.6g} of g(x) = 1")
    return (roots, _ratio(delta, den) if den else None, n - len(roots),
            set(zeros) if mult > 1 else set())


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
    from the coefficients into three real roots whose masses match the
    targets to ROOT_CERTIFICATE, else ValueError: close masses or a base
    far below them leave too few digits in the coefficients for that.
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
    xs = [(mass / m) * (mass / m) for mass in values]
    if not all(x < math.inf for x in xs):
        raise ValueError(f"base mass {m:g}: (m_i / m)^2 overflows for masses "
                         f"{values}; keep the masses within a factor "
                         f"{math.sqrt(np.finfo(float).max):.4g} of the base")
    for mass, x in zip(values, xs):
        # 1 / x overflows from a subnormal x on
        if x < np.finfo(float).tiny:
            raise ValueError(f"base mass {m:g}: (m_i / m)^2 underflows for the "
                             f"mass {mass:g}; keep the masses at least "
                             f"{math.sqrt(np.finfo(float).tiny):.4g} times the base")
    c = lambdas_from_roots(*xs)
    repeated = {x for x, mass in zip(xs, values) if values.count(mass) > 1}
    if repeated:
        return _solution_from_roots(c, m, xs, discriminant=0.0, n_complex=0,
                                    multiple=repeated)
    solution = masses_from_lambdas(c, m)
    if len(solution.roots) != 3:
        raise ValueError(f"base mass {m:g}: rounded to doubles, the coefficients "
                         f"of masses {values} have {len(solution.roots)} real roots, "
                         "not 3: masses this close or a base this far below leave too few digits")
    err = max(abs(got / want - 1.0) for got, want in zip(solution.masses, values))
    if not err <= ROOT_CERTIFICATE:
        raise ValueError(
            f"base mass {m:g}: the solved masses miss the targets by "
            f"{err:.1e} relative, above {ROOT_CERTIFICATE:g}; choose a base "
            "mass nearer the masses")
    return solution
