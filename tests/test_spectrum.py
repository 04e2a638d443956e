import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyqm.presets import PRESET_MASSES, REFERENCE_LAMBDAS
from levyqm.spectrum import (CutoffPolynomial, MassTriple,
                             NearDegenerateRootsWarning, _certified, f_eval,
                             fit_masses, g_eval, g_prime, lambdas_from_roots,
                             masses_from_lambdas)

TABLE3 = CutoffPolynomial(-2.35e-5, 2.35e-5, -1.95e-12)
TRIPLE = CutoffPolynomial(-2.0, 3.0, -1.0)


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def test_f_eval_basics():
    assert f_eval(0.0, TABLE3) == 0.0
    assert f_eval(1.0, TRIPLE) == 0.0
    # printed three-digit coefficients cancel pairwise at x = 1
    assert f_eval(1.0, TABLE3) == pytest.approx(-1.95e-12, rel=1e-12)


def test_g_eval_basics():
    assert g_eval(1.0, CutoffPolynomial(0.0, 0.0, 0.0)) == 1.0
    assert g_eval(1.0, TRIPLE) == 1.0


def test_g_eval_exact_coefficients_hit_one_at_roots():
    # full-precision coefficients put g(x_i) = 1 at every root; the
    # three-digit printed roundings shift g(x2) by O(x2^2 dl2) ~ 0.8,
    # while the root itself only moves by ~0.15% (|g'| ~ 1)
    x2 = (70.0 / 3.0) ** 2
    masses = MassTriple.from_values(PRESET_MASSES["table1a"])
    exact = fit_masses(masses).coefficients
    assert g_eval(x2, exact) == pytest.approx(1.0, abs=1e-9)

    printed = CutoffPolynomial(*REFERENCE_LAMBDAS["table1a"])
    sol = masses_from_lambdas(printed, 1.0)
    assert sol.roots[1] == pytest.approx(x2, rel=5e-3)


# ---------------------------------------------------------------------------
# coefficients from roots
# ---------------------------------------------------------------------------

def test_lambdas_from_unit_roots():
    with pytest.warns(NearDegenerateRootsWarning):
        c = lambdas_from_roots(1.0, 1.0, 1.0)
    assert c.as_tuple() == (-2.0, 3.0, -1.0)


@pytest.mark.parametrize("roots,expected", [
    ((1.0, 42704.0, 1.19979e7), (-2.35e-5, 2.35e-5, -1.95e-12)),
    ((1.0, 544.4, 1.895e6), (-1.84e-3, 1.84e-3, -9.69e-10)),
])
def test_lambdas_from_roots_reference_rows(roots, expected):
    c = lambdas_from_roots(*roots)
    for got, want in zip(c.as_tuple(), expected):
        assert got == pytest.approx(want, rel=5e-3)


def test_lambdas_from_roots_domain():
    with pytest.raises(ValueError):
        lambdas_from_roots(-1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        lambdas_from_roots(0.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# roots from coefficients
# ---------------------------------------------------------------------------

def test_roots_all_zero_coefficients():
    sol = masses_from_lambdas(CutoffPolynomial(0.0, 0.0, 0.0), 1.0)
    assert sol.roots == (1.0,)
    assert sol.n_complex == 0


def test_roots_round_trip_reference_scale():
    x = (1.0, 42704.0, 1.19979e7)
    sol = masses_from_lambdas(lambdas_from_roots(*x), 1.0)
    assert len(sol.roots) == 3
    for got, want in zip(sol.roots, x):
        assert got == pytest.approx(want, rel=1e-10)


def test_roots_triple_degenerate():
    sol = masses_from_lambdas(TRIPLE, 1.0)
    assert sol.degenerate
    assert sol.roots == (1.0, 1.0, 1.0)
    assert all(math.isnan(r) for r in sol.residues)


def test_roots_one_real_two_complex():
    # x^3 + x + 1 scaled into the g convention: pick coefficients with a
    # known negative discriminant
    c = CutoffPolynomial(lambda1=1.0, lambda2=0.0, lambda3=-1.0)
    # g(x) - 1 = x - x + x^3 - 1 = x^3 - 1 ... has single real root 1
    sol = masses_from_lambdas(c, 1.0)
    assert sol.n_complex == 2
    assert sol.roots == (pytest.approx(1.0, rel=1e-12),)
    assert sol.discriminant < 0


def test_quadratic_degree_reduction():
    # lambda3 = 0: quadratic with two real roots
    full = lambdas_from_roots(2.0, 5.0, 1e8)
    c = CutoffPolynomial(full.lambda1, full.lambda2, 0.0)
    sol = masses_from_lambdas(c, 1.0)
    assert len(sol.roots) == 2
    for x in sol.roots:
        assert g_eval(x, c) == pytest.approx(1.0, abs=1e-9)


def test_quadratic_no_real_roots_is_diagnostic_not_error():
    c = CutoffPolynomial(lambda1=1.0, lambda2=1.0, lambda3=0.0)
    # x - x - x^2 = 1 has no real solution
    sol = masses_from_lambdas(c, 1.0)
    assert sol.roots == ()
    assert sol.n_complex == 2
    assert sol.discriminant < 0


def test_linear_case():
    c = CutoffPolynomial(lambda1=0.5, lambda2=0.0, lambda3=0.0)
    sol = masses_from_lambdas(c, 1.0)
    assert sol.roots == (pytest.approx(2.0),)


def exact_real_roots(c):
    """Real roots of g(x) = 1 for the float coefficients as given, 50 digits.

    The sign of the cubic's discriminant, computed in exact rational
    arithmetic, says how many of mpmath's roots are real.
    """
    mpmath = pytest.importorskip("mpmath")
    a, b = Fraction(c.lambda3), Fraction(c.lambda2)
    d = Fraction(c.lambda1) - 1
    disc = 18 * a * b * d - 4 * b ** 3 + b * b * d * d - 4 * a * d ** 3 \
        - 27 * a * a
    with mpmath.workdps(50):
        roots = mpmath.polyroots(
            [mpmath.mpf(c.lambda3), mpmath.mpf(c.lambda2),
             mpmath.mpf(c.lambda1) - 1, 1], maxsteps=200, extraprec=200)
        roots = sorted(roots, key=lambda r: abs(mpmath.im(r)))
        return sorted(float(mpmath.re(r)) for r in roots[:3 if disc >= 0 else 1])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3,
                max_size=3, unique=True))
# rounding the coefficients alone moves these roots by more than 1e-10
@example([0.0, 0.00390625, 6.103515625e-05])
@example([0.0, 0.125, 4.452498675144073e-06])
# a near-coincident pair below a distant root: the closed form alone
# fails its root certificate, or loses the pair
@example([-1.7345658765361187, -1.7345598903452835, 1.4894783101259872])
@example([-1.8640945153174457, -1.8640995917718075, 1.895313460666983])
# three roots within 3e-5 of each other
@example([1.9100805950552382, 1.9100856084507762, 1.9100911621275896])
# ... whose rounded coefficients have a complex pair
@example([1.959, 1.9590100000000001, 1.95902])
def test_round_trip_property(exponents):
    xs = sorted(10.0 ** e for e in exponents)
    if min(xs[1] / xs[0], xs[2] / xs[1]) < 1.0 + 1e-5:
        return
    c = lambdas_from_roots(*xs)
    sol = masses_from_lambdas(c, 1.0)
    # Nearly coincident roots move by more than 1e-10 when the
    # coefficients are rounded, so the solver is held to the exact roots
    # of the float coefficients it received.
    exact = exact_real_roots(c)
    assert len(sol.roots) == len(exact)
    assert (sol.discriminant > 0.0) == (len(exact) == 3)
    for got, want in zip(sol.roots, exact):
        assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(pair=st.floats(min_value=-2.0, max_value=2.0),
       gap=st.floats(min_value=-6.0, max_value=-1.0),
       far=st.floats(min_value=2.0, max_value=12.0), above=st.booleans())
# lambdas_from_roots(1.0, 1.0001, 1e8) once failed its own certificate
@example(pair=0.0, gap=-4.0, far=8.0, above=True)
@pytest.mark.filterwarnings("ignore::levyqm.spectrum.NearDegenerateRootsWarning")
def test_far_root_near_pair_property(pair, gap, far, above):
    # a pair 10^gap apart, relative, and a root 10^far above or below it:
    # each solved root is an exact root of the float coefficients
    x0 = 10.0 ** pair
    xs = sorted([x0, x0 * (1.0 + 10.0 ** gap),
                 x0 * 10.0 ** (far if above else -far)])
    c = lambdas_from_roots(*xs)
    sol = masses_from_lambdas(c, 1.0)
    exact = exact_real_roots(c)
    assert len(sol.roots) == len(exact)
    assert (sol.discriminant > 0.0) == (len(exact) == 3)
    for got, want in zip(sol.roots, exact):
        assert got == pytest.approx(want, rel=1e-10)


def cluster_lambdas(a, d1, d2):
    return lambdas_from_roots(a, a * (1.0 + d1), a * (1.0 + d2)).as_tuple()


@settings(max_examples=150, deadline=None)
@given(st.builds(cluster_lambdas, st.floats(min_value=1e-2, max_value=1e4),
                 st.floats(min_value=1e-8, max_value=1e-3),
                 st.floats(min_value=1e-8, max_value=1e-3)))
# near-triple clusters where Newton, unbracketed, stopped between the two
# nearby zeros of g' and the certificate accepted the point
@example((-14.555487569133959, 80.65773117048667, -139.4078149506772))
@example((-6.493480537223045, 18.71741685391352, -15.584288766876838))
@example((0.8380843097143652, 0.008738896920147107, -0.00015721828079283908))
@example((-96.82961339642993, 3190.2110857390153, -34677.45746286361))
@pytest.mark.filterwarnings("ignore::levyqm.spectrum.NearDegenerateRootsWarning")
def test_near_triple_cluster_property(lambdas):
    # roots a, a (1 + d1), a (1 + d2): rounding the coefficients spreads
    # them by ~1e-5 or makes a complex pair, and every real root of the
    # float coefficients is found to 1e-12
    c = CutoffPolynomial(*lambdas)
    sol = masses_from_lambdas(c, 1.0)
    exact = exact_real_roots(c)
    assert len(sol.roots) == len(exact)
    for got, want in zip(sol.roots, exact):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("xs", [(1.0, 42704.0, 1.19979e7),
                                (1.0, 1.00002, 1e6), (2.0, 1e5, 1.00001e5),
                                (0.01, 0.0100002, 0.0100004)])
def test_discriminant_of_rescaled_cubic(xs):
    # l3^2 prod (x_i - x_j)^2 is the discriminant of the monic cubic in
    # x |l3|^(1/3); the cancellation in the pair's own discriminant
    # leaves it ~1e-6 accurate when roots are 2e-5 apart
    c = lambdas_from_roots(*xs)
    a, b, d = exact_real_roots(c)
    want = c.lambda3 ** 2 * ((a - b) * (a - d) * (b - d)) ** 2
    sol = masses_from_lambdas(c, 1.0)
    assert sol.discriminant == pytest.approx(want, rel=1e-5)


def test_round_trip_eleven_orders_of_magnitude():
    # widest realistic regime: root span ~1e10 against l3 ~ 1e-16
    xs = (1.0, 598044.44, 1.3026438e10)
    sol = masses_from_lambdas(lambdas_from_roots(*xs), 1.0)
    assert len(sol.roots) == 3
    for got, want in zip(sol.roots, xs):
        assert got == pytest.approx(want, rel=1e-6)


def test_vieta_consistency():
    xs = (0.7, 13.0, 812.0)
    c = lambdas_from_roots(*xs)
    sol = masses_from_lambdas(c, 1.0)
    x1, x2, x3 = sol.roots
    assert x1 + x2 + x3 == pytest.approx(-c.lambda2 / c.lambda3, rel=1e-9)
    assert x1 * x2 + x1 * x3 + x2 * x3 == pytest.approx(
        (c.lambda1 - 1.0) / c.lambda3, rel=1e-9)
    assert x1 * x2 * x3 == pytest.approx(-1.0 / c.lambda3, rel=1e-9)


def test_root_certificate():
    for name in PRESET_MASSES:
        c = fit_masses(MassTriple.from_values(PRESET_MASSES[name])).coefficients
        sol = masses_from_lambdas(c, 1.0)
        for x in sol.roots:
            assert abs(g_eval(x, c) - 1.0) <= 1e-9 * max(1.0, x)


def test_certificate_scales_with_root_conditioning():
    # a far root above a near pair: rounding the coefficients leaves a
    # residual of ~0.7 at x = 1e8, a 7e-17 relative move of that root
    xs = (1.0, 1.0001, 1e8)
    c = lambdas_from_roots(*xs)
    sol = masses_from_lambdas(c, 1.0)
    for got, want in zip(sol.roots, xs):
        assert got == pytest.approx(want, rel=1e-10)
    # l3 off by 1e-6 relative moves the far root by 1e-6 relative
    bad = CutoffPolynomial(c.lambda1, c.lambda2, c.lambda3 * (1.0 + 1e-6))
    assert not _certified(1e8, bad)


# ---------------------------------------------------------------------------
# masses and residues
# ---------------------------------------------------------------------------

def test_mass_triple_validation():
    with pytest.raises(ValueError):
        MassTriple(1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        MassTriple(-1.0, 0.5, 2.0)
    assert MassTriple.from_values((3.0, 1.0, 2.0)).as_tuple() == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_reference_rows_lambda_reproduction(name):
    c = fit_masses(MassTriple.from_values(PRESET_MASSES[name])).coefficients
    for got, want in zip(c.as_tuple(), REFERENCE_LAMBDAS[name]):
        assert got == pytest.approx(want, rel=5e-3)


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_sign_pattern(name):
    c = fit_masses(MassTriple.from_values(PRESET_MASSES[name])).coefficients
    assert c.lambda1 < 0 and c.lambda2 > 0 and c.lambda3 < 0


def test_masses_round_trip_full_precision():
    masses = PRESET_MASSES["table3"]
    c = fit_masses(MassTriple.from_values(masses)).coefficients
    sol = masses_from_lambdas(c, masses[0])
    for got, want in zip(sol.masses, masses):
        assert got == pytest.approx(want, rel=1e-6)


def test_explicit_base_mass():
    masses = MassTriple(1.0, 2.0, 3.0)
    c = fit_masses(masses, base=0.5).coefficients
    sol = masses_from_lambdas(c, 0.5)
    assert sol.roots[0] == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        fit_masses(masses, base=-1.0)


def test_masses_from_lambdas_zero_cutoff():
    sol = masses_from_lambdas(CutoffPolynomial(0.0, 0.0, 0.0), 1.0)
    assert sol.roots == (1.0,)
    assert sol.masses == (1.0,)
    assert sol.residues == (1.0,)
    assert sol.residues[0] > 0


def test_residues_against_finite_differences():
    c = fit_masses(MassTriple.from_values(PRESET_MASSES["table3"])).coefficients
    sol = masses_from_lambdas(c, 1.0)
    for x, r in zip(sol.roots, sol.residues):
        h = 1e-6 * max(1.0, abs(x))
        fd = (g_eval(x + h, c) - g_eval(x - h, c)) / (2.0 * h)
        assert r == pytest.approx(1.0 / fd, rel=1e-8)


def test_degenerate_flagged_not_raised_in_masses():
    sol = masses_from_lambdas(TRIPLE, 1.0)
    assert sol.degenerate
    assert sol.masses == (1.0, 1.0, 1.0)


def test_solution_serialization():
    sol = masses_from_lambdas(CutoffPolynomial(0.0, 0.0, 0.0), 2.0)
    d = sol.to_dict()
    assert d["roots"] == [1.0]
    assert d["masses"] == [2.0]
    assert d["residues"][0] > 0
    assert list(d["sum_rules"]) == ["sum_r", "sum_rx", "l3_sum_rx2"]


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_sum_rules_hold_on_the_presets(name):
    solution = fit_masses(MassTriple.from_values(PRESET_MASSES[name]))
    assert solution.simple_cubic
    rules = solution.sum_rules()
    assert max(abs(v) for v in rules.values()) < 1e-15
    # a residue of the wrong sign breaks them
    for i in range(3):
        residues = list(solution.residues)
        residues[i] *= -1.0
        wrong = dataclasses.replace(solution, residues=tuple(residues))
        assert max(abs(v) for v in wrong.sum_rules().values()) > 1e-3


@pytest.mark.parametrize("solution", [
    masses_from_lambdas(TRIPLE, 1.0),                               # triple root
    masses_from_lambdas(CutoffPolynomial(-0.8, 1.0, -0.2), 1.0),    # complex pair
    masses_from_lambdas(CutoffPolynomial(0.0, 0.0, 0.0), 1.0),              # degree 1
    masses_from_lambdas(CutoffPolynomial(0.0, -0.25, 0.0), 1.0),    # degree 2
], ids=["triple", "complex-pair", "linear", "quadratic"])
def test_sum_rules_are_nan_without_three_simple_roots(solution):
    assert not solution.simple_cubic
    assert all(math.isnan(v) for v in solution.sum_rules().values())


def test_sum_rules_show_the_rounding_of_close_residues():
    # residues ~ 5.6e5 of masses 1, 1.000001, 3 carry ~1e-10 of rounding
    solution = fit_masses(MassTriple(1.0, 1.000001, 3.0))
    assert 1e-7 < abs(solution.sum_rules()["l3_sum_rx2"]) < 1e-3


@pytest.mark.parametrize("masses", [(1.0, 1.0, 2.0), (1.0, 1.0, 10.0),
                                    (0.5, 0.5, 3.0), (1.0, 2.0, 2.0),
                                    (1.0, 1.0, 1.0)])
@pytest.mark.parametrize("base", ["lightest", 0.25, 1000.0])
def test_fit_flags_coincident_masses_from_the_input(masses, base):
    triple = MassTriple.from_values(masses)
    m = triple.m1 if base == "lightest" else base
    with pytest.warns(NearDegenerateRootsWarning):
        sol = fit_masses(triple, base)
        assert sol.coefficients == lambdas_from_roots(
            *((v / m) ** 2 for v in triple.as_tuple()))
    assert sol.degenerate
    assert sol.n_complex == 0
    assert sol.masses == pytest.approx(masses, rel=1e-15)
    for r, m in zip(sol.residues, masses):
        assert math.isnan(r) == (masses.count(m) > 1)


def test_fit_of_distinct_masses_is_the_solve_back():
    masses = MassTriple.from_values(PRESET_MASSES["table3"])
    sol = fit_masses(masses)
    assert sol == masses_from_lambdas(sol.coefficients, masses.m1)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_multiplicity_test_is_scale_invariant(k):
    # roots 2^k, 2^(k+1), 2^(k+2) have exact coefficients and the same
    # x g'(x) at every k; at k = 40, g' itself is ~3e-13
    xs = (2.0 ** k, 2.0 ** (k + 1), 2.0 ** (k + 2))
    c = lambdas_from_roots(*xs)
    sol = masses_from_lambdas(c, 1.0)
    assert sol.roots == xs
    assert not sol.degenerate
    for x, r in zip(sol.roots, sol.residues):
        assert r == 1.0 / g_prime(x, c)


@pytest.mark.parametrize("base", [1e-3, 1.0, 1e3, 1e9])
def test_fit_round_trips_the_target_masses(base):
    masses = MassTriple(1.0, 2.0, 3.0)
    sol = fit_masses(masses, base)
    assert not sol.degenerate
    assert sol.masses == pytest.approx(masses.as_tuple(), rel=1e-9)


@pytest.mark.parametrize("base", [1e-4, 1e-6, 1e-8])
def test_fit_rejects_a_base_that_loses_the_round_trip(base):
    # far below the masses the coefficients keep too few digits: the
    # solved masses miss by 1.9e-9 at 1e-4 and one root is lost at 1e-8
    with pytest.raises(ValueError, match=f"base mass {base:g}"):
        fit_masses(MassTriple(1.0, 2.0, 3.0), base)


@pytest.mark.filterwarnings("ignore::levyqm.spectrum.NearDegenerateRootsWarning")
def test_fit_names_the_real_roots_that_close_masses_keep():
    # the base is the lightest mass; the coefficients of masses 1e-8 apart,
    # rounded to doubles, have a complex pair
    with pytest.raises(ValueError, match="have 1 real roots, not 3"):
        fit_masses(MassTriple(1.0, 1.00000001, 1.00000002))


def test_a_subnormal_l3_leaves_one_real_root():
    # the closed form's rescaling by |l3|^(1/3) made NaN roots here
    sol = masses_from_lambdas(CutoffPolynomial(0.0, 0.0, -5e-324), 1.0)
    assert sol.roots == (1.0,)
    assert sol.n_complex == 2
    assert sol.discriminant == -math.inf  # -8.1e323, past the largest double


@pytest.mark.parametrize("s, r", [(Fraction(-32, 3), Fraction(-32)),
                                  (Fraction(8, 3), Fraction(8, 3)),
                                  (Fraction(16, 5), Fraction(16, 5))],
                         ids=["double", "triple", "triple-between-two-doubles"])
def test_multiple_root_off_the_doubles(s, r):
    # g(x) - 1 = -l3 (x - s)^2 (x - r) with coefficients that are doubles
    # while s is not: no double zeroes the residual, the exact discriminant
    # is 0, and the critical point where the residual is nearest 0 holds
    # the multiple root
    l3 = -1 / (s * s * r)
    lambdas = (1 + l3 * (s * s + 2 * s * r), -l3 * (2 * s + r), l3)
    assert all(float(v) == v for v in lambdas)
    sol = masses_from_lambdas(CutoffPolynomial(*map(float, lambdas)), 1.0)
    assert sol.degenerate and sol.discriminant == 0.0
    assert sol.roots == pytest.approx(sorted(map(float, (s, s, r))), rel=1e-15)
