import dataclasses
import math
import numpy as np
import pytest

import levyqm.propagators as propagators
from levyqm.presets import PRESET_MASSES
from levyqm.propagators import (LOOP_K_MAX, LOOP_RTOL, LOOP_VARIANTS,
                                NonpositiveDenominatorError,
                                find_poles, kg_propagator, loop_integral)
from levyqm.spectrum import (CutoffPolynomial, MassTriple, f_eval, fit_masses,
                             g_prime, masses_from_lambdas)

ZERO = CutoffPolynomial(0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def table3():
    masses = MassTriple.from_values(PRESET_MASSES["table3"])
    return fit_masses(masses), masses


# ---------------------------------------------------------------------------
# propagator values and poles
# ---------------------------------------------------------------------------

def test_kg_free_value_at_origin():
    assert kg_propagator(0.0, 1.0, ZERO, 1e-12) == pytest.approx(-1.0, abs=1e-9)


def test_kg_free_pole_blowup():
    eps = 1e-6
    inside = kg_propagator(1.0 + 0.5 * eps, 1.0, ZERO, eps)
    assert abs(inside) > 1.0 / (2.0 * eps)


def test_kg_domain():
    with pytest.raises(ValueError):
        kg_propagator(0.0, -1.0, ZERO, 1e-9)
    with pytest.raises(ValueError):
        kg_propagator(0.0, 1.0, ZERO, 0.0)


def test_kg_peak_scan_locates_squared_masses(table3):
    spectrum, masses = table3
    c, m = spectrum.coefficients, masses.m1
    eps = 1e-9 * m ** 2
    for target in masses.as_tuple():
        pole = target ** 2
        window = pole * np.linspace(1.0 - 1e-5, 1.0 + 1e-5, 4001)
        peak = window[np.argmax(np.abs(kg_propagator(window, m, c, eps)))]
        assert peak == pytest.approx(pole, rel=1e-6)


def test_scan_points_finite_away_from_poles(table3):
    spectrum, masses = table3
    c, m = spectrum.coefficients, masses.m1
    eps = 1e-9 * m ** 2
    p2 = np.linspace(0.0, 4.0, 257)
    values = kg_propagator(p2, m, c, eps)
    assert values.shape == (257,)
    assert np.all(np.isfinite(values))
    assert p2[0] == 0.0 and values[0] == kg_propagator(0.0, m, c, eps)


def test_find_poles_free_theory():
    sol = masses_from_lambdas(ZERO, 1.0)
    fits = find_poles(sol)
    assert sol.roots == (1.0,)
    assert fits[0].p2_pole == pytest.approx(1.0)
    assert fits[0].algebraic_residue == 1.0
    assert fits[0].residue_mismatch < 1e-12


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_find_poles_reference_rows(name):
    masses = MassTriple.from_values(PRESET_MASSES[name])
    spectrum = fit_masses(masses)
    fits = find_poles(spectrum)
    assert len(fits) == 3
    for fit, mass in zip(fits, masses.as_tuple()):
        assert fit.p2_pole == pytest.approx(mass ** 2, rel=1e-6)
        assert fit.algebraic_residue == pytest.approx(
            1.0 / g_prime(fit.root, spectrum.coefficients), rel=1e-15)
        assert fit.residue_mismatch < 1e-12


def test_find_poles_rejects_a_wrong_residue():
    # the read-off checks the residue itself: one scaled by 1 + 1e-5 misses
    # the propagator by 1e-5 at its own root
    spectrum = fit_masses(MassTriple(1.0, 2.0, 3.0))
    residues = list(spectrum.residues)
    residues[1] *= 1.0 + 1e-5
    wrong = dataclasses.replace(spectrum, residues=tuple(residues))
    with pytest.raises(ValueError,
                       match=rf"pole at x = {spectrum.roots[1]:g}: .* by 1\.00e-05"):
        find_poles(wrong)


def test_find_poles_degenerate_diagnostic():
    sol = masses_from_lambdas(CutoffPolynomial(-2.0, 3.0, -1.0), 1.0)
    fits = find_poles(sol)
    assert sol.degenerate
    assert fits == ()


# ---------------------------------------------------------------------------
# loop integral
# ---------------------------------------------------------------------------

def test_loop_unmodified_log_divergence(table3):
    spectrum, masses = table3
    m = masses.m1
    cutoffs = m * np.geomspace(1e2, 1e6, 13)
    res = loop_integral(m, spectrum, cutoffs, variants=("unmodified-scalar",))
    fit = res.tail_fits["unmodified-scalar"]
    assert fit.log_r2 > 0.999
    assert fit.log_slope > 0
    # constant log increments: I(2L) - I(L) = beta log 2 across decades
    incs = res.increments["unmodified-scalar"]
    spacing = np.log(cutoffs[1] / cutoffs[0])
    assert np.allclose(incs, fit.log_slope * spacing, rtol=1e-3)


def test_loop_modified_scalar_quartic_tail(table3):
    spectrum, masses = table3
    base = 100.0 * masses.m3
    cutoffs = base * 2.0 ** np.arange(0, 7)
    res = loop_integral(masses.m1, spectrum, cutoffs,
                        variants=("modified-scalar",))
    fit = res.tail_fits["modified-scalar"]
    for ratio in fit.octave_ratios:
        assert 1.0 / 32.0 < ratio < 1.0 / 8.0
    assert fit.decay_exponent == pytest.approx(-4.0, abs=0.5)


def test_loop_modified_mass_linear_tail(table3):
    spectrum, masses = table3
    base = 100.0 * masses.m3
    cutoffs = base * 2.0 ** np.arange(0, 7)
    res = loop_integral(masses.m1, spectrum, cutoffs,
                        variants=("modified-mass",))
    fit = res.tail_fits["modified-mass"]
    for ratio in fit.octave_ratios:
        assert 0.25 < ratio < 1.0


def test_loop_modified_increments_strictly_decreasing(table3):
    spectrum, masses = table3
    base = 10.0 * masses.m3
    cutoffs = base * 2.0 ** np.arange(0, 8)
    res = loop_integral(masses.m1, spectrum, cutoffs)
    for variant in ("modified-scalar", "modified-mass"):
        incs = res.increments[variant]
        assert np.all(np.diff(incs) < 0)


def test_loop_convergence_dichotomy(table3):
    # modified sweep is Cauchy, unmodified is not
    spectrum, masses = table3
    base = 100.0 * masses.m3
    cutoffs = base * 2.0 ** np.arange(0, 6)
    res = loop_integral(masses.m1, spectrum, cutoffs)
    mod = res.increments["modified-scalar"]
    unmod = res.increments["unmodified-scalar"]
    assert mod[-1] < 1e-4 * mod[0]
    assert unmod[-1] == pytest.approx(unmod[0], rel=1e-2)


def test_loop_external_momentum_suppression(table3):
    # fixed cutoff, pE -> infinity: I ~ 1/pE^2 exactly
    spectrum, masses = table3
    cutoffs = [1.0, 2.0]
    big, bigger = 100.0, 1000.0
    r1 = loop_integral(big, spectrum, cutoffs, variants=("modified-scalar",))
    r2 = loop_integral(bigger, spectrum, cutoffs, variants=("modified-scalar",))
    i1 = r1.values["modified-scalar"][-1]
    i2 = r2.values["modified-scalar"][-1]
    assert i1 * big ** 2 == pytest.approx(i2 * bigger ** 2, rel=1e-10)


def test_euclidean_denominator_positive_for_reference_rows():
    # the (l1<0, l2>0, l3<0) sign pattern makes every denominator
    # monomial nonnegative after Wick rotation; verify numerically too
    for name in sorted(PRESET_MASSES):
        masses = MassTriple.from_values(PRESET_MASSES[name])
        c = fit_masses(masses).coefficients
        assert c.lambda1 < 0 < c.lambda2 and c.lambda3 < 0
        m = masses.m1
        k = np.geomspace(1e-6 * m, 1e8 * m, 2000)
        y = (k / m) ** 2
        f_e = y * (-c.lambda1 + y * (c.lambda2 - y * c.lambda3))
        assert np.all(k ** 2 + m ** 2 * (1.0 + f_e) > 0.0)


def test_loop_euclidean_positivity_guard():
    # positive lambda1 flips the Euclidean linear term negative
    c = CutoffPolynomial(5.0, 0.0, 0.0)
    with pytest.raises(NonpositiveDenominatorError) as err:
        loop_integral(1.0, masses_from_lambdas(c, 1.0), [1.0, 2.0],
                      variants=("modified-scalar",))
    assert err.value.location == pytest.approx(0.5, rel=0.05)


def lambdas_of_roots(*roots):
    # Vieta on l3 x^3 + l2 x^2 + (l1 - 1) x + 1, any signs of the roots
    r1, r2, r3 = (1.0 / x for x in roots)
    return CutoffPolynomial(1.0 - (r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3,
                            -r1 * r2 * r3)


def test_loop_denominator_zero_between_close_negative_roots():
    # the denominator is negative only on k in (2, 2.0000125): far too
    # narrow for any sampling of k to find
    c = lambdas_of_roots(1.0, -4.0, -4.0001)
    assert c.as_tuple() == (0.49999375015624614, -0.4374953126171846,
                            -0.06249843753906153)
    with pytest.raises(NonpositiveDenominatorError,
                       match=r"vanishes at k = 2 \(") as err:
        loop_integral(1.0, masses_from_lambdas(c, 1.0), 100.0 * 2.0 ** np.arange(9),
                      variants=("modified-scalar",))
    # the exact zero of the rounded coefficients, 3.6e-12 below 2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        l1, l2, l3 = (mp.mpf(v) for v in c.as_tuple())
        x = max(r for r in mp.polyroots([l3, l2, l1 - 1, 1], maxsteps=200,
                                        extraprec=200) if r < 0)
        exact = float(mp.sqrt(-x))
    assert err.value.location == pytest.approx(exact, rel=1e-15)
    assert err.value.location == pytest.approx(2.0, abs=1e-11)


def test_loop_denominator_zero_of_a_close_pair():
    c = lambdas_of_roots(1.0, -100.0, -100.2)
    with pytest.raises(NonpositiveDenominatorError) as err:
        loop_integral(1.0, masses_from_lambdas(c, 1.0), [100.0, 200.0],
                      variants=("unmodified-scalar", "modified-scalar"))
    assert err.value.location == pytest.approx(10.0, rel=1e-12)


def test_loop_denominator_zero_above_the_top_cutoff_is_harmless():
    c = lambdas_of_roots(1.0, -4.0, -4.0001)
    result = loop_integral(1.0, masses_from_lambdas(c, 1.0), [0.5, 1.0, 1.9],
                           variants=("modified-scalar",))
    assert np.all(np.isfinite(result.values["modified-scalar"]))
    # only the modified variants see the cutoff's roots
    result = loop_integral(1.0, masses_from_lambdas(c, 1.0), [100.0, 200.0],
                           variants=("unmodified-scalar", "unmodified-mass"))
    assert np.all(result.values["unmodified-scalar"] > 0)


def test_loop_mass_numerator_not_real():
    # 1 + f(-k^2/m^2) = 1 - k^2/2 < 0 above k = sqrt(2), where the
    # denominator k^2 + 1 - k^2/2 is still positive
    spectrum = masses_from_lambdas(CutoffPolynomial(0.5, 0.0, 0.0), 1.0)
    with pytest.raises(NonpositiveDenominatorError,
                       match="--variant scalar") as err:
        loop_integral(1.0, spectrum, [100.0, 200.0],
                      variants=("unmodified-mass", "modified-mass"))
    assert err.value.location == pytest.approx(math.sqrt(2.0), rel=1e-15)
    result = loop_integral(1.0, spectrum, [100.0, 200.0],
                           variants=("modified-scalar",))
    assert np.all(np.isfinite(result.values["modified-scalar"]))


@pytest.mark.parametrize("vanishing, nearby", [
    ((-0.5, 0.1, 0.0), (-0.5, 0.1, -1e-30)),
    ((-0.5, 0.0, 0.0), (-0.5, 1e-40, 0.0)),
])
def test_loop_with_vanishing_trailing_lambdas_is_continuous(vanishing, nearby):
    # l3 = 0 (and l2 = 0) divide the above-m form by s (by s^2); a cubic
    # term too small to matter below 1e4 must give the same loop
    cutoffs = [10.0, 100.0, 1e4]
    variants = ("modified-scalar", "modified-mass")
    got, want = (loop_integral(1.0, masses_from_lambdas(CutoffPolynomial(*c), 1.0),
                               cutoffs, variants) for c in (vanishing, nearby))
    for variant in variants:
        np.testing.assert_allclose(got.values[variant], want.values[variant],
                                   rtol=1e-13, atol=0)


def test_loop_validation_errors(table3):
    spectrum, masses = table3
    with pytest.raises(ValueError):
        loop_integral(1.0, spectrum, [2.0, 1.0])
    with pytest.raises(ValueError):
        loop_integral(-1.0, spectrum, [1.0, 2.0])
    with pytest.raises(ValueError):
        loop_integral(1.0, spectrum, [1.0, 2.0], variants=("bogus",))
    with pytest.raises(ValueError):
        loop_integral(1.0, spectrum, [1.0])


def test_angular_average_identity_monte_carlo():
    # spherical mean of 1/(p-k)^2 over 4D directions equals 1/max(p,k)^2
    rng = np.random.default_rng(2024)
    directions = rng.standard_normal((10 ** 6, 4))
    cos_theta = directions[:, 0] / np.linalg.norm(directions, axis=1)
    p = 1.0
    for k in (0.5, 2.0):
        sample = 1.0 / (p ** 2 + k ** 2 - 2.0 * p * k * cos_theta)
        expected = 1.0 / max(p ** 2, k ** 2)
        assert sample.mean() == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("pe, cutoffs, message", [
    (math.nan, [1.0, 2.0], "got pE = nan"),
    (math.inf, [1.0, 2.0], "got pE = inf"),
    (1.0, [100.0, math.nan, 400.0], "cutoffs must be finite, got nan"),
    (1.0, [100.0, 200.0, math.inf], "cutoffs must be finite, got inf"),
])
def test_loop_rejects_non_finite_inputs(table3, monkeypatch, pe, cutoffs,
                                        message):
    # raised before any work: a NaN pE gave an all-NaN table, an infinite
    # one all zeros, and a NaN cutoff reached the tail fit's SVD
    def no_work(*args):
        raise AssertionError("integrated a non-finite input")

    monkeypatch.setattr(propagators, "_loop_segments", no_work)
    with pytest.raises(ValueError, match=message):
        loop_integral(pe, table3[0], cutoffs)


def test_loop_names_a_segment_over_the_piece_cap(table3, monkeypatch):
    # the README sweep starts from 12 pieces, and the first round cuts more
    monkeypatch.setattr(propagators, "MAX_INTERVALS", 12)
    with pytest.raises(ValueError, match=r"^unmodified-scalar on \[\S+, \S+\] "
                       r"needs over 12 pieces; lower pE or the cutoffs$"):
        loop_integral(table3[0].base_mass, table3[0],
                      177.0 * 2.0 ** np.arange(9), variants=SCALAR)


def test_loop_takes_momenta_up_to_a_finite_square(table3):
    # pE^2 and k^2 overflowed Python's float power with an OverflowError
    # (modified-scalar on [1e100, LOOP_K_MAX] is ~1e-402, below every double)
    for pe, cutoffs in [(LOOP_K_MAX, [1.0, 2.0]), (1.0, [1e50, LOOP_K_MAX])]:
        result = loop_integral(pe, table3[0], cutoffs, variants=SCALAR)
        assert all(np.all(np.isfinite(v)) for v in result.values.values())
    above = math.nextafter(LOOP_K_MAX, math.inf)
    for pe, cutoffs in [(above, [1.0, 2.0]), (1.0, [1.0, above])]:
        with pytest.raises(ValueError, match="the largest accepted is 1.341e"):
            loop_integral(pe, table3[0], cutoffs, variants=SCALAR)


def test_quadpack_takes_cutoffs_while_its_integrand_is_right(table3):
    # QUADPACK refused cutoffs above 1.158e77, whose cube passes the largest
    # double; above pE the unmodified-mass integrand is m k / (k^2 + m^2),
    # ~ m/k, so the increments are m log(ratio)
    spectrum = table3[0]
    m = spectrum.base_mass
    result = loop_integral(1.0, spectrum, [1e76, 1e80, 1e100],
                           variants=("unmodified-mass",))
    np.testing.assert_allclose(result.increments["unmodified-mass"],
                               m * np.log([1e4, 1e20]), rtol=1e-13)
    # QUADPACK's modified-mass integrand, ~ k^6 / k^8, was inf / inf above
    # ~1e51; the leading cubic term gives m^2 (1/a - 1/b) / sqrt(|l3|)
    cutoffs = np.array([1e40, 1e70, 1e100, LOOP_K_MAX])
    result = loop_integral(1.0, spectrum, cutoffs, variants=("modified-mass",))
    leading = (m ** 2 * (1.0 / cutoffs[:-1] - 1.0 / cutoffs[1:])
               / math.sqrt(-spectrum.coefficients.lambda3))
    np.testing.assert_allclose(result.increments["modified-mass"], leading,
                               rtol=1e-13)
    assert result.increments["modified-mass"][:2] == pytest.approx(
        [1.86912e-41, 1.86912e-71], rel=1e-6)


def test_modified_mass_tail_is_right_where_denominator_times_k2_overflows(table3):
    # above pE the integrand is k N / D: as k^3 N / (D k^2) it read 0 from
    # k ~ 2.2e38, where D k^2 passes the largest double, and the increment
    # was 0 with exit 0; the 1/k tail scales octave increments by 1/k
    v = "modified-mass"
    low, high = (loop_integral(1.0, table3[0], cutoffs, variants=(v,)).increments[v][0]
                 for cutoffs in ([1e36, 2e36], [1e40, 2e40]))
    assert high / low == pytest.approx(1e-4, rel=1e-6)


@pytest.mark.parametrize("variant, largest", [("unmodified-mass", 6.704e150),
                                              ("modified-mass", 3.133e143)])
def test_quadpack_takes_pe_while_its_denominator_is_finite(table3, variant,
                                                           largest):
    # above the top cutoff the integrand is k^3 N / (D pE^2), so pE^2 I is
    # one number at every pE; QUADPACK refused a pE above ``largest``, where
    # D pE^2 passes the largest double, and read 0 before that bound
    spectrum, cutoffs = table3[0], [1e3, 2e3]
    scaled = [loop_integral(pe, spectrum, cutoffs, variants=(variant,))
              .values[variant] * pe ** 2 for pe in (1e4, 1.001 * largest, 1e152)]
    for other in scaled[1:]:
        np.testing.assert_allclose(other, scaled[0], rtol=1e-12)


def test_mass_loop_at_a_huge_pe_matches_its_small_k_limit(table3):
    # below pE the unmodified-mass integral is m int k^3 dk / ((k^2 + m^2) pE^2)
    # = m (K^2 - m^2 log(1 + K^2/m^2)) / (2 pE^2), m K^2 / (2 pE^2) to 7.6e-12
    spectrum, cutoffs = table3[0], np.array([1000.0, 2000.0])
    m = spectrum.base_mass
    values = loop_integral(1e152, spectrum, cutoffs,
                           variants=("unmodified-mass",)).values["unmodified-mass"]
    want = m * (cutoffs ** 2 - m ** 2 * np.log1p((cutoffs / m) ** 2)) / 2.0 / 1e152 ** 2
    np.testing.assert_allclose(values, want, rtol=1e-13)
    assert values == pytest.approx([2.555e-302, 1.022e-301], rel=1e-11)
    # modified-mass at pE = 1e150, against mpmath's quadrature of the integrand
    mp = pytest.importorskip("mpmath")
    values = loop_integral(1e150, spectrum, cutoffs,
                           variants=("modified-mass",)).values["modified-mass"]
    with mp.workdps(30):
        l1, l2, l3 = (mp.mpf(v) for v in spectrum.coefficients.as_tuple())
        mm = mp.mpf(m)

        def integrand(k):  # times pE^2: mp.quad's tolerance is absolute
            y = (k / mm) ** 2
            one_f = 1 - l1 * y + l2 * y ** 2 - l3 * y ** 3
            return k ** 3 * mm * mp.sqrt(one_f) / (k ** 2 + mm ** 2 * one_f)

        points = [0.0, *sorted(spectrum.masses), *cutoffs]
        want = np.cumsum([float(mp.quad(integrand, [p for p in points if lo <= p <= hi])
                                / mp.mpf(1e150) ** 2)
                          for lo, hi in zip([0.0, cutoffs[0]], cutoffs)])
    np.testing.assert_allclose(values, want, rtol=1e-12)
    assert values == pytest.approx([1.8658e-298, 3.7349e-298], rel=1e-4)


def test_closed_form_out_of_range_names_its_own_limit(table3):
    # the segment [1e100, 1e150] is ~1e-500, below every double: a closed
    # form read -8.9e-316 there, and the integral reads 0
    with pytest.raises(ValueError, match=r"^modified-scalar on \[1e\+100, "
                       r"1e\+150\] reads 0, not a finite non-zero double; "
                       r"lower pE or the cutoffs$"):
        loop_integral(1e150, table3[0], [1e100, 1e150],
                      variants=("unmodified-scalar", "modified-scalar"))


def test_non_finite_closed_form_segment_is_not_resolved(table3):
    # pE^2 = 1e-310 is subnormal, and a closed form's ratio of K ends on the
    # first segment, 177^2/pE^2, overflowed: unmodified-scalar read inf, with
    # an inf rounding bound that passed as resolved, so the run wrote inf
    cutoffs = [177.0, 354.0]
    got = loop_integral(1e-155, table3[0], cutoffs, variants=SCALAR)
    want = loop_integral(1e-150, table3[0], cutoffs, variants=SCALAR)
    for v in SCALAR:
        np.testing.assert_allclose(got.values[v], want.values[v], rtol=1e-12)


# ---------------------------------------------------------------------------
# the loop against mpmath and QUADPACK
# ---------------------------------------------------------------------------

SCALAR = ("unmodified-scalar", "modified-scalar")


def mp_segments(pE, spectrum, edges, modified):
    """The scalar proxy's segment integrals from 50-digit partial fractions.

    The roots are mpmath's, of the float coefficients, complex pairs
    included, so the oracle shares no rounding with the library.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        m2 = mp.mpf(spectrum.base_mass) ** 2
        p2 = mp.mpf(pE) ** 2
        if modified:
            l1, l2, l3 = (mp.mpf(v) for v in spectrum.coefficients.as_tuple())
            xs = mp.polyroots([l3, l2, l1 - 1, 1], maxsteps=400, extraprec=400)
            fractions = [(1 / (1 - l1 - 2 * l2 * x - 3 * l3 * x * x), m2 * x)
                         for x in xs]
        else:
            fractions = [(mp.mpf(1), m2)]

        def above(k2):  # antiderivative of dK / (2 D)
            return sum(r * mp.log(k2 + w) for r, w in fractions) / 2

        def below(k2):  # antiderivative of K dK / (2 pE^2 D)
            return sum(r * (k2 - w * mp.log(k2 + w))
                       for r, w in fractions) / (2 * p2)

        segs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            lo2, hi2 = mp.mpf(lo) ** 2, mp.mpf(hi) ** 2
            seg = mp.mpf(0)
            if hi2 > p2:
                seg += above(hi2) - above(max(lo2, p2))
            if lo2 < p2:
                seg += below(min(hi2, p2)) - below(lo2)
            segs.append(float(mp.re(seg)))
    return np.array(segs)


def quadpack_segments(pE, spectrum, edges, variant):
    """QUADPACK's integral of the proxy over each [edges_j, edges_j+1], in k."""
    quad = pytest.importorskip("scipy.integrate").quad
    m, c = spectrum.base_mass, spectrum.coefficients

    def integrand(k):
        one_f = 1.0 + f_eval(-(k / m) ** 2, c) if variant.startswith("modified") else 1.0
        numer = m * math.sqrt(one_f) if variant.endswith("mass") else 1.0
        return k * numer / (k ** 2 + m ** 2 * one_f) * min(1.0, (k / pE) ** 2)

    points = [pE, *(mass for mass in spectrum.masses if mass > 0)]
    return np.array([quad(integrand, lo, hi, epsabs=0.0, epsrel=LOOP_RTOL, limit=400,
                          points=[p for p in points if lo < p < hi] or None)[0]
                     for lo, hi in zip(edges[:-1], edges[1:])])


def assert_matches_oracles(pE, spectrum, cutoffs, variants=SCALAR):
    """Totals and increments match QUADPACK, and the scalar ones 50-digit
    mpmath, to 1e-13; the error bound holds against mpmath."""
    result = loop_integral(pE, spectrum, cutoffs, variants=variants)
    edges = np.concatenate([[0.0], cutoffs])
    for variant in variants:
        oracles = [quadpack_segments(pE, spectrum, edges, variant)]
        if variant.endswith("scalar"):
            oracles.append(mp_segments(pE, spectrum, edges,
                                       variant.startswith("modified")))
            assert abs(result.values[variant][-1] - np.sum(oracles[-1])) \
                <= result.abserr[variant]
        for oracle in oracles:
            np.testing.assert_allclose(result.values[variant],
                                       np.cumsum(oracle), rtol=1e-13, atol=0)
            np.testing.assert_allclose(result.increments[variant], oracle[1:],
                                       rtol=1e-13, atol=0)
    return result


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_closed_form_loop_matches_mpmath_and_quadpack(name):
    masses = MassTriple.from_values(PRESET_MASSES[name])
    spectrum = fit_masses(masses)
    # the README sweep: pE the base mass, 100 m3 times 2^0 .. 2^8
    cutoffs = 100.0 * masses.m3 * 2.0 ** np.arange(9)
    result = assert_matches_oracles(spectrum.base_mass, spectrum, cutoffs,
                                    LOOP_VARIANTS)
    for variant in LOOP_VARIANTS:
        # every segment stops within LOOP_RTOL of itself, and all are positive
        assert result.abserr[variant] <= LOOP_RTOL * result.values[variant][-1]


def test_closed_form_loop_with_a_negative_root():
    # roots 1, 3, -50: the denominator (K + 1)(K + 3)(K - 50) vanishes at
    # k = sqrt(50) = 7.07, above the top cutoff, so K + M^2 < 0 for the
    # negative root throughout
    spectrum = masses_from_lambdas(lambdas_of_roots(1.0, 3.0, -50.0), 1.0)
    cutoffs = np.array([0.5, 1.0, 2.0, 4.0, 6.5])
    for pE in (0.3, 1.0, 3.0):
        assert_matches_oracles(pE, spectrum, cutoffs)


def test_complex_pair_loop_matches_mpmath():
    # g(x) - 1 = 0.2 (x - 1)(x^2 - 4x + 5): roots 1 and 2 +- i, of which the
    # spectrum carries only the real one, so it has no partial fractions
    spectrum = masses_from_lambdas(CutoffPolynomial(-0.8, 1.0, -0.2), 1.0)
    assert spectrum.n_complex == 2
    assert_matches_oracles(1.0, spectrum, 10.0 * 2.0 ** np.arange(6))


@pytest.mark.parametrize("gap", [1e-2, 3e-3, 3e-4, 1e-6])
def test_close_roots_loop_matches_mpmath(gap):
    # residues ~ 1/gap carry ~ eps/gap of rounding into sums that cancel to
    # O(1): partial fractions miss by 6.5e-11 at gap 3e-3, 1.1e-9 at 3e-4
    # and 7.9e-5 at 1e-6; the integrand itself has no residues to round
    spectrum = fit_masses(MassTriple(1.0, 1.0 + gap, 3.0))
    assert_matches_oracles(1.0, spectrum, 300.0 * 2.0 ** np.arange(9))


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_quartic_decay_follows_from_the_sum_rules(name):
    # with 1/D = sum R_i / (k^2 + M_i^2), increments are (1/2) sum R_i
    # [h(M_i^2/b^2) - h(M_i^2/a^2)], h(t) = log(1 + t) - t: the sum rules
    # cancel the L^0 and L^-2 terms, leaving
    # -(1/4) sum R_i M_i^4 (b^-4 - a^-4) = m^4 (b^-4 - a^-4) / (4 l3)
    masses = MassTriple.from_values(PRESET_MASSES[name])
    spectrum = fit_masses(masses)
    rules = spectrum.sum_rules()
    assert max(abs(v) for v in rules.values()) < 1e-15
    cutoffs = 1e3 * masses.m3 * 2.0 ** np.arange(6)
    result = loop_integral(spectrum.base_mass, spectrum, cutoffs,
                           variants=("modified-scalar",))
    l3, m = spectrum.coefficients.lambda3, spectrum.base_mass
    leading = m ** 4 * (cutoffs[1:] ** -4.0 - cutoffs[:-1] ** -4.0) / (4.0 * l3)
    np.testing.assert_allclose(result.increments["modified-scalar"], leading,
                               rtol=1e-5)
    fit = result.tail_fits["modified-scalar"]
    assert fit.decay_exponent == pytest.approx(-4.0, abs=1e-5)
    assert fit.decay_r2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PRESET_MASSES))
def test_linear_decay_follows_from_the_cubic_term(name):
    # well above the masses 1 + f ~ -l3 (k/m)^6 and D ~ -l3 k^6 / m^4, so the
    # mass-type integrand k m sqrt(1 + f) / D is m^2 / (sqrt(|l3|) k^2) and
    # the increments are m^2 (1/a - 1/b) / sqrt(|l3|)
    masses = MassTriple.from_values(PRESET_MASSES[name])
    spectrum = fit_masses(masses)
    cutoffs = 1e3 * masses.m3 * 2.0 ** np.arange(6)
    result = loop_integral(spectrum.base_mass, spectrum, cutoffs,
                           variants=("modified-mass",))
    l3, m = spectrum.coefficients.lambda3, spectrum.base_mass
    leading = m ** 2 * (1.0 / cutoffs[:-1] - 1.0 / cutoffs[1:]) / math.sqrt(-l3)
    np.testing.assert_allclose(result.increments["modified-mass"], leading,
                               rtol=1e-5)
    fit = result.tail_fits["modified-mass"]
    assert fit.decay_exponent == pytest.approx(-1.0, abs=1e-5)
