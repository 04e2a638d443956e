import dataclasses
import math

import numpy as np
import pytest

from levyqm.presets import PRESET_MASSES
from levyqm.propagators import (NonpositiveDenominatorError,
                                dirac_propagator_scalarized, find_poles,
                                kg_propagator, loop_integral)
from levyqm.spectrum import (CutoffPolynomial, MassTriple, fit_masses,
                             g_prime, masses_from_lambdas)

ZERO = CutoffPolynomial.zero()


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


def test_dirac_free_values():
    d = dirac_propagator_scalarized(0.0, 1.0, ZERO, 1e-12)
    assert d.vector_coeff == pytest.approx(-1.0, abs=1e-9)
    assert d.scalar_coeff == pytest.approx(-1.0, abs=1e-9)


def test_dirac_ratio_is_local_mass():
    # free theory: scalar/vector = m everywhere
    m = 1.7
    for p2 in (-2.0, 0.0, 1.0, 5.0):
        d = dirac_propagator_scalarized(p2, m, ZERO, 1e-9)
        assert d.scalar_coeff / d.vector_coeff == pytest.approx(m, rel=1e-12)


def test_dirac_on_pole_ratio_is_branch_mass(table3):
    sol, masses = table3
    c, m = sol.coefficients, masses.m1
    for x, branch_mass in zip(sol.roots, sol.masses):
        d = dirac_propagator_scalarized(m ** 2 * x, m, c, 1e-9 * m ** 2)
        ratio = d.scalar_coeff / d.vector_coeff
        assert ratio.real == pytest.approx(branch_mass, rel=1e-9)


def test_dirac_imaginary_local_mass_reported():
    # 1 + f < 0 at negative p^2 for a linear cutoff: reported, not rejected
    c = CutoffPolynomial(3.0, 0.0, 0.0)
    d = dirac_propagator_scalarized(-1.0, 1.0, c, 1e-9)
    assert abs(d.scalar_coeff.imag) > 0


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
    assert fit.decay_exponent == pytest.approx(-1.0, abs=0.5)


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
