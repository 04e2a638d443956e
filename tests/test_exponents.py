import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyqm import (ExponentParams, LevyTriplet, LogCharacteristic,
                    QuadratureSpec, TailDivergenceError, eta_from_triplet,
                    eta_modified_branch, eta_relativistic, kinetic_energy)
from levyqm import exponents
from levyqm.densities import relativistic_triplet
from levyqm.exponents import QuadratureToleranceError

UNIT = ExponentParams(a=1.0, tau=1.0, m=1.0)

masses = st.floats(min_value=1e-3, max_value=1e3)
momenta = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_params_validation():
    with pytest.raises(ValueError):
        ExponentParams(a=0.0, tau=1.0, m=1.0)
    with pytest.raises(ValueError):
        ExponentParams.from_mass(-1.0)
    p = ExponentParams.from_mass(2.0)
    assert p.a == 0.5 and p.tau == 0.5 and p.m == 2.0


# ---------------------------------------------------------------------------
# relativistic exponent
# ---------------------------------------------------------------------------

def test_eta_relativistic_exact_points():
    assert eta_relativistic(0.0, UNIT) == 0.0
    assert eta_relativistic(math.sqrt(3.0), UNIT) == pytest.approx(-1.0, abs=1e-15)


def test_eta_relativistic_small_u_expansion():
    # -a^2 u^2 / 2 with the quartic remainder u^4/8 = 1.25e-9 at u = 0.01
    got = eta_relativistic(0.01, UNIT)
    assert got == pytest.approx(-5e-5, abs=1.5e-9)
    assert got == pytest.approx(-5e-5 + 1e-8 / 8.0, abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(m=masses, u=momenta)
def test_eta_relativistic_properties(m, u):
    p = ExponentParams.from_mass(m)
    assert eta_relativistic(0.0, p) == 0.0
    val = eta_relativistic(u, p)
    assert val == eta_relativistic(-u, p)
    assert val <= 0.0


def test_eta_relativistic_concavity():
    u = np.linspace(-30.0, 30.0, 401)
    eta = eta_relativistic(u, UNIT)
    second = eta[2:] - 2.0 * eta[1:-1] + eta[:-2]
    assert np.all(second <= 1e-12)


# ---------------------------------------------------------------------------
# kinetic energy
# ---------------------------------------------------------------------------

def test_kinetic_energy_rest_and_exact():
    assert kinetic_energy(0.0, 1.0) == 0.0
    assert kinetic_energy(math.sqrt(3.0), 1.0) == pytest.approx(1.0, rel=1e-15)


def test_kinetic_energy_nonrelativistic_limit():
    # p^2/2m with the exact remainder p^4/8m^3 = 1.25e-13 at p = 1e-3
    got = kinetic_energy(1e-3, 1.0)
    assert got == pytest.approx(5e-7, abs=1.5e-13)
    assert got == pytest.approx(5e-7 - 1.25e-13, abs=1e-18)


@settings(max_examples=80, deadline=None)
@given(m=masses, p=momenta)
def test_kinetic_energy_matches_exponent(m, p):
    # E0 = -(1/tau) eta(p) under the natural identification; independent
    # floating expressions on the two sides
    params = ExponentParams.from_mass(m)
    lhs = kinetic_energy(p, m)
    rhs = -m * eta_relativistic(p, params)
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)


# ---------------------------------------------------------------------------
# branch exponent
# ---------------------------------------------------------------------------

def test_branch_exponent_identity_and_rescaling():
    u = np.linspace(0.0, 10.0, 11)
    assert np.allclose(eta_modified_branch(u, UNIT, 1.0),
                       eta_relativistic(u, UNIT), rtol=0, atol=0)
    # root 4 doubles the mass: eta = 1 - sqrt(1 + u^2/4)
    got = eta_modified_branch(1.0, UNIT, 4.0)
    assert got == pytest.approx(1.0 - math.sqrt(1.25), rel=1e-15)
    assert eta_modified_branch(0.0, UNIT, 7.3) == 0.0
    assert np.all(eta_modified_branch(u, UNIT, 0.5) <= 0.0)


def test_branch_exponent_domain():
    with pytest.raises(ValueError):
        eta_modified_branch(1.0, UNIT, 0.0)
    with pytest.raises(ValueError):
        eta_modified_branch(1.0, UNIT, -2.0)


# ---------------------------------------------------------------------------
# Levy-Khintchine quadrature
# ---------------------------------------------------------------------------

def test_triplet_validation():
    with pytest.raises(ValueError):
        LevyTriplet(beta2=-1.0)
    with pytest.raises(ValueError):
        LevyTriplet(jump_density=lambda x: x)  # odd, not a density
    with pytest.raises(ValueError):
        LevyTriplet(jump_density=lambda x: -1.0)


def test_eta_from_triplet_trivial_cases():
    gaussian = LevyTriplet(beta2=2.0)
    assert eta_from_triplet(0.0, gaussian) == 0.0
    assert eta_from_triplet(3.0, gaussian) == pytest.approx(-9.0, rel=1e-15)


def test_levy_khintchine_consistency_bridge():
    # quadrature of the jump kernel reproduces the closed form at u = 1
    trip = relativistic_triplet(UNIT)
    got = eta_from_triplet(1.0, trip)
    assert got == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-4)


def test_levy_khintchine_equivalence_sweep():
    # core module check: agreement over u in [0, 50/a]
    trip = relativistic_triplet(UNIT)
    policy = QuadratureSpec(tol=1e-9)
    for u in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0):
        got = eta_from_triplet(u, trip, policy)
        want = eta_relativistic(u, UNIT)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("a", [0.35, 1.0, 3.0])
def test_levy_khintchine_tight_sweep(a):
    # relative 1e-9 down to u a = 1e-3, where cos(u x) - 1 cancels
    p = ExponentParams(a=a, tau=1.0, m=1.0)
    trip = relativistic_triplet(p)
    policy = QuadratureSpec(tol=1e-9)
    for ua in (1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0):
        got = eta_from_triplet(ua / a, trip, policy)
        want = eta_relativistic(ua / a, p)
        assert abs(got / want - 1.0) <= 1e-9, (ua, got, want)


def test_jump_density_called_on_arrays_a_few_times():
    shapes = []

    def density(x):
        shapes.append(np.shape(x))
        return relativistic_triplet(UNIT).jump_density(x)

    trip = LevyTriplet(jump_density=density, scale=UNIT.a)
    for u in (0.1, 1.0, 10.0):
        shapes.clear()
        eta_from_triplet(u, trip, QuadratureSpec(tol=1e-9))
        assert 0 < len(shapes) <= 8, (u, shapes)
        assert all(np.prod(shape) > 1 for shape in shapes), shapes


def test_levy_khintchine_scales_with_a():
    p = ExponentParams(a=0.35, tau=1.0, m=1.0)
    trip = relativistic_triplet(p)
    got = eta_from_triplet(2.0, trip)
    assert got == pytest.approx(eta_relativistic(2.0, p), rel=1e-6)


def test_gaussian_part_adds():
    p = UNIT
    trip = LevyTriplet(beta2=0.5,
                       jump_density=lambda x: relativistic_triplet(p).jump_density(x),
                       scale=p.a)
    got = eta_from_triplet(2.0, trip)
    want = -0.25 * 4.0 + eta_relativistic(2.0, p)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore:The maximum number")
def test_divergent_tail_raises_with_partial_sums():
    # W ~ 1/(1+|x|) has a non-integrable tail: not a Levy measure
    bad = LevyTriplet(jump_density=lambda x: 1.0 / (1.0 + abs(x)))
    with pytest.raises(TailDivergenceError) as err:
        eta_from_triplet(1.0, bad, QuadratureSpec(max_doublings=20))
    assert len(err.value.partial_sums) == 20


@pytest.mark.filterwarnings("ignore:The algorithm does not converge")
def test_unreachable_tolerance_raises():
    from levyqm.exponents import QuadratureToleranceError
    trip = relativistic_triplet(UNIT)
    with pytest.raises(QuadratureToleranceError):
        eta_from_triplet(1.0, trip, QuadratureSpec(tol=1e-16))


def test_unconverged_panel_raises():
    # ~160 oscillations of sin^2(u x / 2) on [0, a] exhaust tanh-sinh's levels
    trip = relativistic_triplet(UNIT)
    with pytest.raises(QuadratureToleranceError, match="did not converge"):
        eta_from_triplet(1e3, trip, QuadratureSpec(tol=1e-9))


@pytest.mark.parametrize("u_batch", [exponents.U_BATCH, 4])
def test_array_u_equals_scalar_u_bitwise(monkeypatch, u_batch):
    # one code path: an array of u, in one call or in slices of u_batch,
    # gives the bytes of the element-wise scalar calls
    trip = relativistic_triplet(UNIT)
    policy = QuadratureSpec(tol=1e-9)
    u = np.array([[0.0, -0.3, 1.0, 7.5], [-12.0, 0.05, 2.0, 40.0]])
    want = np.array([eta_from_triplet(float(v), trip, policy) for v in u.ravel()])
    monkeypatch.setattr(exponents, "U_BATCH", u_batch)
    got = eta_from_triplet(u, trip, policy)
    assert got.shape == u.shape
    np.testing.assert_array_equal(got.ravel().view(np.int64), want.view(np.int64))
    assert isinstance(eta_from_triplet(np.float64(1.0), trip, policy), float)
    assert isinstance(eta_from_triplet(np.array(1.0), trip, policy), float)


def test_empty_u_gives_empty_array():
    trip = relativistic_triplet(UNIT)
    for triplet in (trip, LevyTriplet(beta2=1.0)):
        got = eta_from_triplet(np.array([]), triplet)
        assert isinstance(got, np.ndarray) and got.shape == (0,)
    assert LogCharacteristic.from_triplet(trip)(np.zeros((0, 3))).shape == (0, 3)


def test_no_panels_is_a_tail_divergence():
    trip = relativistic_triplet(UNIT)
    with pytest.raises(TailDivergenceError, match="u = 1") as err:
        eta_from_triplet(1.0, trip, QuadratureSpec(max_doublings=0))
    assert err.value.partial_sums == []


def test_unconverged_panel_in_an_array_names_its_u():
    trip = relativistic_triplet(UNIT)
    with pytest.raises(QuadratureToleranceError,
                       match="did not converge on .* at u = 1000;"):
        eta_from_triplet(np.array([0.5, 1e3, 2.0]), trip, QuadratureSpec(tol=1e-9))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: tanh-sinh converges falsely on the ~20 oscillations of "
    "panel [2a, 4a] at u a = 61.85 (rel. error 1.96e-5)"))
def test_levy_khintchine_band_to_nyquist():
    # u up to the Nyquist edge pi/dx of the dx = 0.05 a jump grid
    trip = relativistic_triplet(UNIT)
    u = np.linspace(0.0, math.pi / 0.05, 257)[1:]
    got = eta_from_triplet(u, trip, QuadratureSpec(tol=1e-9))
    rel = np.abs(got / eta_relativistic(u, UNIT) - 1.0)
    assert rel.max() <= 1e-9, (int((rel > 1e-9).sum()), u[rel.argmax()], rel.max())


def test_log_characteristic_wrappers():
    eta = LogCharacteristic.relativistic(UNIT)
    u = np.array([0.0, 1.0, -1.0])
    assert np.allclose(eta(u), eta_relativistic(u, UNIT))
    trip_eta = LogCharacteristic.from_triplet(relativistic_triplet(UNIT))
    assert trip_eta(1.0) == pytest.approx(eta(1.0), rel=1e-6)
    assert np.shape(trip_eta(np.array([0.5, 1.0]))) == (2,)
