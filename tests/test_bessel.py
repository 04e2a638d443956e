import numpy as np
import pytest
from scipy.integrate import quad

from levyqm import bessel_k
from levyqm.exponents import K_SMALLEST_ARG


def cosh_integral_oracle(order, z):
    # independent quadrature of K_n(z) = int_0^inf exp(-z cosh t) cosh(n t) dt
    val, _ = quad(lambda t: np.exp(-z * np.cosh(t)) * np.cosh(order * t),
                  0.0, 30.0, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


@pytest.mark.parametrize("order", [0, 1, 2])
def test_against_scipy_reference(order):
    import scipy.special as sp
    z = np.logspace(-8, np.log10(650.0), 500)
    ref = sp.kv(order, z)
    rel = np.abs(bessel_k(order, z) - ref) / ref
    assert rel.max() < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2])
def test_against_mpmath_spot_checks(order):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for z in np.logspace(-8, np.log10(700.0), 25):
        ref = float(mp.besselk(order, mp.mpf(float(z))))
        assert bessel_k(order, float(z)) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_against_quadrature_oracle(order):
    for z in (0.5, 1.0, 1.999, 2.001, 7.0, 40.0):
        assert bessel_k(order, z) == pytest.approx(
            cosh_integral_oracle(order, z), rel=1e-11)


def test_small_argument_k1_pole():
    # K1(z) -> 1/z as z -> 0
    assert bessel_k(1, 1e-6) == pytest.approx(1e6, rel=1e-6)


def test_k2_against_mpmath_up_to_its_underflow():
    # K2 is the recurrence K0 + (2/z) K1 on Cephes k0 and k1, so the
    # recurrence cannot check itself; mpmath does, up to z = 705 where K2
    # leaves the normal doubles.  kn(2, .) read 0 from z ~ 698 on
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z = np.concatenate([np.geomspace(1e-8, 698.0, 300), np.linspace(698.0, 705.0, 50)])
    ref = np.array([float(mp.besselk(2, mp.mpf(float(t)))) for t in z])
    assert (ref >= np.finfo(float).tiny).all()
    rel = np.abs(bessel_k(2, z) / ref - 1.0)
    assert rel.max() < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [0, 1, 2])
def test_overflow_names_the_smallest_argument(order):
    # k1(5e-324) is NaN and k0(5e-324) inf in Cephes; K1 and K2 overflow
    # below ~1/DBL_MAX and ~sqrt(2/DBL_MAX)
    smallest = K_SMALLEST_ARG[order]
    with pytest.raises(ValueError, match=f"K{order}\\(z\\) overflows near z = 0; "
                       f"use z >= {smallest:.4g}"):
        bessel_k(order, np.array([1.0, 5e-324]))
    assert np.isfinite(bessel_k(order, smallest))
    assert np.isfinite(bessel_k(order, float(f"{smallest:.4g}")))
    if order:
        with pytest.raises(ValueError):
            bessel_k(order, 0.998 * smallest)


def test_large_argument_asymptotics():
    # K0(50) ~ sqrt(pi/100) exp(-50) to within 2%
    z = 50.0
    leading = np.sqrt(np.pi / (2.0 * z)) * np.exp(-z)
    assert bessel_k(0, z) == pytest.approx(leading, rel=0.02)


def test_underflow_returns_zero():
    assert bessel_k(0, 800.0) == 0.0
    assert bessel_k(2, 1000.0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1, -1.0)
    with pytest.raises(ValueError):
        bessel_k(3, 1.0)
    with pytest.raises(ValueError):
        bessel_k(0, np.array([1.0, -2.0]))


def test_array_shape_and_scalar_type():
    z = np.array([[0.5, 1.5], [2.5, 10.0]])
    out = bessel_k(1, z)
    assert out.shape == z.shape
    assert isinstance(bessel_k(1, 1.0), float)
