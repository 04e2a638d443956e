import numpy as np
import pytest
from scipy.integrate import quad

from levyqm import bessel_k


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


def test_recurrence_identity():
    # K2 = K0 + (2/z) K1, a genuine cross-check: kn(2, .) is Amos's
    # zbesk, not a recurrence on the Cephes k0 and k1 used for the
    # lower orders
    z = np.logspace(np.log10(0.01), 2.0, 300)
    lhs = bessel_k(2, z)
    rhs = bessel_k(0, z) + (2.0 / z) * bessel_k(1, z)
    assert np.max(np.abs(lhs - rhs) / lhs) < 1e-10


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
