import math

import numpy as np
import pytest
import scipy.special
from numpy.polynomial.legendre import leggauss

from fraclat.special import (
    QuadratureSpec,
    ToleranceError,
    bessel_j,
    hurwitz_zeta,
    hurwitz_zeta_abs,
    integrate_even_periodic,
    log_gamma,
)


def zeta_direct_oracle(beta, x, terms=10**6):
    # brute-force partial sum plus midpoint integral tail; the tail error is
    # O(beta^2 * terms^(-beta-1)), far below the comparison tolerances
    n = np.arange(terms, dtype=float)
    partial = float(np.sum((x + n) ** (-beta)))
    tail = (x + terms - 0.5) ** (1.0 - beta) / (beta - 1.0)
    return partial + tail


def zeta_abs_direct_oracle(beta, x, terms=10**6):
    n = np.arange(terms, dtype=float)
    partial = float(np.sum(np.abs(x + n) ** (-beta)))
    tail = (x + terms - 0.5) ** (1.0 - beta) / (beta - 1.0)
    return partial + tail


def bessel_integral_oracle(order, x):
    # J_p(x) = (1/pi) int_0^pi cos(p*phi - x*sin(phi)) dphi
    t, w = leggauss(200)
    phi = 0.5 * math.pi * (t + 1.0)
    return 0.5 * float(np.dot(w, np.cos(order * phi - x * np.sin(phi))))


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_recurrence(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.1, 30.0, size=50):
            lhs = math.exp(log_gamma(x + 1.0))
            rhs = x * math.exp(log_gamma(x))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestHurwitzZeta:
    def test_riemann_reduction(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert hurwitz_zeta(2.0, 2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)

    def test_against_direct_sum(self):
        np.testing.assert_allclose(
            hurwitz_zeta(3.5, 0.25), zeta_direct_oracle(3.5, 0.25), rtol=1e-11
        )

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            beta = rng.uniform(1.1, 10.0)
            x = rng.uniform(0.05, 20.0)
            np.testing.assert_allclose(
                hurwitz_zeta(beta, x), scipy.special.zeta(beta, x), rtol=1e-12
            )

    def test_shift_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            beta = rng.uniform(1.1, 8.0)
            x = rng.uniform(0.1, 5.0)
            lhs = hurwitz_zeta(beta, x) - hurwitz_zeta(beta, x + 1.0)
            np.testing.assert_allclose(lhs, x ** (-beta), rtol=1e-11)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            hurwitz_zeta(60.0, 1e-6)
        # 1e-6^(-50) = 1e300 still fits in a double
        assert math.isfinite(hurwitz_zeta(50.0, 1e-6))

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, -3.0)


class TestHurwitzZetaAbs:
    def test_positive_reduction(self):
        assert hurwitz_zeta_abs(2.0, 0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-12)

    def test_negative_split(self):
        expected = 8.0 + hurwitz_zeta(3.0, 0.5)
        assert hurwitz_zeta_abs(3.0, -0.5) == pytest.approx(expected, rel=1e-13)

    def test_against_direct_sum(self):
        np.testing.assert_allclose(
            hurwitz_zeta_abs(2.5, -0.25), zeta_abs_direct_oracle(2.5, -0.25), rtol=1e-11
        )

    def test_bracket_reduction(self):
        # -xi^(-b) + zt(b, xi) + zt(b, -xi) == zeta(b, xi) + zeta(b, 1 - xi)
        rng = np.random.default_rng(11)
        for _ in range(40):
            beta = rng.uniform(1.1, 6.0)
            xi = rng.uniform(0.05, 0.95)
            lhs = -(xi ** (-beta)) + hurwitz_zeta_abs(beta, xi) + hurwitz_zeta_abs(beta, -xi)
            rhs = hurwitz_zeta(beta, xi) + hurwitz_zeta(beta, 1.0 - xi)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta_abs(2.0, -3.0)
        with pytest.raises(ValueError):
            hurwitz_zeta_abs(2.0, 0.0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_integral_definition(self):
        np.testing.assert_allclose(
            bessel_j(2, 1.0), bessel_integral_oracle(2, 1.0), atol=1e-13
        )
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = int(rng.integers(0, 12))
            x = rng.uniform(0.0, 30.0)
            np.testing.assert_allclose(bessel_j(p, x), bessel_integral_oracle(p, x), atol=1e-12)

    def test_three_term_recurrence(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            p = int(rng.integers(1, 20))
            x = rng.uniform(0.5, 40.0)
            lhs = bessel_j(p - 1, x) + bessel_j(p + 1, x)
            rhs = (2.0 * p / x) * bessel_j(p, x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 2.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="monte_carlo")
        with pytest.raises(ValueError):
            QuadratureSpec(points=8)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0, rel_tol=0.0)
        QuadratureSpec(scheme="periodic_trapezoid", points=64, abs_tol=0.0, rel_tol=0.0)


class TestIntegrateEvenPeriodic:
    def test_cosine_vanishes(self):
        val = integrate_even_periodic(np.cos, QuadratureSpec())
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        val = integrate_even_periodic(lambda k: np.ones_like(k), QuadratureSpec())
        assert val == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_half_power_dispersion(self):
        # integrand 2|sin(kappa/2)| integrates to 8 over the full period
        f = lambda k: (4.0 * np.sin(k / 2.0) ** 2) ** 0.5
        val = integrate_even_periodic(f, QuadratureSpec())
        assert val == pytest.approx(8.0, abs=1e-11)
        val_tz = integrate_even_periodic(
            f, QuadratureSpec(scheme="periodic_trapezoid", points=4096, abs_tol=1e-5)
        )
        assert val_tz == pytest.approx(8.0, abs=1e-5)

    def test_oscillatory_factor(self):
        # cos(kappa p) against the smooth alpha = 2 dispersion: exact value -pi at p = 1
        f = lambda k: np.cos(k) * 4.0 * np.sin(k / 2.0) ** 2
        val = integrate_even_periodic(f, QuadratureSpec())
        assert val == pytest.approx(-2.0 * math.pi, rel=1e-12)

    def test_tolerance_error(self):
        f = lambda k: (4.0 * np.sin(k / 2.0) ** 2) ** 0.25
        with pytest.raises(ToleranceError) as info:
            integrate_even_periodic(
                f, QuadratureSpec(scheme="periodic_trapezoid", points=16, abs_tol=1e-12)
            )
        assert info.value.achieved > 0.0
