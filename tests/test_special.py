import math

import numpy as np
import pytest
import scipy.special

from fraclat.chain import FractionalOrder, element_infinite_quadrature
from fraclat.lattice import OffsetVector, element_infinite_nd_bessel, element_infinite_nd_bz
from fraclat.special import (
    ToleranceError,
    hurwitz_zeta,
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

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises(self):
        # raised before numpy overflows, so no RuntimeWarning is printed
        with pytest.raises(OverflowError, match=r"hurwitz_zeta\(60\.0, 1e-06\)"):
            hurwitz_zeta(60.0, 1e-6)
        with pytest.raises(OverflowError, match="exceeds the double range"):
            hurwitz_zeta(31.5, 1e-10)
        # 1e-6^(-50) = 1e300 still fits in a double
        assert math.isfinite(hurwitz_zeta(50.0, 1e-6))

    def test_domain(self):
        for beta in (1.0, math.nan):
            with pytest.raises(ValueError, match="beta > 1"):
                hurwitz_zeta(beta, 2.0)
        for x in (0.0, -3.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"finite x > 0, got {x}"):
                hurwitz_zeta(2.0, x)


class TestTolContract:
    def test_validation(self):
        # every route that takes an error bound rejects one that is not
        # positive and finite before it computes anything
        order = FractionalOrder(alpha=1.3)
        routes = (
            lambda tol: integrate_even_periodic(np.cos, tol),
            lambda tol: element_infinite_quadrature(order, 1, tol),
            lambda tol: element_infinite_nd_bz(order, 2, OffsetVector((1, 0)), tol),
            lambda tol: element_infinite_nd_bessel(order, 2, OffsetVector((1, 0)), tol),
        )
        for route in routes:
            for bad in (0.0, -1e-9, math.inf, math.nan):
                with pytest.raises(ValueError, match=f"tol must be positive and finite, got {bad}"):
                    route(bad)
            assert math.isfinite(route(1e-6))


class TestIntegrateEvenPeriodic:
    def test_cosine_vanishes(self):
        val = integrate_even_periodic(np.cos)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        val = integrate_even_periodic(lambda k: np.ones_like(k))
        assert val == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_half_power_dispersion(self):
        # integrand 2|sin(kappa/2)| integrates to 8 over the full period
        f = lambda k: (4.0 * np.sin(k / 2.0) ** 2) ** 0.5
        val = integrate_even_periodic(f)
        assert val == pytest.approx(8.0, abs=1e-11)

    def test_oscillatory_factor(self):
        # cos(kappa p) against the smooth alpha = 2 dispersion: exact value -pi at p = 1
        f = lambda k: np.cos(k) * 4.0 * np.sin(k / 2.0) ** 2
        val = integrate_even_periodic(f)
        assert val == pytest.approx(-2.0 * math.pi, rel=1e-12)

    def test_tolerance_error(self):
        # the estimate is floored at the integral's last place, so the width
        # halves until the panel cap and then gives up
        f = lambda k: (4.0 * np.sin(k / 2.0) ** 2) ** 0.25
        with pytest.raises(ToleranceError) as info:
            integrate_even_periodic(f, 1e-300)
        assert 1e-300 < info.value.achieved < 1e-6
