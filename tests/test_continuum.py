import math

import mpmath
import numpy as np
import pytest
from test_special import zeta_reference

from fraclat.continuum import (
    ConvergenceReport,
    continuum_convergence_check,
    riesz_amplitude,
    riesz_kernel_infinite,
    riesz_kernel_periodic,
)


def periodic_kernel_image_oracle(alpha, length, x, images=10**6):
    # brute-force sum of whole line kernel over lattice images plus a
    # midpoint integral tail for both directions
    amp = riesz_amplitude(alpha)
    xi = (x / length) % 1.0
    beta = alpha + 1.0
    n = np.arange(-images, images + 1, dtype=float)
    total = float(np.sum(np.abs(xi - n) ** (-beta)))
    tail = ((images + xi + 0.5) ** -alpha + (images - xi + 0.5) ** -alpha) / alpha
    return amp * length ** (-beta) * (total + tail)


class TestKernelArguments:
    def test_validation(self):
        riesz_kernel_infinite(0.5, 1.0)
        riesz_kernel_periodic(1.7, 2.0, 1.0)
        for alpha in (2.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                riesz_kernel_infinite(alpha, 1.0)
            with pytest.raises(ValueError, match="alpha"):
                riesz_kernel_periodic(alpha, 2.0, 1.0)
        for period in (-3.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="period must be positive and finite"):
                riesz_kernel_periodic(0.5, period, 1.0)


class TestArrayForms:
    POINTS = np.array([[-7.3, -0.25, 0.1], [0.9, 2.0 + 1e-9, 12345.678]])

    def test_infinite_kernel_is_its_scalar_form(self):
        for alpha in (0.3, 1.3, 15.9, 30.5):
            got = riesz_kernel_infinite(alpha, self.POINTS)
            assert got.tolist() == [[riesz_kernel_infinite(alpha, float(x)) for x in row]
                                    for row in self.POINTS]
        zero_d = riesz_kernel_infinite(1.3, np.array(0.9))
        assert type(zero_d) is float and zero_d == riesz_kernel_infinite(1.3, 0.9)
        assert riesz_kernel_infinite(1.3, np.array([])).shape == (0,)

    def test_periodic_kernel_is_its_scalar_form(self):
        for alpha, period in ((0.3, 1.0), (1.3, 2.0), (15.9, 3.7), (30.5, 0.43)):
            got = riesz_kernel_periodic(alpha, period, self.POINTS)
            assert got.tolist() == [[riesz_kernel_periodic(alpha, period, float(x)) for x in row]
                                    for row in self.POINTS]
        zero_d = riesz_kernel_periodic(1.3, 2.0, np.array(0.9))
        assert type(zero_d) is float and zero_d == riesz_kernel_periodic(1.3, 2.0, 0.9)
        assert riesz_kernel_periodic(1.3, 2.0, np.array([])).shape == (0,)

    def test_errors_name_the_first_bad_element(self):
        with pytest.raises(ValueError, match=r"got x = 0\.0$"):
            riesz_kernel_infinite(0.5, [1.0, 0.0, math.nan])
        with pytest.raises(OverflowError, match=r"riesz_kernel_infinite\(150\.1, 1e-05\)"):
            riesz_kernel_infinite(150.1, [1.0, 1e-5, 1e-6])
        with pytest.raises(ValueError, match="kernel point x must be finite, got -inf$"):
            riesz_kernel_periodic(0.5, 2.0, [1.0, -math.inf, math.nan])
        with pytest.raises(ValueError, match=r"lattice x in 2\.0 \* integers, got x = -4\.0$"):
            riesz_kernel_periodic(0.5, 2.0, [1.0, -4.0, 6.0])
        # past the double range it raises, as the whole line kernel does, rather than
        # return inf, naming the first such point
        message = r"^riesz_kernel_periodic\(30\.5, 0\.4, 2\.000000001\) exceeds the double range$"
        with pytest.raises(OverflowError, match=message):
            riesz_kernel_periodic(30.5, 0.4, 2.000000001)
        with pytest.raises(OverflowError, match=message):
            riesz_kernel_periodic(30.5, 0.4, [1.0, 2.000000001, -2.0000000001])
        # a period so small that period^-(alpha+1) alone passes the range
        with pytest.raises(OverflowError, match=r"^riesz_kernel_periodic\(1\.3, 1e-200, 5e-201\) exceeds"):
            riesz_kernel_periodic(1.3, 1e-200, 5e-201)


class TestInfiniteKernel:
    def test_alpha_one_values(self):
        np.testing.assert_allclose(riesz_kernel_infinite(1.0, 1.0), 1.0 / math.pi, rtol=1e-13)
        np.testing.assert_allclose(
            riesz_kernel_infinite(1.0, 2.0), 1.0 / (4.0 * math.pi), rtol=1e-13
        )

    def test_sign_structure(self):
        assert riesz_kernel_infinite(0.7, 1.5) > 0.0
        assert riesz_kernel_infinite(2.5, 1.5) < 0.0

    def test_even_in_x(self):
        assert riesz_kernel_infinite(1.3, -2.0) == riesz_kernel_infinite(1.3, 2.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(42)
        alpha = 1.3
        for _ in range(30):
            x = float(rng.uniform(0.1, 5.0))
            scale = float(rng.uniform(0.2, 8.0))
            np.testing.assert_allclose(
                riesz_kernel_infinite(alpha, scale * x),
                scale ** (-alpha - 1.0) * riesz_kernel_infinite(alpha, x),
                rtol=5e-14,
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            riesz_kernel_infinite(0.5, 0.0)
        with pytest.raises(ValueError, match="undefined at NaN, got x = nan"):
            riesz_kernel_infinite(0.5, math.nan)
        assert riesz_kernel_infinite(0.5, math.inf) == 0.0


class TestPeriodicKernel:
    def test_reflection_symmetry(self):
        np.testing.assert_allclose(
            riesz_kernel_periodic(0.9, 3.0, 0.7),
            riesz_kernel_periodic(0.9, 3.0, 3.0 - 0.7),
            rtol=1e-13,
        )

    def test_against_image_sum(self):
        for alpha in (0.4, 1.0, 1.7, 2.5):
            for xi in (0.1, 0.25, 0.5):
                got = riesz_kernel_periodic(alpha, 1.0, xi)
                expected = periodic_kernel_image_oracle(alpha, 1.0, xi)
                np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9 * max(1.0, abs(expected)))

    def test_large_period_recovers_line_kernel(self):
        alpha = 0.5
        target = riesz_kernel_infinite(alpha, 1.0)
        errors = []
        for length in (1e2, 1e3, 1e4):
            got = riesz_kernel_periodic(alpha, length, 1.0)
            errors.append(abs(got - target))
        # image corrections scale as period^-(alpha+1)
        np.testing.assert_allclose(errors[0] / errors[1], 10.0**1.5, rtol=0.05)
        np.testing.assert_allclose(errors[1] / errors[2], 10.0**1.5, rtol=0.05)
        amp = riesz_amplitude(alpha)
        assert errors[2] <= 3.0 * amp * 2.0 * 1e4 ** (-alpha - 1.0)

    def test_dominates_line_kernel(self):
        for alpha in (0.4, 1.0, 1.9):
            for x in (0.3, 1.1, 2.5, 4.4):
                assert riesz_kernel_periodic(alpha, 5.0, x) > riesz_kernel_infinite(alpha, x)

    def test_against_60_digit_zeta_sums(self):
        # |x| is folded exactly by fmod, so xi and 1 - xi carry one rounding
        # each, and no rounding of x / period (the (x / period) % 1 fold was
        # 1.9e-12 off on these points).  The reference takes the exponent as
        # the double alpha + 1 the kernel passes; the worst error, 4.6e-15, is
        # at alpha = 15.06, where math.gamma(alpha + 1) is 5e-15 off
        rng = np.random.default_rng(0)
        for _ in range(300):
            alpha = float(rng.uniform(0.3, 30.5))
            period = float(10.0 ** rng.uniform(-1.0, 1.0))
            x = float(period * rng.uniform(-20.0, 20.0))
            with mpmath.workdps(60):
                a, length = mpmath.mpf(alpha), mpmath.mpf(period)
                beta = mpmath.mpf(alpha + 1.0)
                d = mpmath.mpf(math.fmod(abs(x), period))
                bracket = (mpmath.mpf(zeta_reference(beta, d / length))
                           + mpmath.mpf(zeta_reference(beta, (length - d) / length)))
                amp = mpmath.gamma(a + 1) * mpmath.sinpi(a / 2) / mpmath.pi
                expected = float(amp * length**-beta * bracket)
            got = riesz_kernel_periodic(alpha, period, x)
            assert abs(got - expected) <= 1e-14 * abs(expected), (alpha, period, x)

    def test_domain(self):
        for x in (0.0, 2.0, -4.0, 6.0):
            with pytest.raises(ValueError):
                riesz_kernel_periodic(0.5, 2.0, x)
        with pytest.raises(ValueError):
            riesz_kernel_periodic(0.5, math.inf, 1.0)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"kernel point x must be finite, got {x}"):
                riesz_kernel_periodic(0.5, 2.0, x)


class TestConvergenceCheck:
    def test_errors_strictly_decrease(self):
        report = continuum_convergence_check(0.5, 1.0, [1 / 10, 1 / 40, 1 / 160])
        errors = report.errors
        assert errors[0] > errors[1] > errors[2]

    def test_fine_spacing_hits_kernel(self):
        report = continuum_convergence_check(1.5, 2.0, [1 / 100])
        assert report.entries[0][1] == 200
        assert report.errors[0] < 0.01

    def test_empirical_rate(self):
        # the deviation of the element from its power law tail falls off with
        # the second inverse power of the offset, so the rate sits near two
        report = continuum_convergence_check(0.7, 1.0, [1 / 10, 1 / 40, 1 / 160])
        for rate in report.rates:
            assert 1.5 < rate < 2.5

    def test_scaled_value_signs_follow_kernel(self):
        low = continuum_convergence_check(0.5, 1.0, [1 / 50])
        assert low.kernel > 0.0 and low.entries[0][2] > 0.0
        high = continuum_convergence_check(2.5, 1.0, [1 / 50])
        assert high.kernel < 0.0 and high.entries[0][2] < 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            continuum_convergence_check(2.0, 1.0, [1 / 10])
        for x in (-1.0, math.inf):
            with pytest.raises(ValueError, match="probe point must be positive and finite"):
                continuum_convergence_check(0.5, x, [1 / 10])
        with pytest.raises(ValueError):
            continuum_convergence_check(0.5, 1.0, [3.0])
        with pytest.raises(ValueError):
            continuum_convergence_check(0.5, 1.0, [-0.1])

    def test_scaled_element_past_the_double_range_names_the_spacing(self):
        # h^(-1 - alpha) raised a bare "(34, 'Numerical result out of range')" here
        message = r"^continuum_convergence_check\(alpha=30\.5, x=1\.0, h=1e-11\) exceeds the double range$"
        with pytest.raises(OverflowError, match=message):
            continuum_convergence_check(30.5, 1.0, [1e-11])

    def test_report_is_frozen(self):
        report = continuum_convergence_check(0.5, 1.0, [1 / 10])
        assert isinstance(report, ConvergenceReport)
        with pytest.raises(AttributeError):
            report.kernel = 0.0
