import math
import os
import re
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from fraclat.chain import FractionalOrder, element_infinite_quadrature
from fraclat.lattice import OffsetVector, element_infinite_nd_bessel, element_infinite_nd_bz
from fraclat import special
from fraclat.special import (
    ToleranceError,
    first_entry,
    hankel_coefficients,
    hurwitz_zeta,
    integrate_even_periodic,
    ive,
    require_integer,
    within_double_range,
)


def struct_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def zeta_direct_oracle(beta, x, terms=10**6):
    # brute-force partial sum plus midpoint integral tail; the tail error is
    # O(beta^2 * terms^(-beta-1)), far below the comparison tolerances
    n = np.arange(terms, dtype=float)
    partial = float(np.sum((x + n) ** (-beta)))
    tail = (x + terms - 0.5) ** (1.0 - beta) / (beta - 1.0)
    return partial + tail


def zeta_reference(beta, x):
    """zeta(beta, x) in 60 digits: ceil(2 beta) + 40 terms summed, then the
    Euler-Maclaurin tail through B_40, whose remainder is below 1e-50 there.
    mpmath.zeta itself is not used: at beta = 20, x = 100 its 40-digit value
    is 2.7e-10 relative off its 60-digit one."""
    with mpmath.workdps(60):
        beta, x = mpmath.mpf(beta), mpmath.mpf(x)
        n = math.ceil(2 * beta) + 40
        total = mpmath.fsum((x + k) ** -beta for k in range(n))
        y = x + n
        total += y ** (1 - beta) / (beta - 1) + y**-beta / 2
        rising = beta  # beta (beta + 1) ... (beta + 2j - 2)
        for j in range(1, 21):
            total += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * y ** (-beta - 2 * j + 1)
            rising *= (beta + 2 * j - 1) * (beta + 2 * j)
        return float(total)


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

    def test_against_a_60_digit_reference(self):
        # wherever the value is a normal double, over beta in (1, 171] and x in
        # [1e-6, 1e9]; the worst error, 4.4e-16, is at beta = 9.9, x = 1e5
        betas = (1.01, 1.1, 1.5, 2.0, 2.7, 4.0, 6.5, 9.9, 15.0, 20.0, 33.3, 50.0, 80.0, 120.0, 171.0)
        xs = (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0, 2.5, 7.0, 17.0, 40.0, 100.0, 1e3, 1e4,
              1e5, 1e6, 1e7, 1e8, 1e9)
        checked = 0
        for beta in betas:
            for x in xs:
                expected = zeta_reference(beta, x)
                if not sys.float_info.min <= expected <= sys.float_info.max:
                    continue
                got = hurwitz_zeta(beta, x)
                assert abs(got - expected) <= 2e-15 * expected, (beta, x)
                checked += 1
        assert checked >= 250

    def test_array_form_is_the_scalar_form(self):
        xs = np.array([[1e-6, 0.3, 1.0], [17.0, 1e3, 1e9]])
        for beta in (1.01, 2.3, 9.9, 33.3):
            got = hurwitz_zeta(beta, xs)
            assert got.shape == xs.shape
            assert got.tolist() == [[hurwitz_zeta(beta, float(x)) for x in row] for row in xs]
        zero_d = hurwitz_zeta(2.3, np.float64(0.3))
        assert type(zero_d) is float and zero_d == hurwitz_zeta(2.3, np.array(0.3))
        assert hurwitz_zeta(2.3, np.array([])).shape == (0,)

    @pytest.mark.parametrize("beta", [1.5, 3.9, 4.8, 14.2])
    def test_blocks_give_the_one_call_bits(self, beta):
        # each point's terms are summed alone, so the blocks join to the bits of
        # one (point, term) power matrix over all points, a scalar x's included
        shifts, exponents, coefficients = special._zeta_terms(beta)

        def one_call(x):
            return (np.power(np.asarray(x)[..., None] + shifts, exponents) * coefficients).sum(axis=-1)

        xs = np.linspace(0.01, 40.0, 2 * special._ZETA_BLOCK + 77)
        for x in (xs, xs[::-1].reshape(-1, 3)[:, 1:]):  # contiguous, and a strided 2D view
            assert hurwitz_zeta(beta, x).tobytes() == one_call(x).tobytes()
        for x in (0.3, 1e-6, 7e8):
            assert struct_bits(hurwitz_zeta(beta, x)) == struct_bits(float(one_call(x)))

    def test_power_matrix_is_held_a_block_at_a_time(self):
        x = np.linspace(0.01, 0.99, 20_000)
        hurwitz_zeta(3.9, x)
        tracemalloc.start()
        try:
            hurwitz_zeta(3.9, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6  # one call over all points holds 8 MB
        x[3 * special._ZETA_BLOCK + 5] = 1e-7  # the first entry past the range, in the fourth block
        with pytest.raises(OverflowError, match=r"hurwitz_zeta\(60\.0, 1e-07\)"):
            hurwitz_zeta(60.0, x)

    def test_array_errors_name_the_first_bad_element(self):
        with pytest.raises(ValueError, match=r"finite x > 0, got -3\.0$"):
            hurwitz_zeta(2.0, [1.0, -3.0, 0.0])
        with pytest.raises(ValueError, match="finite x > 0, got nan$"):
            hurwitz_zeta(2.0, np.array([[1.0], [math.nan]]))
        with pytest.raises(OverflowError, match=r"hurwitz_zeta\(60\.0, 1e-06\)"):
            hurwitz_zeta(60.0, [1.0, 1e-6, 1e-7])

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises(self):
        # numpy's overflow is silenced and raised as OverflowError, so no
        # RuntimeWarning is printed
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


class TestWithinDoubleRange:
    """The one guard at the double range; pyproject turns any numpy RuntimeWarning
    that escapes it into a failure."""

    def test_finite_values_pass_as_they_are(self):
        x = np.array([1.0, 2.0])
        assert within_double_range("f()", np.multiply, x, 3.0).tolist() == [3.0, 6.0]
        zero_d = within_double_range("f()", np.multiply, np.array(2.0), 3.0)
        assert type(zero_d) is float and zero_d == 6.0
        table, spectrum = within_double_range("f()", lambda: (x, -x))
        assert table is x and spectrum.tolist() == [-1.0, -2.0]

    def test_overflow_and_invalid_values_raise_naming_the_call(self):
        for compute in (lambda: np.power(np.array([2.0, 4.0]), 600.0),  # inf
                        lambda: np.float64(1e308) * 10.0 * np.array([1.0, 0.0]),  # inf, NaN
                        lambda: (np.ones(2), np.array([1.0, math.inf])),
                        lambda: math.pow(10.0, 400.0),  # the float power's own OverflowError
                        lambda: math.exp(710.0)):
            with pytest.raises(OverflowError, match=r"^f\(alpha=2\.5\) exceeds the double range$"):
                within_double_range("f(alpha=2.5)", compute)

    def test_at_names_the_input_behind_the_first_bad_value(self):
        x = np.array([[1.0, 1e-300], [1e-310, 2.0]])
        with pytest.raises(OverflowError, match=r"^k\(2\.5, 1e-300\) exceeds the double range$"):
            within_double_range(lambda entry: f"k(2.5, {entry!r})", lambda: x ** -2.0, at=x)
        with pytest.raises(OverflowError, match=r"^k\(2\.5, 1e-300\) exceeds"):
            within_double_range(lambda entry: f"k(2.5, {entry!r})", lambda: x[0, 1] ** -2.0, at=x[0, 1])

    def test_first_entry(self):
        x = np.array([[1.0, -2.0], [-3.0, 4.0]])
        assert first_entry(x, x < 0.0) == -2.0 and type(first_entry(x, x < 0.0)) is float
        assert first_entry(x, x > 9.0) is None
        assert first_entry(np.array(0.0), np.array(0.0) == 0.0) == 0.0


def ive_reference(n, x):
    """e^(-x) I_n(x) in 40 digits, from mpmath's own series and expansions."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        return mpmath.besseli(n, x) * mpmath.exp(-x)


def boundary_samples(n):
    """x on both sides of each of ive's regime boundaries at order n, and
    across the heat kernel route's node range, 2 t0 .. 5e8."""
    edges = {20.0, 0.25 * n * n, 40.0, 2.0 * n * n}
    near = [e * f for e in edges if e > 0 for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    return sorted(set(near + [0.5 * n, 2.0 * n] + list(np.geomspace(1e-4, 5e8, 27))))


# mpmath's series does not converge at order 10^4 for x between about 2e4
# and 1e7; its values at the other points of the range are checked
SLOW_REFERENCE = (10**4, 2e4, 1e7)


class TestIve:
    @pytest.mark.parametrize("n", list(range(9)) + [9, 14, 19, 20, 100, 1000, 10**4])
    def test_matches_40_digit_references(self, n):
        # relative, with room for the exponent's rounding where the value is
        # tiny: e^E with |E| ~ |ln ive| carries |E| times the exponent's error
        xs = [x for x in boundary_samples(n)
              if not (n == SLOW_REFERENCE[0] and SLOW_REFERENCE[1] < x < SLOW_REFERENCE[2])]
        got = ive(n, np.array(xs))
        for x, value in zip(xs, got):
            expected = ive_reference(n, x)
            if expected < 1e-290:  # below the normal doubles
                assert 0.0 <= value <= 1e-290, (x, value)
                continue
            bound = 1e-15 * (4.0 + abs(float(mpmath.log(expected))))
            assert abs(value / expected - 1) <= bound, (x, value, float(expected))

    def test_matches_scipy(self):
        # scipy.special.ive stays a test-only comparator; both round the
        # exponent, and from order 20 on scipy's own error reaches 1e-12
        # (4.1e-13 at n = 2000, x = 1.06e6; 1.1e-12 at n = 10^4, x = 2.67e7;
        # against mpmath, which ive meets within 2.3e-16 at both points)
        x = np.geomspace(1e-4, 5e8, 400)
        for n in (*range(30), 47, 100, 333, 2000, 10**4):
            expected = scipy.special.ive(n, x)
            normal = expected > 1e-290
            got, expected = ive(n, x)[normal], expected[normal]
            rel = 1e-14 * (4.0 + np.abs(np.log(expected))) + (5e-12 if n >= 20 else 0.0)
            assert np.all(np.abs(got - expected) <= rel * expected), n

    def test_small_and_exact_arguments(self):
        assert ive(0, np.array([0.0])).tolist() == [1.0]
        assert ive(3, np.array([0.0])).tolist() == [0.0]
        assert ive(25, np.array([0.0, 5e-324, 1e-300])).tolist() == [0.0, 0.0, 0.0]
        # the leading series term (x/2)^n / n! where x is small
        assert ive(2, np.array([1e-8]))[0] == pytest.approx(1.25e-17, rel=1e-15)
        assert ive(1, np.array([math.inf])).tolist() == [0.0]
        assert ive(4, np.zeros((2, 3))).shape == (2, 3)

    def test_domain(self):
        # an integral float is an integer order (2.0 counts); a negative one is not
        for n in (-1, -2.0, 1.5, None):
            with pytest.raises(ValueError, match="integer order n >= 0"):
                ive(n, np.array([1.0]))
        for bad in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="x >= 0"):
                ive(1, np.array([1.0, bad]))

    @pytest.mark.parametrize("n", [np.int64(2), 2.0, np.uint16(2), np.int64(25), 25.0],
                             ids=["np.int64", "float", "np.uint16", "np.int64-debye", "float-debye"])
    def test_an_integer_valued_order_is_the_int(self, n):
        x = np.geomspace(1e-3, 1e3, 50)
        assert np.array_equal(ive(n, x), ive(int(n), x))

    def test_hankel_coefficients(self):
        # c_k = (-1)^k a_k(n): 1, (1 - 4n^2) / 8, (1 - 4n^2)(9 - 4n^2) / 128, ...
        for n in (0, 1, 7):
            mu = 4.0 * n * n
            expected = [1.0, (1 - mu) / 8, (1 - mu) * (9 - mu) / 128, (1 - mu) * (9 - mu) * (25 - mu) / 3072]
            np.testing.assert_allclose(hankel_coefficients(n, 4), expected, rtol=1e-15)


class TestRequireInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0), np.array(3)])
    def test_integer_values_give_the_int(self, value):
        got = require_integer(value, "n must be an integer")
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [2.7, np.float64(2.7), math.inf, -math.inf, math.nan, None, "3",
                                       3 + 0j, np.array([3, 3])])
    def test_anything_else_raises_its_message(self, value):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(str(value))}$"):
            require_integer(value, "n must be an integer")

    def test_bounds(self):
        assert require_integer(2.0, "what", low=2, high=2) == 2
        assert require_integer(-10**30, "what", high=0) == -10**30
        for value, low, high in ((1, 2, None), (5, None, 4), (np.int64(-1), 0, 7)):
            with pytest.raises(ValueError, match=f"^what, got {value}$"):
                require_integer(value, "what", low=low, high=high)


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

    @pytest.mark.parametrize("alpha, p", [(0.2, 9927), (2.3, 3390), (1.5, 5000)])
    def test_blocks_keep_the_one_call_bits(self, monkeypatch, alpha, p):
        # f sees at most a block of panels' nodes a call, together the whole
        # rule's nodes in order, and the sum keeps the bits of one call per rule
        def run(block):
            monkeypatch.setattr(special, "_PANEL_BLOCK", block)
            calls = []

            def f(kappa):
                calls.append(kappa.copy())
                return np.cos(kappa * p) * (4.0 * np.sin(0.5 * kappa) ** 2) ** (0.5 * alpha)
            return integrate_even_periodic(f), calls

        default = special._PANEL_BLOCK
        whole, one_call = run(2**40)
        assert len(one_call) % 2 == 0 and len(one_call) > 2  # one call per rule, over several widths
        for block in (7, default):
            value, calls = run(block)
            assert struct_bits(value) == struct_bits(whole)
            assert max(x.size for x in calls) <= block * (special._GAUSS_ORDER + 8)
            assert np.concatenate(calls).tobytes() == np.concatenate(one_call).tobytes()

    def test_chain_values_keep_their_bits(self):
        # as the CLI runs them, on one BLAS thread: the dot product over all
        # nodes sums in another order on more threads
        script = ("from fraclat.chain import FractionalOrder, element_infinite_quadrature\n"
                  "for alpha, p in ((0.2, 9927), (2.3, 3390), (1.5, 5000), (1.3, 99999)):\n"
                  "    print(repr(element_infinite_quadrature(FractionalOrder(alpha), p)))\n")
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["-1.4440205318591602e-06", "8.661064565023687e-13",
                                       "-1.6925303279647252e-10", "-1.0510054852665849e-12"]

    def test_nodes_are_held_a_block_at_a_time(self):
        order = FractionalOrder(alpha=1.3)
        element_infinite_quadrature(order, 99999)
        tracemalloc.start()
        try:
            element_infinite_quadrature(order, 99999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6  # the whole rule's nodes at once held 7.9 MB

    def test_tolerance_error(self):
        # the estimate is floored at the integral's last place, so the width
        # halves until the panel cap and then gives up
        f = lambda k: (4.0 * np.sin(k / 2.0) ** 2) ** 0.25
        with pytest.raises(ToleranceError) as info:
            integrate_even_periodic(f, 1e-300)
        assert 1e-300 < info.value.achieved < 1e-6
