import math
import re
import sys
import time

import mpmath
import numpy as np
import pytest

from fraclat.chain import (
    ChainSpec,
    CirculantMatrix,
    FractionalOrder,
    build_laplacian_1d,
    dispersion_1d,
    element_asymptotic,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
    is_integer_half,
    laplacian_eigenvalues_1d,
    normalized_dispersion_1d,
    riesz_amplitude,
)
from fraclat.chain import _closed, _ring_eigenvalues, _ring_phases, _ring_powers, _series_terms, ring_axis
from fraclat.lattice import LatticeSpec, OffsetVector, build_laplacian_nd, element_periodic_nd
from fraclat.special import ToleranceError


class TestValidation:
    def test_order_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FractionalOrder(alpha=0.0)
        with pytest.raises(ValueError):
            FractionalOrder(alpha=-1.0)
        with pytest.raises(ValueError):
            FractionalOrder(alpha=1.0, omega_sq=0.0)

    def test_integer_half_detection(self):
        assert FractionalOrder(alpha=2.0).is_integer_half
        assert FractionalOrder(alpha=2.0 + 1e-13).is_integer_half
        assert not FractionalOrder(alpha=1.0).is_integer_half
        assert not FractionalOrder(alpha=2.0 + 1e-9).is_integer_half

    def test_chain_spec(self):
        assert ChainSpec(size=8.0).size == 8
        with pytest.raises(ValueError, match="size must be an integer >= 2, got inf"):
            ChainSpec(size=math.inf)
        with pytest.raises(ValueError):
            ChainSpec(size=1)
        with pytest.raises(ValueError):
            ChainSpec(size=6.5)
        with pytest.raises(ValueError):
            ChainSpec(size=8, mass=-1.0)

    # every 1D route that takes an offset, as a call of (order, ring, p)
    OFFSET_ROUTES = {
        "closed": lambda order, ring, p: element_infinite_closed(order, p),
        "quadrature": lambda order, ring, p: element_infinite_quadrature(order, p),
        "asymptotic": lambda order, ring, p: element_asymptotic(order, p),
        "bloch": element_periodic_bloch,
        "images": element_periodic_images,
    }

    @pytest.mark.parametrize("p", [2.7, np.float64(2.7)], ids=["float", "np.float64"])
    @pytest.mark.parametrize("route", list(OFFSET_ROUTES))
    def test_a_fractional_offset_raises(self, route, p):
        # 2.7 is no offset: no route truncates it to 2
        with pytest.raises(ValueError, match=r"offset must (be an integer|satisfy 0 <= p <= 7), got 2\.7$"):
            self.OFFSET_ROUTES[route](FractionalOrder(1.3), ChainSpec(8), p)

    @pytest.mark.parametrize("p", [np.int64(3), 3.0, np.uint8(3)], ids=["np.int64", "float", "np.uint8"])
    @pytest.mark.parametrize("route", list(OFFSET_ROUTES))
    def test_an_integer_valued_offset_is_the_int(self, route, p):
        order, call = FractionalOrder(1.3), self.OFFSET_ROUTES[route]
        assert call(order, ChainSpec(8), p) == call(order, ChainSpec(8), 3)

    @pytest.mark.parametrize("size", [np.int64(8), 8.0, np.int32(8)], ids=["np.int64", "float", "np.int32"])
    def test_an_integer_valued_ring_size_is_the_int(self, size):
        ring = ChainSpec(size)
        assert type(ring.size) is int and ring == ChainSpec(8)
        order = FractionalOrder(1.3)
        for route in ("bloch", "images"):
            assert self.OFFSET_ROUTES[route](order, ring, 3) == self.OFFSET_ROUTES[route](order, ChainSpec(8), 3)
        assert np.array_equal(build_laplacian_1d(order, ring).first_row,
                              build_laplacian_1d(order, ChainSpec(8)).first_row)


class TestClosedForm:
    def test_classical_stencil(self):
        order = FractionalOrder(alpha=2.0)
        values = [element_infinite_closed(order, p) for p in range(3)]
        np.testing.assert_allclose(values, [2.0, -1.0, 0.0], rtol=0.0, atol=1e-14)

    def test_biharmonic_stencil(self):
        order = FractionalOrder(alpha=4.0)
        values = [element_infinite_closed(order, p) for p in range(4)]
        np.testing.assert_allclose(values, [6.0, -4.0, 1.0, 0.0], rtol=0.0, atol=1e-13)

    def test_alpha_one_values(self):
        order = FractionalOrder(alpha=1.0)
        np.testing.assert_allclose(element_infinite_closed(order, 0), 4.0 / math.pi, rtol=1e-13)
        np.testing.assert_allclose(
            element_infinite_closed(order, 1), -4.0 / (3.0 * math.pi), rtol=1e-13
        )
        # independent confirmation through the Brillouin zone integral
        np.testing.assert_allclose(
            element_infinite_quadrature(order, 0), 4.0 / math.pi, rtol=1e-11
        )
        np.testing.assert_allclose(
            element_infinite_quadrature(order, 1), -4.0 / (3.0 * math.pi), rtol=1e-11
        )

    def test_negative_offset_symmetry(self):
        order = FractionalOrder(alpha=1.3)
        assert element_infinite_closed(order, -4) == element_infinite_closed(order, 4)

    def test_omega_scaling(self):
        base = FractionalOrder(alpha=0.7)
        scaled = FractionalOrder(alpha=0.7, omega_sq=2.5)
        np.testing.assert_allclose(
            element_infinite_closed(scaled, 3), 2.5 * element_infinite_closed(base, 3), rtol=1e-14
        )


def reference_closed(order, p):
    # integer half order m: omega_sq (-1)^p C(2m, m + p), zero past m, rounded once
    m, p = round(0.5 * order.alpha), abs(int(p))
    return order.omega_sq * ((-1) ** p * math.comb(2 * m, m + p) if p <= m else 0)


def mp_closed(alpha, p):
    """-A gamma(p - a) / gamma(p + 1 + a), a = alpha / 2, in 40-digit mpmath."""
    with mpmath.workdps(40):
        alpha = mpmath.mpf(alpha)
        amp = mpmath.gamma(alpha + 1) * mpmath.sinpi(alpha / 2) / mpmath.pi
        return -amp * mpmath.gamma(p - alpha / 2) / mpmath.gamma(p + 1 + alpha / 2)


# the benchmark's alpha grid 0.1 .. 3.9, plus a tiny, a large and a near
# overflow order
BATCH_ALPHAS = [round(0.1 * k, 1) for k in range(1, 40)] + [0.01, 30.5, 171.5]
# unsorted, repeated, zero, below alpha / 2 for the large orders, and up to 1e4
BATCH_OFFSETS = [10_000, 3, 0, 17, 3, 1, 9_999, 0, 14, 85, 86, 87, 250, 2, 10_000, 1]
# the orders with a series; at alpha/2 = 1 the stencil is finite
SERIES_ALPHAS = [alpha for alpha in BATCH_ALPHAS if not is_integer_half(alpha)]


class TestClosedFormBatch:
    """The closed form over batches of offsets: the even series at the series
    start or past it, walked down below it, against 40-digit values."""

    @pytest.mark.parametrize("alpha", BATCH_ALPHAS)
    def test_batch_is_bit_identical_to_the_product_loop(self, alpha):
        # below the series start each offset is one step of the product
        # f(s) = f(s+1) (s+1+a) / (s-a) from the next, bit for bit; a finite
        # stencil is the exact binomial, rounded once
        order = FractionalOrder(alpha=alpha, omega_sq=1.3)
        if order.is_integer_half:
            assert [element_infinite_closed(order, p) for p in BATCH_OFFSETS] == [
                reference_closed(order, p) for p in BATCH_OFFSETS
            ]
            return
        a = 0.5 * alpha
        start = _series_terms(alpha)[0]
        values = [element_infinite_closed(order, p) for p in range(start)]
        assert values[:-1] == [values[s + 1] * (s + 1 + a) / (s - a) for s in range(start - 1)]

    @pytest.mark.parametrize("alpha", SERIES_ALPHAS)
    def test_every_offset_to_the_series_start_matches_40_digit_references(self, alpha):
        # the walk from the series start, which at 171.5 starts in log space
        order = FractionalOrder(alpha=alpha, omega_sq=1.3)
        for p in range(_series_terms(alpha)[0] + 1):
            expected = 1.3 * mp_closed(alpha, p)
            assert abs((element_infinite_closed(order, p) - expected) / expected) <= 1e-14, p

    @pytest.mark.parametrize("alpha", SERIES_ALPHAS + [7.7])
    def test_matches_40_digit_references(self, alpha):
        order = FractionalOrder(alpha=alpha, omega_sq=1.3)
        start = _series_terms(alpha)[0]
        for p in BATCH_OFFSETS + [start - 1, start, 10**5, 10**6]:
            got = element_infinite_closed(order, p)
            assert math.isfinite(got)
            expected = 1.3 * mp_closed(alpha, p)
            if sys.float_info.min <= abs(expected) <= sys.float_info.max:
                assert abs((got - expected) / expected) <= 1e-14, (p, got)

    # worst relative error below the series start per band of alpha, about twice
    # what the walk down from the series measures on the scan's draws (9.5e-15,
    # 3.1e-14, 7.6e-14, 5.2e-13; 2.9e-13 for 100-170 while the start there was
    # built in log space); the log-space walk up from s = 0 that it replaced
    # measured 9.9e-14, 1.0e-12 and 8.9e-12 on the same draws (100-400 as one)
    WALK_BANDS = ((0.1, 20.0, 2e-14), (20.0, 100.0, 6e-14), (100.0, 170.0, 1.5e-13),
                  (170.0, 400.0, 1e-12))

    def test_walk_below_the_series_start_per_band(self):
        rng = np.random.default_rng(20261019)
        worst = dict.fromkeys(self.WALK_BANDS, 0.0)
        for alpha in np.exp(rng.uniform(math.log(0.1), math.log(400.0), 1000)).tolist():
            if is_integer_half(alpha):
                continue
            band = next(band for band in self.WALK_BANDS if band[0] <= alpha < band[1])
            for p in rng.integers(0, _series_terms(alpha)[0], 3).tolist():
                expected = mp_closed(alpha, p)
                if sys.float_info.min <= abs(expected) <= sys.float_info.max:
                    got = element_infinite_closed(FractionalOrder(alpha), p)
                    worst[band] = max(worst[band], float(abs((got - expected) / expected)))
        assert all(worst[band] <= band[2] for band in self.WALK_BANDS), worst

    def test_integer_half_orders(self):
        for alpha in (2.0, 4.0, 6.0):
            order = FractionalOrder(alpha=alpha, omega_sq=0.7)
            offsets = [5, 0, 2, 2, 1, 4, 3, 9_999]
            expected = [reference_closed(order, p) for p in offsets]
            assert [element_infinite_closed(order, p) for p in offsets] == expected

    def test_overflow_names_the_call(self):
        # f(0) = gamma(alpha + 1) / gamma(alpha / 2 + 1)^2 passes the double
        # range near alpha = 1029
        assert math.isfinite(element_infinite_closed(FractionalOrder(alpha=1000.5), 0))
        with pytest.raises(OverflowError, match=r"^element_infinite_closed\(alpha=1100\.5, p=3\) exceeds"):
            element_infinite_closed(FractionalOrder(alpha=1100.5), 3)

    def test_huge_omega_sq_from_the_series_start(self):
        # omega_sq * A passes the double range at alpha 30.5 while f(p), p >= P0 = 92,
        # stays finite: the value meets its stated bound against 40-digit mpmath
        for omega_sq in (1e300, 1e308):
            order = FractionalOrder(alpha=30.5, omega_sq=omega_sq)
            for p in (92, 99, 100, 1000, 10**6):
                value, bound = _closed(order, p)
                reference = omega_sq * mp_closed(30.5, p)
                assert math.isfinite(value) and abs(value - reference) <= bound * abs(reference), p

    def test_huge_omega_sq_below_the_series_start(self):
        # below P0 = 92 the start at P0 is re-formed as above rather than built in
        # log space, which was 1.8e-14 off on these rows (1.6e-15 now)
        order = FractionalOrder(alpha=30.5, omega_sq=1e300)
        for p in (90, 91):
            value, bound = _closed(order, p)
            reference = 1e300 * mp_closed(30.5, p)
            assert abs(value - reference) <= min(bound, 4e-15) * abs(reference), p

    # q^-alpha alone is not a normal double where A q^-alpha is: the start takes
    # q^(-alpha/2) twice rather than its log, which was 1.5e-13, 9.2e-14 and
    # 1.8e-13 off here (5.2e-15, 4.1e-15 and 5.7e-15 now); at 127.3, where
    # gamma(alpha + 1) takes the rounded alpha + 1, the bound carries that rounding
    @pytest.mark.parametrize("alpha, p, most", ((158.4, 476, 1e-14), (120.3, 361, 1e-14),
                                                (168.2, 505, 1e-14), (127.3, 382, 8e-14),
                                                (127.3, 1382, 8e-14)))
    def test_start_where_the_power_alone_is_not_normal(self, alpha, p, most):
        value, bound = _closed(FractionalOrder(alpha=alpha), p)
        reference = mp_closed(alpha, p)
        assert abs(value - reference) <= min(bound, most) * abs(reference)

    # A = gamma(alpha + 1) sin(pi alpha / 2) / pi takes the rounded alpha + 1: every start
    # built from A carries that rounding in its stated bound, not the half-power start
    # alone; these direct starts at p = P0 were 3.3e-14 and 1.4e-14 off against 7.1e-15
    @pytest.mark.parametrize("alpha, p", ((63.5803000460125, 191), (31.974692531175993, 96)))
    def test_bound_carries_the_rounding_of_alpha_plus_one(self, alpha, p):
        value, bound = _closed(FractionalOrder(alpha=alpha), p)
        reference = mp_closed(alpha, p)
        assert abs(value - reference) <= bound * abs(reference)

    def test_huge_even_orders(self):
        # at alpha/2 = m the stencil (-1)^p C(2m, m+p) is bounded before it is
        # built: an entry past the double range raises at once, one that fits
        # is exact, also where p passes 2^53 and a float would lose its parity
        for alpha in (1e6, 1e19, 2400.0):
            for p in (0, 2):
                message = re.escape(f"element_infinite_closed(alpha={alpha!r}, p={p}) exceeds the double range")
                with pytest.raises(OverflowError, match=f"^{message}$"):
                    element_infinite_closed(FractionalOrder(alpha=alpha), p)
        order = FractionalOrder(alpha=1e19)
        m = 5 * 10**18
        assert [element_infinite_closed(order, p) for p in (m - 1, m, m + 1)] == [-1e19, 1.0, 0.0]
        assert element_infinite_closed(FractionalOrder(alpha=2e6), 999_999) == -2e6
        assert element_infinite_closed(FractionalOrder(alpha=2e6, omega_sq=0.5), 999_998) == 0.5 * 1999999000000
        # the largest central entries that fit, next to the first that does not
        assert element_infinite_closed(FractionalOrder(alpha=1028.0), 0) == float(math.comb(1028, 514))
        with pytest.raises(OverflowError, match=r"alpha=1030\.0, p=0"):
            element_infinite_closed(FractionalOrder(alpha=1030.0), 0)

    def test_huge_odd_orders_are_bounded_before_the_walk(self):
        # below the series start, about 3 alpha, the walk would take 0.45 us a step:
        # an offset whose value leaves the double range is told by Stirling at once
        for alpha in (1e9 + 1, 1e15 + 1):
            for p in (0, 2):
                message = re.escape(f"element_infinite_closed(alpha={alpha!r}, p={p}) exceeds the double range")
                with pytest.raises(OverflowError, match=f"^{message}$"):
                    element_infinite_closed(FractionalOrder(alpha=alpha), p)
        # past alpha / 2 the profile underflows within a few dozen offsets, to a signed zero
        assert math.copysign(1.0, element_infinite_closed(FractionalOrder(alpha=1e9 + 1), 2 * 10**9)) == -1.0
        assert math.copysign(1.0, element_infinite_closed(FractionalOrder(alpha=1e9 + 3), 2 * 10**9)) == 1.0
        # where the profile is a double the walk runs: its start at alpha = 2e5 has a
        # series beyond exp's range, which is kept in log space
        expected = mp_closed(2e5 + 0.5, 10**5)
        got = element_infinite_closed(FractionalOrder(alpha=2e5 + 0.5), 10**5)
        assert abs((got - expected) / expected) <= 1e-9

    def test_negative_offsets_and_empty_request(self):
        order = FractionalOrder(alpha=1.3)
        assert [element_infinite_closed(order, p) for p in (-4, 4, -1)] == [
            element_infinite_closed(order, 4), element_infinite_closed(order, 4),
            element_infinite_closed(order, 1)
        ]


class TestImagesBatch:
    # a list of offsets is evaluated one call per offset, as the CLI does
    def test_argument_checks(self):
        order = FractionalOrder(alpha=0.8)
        chain = ChainSpec(size=10)
        with pytest.raises(ValueError, match="got 10"):
            [element_periodic_images(order, chain, p) for p in [0, 3, 10]]
        with pytest.raises(ValueError, match="tol must be positive"):
            [element_periodic_images(order, chain, p, tol=-1.0) for p in [1]]
        with pytest.raises(ValueError, match="size must be an integer >= 2"):
            [element_periodic_images(order, ChainSpec(size=math.inf), p) for p in [1]]
        assert [element_periodic_images(order, chain, p) for p in []] == []


class TestQuadratureRoute:
    def test_classical_neighbour(self):
        order = FractionalOrder(alpha=2.0)
        np.testing.assert_allclose(element_infinite_quadrature(order, 1), -1.0, rtol=1e-12)

    def test_alpha_three_diagonal(self):
        order = FractionalOrder(alpha=3.0)
        expected = math.exp(math.lgamma(4.0) - 2.0 * math.lgamma(2.5))
        np.testing.assert_allclose(element_infinite_quadrature(order, 0), expected, rtol=1e-12)

    def test_far_offset_agreement(self):
        order = FractionalOrder(alpha=0.5)
        np.testing.assert_allclose(
            element_infinite_quadrature(order, 5),
            element_infinite_closed(order, 5),
            rtol=1e-10,
        )

    def test_dual_route_sweep(self):
        for alpha in (0.3, 0.5, 1.0, 1.5, 2.0, 2.7, 3.5, 4.0):
            order = FractionalOrder(alpha=alpha)
            for p in range(0, 31, 3):
                np.testing.assert_allclose(
                    element_infinite_quadrature(order, p),
                    element_infinite_closed(order, p),
                    rtol=1e-10,
                    atol=1e-12,
                )

    def test_tolerance_bounds_the_scaled_value(self):
        # tol bounds omega_sq times the integral's estimate: 1e-12 is met
        # at omega_sq = 1 but not at 1e8, where the value carries the scale
        unscaled = element_infinite_quadrature(FractionalOrder(alpha=1.5), 5, tol=1e-12)
        with pytest.raises(ToleranceError, match="tolerance not met") as failure:
            element_infinite_quadrature(FractionalOrder(alpha=1.5, omega_sq=1e8), 5, tol=1e-12)
        assert failure.value.achieved > 1e-12
        # the scaled bound, 1e-330, is below the least double
        huge = FractionalOrder(alpha=1.5, omega_sq=1e300)
        with pytest.raises(ToleranceError):
            element_infinite_quadrature(huge, 5, tol=1e-30)
        assert element_infinite_quadrature(FractionalOrder(alpha=1.5, omega_sq=1e8), 5, tol=1e-4) == (
            pytest.approx(1e8 * unscaled, rel=1e-12)
        )
        # scaled bounds that overflow (1e10 / 1e-300, 1e-12 / 1e-321) are capped
        # at the greatest double
        tiny = FractionalOrder(alpha=1.5, omega_sq=1e-300)
        assert element_infinite_quadrature(tiny, 5, tol=1e10) == (
            pytest.approx(1e-300 * unscaled, rel=1e-12)
        )
        subnormal = FractionalOrder(alpha=1.5, omega_sq=1e-321)
        assert element_infinite_quadrature(subnormal, 5, tol=1e-12) == pytest.approx(1e-321 * unscaled, rel=1e-2)

    @pytest.mark.parametrize("alpha", [0.1, 1.3, 2.1, 3.9])
    def test_far_offsets_meet_the_default_tolerance(self, alpha):
        # the panels must resolve thousands of oscillations of cos(kappa p)
        order = FractionalOrder(alpha=alpha)
        for p in (1700, 2000, 5000, 9999):
            expected = element_infinite_closed(order, p)
            value = element_infinite_quadrature(order, p)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_unreachable_tolerance_raises_in_bounded_time(self):
        # 1e-300 lies below any estimate; at alpha = 15.5 the integral 2 pi f(0)
        # is about 5.8e4, whose last place 7.3e-12 exceeds the default 1e-12
        cases = [(FractionalOrder(alpha=1.3), 7, {"tol": 1e-300}), (FractionalOrder(alpha=15.5), 0, {})]
        for order, p, tol in cases:
            start = time.perf_counter()
            with pytest.raises(ToleranceError, match="tolerance not met") as failure:
                element_infinite_quadrature(order, p, **tol)
            assert time.perf_counter() - start < 1.0
            assert math.isfinite(failure.value.achieved)
            assert failure.value.achieved > tol.get("tol", 1e-12)


def mp_ring(alpha, n, offsets, digits=30):
    """f_N(p) = 1/N sum_l cos(2 pi l p / N) (4 sin^2(pi l / N))^(alpha/2) in mpmath."""
    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha) / 2
        modes = [(4 * mpmath.sinpi(mpmath.mpf(l) / n) ** 2) ** a for l in range(n)]
        cosines = [mpmath.cospi(2 * mpmath.mpf(j) / n) for j in range(n)]
        return [float(mpmath.fsum(cosines[l * p % n] * mode for l, mode in enumerate(modes)) / n)
                for p in offsets]


# rings and offsets against mp_ring, among them the image sum's hardest
# (alpha 3.9 at N = 7, 3.1 at N = 8, and 0.4, where the tail's d_2 vanishes
# while d_3 does not) and the Bloch route's (N = 2048 at p = 607 and p = N - 1)
RING_REFERENCES = [
    (0.1, 2048, (0, 1, 1024, 2047)),
    (0.3, 3, (0, 1, 2)),
    (0.4, 2, range(2)),
    (0.4, 3, range(3)),
    (0.4, 4, range(4)),
    (0.5, 5, (0, 2)),
    (1.3, 100, (0, 1, 37, 50, 99)),
    (2.5, 7, range(7)),
    (3.1, 8, range(8)),
    (3.9, 7, range(7)),
    (7.7, 31, (0, 5, 15, 30)),
    (12.9, 8, range(8)),
    (12.9, 2048, (0, 607, 1024, 2047)),
]

# the image sum's estimate carries its head images' error, (4 (P0 - q) + 64) u
# of each |f(q)|: at alpha 7.7 and 12.9 near p = 0 it passes the default 1e-12
RING_TOLERANCES = {(7.7, 31): 1e-9, (12.9, 8): 1e-9, (12.9, 2048): 1e-9}


def reference_bloch(order, n, p):
    # the mode sum with its ring built in place: the table must reproduce it bit for bit
    p = int(p) % n
    ell = np.arange(n)
    modes = (4.0 * np.sin(math.pi * ell / n) ** 2) ** (0.5 * order.alpha)
    return order.omega_sq * float(np.dot(np.cos(2.0 * math.pi * (ell * p % n) / n), modes)) / n


class TestPeriodicRoutes:
    @pytest.mark.parametrize("n", [2, 3, 101, 4096, 2**20 + 7])
    def test_bloch_is_bit_identical_to_the_inline_ring(self, n):
        rng = np.random.default_rng(n)
        big = n > 5000  # a million-site ring takes about 50 ms a call
        offsets = [1, n - 1] + rng.integers(-3 * n, 3 * n, 1 if big else 12).tolist()
        for alpha in (0.1, 16.3) if big else (0.1, 1.3, 16.3):
            order = FractionalOrder(alpha=alpha, omega_sq=1.3)
            for p in offsets:
                assert element_periodic_bloch(order, ChainSpec(size=n), p) == reference_bloch(order, n, p), p

    def test_ring_table_is_cached_and_read_only(self):
        lam, phase = _ring_eigenvalues(12), _ring_phases(12)
        for table in (_ring_eigenvalues, _ring_phases):
            assert table(12) is table(12) and table.cache_info().maxsize <= 16
        for column in (lam, phase):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        lam_p, phase_p = ring_axis(12, -7)
        assert lam_p is lam and np.array_equal(phase_p, phase[np.arange(12) * 5 % 12])
        power = _ring_powers(12, 1.3)
        assert power is _ring_powers(12, 1.3) and np.array_equal(power, lam ** 0.65)
        assert _ring_powers.cache_info().maxsize == _ring_eigenvalues.cache_info().maxsize
        with pytest.raises(ValueError, match="read-only"):
            power[0] = 1.0

    def test_ring_powers_are_taken_once_per_ring_and_order(self):
        order, chain = FractionalOrder(alpha=1.71, omega_sq=1.3), ChainSpec(size=101)
        misses = _ring_powers.cache_info().misses
        for p in range(chain.size):
            assert element_periodic_bloch(order, chain, p) == reference_bloch(order, chain.size, p)
        build_laplacian_1d(order, chain), laplacian_eigenvalues_1d(order, chain)
        assert _ring_powers.cache_info().misses == misses + 1

    def test_laplacians_build_no_phases(self):
        misses = _ring_phases.cache_info().misses
        order, chain = FractionalOrder(alpha=1.3), ChainSpec(size=9973)
        build_laplacian_1d(order, chain), laplacian_eigenvalues_1d(order, chain)
        build_laplacian_nd(order, LatticeSpec(2, (9967, 2)))
        assert _ring_phases.cache_info().misses == misses

    def test_bloch_reduces_offset(self):
        order = FractionalOrder(alpha=1.4)
        chain = ChainSpec(size=10)
        f2 = element_periodic_bloch(order, chain, 2)
        assert element_periodic_bloch(order, chain, 12) == pytest.approx(f2, rel=1e-14)
        assert element_periodic_bloch(order, chain, -2) == pytest.approx(
            element_periodic_bloch(order, chain, 8), rel=1e-14
        )

    def test_bloch_phase_is_reduced_mod_n(self):
        # l p reaches 4.2e6 here; the cosine of the unreduced 2 pi l p / N was
        # 8.1e-14 off, of the reduced one it is 2.8e-17 off
        order = FractionalOrder(alpha=0.1)
        (expected,) = mp_ring(0.1, 2048, (2047,))
        assert abs(element_periodic_bloch(order, ChainSpec(size=2048), 2047) - expected) <= 1e-16
        lattice = LatticeSpec(dim=1, sizes=(2048,))
        assert abs(element_periodic_nd(order, lattice, OffsetVector((2047,))) - expected) <= 1e-16

    def test_images_classical_ring(self):
        order = FractionalOrder(alpha=2.0)
        chain = ChainSpec(size=6)
        assert element_periodic_images(order, chain, 1) == -1.0

    @pytest.mark.parametrize("alpha", [4, 6, 8, 10, 20, 40, 60, 120])
    def test_integer_half_images_wrapping_the_ring(self, alpha):
        # the stencil (-1)^q C(2m, m + q), |q| <= m = alpha / 2, wraps every ring of
        # N <= 2m sites; site p collects each q = p (mod N), an exact integer sum,
        # rounded once: at alpha = 120, N = 3, p = 1 a sum of rounded binomials
        # cancels to 4.7e-10 relative off it
        m = alpha // 2
        order = FractionalOrder(alpha=float(alpha))
        stencil = [(q, (-1) ** abs(q) * math.comb(2 * m, m + q)) for q in range(-m, m + 1)]
        for n in range(2, alpha + 3):
            chain = ChainSpec(size=n)
            for p in range(n):
                exact = sum(entry for q, entry in stencil if (q - p) % n == 0)
                assert element_periodic_images(order, chain, p) == float(exact), (n, p)

    def test_images_match_bloch_at_origin(self):
        order = FractionalOrder(alpha=0.8)
        chain = ChainSpec(size=10)
        np.testing.assert_allclose(
            element_periodic_images(order, chain, 0),
            element_periodic_bloch(order, chain, 0),
            rtol=1e-10,
        )

    def test_dual_route_rings(self):
        for alpha in (0.5, 1.2, 2.8):
            order = FractionalOrder(alpha=alpha)
            for n in (4, 7, 16, 101):
                chain = ChainSpec(size=n)
                for p in range(n):
                    bloch = element_periodic_bloch(order, chain, p)
                    images = element_periodic_images(order, chain, p, tol=1e-12)
                    np.testing.assert_allclose(images, bloch, rtol=0.0, atol=1e-9 * max(1.0, abs(bloch)))

    def test_images_offset_range(self):
        order = FractionalOrder(alpha=0.8)
        chain = ChainSpec(size=10)
        with pytest.raises(ValueError, match="got 10"):
            element_periodic_images(order, chain, 10)
        with pytest.raises(ValueError):
            element_periodic_images(order, chain, -1)
        with pytest.raises(ValueError, match="tol must be positive"):
            element_periodic_images(order, chain, 1, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            element_periodic_images(order, chain, 1, tol=-1.0)
        with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
            element_periodic_images(order, chain, 1, tol=math.inf)
        with pytest.raises(ValueError, match="size must be an integer >= 2"):
            element_periodic_images(order, ChainSpec(size=math.inf), 1)

    def test_images_refuse_a_bound_below_the_last_place(self):
        order = FractionalOrder(alpha=0.4)
        chain = ChainSpec(size=4)
        with pytest.raises(ToleranceError, match="image sum error estimate above bound") as info:
            element_periodic_images(order, chain, 1, tol=1e-300)
        assert info.value.achieved >= math.ulp(element_periodic_images(order, chain, 1))

    def test_images_scale_past_the_amplitude_range(self):
        # omega_sq A passes the double range at omega_sq = 1e308, the tail's
        # scale omega_sq A N^-(alpha + 1) and the element do not
        chain = ChainSpec(size=1000)
        big = element_periodic_images(FractionalOrder(alpha=3.3, omega_sq=1e308), chain, 500, tol=1e300)
        unit = element_periodic_images(FractionalOrder(alpha=3.3), chain, 500, tol=1e300)
        assert big == pytest.approx(1e308 * unit, rel=1e-15, abs=0.0)

    def test_image_estimate_bounds_the_error(self):
        # the least tol returns the estimate in the ToleranceError; the error against
        # the Bloch sum at the double alpha, in 40 digits past its modes' 2^alpha,
        # stays under it (at most 0.41 of it in scans of 7900 such points); at the
        # first point the tail's own rounding, 2 last places, passes the rest of it
        rng = np.random.default_rng(20261019)
        draws = zip(np.exp(rng.uniform(math.log(0.1), math.log(170.0), 150)).tolist(),
                    rng.integers(2, 65, 150).tolist(), rng.integers(0, 64, 150).tolist())
        for alpha, n, p in [(0.10878371392243891, 43, 18), *draws]:
            order, chain, p = FractionalOrder(alpha=alpha), ChainSpec(size=n), p % n
            with pytest.raises(ToleranceError) as info:
                element_periodic_images(order, chain, p, tol=math.ulp(0.0))
            (expected,) = mp_ring(alpha, n, (p,), digits=40 + int(alpha))
            images = element_periodic_images(order, chain, p, tol=sys.float_info.max)
            assert abs(images - expected) <= info.value.achieved, (alpha, n, p)

    @pytest.mark.parametrize("alpha,n,offsets", RING_REFERENCES,
                             ids=[f"{alpha}-{n}" for alpha, n, _ in RING_REFERENCES])
    def test_ring_routes_against_30_digit_references(self, alpha, n, offsets):
        # the Bloch route's error grows with its largest mode 2^alpha; measured at
        # most 2.1e-16 2^alpha on 0.1 <= alpha <= 12.9, N <= 2048, at N = 2048,
        # p = 0 (7.6e-14 2^alpha at p = N - 1 before l p was reduced mod N)
        order = FractionalOrder(alpha=alpha)
        chain = ChainSpec(size=n)
        tol = RING_TOLERANCES.get((alpha, n), 1e-12)
        for p, expected in zip(offsets, mp_ring(alpha, n, offsets)):
            images = element_periodic_images(order, chain, p, tol=tol)
            assert abs(images - expected) <= 1e-14 * max(1.0, abs(expected)), p
            bloch = element_periodic_bloch(order, chain, p)
            assert abs(bloch - expected) <= 1e-15 * 2.0**alpha, p

    def test_periodization_error_scaling(self):
        # the finite ring profile approaches the infinite chain value at
        # least as fast as N ** -alpha; the observed per element decay is one
        # power faster, which satisfies the bound with room to spare
        for alpha in (0.5, 1.2):
            order = FractionalOrder(alpha=alpha)
            errors = []
            for n in (10, 100, 1000):
                err = abs(
                    element_periodic_bloch(order, ChainSpec(size=n), 1)
                    - element_infinite_closed(order, 1)
                )
                errors.append(err)
            for n, err in zip((10, 100, 1000), errors):
                assert err <= errors[0] * (10.0 / n) ** alpha
            assert errors[0] > errors[1] > errors[2]


class TestDispersion:
    def test_zone_edge(self):
        for alpha in (0.5, 1.0, 2.0, 3.3):
            order = FractionalOrder(alpha=alpha)
            np.testing.assert_allclose(
                dispersion_1d(order, math.pi), 2.0**alpha, rtol=1e-13
            )
        scaled = FractionalOrder(alpha=1.5, omega_sq=3.0)
        np.testing.assert_allclose(dispersion_1d(scaled, math.pi), 3.0 * 2.0**1.5, rtol=1e-13)

    def test_zone_centre_and_arrays(self):
        order = FractionalOrder(alpha=1.5)
        assert dispersion_1d(order, 0.0) == 0.0
        # a scalar gives a float, also the normalized curve's
        assert type(normalized_dispersion_1d(order, math.pi)) is float
        assert normalized_dispersion_1d(order, math.pi) == 2.0**0.75 / 2.0
        kappa = np.linspace(-math.pi, math.pi, 7)
        values = dispersion_1d(order, kappa)
        assert values.shape == kappa.shape
        np.testing.assert_allclose(values, dispersion_1d(order, -kappa), rtol=1e-14)

    def test_truncated_profile_resums_to_dispersion(self):
        # partial Fourier sum of the profile against the closed dispersion;
        # kappa stays away from zero where the truncated tail cancels poorly
        cap = 2000
        q = np.arange(1, cap + 1)
        kappa = np.linspace(0.3, math.pi, 20)
        for alpha in (1.0, 1.6, 2.7):
            order = FractionalOrder(alpha=alpha)
            f = np.array([element_infinite_closed(order, offset) for offset in q])
            partial = element_infinite_closed(order, 0) + 2.0 * np.cos(
                np.outer(kappa, q)
            ).dot(f)
            np.testing.assert_allclose(partial, dispersion_1d(order, kappa), rtol=0.0, atol=1e-4)


class TestAsymptotics:
    def test_reference_value(self):
        order = FractionalOrder(alpha=1.0)
        np.testing.assert_allclose(element_asymptotic(order, 10), -1.0 / (100.0 * math.pi), rtol=1e-13)
        assert element_asymptotic(order, 10) == pytest.approx(-3.1831e-3, rel=1e-4)

    def test_sign_flips_with_branch(self):
        assert element_asymptotic(FractionalOrder(alpha=0.7), 9) < 0.0
        assert element_asymptotic(FractionalOrder(alpha=3.0), 9) > 0.0

    def test_integer_half_rejected(self):
        with pytest.raises(ValueError):
            element_asymptotic(FractionalOrder(alpha=2.0), 5)
        with pytest.raises(ValueError):
            element_asymptotic(FractionalOrder(alpha=1.3), 0)

    def test_relative_error_decay(self):
        for alpha in (0.5, 1.5, 3.5):
            order = FractionalOrder(alpha=alpha)
            for p in (5, 10, 40, 100):
                exact = element_infinite_closed(order, p)
                approx = element_asymptotic(order, p)
                assert abs(exact / approx - 1.0) < 10.0 / p

    def test_sign_structure(self):
        # attractive branch below alpha = 2: every off diagonal coupling is
        # negative; above it the distant couplings switch sign with the tail
        order = FractionalOrder(alpha=1.2)
        assert element_infinite_closed(order, 0) > 0.0
        for p in range(1, 20):
            assert element_infinite_closed(order, p) < 0.0
        order = FractionalOrder(alpha=2.9)
        assert element_infinite_closed(order, 0) > 0.0
        assert element_infinite_closed(order, 1) < 0.0
        for p in range(3, 20):
            assert element_infinite_closed(order, p) > 0.0

    def test_integer_support_truncates_exactly(self):
        for alpha, m in ((2.0, 1), (4.0, 2), (6.0, 3)):
            order = FractionalOrder(alpha=alpha)
            for p in range(m + 1, m + 8):
                assert element_infinite_closed(order, p) == 0.0


class TestAmplitude:
    def test_overflow_names_the_order(self):
        assert math.isfinite(riesz_amplitude(170.5))
        with pytest.raises(OverflowError, match=r"^riesz_amplitude\(alpha=171\.5\) exceeds the double range$"):
            riesz_amplitude(171.5)


# 4^(alpha/2) passes the double range from alpha = 1024, omega_sq * 4^(alpha/2) sooner
BIG = FractionalOrder(alpha=1100.0)
HUGE_SCALE = FractionalOrder(alpha=3.0, omega_sq=1e308)


class TestDoubleRange:
    """Past the double range each chain function raises OverflowError naming its call
    and order; none returns inf or NaN, and no numpy warning escapes."""

    @pytest.mark.parametrize("call, compute", [
        ("element_periodic_bloch(alpha=1100.5, n=4, p=0)",
         lambda: element_periodic_bloch(FractionalOrder(alpha=1100.5), ChainSpec(size=4), 0)),
        ("element_periodic_bloch(alpha=3.3, n=4, p=1)",
         lambda: element_periodic_bloch(FractionalOrder(alpha=3.3, omega_sq=1e308), ChainSpec(size=4), 1)),
        ("build_laplacian_1d(alpha=1100.0, n=4)", lambda: build_laplacian_1d(BIG, ChainSpec(size=4))),
        ("build_laplacian_1d(alpha=3.0, n=4)", lambda: build_laplacian_1d(HUGE_SCALE, ChainSpec(size=4))),
        ("laplacian_eigenvalues_1d(alpha=1100.0, n=4)", lambda: laplacian_eigenvalues_1d(BIG, ChainSpec(size=4))),
        ("laplacian_eigenvalues_1d(alpha=3.0, n=4)",
         lambda: laplacian_eigenvalues_1d(HUGE_SCALE, ChainSpec(size=4))),
        ("dispersion_1d(alpha=1100.0)", lambda: dispersion_1d(BIG, [0.5, math.pi])),
        ("element_periodic_images(alpha=2000.0, n=3, p=0)",
         lambda: element_periodic_images(FractionalOrder(alpha=2000.0), ChainSpec(size=3), 0)),
        ("element_periodic_images(alpha=4.0, n=3, p=0)",
         lambda: element_periodic_images(FractionalOrder(alpha=4.0, omega_sq=1e308), ChainSpec(size=3), 0)),
        ("element_infinite_quadrature(alpha=3.0, p=0)",
         lambda: element_infinite_quadrature(HUGE_SCALE, 0, tol=1e300)),
        ("element_asymptotic(alpha=3.3, p=1)",
         lambda: element_asymptotic(FractionalOrder(alpha=3.3, omega_sq=1e308), 1)),
    ])
    def test_past_the_range_names_the_call(self, call, compute):
        with pytest.raises(OverflowError, match=f"^{re.escape(call)} exceeds the double range$"):
            compute()

    @pytest.mark.parametrize("alpha, omega_sq", [(1020.0, 1.0), (1021.5, 1.0), (1023.5, 1.0), (3.3, 1e307)])
    def test_bloch_is_the_inline_ring_on_both_sides_of_the_guard(self, alpha, omega_sq):
        # below omega_sq n 2^alpha = 2^1023 the sum runs without the guard, above it inside
        # it: each value that fits is the inline ring's, bit for bit, and the rest raise
        order = FractionalOrder(alpha=alpha, omega_sq=omega_sq)
        for p in range(5):
            with np.errstate(over="ignore"):
                expected = reference_bloch(order, 5, p)
            if math.isfinite(expected):
                assert element_periodic_bloch(order, ChainSpec(size=5), p) == expected, p
            else:
                with pytest.raises(OverflowError, match=r"^element_periodic_bloch\("):
                    element_periodic_bloch(order, ChainSpec(size=5), p)


class TestLaplacianMatrix:
    def test_classical_ring(self):
        matrix = build_laplacian_1d(FractionalOrder(alpha=2.0), ChainSpec(size=5))
        np.testing.assert_allclose(
            matrix.first_row, [-2.0, 1.0, 0.0, 0.0, 1.0], rtol=0.0, atol=1e-14
        )

    def test_spectrum_matches_bloch_modes(self):
        order = FractionalOrder(alpha=0.5)
        matrix = build_laplacian_1d(order, ChainSpec(size=8))
        ell = np.arange(8)
        expected = -((4.0 * np.sin(math.pi * ell / 8) ** 2) ** 0.25)
        got = matrix.eigenvalues()
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)

    def test_mass_scaling(self):
        order = FractionalOrder(alpha=1.3)
        heavy = build_laplacian_1d(order, ChainSpec(size=9, mass=4.0))
        light = build_laplacian_1d(order, ChainSpec(size=9))
        np.testing.assert_allclose(heavy.first_row, 4.0 * light.first_row, rtol=1e-13)

    def test_rows_match_bloch_elements(self):
        order = FractionalOrder(alpha=1.7)
        chain = ChainSpec(size=12)
        matrix = build_laplacian_1d(order, chain)
        for p in range(12):
            np.testing.assert_allclose(
                matrix.first_row[p],
                -element_periodic_bloch(order, chain, p),
                rtol=0.0,
                atol=1e-13,
            )

    def test_validate_accepts_built_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            alpha = float(rng.uniform(0.2, 4.0))
            n = int(rng.integers(2, 200))
            matrix = build_laplacian_1d(FractionalOrder(alpha=alpha), ChainSpec(size=n))
            matrix.validate()
            assert abs(matrix.row_sum()) <= 1e-10 * np.max(np.abs(matrix.first_row))

    def test_validate_rejects_asymmetry(self):
        bad = CirculantMatrix(np.array([-2.0, 1.5, 0.0, 0.5]))
        with pytest.raises(ValueError):
            bad.validate()

    def test_first_row_is_one_dimensional(self):
        assert CirculantMatrix([1.0, -0.5, -0.5]).shape == (3, 3)
        with pytest.raises(ValueError, match="one dimensional, got shape"):
            CirculantMatrix(np.eye(3))

    def test_validate_rejects_mixed_spectrum(self):
        bad = CirculantMatrix(np.array([0.5, -1.0, 0.5, -1.0]))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_on_a_zero_row_and_a_mixed_spectrum(self):
        # a zero row has nothing to check; [0, 1, -2, 1] is symmetric with a zero row sum
        # and its spectrum 0, 2, -4, 2 has both signs (the row above fails on its sum first)
        CirculantMatrix(np.zeros(4)).validate()
        with pytest.raises(ValueError, match="^spectrum has eigenvalues of both signs$"):
            CirculantMatrix(np.array([0.0, 1.0, -2.0, 1.0])).validate()

    def test_toarray_is_symmetric_circulant(self):
        matrix = build_laplacian_1d(FractionalOrder(alpha=0.9), ChainSpec(size=6))
        dense = matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, rtol=1e-13)
        np.testing.assert_allclose(dense[0], matrix.first_row, rtol=1e-15)
        eig = np.linalg.eigvalsh(dense)
        assert eig.max() <= 1e-12
