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
    TruncationError,
    build_laplacian_1d,
    dispersion_1d,
    element_asymptotic,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
    is_integer_half,
    riesz_amplitude,
)
from fraclat.chain import _binomial_element, _elements_closed_array, _series_terms
from fraclat.special import ToleranceError, log_gamma


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

    def test_vectorised_path_matches_scalar(self):
        for alpha in (0.3, 1.0, 1.7, 3.4):
            order = FractionalOrder(alpha=alpha)
            q = np.arange(0, 40)
            got = _elements_closed_array(order, q)
            expected = [element_infinite_closed(order, int(qi)) for qi in q]
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-300)


def reference_closed(order, p):
    # the product loop walked from s = 0 for every offset, kept as the bit
    # level reference for the closed form below its series start
    p = abs(int(p))
    alpha = order.alpha
    a = 0.5 * alpha
    if order.is_integer_half:
        return order.omega_sq * _binomial_element(round(a), p)
    log_ratio = log_gamma(alpha + 1.0) - log_gamma(a + 1.0) - log_gamma(a + p + 1.0)
    log_prod = 0.0
    sign = 1.0
    for s in range(p):
        term = s - a
        if term < 0.0:
            sign = -sign
        log_prod += math.log(abs(term))
    return order.omega_sq * sign * math.exp(log_ratio + log_prod)


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
    """The closed form over batches of offsets: the product walk below the
    series start, the even series from there, against 40-digit values."""

    @pytest.mark.parametrize("alpha", BATCH_ALPHAS)
    def test_batch_is_bit_identical_to_the_product_loop(self, alpha):
        # below the series start, and at every offset of a finite stencil
        order = FractionalOrder(alpha=alpha, omega_sq=1.3)
        offsets = BATCH_OFFSETS
        if not order.is_integer_half:
            start = _series_terms(alpha)[0]
            offsets = [p for p in BATCH_OFFSETS if p < start] + [start - 1]
        assert [element_infinite_closed(order, p) for p in offsets] == [
            reference_closed(order, p) for p in offsets
        ]

    @pytest.mark.parametrize("alpha", SERIES_ALPHAS + [7.7])
    def test_matches_40_digit_references(self, alpha):
        order = FractionalOrder(alpha=alpha, omega_sq=1.3)
        start = _series_terms(alpha)[0]
        for p in BATCH_OFFSETS + [start - 1, start, 10**5, 10**6]:
            got = element_infinite_closed(order, p)
            assert math.isfinite(got)
            expected = 1.3 * mp_closed(alpha, p)
            if alpha > 30.5:
                if not sys.float_info.min <= abs(expected) <= sys.float_info.max:
                    continue
                bound = 1e-12
            elif p < start and alpha > 7.7:
                # the walk, unchanged, sums log gamma values up to about 400
                # at alpha = 30.5: 7.5e-14 at p = 87
                bound = 1e-13
            else:
                bound = 1e-14
            assert abs((got - expected) / expected) <= bound, (p, got)

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

    def test_negative_offsets_and_empty_request(self):
        order = FractionalOrder(alpha=1.3)
        assert [element_infinite_closed(order, p) for p in (-4, 4, -1)] == [
            reference_closed(order, 4), reference_closed(order, 4), reference_closed(order, 1)
        ]
        # below the series start the array form hands the scalar walk's values
        # back in the order asked, empty requests included
        order = FractionalOrder(alpha=30.5)
        for q in ([], [16, 3, 0, 3, 16, 1], [2]):
            got = _elements_closed_array(order, np.array(q, dtype=np.int64))
            assert got.tolist() == [reference_closed(order, p) for p in q]


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
        expected = math.exp(log_gamma(4.0) - 2.0 * log_gamma(2.5))
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


class TestPeriodicRoutes:
    def test_bloch_reduces_offset(self):
        order = FractionalOrder(alpha=1.4)
        chain = ChainSpec(size=10)
        f2 = element_periodic_bloch(order, chain, 2)
        assert element_periodic_bloch(order, chain, 12) == pytest.approx(f2, rel=1e-14)
        assert element_periodic_bloch(order, chain, -2) == pytest.approx(
            element_periodic_bloch(order, chain, 8), rel=1e-14
        )

    def test_images_classical_ring(self):
        order = FractionalOrder(alpha=2.0)
        chain = ChainSpec(size=6)
        assert element_periodic_images(order, chain, 1) == -1.0

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

    def test_images_truncation_cap(self, monkeypatch):
        monkeypatch.setattr("fraclat.chain._IMAGE_SUM_CAP", 64)
        order = FractionalOrder(alpha=0.4)
        chain = ChainSpec(size=4)
        with pytest.raises(TruncationError) as info:
            element_periodic_images(order, chain, 1, tol=1e-300)
        assert info.value.achieved > 0.0

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
            bound_scale = errors[0] * 10.0**alpha
            for n, err in zip((10, 100, 1000), errors):
                assert err <= bound_scale * float(n) ** (-alpha)
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
            f = _elements_closed_array(order, q)
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
        order = FractionalOrder(alpha=2.0)
        bad = CirculantMatrix(order=order, n=4, first_row=np.array([-2.0, 1.5, 0.0, 0.5]))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_mixed_spectrum(self):
        order = FractionalOrder(alpha=2.0)
        bad = CirculantMatrix(order=order, n=4, first_row=np.array([0.5, -1.0, 0.5, -1.0]))
        with pytest.raises(ValueError):
            bad.validate()

    def test_toarray_is_symmetric_circulant(self):
        matrix = build_laplacian_1d(FractionalOrder(alpha=0.9), ChainSpec(size=6))
        dense = matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, rtol=1e-13)
        np.testing.assert_allclose(dense[0], matrix.first_row, rtol=1e-15)
        eig = np.linalg.eigvalsh(dense)
        assert eig.max() <= 1e-12
