import math

import numpy as np
import pytest
import scipy.special

from fraclat.chain import (
    INFINITE,
    ChainSpec,
    FractionalOrder,
    element_infinite_closed,
    element_periodic_bloch,
)
import fraclat.lattice as lattice
from fraclat.lattice import (
    ExtrapolationError,
    LatticeSpec,
    OffsetVector,
    SizeLimitError,
    asymptotic_constant_nd,
    bessel_element_extrapolated,
    build_laplacian_nd,
    dispersion_surface,
    eigenvalue_nd,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
    normalized_dispersion_2d,
)
from fraclat.special import QuadratureSpec, ToleranceError


class TestLatticeValidation:
    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            LatticeSpec(dim=0, sizes=())
        with pytest.raises(ValueError):
            LatticeSpec(dim=5, sizes=(4, 4, 4, 4, 4))

    def test_sizes(self):
        spec = LatticeSpec(dim=2, sizes=(8, 6))
        assert spec.n_points == 48
        assert not spec.is_infinite
        inf = LatticeSpec(dim=2, sizes=(INFINITE, INFINITE))
        assert inf.is_infinite
        with pytest.raises(ValueError):
            LatticeSpec(dim=2, sizes=(8, INFINITE))
        with pytest.raises(ValueError):
            LatticeSpec(dim=2, sizes=(8, 1))
        with pytest.raises(ValueError):
            LatticeSpec(dim=2, sizes=(8,))

    def test_offset_vector(self):
        off = OffsetVector((3, -2))
        assert off.dim == 2
        assert off.total_order == 5
        assert off.reduced((8, 8)).components == (3, 6)
        with pytest.raises(ValueError):
            OffsetVector((1.5, 0))


class TestEigenvalue:
    def test_reference_points(self):
        assert eigenvalue_nd([0.0, 0.0]) == 0.0
        assert eigenvalue_nd([math.pi, math.pi]) == pytest.approx(8.0, rel=1e-15)
        assert eigenvalue_nd([math.pi, 0.0, 0.0]) == pytest.approx(4.0, rel=1e-15)

    def test_array_input(self):
        kappa = np.array([[0.0, 0.0], [math.pi, math.pi]])
        np.testing.assert_allclose(eigenvalue_nd(kappa), [0.0, 8.0], atol=1e-14)


class TestSpectralSum:
    def test_one_dimensional_reduction(self):
        chain = ChainSpec(size=12)
        lattice = LatticeSpec(dim=1, sizes=(12,))
        for alpha in (0.7, 2.0):
            order = FractionalOrder(alpha=alpha)
            for p in range(12):
                np.testing.assert_allclose(
                    element_periodic_nd(order, lattice, OffsetVector((p,))),
                    element_periodic_bloch(order, chain, p),
                    rtol=0.0,
                    atol=1e-12,
                )

    def test_classical_2d_diagonal(self):
        order = FractionalOrder(alpha=2.0)
        lattice = LatticeSpec(dim=2, sizes=(8, 8))
        value = element_periodic_nd(order, lattice, OffsetVector((0, 0)))
        np.testing.assert_allclose(value, 4.0, rtol=1e-13)
        scaled_order = FractionalOrder(alpha=2.0, omega_sq=2.5)
        np.testing.assert_allclose(
            element_periodic_nd(scaled_order, lattice, OffsetVector((0, 0))),
            10.0,
            rtol=1e-13,
        )

    def test_frozen_regression(self):
        # value computed once by an independent direct double loop over all
        # 16 x 16 Bloch vectors and frozen here
        order = FractionalOrder(alpha=1.0)
        lattice = LatticeSpec(dim=2, sizes=(16, 16))
        value = element_periodic_nd(order, lattice, OffsetVector((2, 1)))
        np.testing.assert_allclose(value, -0.014063814095614628, rtol=1e-12)

    def test_size_cap(self):
        order = FractionalOrder(alpha=1.0)
        lattice = LatticeSpec(dim=3, sizes=(300, 300, 300))
        with pytest.raises(SizeLimitError):
            element_periodic_nd(order, lattice, OffsetVector((0, 0, 0)))

    def test_offset_dim_mismatch(self):
        order = FractionalOrder(alpha=1.0)
        lattice = LatticeSpec(dim=2, sizes=(8, 8))
        with pytest.raises(ValueError):
            element_periodic_nd(order, lattice, OffsetVector((1,)))

    def test_row_sum_vanishes(self):
        order = FractionalOrder(alpha=1.3)
        lattice = LatticeSpec(dim=2, sizes=(6, 4))
        values = [
            element_periodic_nd(order, lattice, OffsetVector((p1, p2)))
            for p1 in range(6)
            for p2 in range(4)
        ]
        assert abs(sum(values)) <= 1e-9 * max(abs(v) for v in values)

    def test_symmetries(self):
        order = FractionalOrder(alpha=1.3)
        lattice = LatticeSpec(dim=2, sizes=(12, 12))
        base = element_periodic_nd(order, lattice, OffsetVector((2, 1)))
        for comps in ((1, 2), (-2, 1), (2, -1), (-1, -2)):
            np.testing.assert_allclose(
                element_periodic_nd(order, lattice, OffsetVector(comps)), base, rtol=1e-12
            )
        cube = LatticeSpec(dim=3, sizes=(6, 6, 6))
        base3 = element_periodic_nd(order, cube, OffsetVector((1, 2, 0)))
        for comps in ((2, 1, 0), (0, 1, 2), (1, 0, 2), (-1, 2, 0), (1, -2, 0)):
            np.testing.assert_allclose(
                element_periodic_nd(order, cube, OffsetVector(comps)), base3, rtol=1e-12
            )


class TestBuildLaplacianNd:
    def test_table_matches_spectral_sum(self):
        order = FractionalOrder(alpha=1.3, omega_sq=1.7)
        lattice = LatticeSpec(dim=2, sizes=(6, 4), mass=0.8)
        table, eigenvalues = build_laplacian_nd(order, lattice)
        assert table.shape == eigenvalues.shape == (6, 4)
        for p1 in range(6):
            for p2 in range(4):
                expected = -0.8 * element_periodic_nd(order, lattice, OffsetVector((p1, p2)))
                np.testing.assert_allclose(table[p1, p2], expected, rtol=0.0, atol=1e-13)

    def test_zero_row_sum_and_one_signed_spectrum(self):
        for alpha, sizes in ((0.7, (6, 4)), (2.6, (3, 4, 5)), (1.1, (2, 3, 2, 3))):
            table, eigenvalues = build_laplacian_nd(
                FractionalOrder(alpha), LatticeSpec(len(sizes), sizes)
            )
            assert abs(table.sum()) <= 1e-12 * np.abs(table).max()
            assert eigenvalues.max() == 0.0 and eigenvalues.flat[0] == 0.0
            # the table's DFT is the spectrum
            np.testing.assert_allclose(
                np.fft.fftn(table).real, eigenvalues, rtol=0.0, atol=1e-12
            )

    def test_requires_finite_lattice(self):
        with pytest.raises(ValueError):
            build_laplacian_nd(FractionalOrder(1.0), LatticeSpec(2, (INFINITE, INFINITE)))


class TestZoneIntegral:
    def test_one_dimensional_reduction(self):
        for alpha in (0.5, 1.5, 3.1):
            order = FractionalOrder(alpha=alpha)
            for p in (0, 1, 5, 17):
                np.testing.assert_allclose(
                    element_infinite_nd_bz(order, 1, OffsetVector((p,))),
                    element_infinite_closed(order, p),
                    rtol=0.0,
                    atol=1e-9,
                )

    def test_classical_2d_diagonal(self):
        order = FractionalOrder(alpha=2.0)
        np.testing.assert_allclose(
            element_infinite_nd_bz(order, 2, OffsetVector((0, 0))), 4.0, rtol=1e-12
        )

    def test_periodization_limit(self):
        order = FractionalOrder(alpha=1.5)
        infinite = element_infinite_nd_bz(order, 2, OffsetVector((3, 0)))
        lattice = LatticeSpec(dim=2, sizes=(256, 256))
        periodic = element_periodic_nd(order, lattice, OffsetVector((3, 0)))
        assert abs(periodic - infinite) <= 256.0**-1.5

    def test_dim_limit(self):
        order = FractionalOrder(alpha=1.0)
        with pytest.raises(ValueError):
            element_infinite_nd_bz(order, 4, OffsetVector((0, 0, 0, 0)))
        with pytest.raises(ValueError):
            element_infinite_nd_bz(order, 2, OffsetVector((1,)))

    def test_tolerance_failure_reported(self):
        order = FractionalOrder(alpha=0.3)
        spec = QuadratureSpec(points=16, abs_tol=1e-30)
        with pytest.raises(ToleranceError):
            element_infinite_nd_bz(order, 2, OffsetVector((7, 3)), spec)

    def test_axis_decay_slope(self):
        # far field decay p^-(dim + alpha) along a lattice axis
        order = FractionalOrder(alpha=0.5)
        f20 = element_infinite_nd_bz(order, 2, OffsetVector((20, 0)))
        f40 = element_infinite_nd_bz(order, 2, OffsetVector((40, 0)))
        slope = math.log(abs(f40) / abs(f20)) / math.log(2.0)
        assert abs(slope + 2.5) < 0.05
        predicted = -asymptotic_constant_nd(2, 0.5) * 40.0**-2.5
        assert abs(f40 / predicted - 1.0) < 0.05


class TestBesselRoute:
    def test_matches_closed_form_1d(self):
        order = FractionalOrder(alpha=0.5)
        value = bessel_element_extrapolated(order, 1, OffsetVector((1,)), epsilon=3e-4)
        np.testing.assert_allclose(value, element_infinite_closed(order, 1), rtol=0.0, atol=1e-6)

    def test_matches_zone_integral_2d(self):
        order = FractionalOrder(alpha=1.0)
        value = bessel_element_extrapolated(order, 2, OffsetVector((0, 0)))
        reference = element_infinite_nd_bz(order, 2, OffsetVector((0, 0)))
        np.testing.assert_allclose(value, reference, rtol=0.0, atol=1e-6)

    def test_integer_half_rejected(self):
        order = FractionalOrder(alpha=2.0)
        with pytest.raises(ValueError):
            element_infinite_nd_bessel(order, 1, OffsetVector((0,)), 0.1, 200.0)

    def test_parameter_validation(self):
        order = FractionalOrder(alpha=0.5)
        with pytest.raises(ValueError):
            element_infinite_nd_bessel(order, 1, OffsetVector((0,)), -0.1, 200.0)
        with pytest.raises(ValueError):
            # damped envelope at this cutoff is far above 1e-14
            element_infinite_nd_bessel(order, 1, OffsetVector((0,)), 0.1, 5.0)

    def test_extrapolated_argument_checks_run_first(self):
        # the checks run before epsilon divides into xi_max or dim picks a default
        order = FractionalOrder(alpha=0.5)
        for epsilon in (0.0, -0.1):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                bessel_element_extrapolated(order, 1, OffsetVector((0,)), epsilon=epsilon)
        with pytest.raises(ValueError, match="dim must be in 1..4"):
            bessel_element_extrapolated(order, 5, OffsetVector((0, 0, 0, 0, 0)))

    def test_extrapolation_failure_carries_ladder(self):
        order = FractionalOrder(alpha=0.5)
        with pytest.raises(ExtrapolationError) as info:
            bessel_element_extrapolated(
                order, 1, OffsetVector((1,)), epsilon=0.0125, check_tol=1e-9
            )
        assert info.value.epsilons == (0.0125, 0.00625, 0.003125)
        assert info.value.estimate > 1e-9

    def test_component_symmetry(self):
        order = FractionalOrder(alpha=1.5)
        base = element_infinite_nd_bessel(order, 2, OffsetVector((2, 1)), 0.0125, 36.0 / 0.05)
        for comps in ((1, 2), (-2, 1), (2, -1)):
            got = element_infinite_nd_bessel(order, 2, OffsetVector(comps), 0.0125, 36.0 / 0.05)
            np.testing.assert_allclose(got, base, rtol=1e-13)


def reference_damped_value(order, dim, comps, epsilon, xi_max):
    """One damping of the Bessel route as a plain loop over panel blocks.

    Spells out the panel grid and the integrand separately from the library,
    which shares the damping independent factor between dampings.
    """
    s = 0.5 * order.alpha + 1.0
    total_p = sum(abs(c) for c in comps)
    width = math.pi / (2.0 * (2 * dim + 1))
    lo = min(epsilon / 32.0, width / 1024.0)
    geo = [0.0]
    while lo < width:
        geo.append(lo)
        lo *= 2.0
    n_uniform = int(math.ceil((xi_max - geo[-1]) / width))
    t, w = np.polynomial.legendre.leggauss(16)
    kernel_scale = math.exp(math.lgamma(s)) / math.pi
    trig = np.cos if total_p % 2 == 0 else np.sin

    def block(edges):
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        xi = (0.5 * (a + b)[:, None] + np.outer(half, t)).ravel()
        r = np.hypot(epsilon, xi)
        kernel = kernel_scale * r ** (-s) * np.cos(s * np.arctan2(-xi, epsilon))
        prod = scipy.special.jv(abs(comps[0]), 2.0 * xi)
        for p in comps[1:]:
            prod = prod * scipy.special.jv(abs(p), 2.0 * xi)
        values = trig(2.0 * dim * xi) * prod * kernel * np.exp(-2.0 * dim * epsilon * xi)
        return float(np.dot(np.outer(half, w).ravel(), values))

    total = block(np.asarray(geo))
    for k0 in range(0, n_uniform, 50000):
        k1 = min(k0 + 50000, n_uniform)
        total += block(geo[-1] + width * np.arange(k0, k1 + 1))
    sign = -1.0 if (total_p // 2) % 2 else 1.0
    return order.omega_sq * (2.0 * sign * total)


# (alpha, offset, epsilon): repeated orders, the sin branch of an odd total
# order and negative components on one shared grid origin, then user dampings
# large enough that lo = min(eps/32, width/1024) gives the ladder two origins:
# in 3D eps/32 > width/1024 = 2.19e-4 > eps/64 at eps = 1e-2, in 2D
# eps/64 > width/1024 = 3.07e-4 > eps/128 at eps = 2e-2
LADDER_CASES = [
    (1.1, (1, 1, 0), 6e-3),
    (0.3, (0, 0, 0), 6e-3),
    (0.5, (1,), 1e-2),
    (1.5, (2, -1), 9e-3),
    (2.5, (-1, 2, 1), 6e-3),
    (0.9, (0, 0, 0), 1e-2),
    (0.5, (1, 1), 2e-2),
]


class TestBesselSharedLadder:
    @pytest.mark.parametrize("alpha, comps, epsilon", LADDER_CASES)
    def test_ladder_equals_single_dampings(self, alpha, comps, epsilon):
        order = FractionalOrder(alpha=alpha)
        dim = len(comps)
        offset = OffsetVector(comps)
        epsilons = (epsilon, 0.5 * epsilon, 0.25 * epsilon)
        values = []
        for eps in epsilons:
            xi_max = 36.0 / (2.0 * dim * eps)
            value = element_infinite_nd_bessel(order, dim, offset, eps, xi_max)
            assert value == reference_damped_value(order, dim, comps, eps, xi_max)
            values.append(value)
        weights = lattice._richardson_weights(*lattice._extrapolation_exponents(dim, alpha))
        expected = float(np.dot(weights, values))
        got = bessel_element_extrapolated(order, dim, offset, epsilon=epsilon, check_tol=math.inf)
        assert got == expected

    def test_one_bessel_call_per_node_of_the_longest_grid(self, monkeypatch):
        calls = []

        def counting_jv(p, x):
            calls.append(x.size)
            return scipy.special.jv(p, x)

        monkeypatch.setattr(lattice, "jv", counting_jv)
        dim, epsilon = 3, 6e-3
        bessel_element_extrapolated(
            FractionalOrder(alpha=0.7), dim, OffsetVector((0, 0, 0)), epsilon=epsilon,
            check_tol=math.inf,
        )
        width = math.pi / (2.0 * (2 * dim + 1))
        expected = 0
        for eps in (epsilon, 0.5 * epsilon, 0.25 * epsilon):
            edge = eps / 32.0
            assert edge < width / 1024.0
            startup_panels = 0
            while edge < width:
                startup_panels += 1
                edge *= 2.0
            expected += 16 * startup_panels
        last_edge = edge / 2.0
        xi_max = 36.0 / (2.0 * dim * 0.25 * epsilon)
        expected += 16 * math.ceil((xi_max - last_edge) / width)
        assert sum(calls) == expected


class TestAsymptoticConstant:
    def test_matches_1d_coefficient(self):
        for alpha in (0.5, 1.0, 1.5, 2.5):
            expected = (
                math.exp(math.lgamma(alpha + 1.0)) * math.sin(0.5 * math.pi * alpha) / math.pi
            )
            np.testing.assert_allclose(asymptotic_constant_nd(1, alpha), expected, rtol=1e-12)

    def test_alpha_one(self):
        np.testing.assert_allclose(asymptotic_constant_nd(1, 1.0), 1.0 / math.pi, rtol=1e-13)

    def test_even_integer_orders_vanish(self):
        assert asymptotic_constant_nd(1, 2.0) == 0.0
        assert asymptotic_constant_nd(3, 4.0) == 0.0

    def test_sign_pattern(self):
        assert asymptotic_constant_nd(2, 0.5) > 0.0
        assert asymptotic_constant_nd(2, 2.5) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_constant_nd(0, 1.0)
        with pytest.raises(ValueError):
            asymptotic_constant_nd(2, -1.0)


class TestDispersionSurface:
    def test_band_edge_normalization(self):
        order = FractionalOrder(alpha=2.0)
        np.testing.assert_allclose(
            normalized_dispersion_2d(order, math.pi, math.pi), 1.0, rtol=1e-13
        )

    def test_alpha_independent_crossing(self):
        # wherever the eigenvalue equals one the normalized frequency is
        # 2^(-3/2) for every order
        for alpha in (1.0, 1.5, 2.0, 3.0):
            order = FractionalOrder(alpha=alpha)
            np.testing.assert_allclose(
                normalized_dispersion_2d(order, math.pi / 3.0, 0.0),
                2.0**-1.5,
                rtol=1e-13,
            )
            kappa = 2.0 * math.asin(math.sqrt(0.125))
            np.testing.assert_allclose(
                normalized_dispersion_2d(order, kappa, kappa), 2.0**-1.5, rtol=1e-13
            )

    def test_zone_centre(self):
        assert normalized_dispersion_2d(FractionalOrder(alpha=1.2), 0.0, 0.0) == 0.0

    def test_surface_layout(self):
        order = FractionalOrder(alpha=1.5)
        surface = dispersion_surface(order, 7)
        assert surface.shape == (49, 3)
        np.testing.assert_allclose(surface[-1], [math.pi, math.pi, 2.0 ** (3.0 * (1.5 - 2.0) / 4.0)])
        for k1, k2, value in surface:
            np.testing.assert_allclose(
                value, normalized_dispersion_2d(order, k1, k2), rtol=1e-14
            )
        # second column advances fastest
        assert surface[1, 0] == 0.0 and surface[1, 1] > 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            dispersion_surface(FractionalOrder(alpha=1.0), 1)
