import itertools
import math
import re
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from fraclat.chain import (
    ChainSpec,
    FractionalOrder,
    element_infinite_closed,
    element_periodic_bloch,
)
import fraclat.lattice as lattice
from fraclat.cli import build_parser, cmd_dispersion
from fraclat.lattice import (
    LatticeSpec,
    OffsetVector,
    SizeLimitError,
    asymptotic_constant_nd,
    build_laplacian_nd,
    dispersion_sheet,
    dispersion_surface,
    eigenvalue_nd,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
    normalized_dispersion_2d,
)
from fraclat.special import _UNIT_ROUNDOFF, ToleranceError


class TestLatticeValidation:
    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            LatticeSpec(dim=0, sizes=())
        with pytest.raises(ValueError):
            LatticeSpec(dim=5, sizes=(4, 4, 4, 4, 4))

    def test_sizes(self):
        spec = LatticeSpec(dim=2, sizes=(8, 6))
        assert spec.n_points == 48
        with pytest.raises(ValueError, match="sizes must be integers >= 2, got inf"):
            LatticeSpec(dim=2, sizes=(math.inf, math.inf))
        with pytest.raises(ValueError):
            LatticeSpec(dim=2, sizes=(8, math.inf))
        with pytest.raises(ValueError):
            LatticeSpec(dim=2, sizes=(8, 1))
        with pytest.raises(ValueError):
            LatticeSpec(dim=2, sizes=(8,))

    def test_offset_vector(self):
        off = OffsetVector((3, -2))
        assert off.dim == 2
        torus = LatticeSpec(dim=2, sizes=(8, 8))
        order = FractionalOrder(alpha=1.3)
        assert element_periodic_nd(order, torus, off) == element_periodic_nd(
            order, torus, OffsetVector((3, 6)))
        with pytest.raises(ValueError):
            OffsetVector((1.5, 0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_inputs_raise_their_own_message(self, value):
        # not int()'s OverflowError or "cannot convert float NaN to integer"
        cases = [
            (lambda: ChainSpec(value), "size must be an integer >= 2, got"),
            (lambda: LatticeSpec(2, (8, value)), "sizes must be integers >= 2, got"),
            (lambda: OffsetVector((value, 0)), "offset components must be integers, got"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("value", [2.7, np.float64(2.7)], ids=["float", "np.float64"])
    def test_a_fractional_integer_argument_raises(self, value):
        order = FractionalOrder(1.3)
        cases = [
            (lambda: OffsetVector((value, 0)), "offset components must be integers"),
            (lambda: LatticeSpec(value, (8, 8)), "dim must be in 1..4"),
            (lambda: element_infinite_nd_bz(order, value, OffsetVector((1, 0))), "dim must be in 1..4"),
            (lambda: dispersion_surface(order, value), "grid must be an integer >= 2"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=rf"^{message}, got 2\.7$"):
                build()

    @pytest.mark.parametrize("dim", [np.int64(2), 2.0], ids=["np.int64", "float"])
    def test_an_integer_valued_dim_is_the_int(self, dim):
        order, offset = FractionalOrder(1.3), OffsetVector((1, 0))
        assert element_infinite_nd_bz(order, dim, offset) == element_infinite_nd_bz(order, 2, offset)
        assert element_infinite_nd_bessel(order, dim, offset) == element_infinite_nd_bessel(order, 2, offset)
        assert asymptotic_constant_nd(dim, 1.3) == asymptotic_constant_nd(2, 1.3)
        spec = LatticeSpec(dim, (8, 6))
        assert type(spec.dim) is int and spec == LatticeSpec(2, (8, 6))

    @pytest.mark.parametrize("value", [np.int64(5), 5.0], ids=["np.int64", "float"])
    def test_integer_valued_sizes_offsets_and_grids_are_the_int(self, value):
        order = FractionalOrder(1.3)
        spec, offset = LatticeSpec(2, (value, 8)), OffsetVector((value, -value))
        assert spec.sizes == (5, 8) and all(type(s) is int for s in spec.sizes)
        assert offset.components == (5, -5) and all(type(c) is int for c in offset.components)
        assert element_periodic_nd(order, spec, offset) == element_periodic_nd(
            order, LatticeSpec(2, (5, 8)), OffsetVector((5, -5)))
        assert np.array_equal(dispersion_surface(order, value), dispersion_surface(order, 5))


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

    def test_returns_python_float(self):
        order = FractionalOrder(alpha=1.3)
        for sizes in ((6,), (6, 4), (6, 4, 2)):
            offset = OffsetVector((1,) * len(sizes))
            assert type(element_periodic_nd(order, LatticeSpec(len(sizes), sizes), offset)) is float

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


def reference_periodic_nd(order, spec, offset):
    # the mode sum with each axis's ring built in place: the tables must reproduce it
    # bit for bit
    axes = []
    comps = (c % n for c, n in zip(offset.components, spec.sizes))
    for n_j, p_j in sorted(zip(spec.sizes, comps), key=lambda axis: -axis[0]):
        ell = np.arange(n_j)
        axes.append((4.0 * np.sin(math.pi * ell / n_j) ** 2,
                     np.cos(2.0 * math.pi * (ell * p_j % n_j) / n_j)))
    return float(order.omega_sq * lattice._tensor_sum(0.5 * order.alpha, axes) / spec.n_points)


RING_TABLE_SHAPES = [(24,), (2048,), (8, 8), (64, 33), (5, 9, 7), (16, 16, 16), (8, 8, 8, 8),
                     (2, 3, 2, 5)]


class TestRingTable:
    @pytest.mark.parametrize("sizes", RING_TABLE_SHAPES, ids=str)
    def test_mode_sum_is_bit_identical_to_the_inline_rings(self, sizes):
        rng = np.random.default_rng(len(sizes) * 1000 + sizes[0])
        spec = LatticeSpec(dim=len(sizes), sizes=sizes)
        for alpha in (0.1, 1.3, 9.9):
            order = FractionalOrder(alpha=alpha, omega_sq=1.3)
            for comps in rng.integers(-3 * max(sizes), 3 * max(sizes), (3, len(sizes))).tolist():
                offset = OffsetVector(tuple(comps))
                assert element_periodic_nd(order, spec, offset) == reference_periodic_nd(order, spec, offset)

    @pytest.mark.parametrize("sizes", [(7,), (6, 4), (64, 64), (3, 5, 4), (16, 16, 16),
                                       (2, 3, 4, 3), (8, 8, 8, 8)], ids=str)
    def test_laplacian_is_bit_identical_to_the_kappa_grid(self, sizes):
        spec = LatticeSpec(dim=len(sizes), sizes=sizes, mass=0.8)
        axes = [2.0 * np.pi * np.arange(n) / n for n in sizes]
        kappa = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        for alpha in (0.3, 1.3, 9.9):
            order = FractionalOrder(alpha=alpha, omega_sq=1.7)
            modes = order.omega_sq * eigenvalue_nd(kappa) ** (0.5 * alpha)
            table, eigenvalues = build_laplacian_nd(order, spec)
            np.testing.assert_array_equal(table, -0.8 * np.fft.ifftn(modes).real)
            np.testing.assert_array_equal(eigenvalues, -0.8 * modes + 0.0)


class TestBuildLaplacianNd:
    def test_table_matches_spectral_sum(self):
        order = FractionalOrder(alpha=1.3, omega_sq=1.7)
        for sizes in ((6, 4), (7,), (3, 5, 4), (2, 3, 4, 3), (3, 2, 2, 5)):
            lattice = LatticeSpec(dim=len(sizes), sizes=sizes, mass=0.8)
            table, eigenvalues = build_laplacian_nd(order, lattice)
            assert table.shape == eigenvalues.shape == sizes
            for p in np.ndindex(*sizes):
                expected = -0.8 * element_periodic_nd(order, lattice, OffsetVector(p))
                np.testing.assert_allclose(table[p], expected, rtol=0.0, atol=1e-13, err_msg=f"{sizes} {p}")

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
            build_laplacian_nd(FractionalOrder(1.0), LatticeSpec(2, (math.inf, math.inf)))

    @pytest.mark.parametrize("alpha, omega_sq", [(1100.0, 1.0), (3.0, 1e308)])
    def test_past_the_double_range_names_the_call(self, alpha, omega_sq):
        # the modes (8^(alpha/2) at the corner) or their scale pass the double range: no
        # inf or NaN table, and no numpy warning
        order, lattice = FractionalOrder(alpha, omega_sq=omega_sq), LatticeSpec(2, (2, 2))
        message = re.escape(f"build_laplacian_nd(alpha={alpha!r}, sizes=(2, 2)) exceeds the double range")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            build_laplacian_nd(order, lattice)
        message = re.escape(f"element_periodic_nd(alpha={alpha!r}, sizes=(2, 2), offset=(0, 1)) "
                            "exceeds the double range")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            element_periodic_nd(order, lattice, OffsetVector((0, 1)))


def reference_bz(order, comps, gauss_order):
    """2D zone integral as the full tensor product of per axis panel rules.

    The zone integral's earlier rule, kept as a reference: every axis is
    refined geometrically toward kappa_j = 0 down to 1e-8, each panel capped
    at pi / (2 (|p_j| + 1)), and the tensor product of the axis rules covers
    [0, pi]^2.
    """
    a = 0.5 * order.alpha
    t, w = np.polynomial.legendre.leggauss(gauss_order)
    s2, cw = [], []
    for p in comps:
        cap = math.pi / (2.0 * (abs(p) + 1.0))
        geometric = [math.pi]
        while geometric[-1] / 2.0 > 1e-8:
            geometric.append(geometric[-1] / 2.0)
        geometric = [0.0] + geometric[::-1]
        edges = [0.0]
        for lo, hi in zip(geometric[:-1], geometric[1:]):
            k = max(1, math.ceil((hi - lo) / cap))
            edges.extend(lo + (hi - lo) * (j + 1) / k for j in range(k))
        edges = np.array(edges)
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (0.5 * (edges[1:] + edges[:-1])[:, None] + np.outer(half, t)).ravel()
        s2.append(4.0 * np.sin(0.5 * x) ** 2)
        cw.append(np.cos(p * x) * np.outer(half, w).ravel())
    total = 0.0
    for i0 in range(0, len(s2[0]), 256):
        lam = s2[0][i0 : i0 + 256, None] + s2[1][None, :]
        total += float(cw[0][i0 : i0 + 256] @ (lam**a) @ cw[1])
    return order.omega_sq * total / math.pi**2


ZONE_ALPHAS = (0.1, 0.3, 0.5, 1.5, 3.1, 3.9)


class TestZoneIntegral:
    def test_one_dimensional_reduction(self):
        for alpha in ZONE_ALPHAS:
            order = FractionalOrder(alpha=alpha)
            for p in (0, 1, 5, 17, 200):
                np.testing.assert_allclose(
                    element_infinite_nd_bz(order, 1, OffsetVector((p,))),
                    element_infinite_closed(order, p),
                    rtol=0.0,
                    atol=1e-12,
                )

    def test_matches_tensor_product_reference_2d(self):
        for alpha in ZONE_ALPHAS:
            order = FractionalOrder(alpha=alpha, omega_sq=1.5)
            for comps in ((0, 0), (3, 5), (8, 8), (40, 0)):
                np.testing.assert_allclose(
                    element_infinite_nd_bz(order, 2, OffsetVector(comps)),
                    reference_bz(order, comps, 32),
                    rtol=0.0,
                    atol=1e-12,
                )

    def test_periodic_limit_3d(self):
        # periodic sums at N and 2N, Richardson extrapolated in the leading
        # image term N^-(3 + alpha)
        for alpha in (0.1, 1.5, 3.9):
            order = FractionalOrder(alpha=alpha)
            gain = 2.0 ** (3.0 + alpha)
            for comps in ((0, 0, 0), (2, 1, 2), (2, 2, 2)):
                offset = OffsetVector(comps)
                coarse = element_periodic_nd(order, LatticeSpec(3, (64,) * 3), offset)
                fine = element_periodic_nd(order, LatticeSpec(3, (128,) * 3), offset)
                np.testing.assert_allclose(
                    element_infinite_nd_bz(order, 3, offset),
                    (gain * fine - coarse) / (gain - 1.0),
                    rtol=0.0,
                    atol=1e-9,
                )

    # 20 points each in 2D and 3D and 2 in 4D, alpha from 0.1 to 9.9 and
    # components up to 8, 4 and 1, drawn once
    SCAN = [(dim, round(0.1 * rng.integers(1, 100), 1), tuple(int(c) for c in rng.integers(0, top + 1, dim)))
            for rng in [np.random.default_rng(20261022)]
            for dim, top, count in ((2, 8, 20), (3, 4, 20), (4, 1, 2)) for _ in range(count)]

    def test_scan_within_last_places_of_order_32(self):
        # the returned order 24 value against order 32: within 4 last places
        # of the element at the origin, S, whose place sets the cancelling
        # sum's rounding (at most 1.9 u S over five such scans).  Order 40 is
        # no finer reference: numpy's 40 point Legendre rule integrates x^8
        # 240 u off, and its values sit up to 15 u S from the heat kernel
        # route, where orders 24 and 32 sit within 3.3
        for dim, alpha, comps in self.SCAN:
            order = FractionalOrder(alpha)
            scale = abs(element_infinite_nd_bz(order, dim, OffsetVector((0,) * dim)))
            reference, _ = lattice._bz_value(0.5 * alpha, comps, 32)
            value = element_infinite_nd_bz(order, dim, OffsetVector(comps))
            assert abs(value - reference) <= 4.0 * _UNIT_ROUNDOFF * scale, (dim, alpha, comps)

    def test_work_of_a_3d_element(self, monkeypatch):
        # the shells take about 2.0e6 power evaluations here, a tensor product of
        # the per axis refined rules (reference_bz) about 1.4e9
        evaluations = []
        tensor_sum = lattice._tensor_sum

        def counting_tensor_sum(a, axes):
            # stacked shells times the nodes of one shell's box
            evaluations.append(len(axes[0][0]) * math.prod(s2.shape[-1] for s2, _ in axes))
            return tensor_sum(a, axes)

        monkeypatch.setattr(lattice, "_tensor_sum", counting_tensor_sum)
        element_infinite_nd_bz(FractionalOrder(alpha=1.3), 3, OffsetVector((2, 1, 2)))
        assert 0 < sum(evaluations) <= 2.5e6

    def test_estimate_covers_the_cube_left_out(self):
        # at the origin the two Gauss orders differ by one last place; the cube
        # the shells leave out, at most a quarter of a last place, raises the
        # estimate above it
        order = FractionalOrder(alpha=0.5)
        (coarse, _), (fine, left_out) = (lattice._bz_value(0.25, (0, 0), n) for n in lattice._BZ_GAUSS_ORDERS)
        assert 0.0 < left_out <= 0.25 * math.ulp(fine)
        with pytest.raises(ToleranceError) as failure:
            element_infinite_nd_bz(order, 2, OffsetVector((0, 0)), tol=1e-30)
        assert failure.value.achieved == abs(fine - coarse) + left_out > math.ulp(fine)

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
        with pytest.raises(ValueError, match="dim must be in 1..4"):
            element_infinite_nd_bz(order, 5, OffsetVector((0, 0, 0, 0, 0)))
        with pytest.raises(ValueError, match="offset has 1 components"):
            element_infinite_nd_bz(order, 2, OffsetVector((1,)))

    @pytest.mark.parametrize("alpha, comps", [(9.9, (1, 0, 0, 0)), (1.4, (1, 1, 0, 0))])
    def test_matches_heat_kernel_route_4d(self, alpha, comps):
        order, offset = FractionalOrder(alpha), OffsetVector(comps)
        reference = element_infinite_nd_bessel(order, 4, offset)
        value = element_infinite_nd_bz(order, 4, offset)
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))

    @pytest.mark.parametrize("alpha, comps", [(2.0, (1, 0, 0, 0)), (4.0, (0, 0, 0, 0))])
    def test_integer_orders_match_the_stencil_4d(self, alpha, comps):
        # (-Laplacian)^m is the m-th power of the 4D stencil: a sum over the
        # ways m steps split among the axes of the 1D binomial stencils
        m = round(alpha / 2)
        exact = sum(
            math.factorial(m) // math.prod(math.factorial(k) for k in split)
            * math.prod((-1) ** abs(p) * math.comb(2 * k, k + abs(p)) for k, p in zip(split, comps))
            for split in itertools.product(range(m + 1), repeat=4) if sum(split) == m
        )
        value = element_infinite_nd_bz(FractionalOrder(alpha), 4, OffsetVector(comps))
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_tensor_pass_stays_in_its_block(self):
        # with both far components beside axis 0 the grid of the other axes
        # holds 1024^2 points, 8 MB; no array may pass _BZ_BLOCK (1 MB)
        tracemalloc.start()
        try:
            element_infinite_nd_bz(FractionalOrder(alpha=1.3), 3, OffsetVector((0, 60, 60)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_a_3d_element_holds_under_a_megabyte(self):
        # the order 24 pass holds 0.71 MiB at its peak here, an order 32 pass 1.15
        tracemalloc.start()
        try:
            element_infinite_nd_bz(FractionalOrder(alpha=1.3), 3, OffsetVector((2, 2, 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.85 * 2**20

    def test_tolerance_failure_reported(self):
        order = FractionalOrder(alpha=0.3)
        with pytest.raises(ToleranceError):
            element_infinite_nd_bz(order, 2, OffsetVector((7, 3)), tol=1e-30)

    def test_tolerance_failure_reported_3d(self):
        order = FractionalOrder(alpha=0.3)
        with pytest.raises(ToleranceError) as failure:
            element_infinite_nd_bz(order, 3, OffsetVector((2, 1, 2)), tol=1e-30)
        assert 0.0 < failure.value.achieved < math.inf

    def test_tolerance_bounds_the_scaled_value(self):
        # the orders differ by 1.1e-7 here once scaled by omega_sq; the
        # unscaled difference, 1.1e-19, used to pass a 1e-9 bound
        order = FractionalOrder(alpha=0.3, omega_sq=1e12)
        value = element_infinite_nd_bz(order, 2, OffsetVector((8, 8)), tol=1e-6)
        with pytest.raises(ToleranceError) as failure:
            element_infinite_nd_bz(order, 2, OffsetVector((8, 8)), tol=1e-9)
        assert 1e-9 < failure.value.achieved < 1e-6
        unscaled = element_infinite_nd_bz(FractionalOrder(alpha=0.3), 2, OffsetVector((8, 8)))
        assert value == 1e12 * unscaled

    def test_estimate_not_below_last_place(self):
        # both Gauss orders give the same double at the origin; a tolerance
        # below the result's last place still cannot be met
        order = FractionalOrder(alpha=0.3)
        value = element_infinite_nd_bz(order, 2, OffsetVector((0, 0)))
        with pytest.raises(ToleranceError) as failure:
            element_infinite_nd_bz(order, 2, OffsetVector((0, 0)), tol=1e-30)
        assert failure.value.achieved >= math.ulp(value)

    def test_axis_decay_slope(self):
        # far field decay p^-(dim + alpha) along a lattice axis
        order = FractionalOrder(alpha=0.5)
        f20 = element_infinite_nd_bz(order, 2, OffsetVector((20, 0)))
        f40 = element_infinite_nd_bz(order, 2, OffsetVector((40, 0)))
        slope = math.log(abs(f40) / abs(f20)) / math.log(2.0)
        assert abs(slope + 2.5) < 0.05
        predicted = -asymptotic_constant_nd(2, 0.5) * 40.0**-2.5
        assert abs(f40 / predicted - 1.0) < 0.05


ODD_ALPHAS = tuple(round(0.1 + 0.2 * i, 1) for i in range(20))  # 0.1, 0.3, ..., 3.9


class TestBesselRoute:
    def test_matches_closed_form_1d(self):
        for alpha in ODD_ALPHAS + (7.7, 15.5, 30.5):
            order = FractionalOrder(alpha=alpha)
            for p in (0, 1, 5, 17, 200, 2000):
                expected = element_infinite_closed(order, p)
                value = element_infinite_nd_bessel(
                    order, 1, OffsetVector((p,)), tol=1e-12 * max(1.0, abs(expected))
                )
                assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), (alpha, p)

    def test_matches_zone_integral_2d(self):
        for alpha in ODD_ALPHAS:
            order = FractionalOrder(alpha=alpha, omega_sq=1.5)
            for comps in ((0, 0), (3, 5), (8, 8), (40, 0)):
                np.testing.assert_allclose(
                    element_infinite_nd_bessel(order, 2, OffsetVector(comps)),
                    element_infinite_nd_bz(order, 2, OffsetVector(comps)),
                    rtol=0.0,
                    atol=1e-12,
                )

    def test_matches_zone_integral_3d(self):
        # one 3D zone integral per order keeps this under a few seconds
        offsets = ((0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0))
        for i, alpha in enumerate(ODD_ALPHAS):
            order = FractionalOrder(alpha=alpha)
            offset = OffsetVector(offsets[i % len(offsets)])
            np.testing.assert_allclose(
                element_infinite_nd_bessel(order, 3, offset),
                element_infinite_nd_bz(order, 3, offset),
                rtol=0.0,
                atol=1e-12,
            )

    def test_periodic_limit_4d(self):
        # periodic sums at N = 24 and 48, Richardson extrapolated in the
        # leading image term N^-(4 + alpha), give 1.6580534235 at the origin
        value = element_infinite_nd_bessel(FractionalOrder(alpha=0.5), 4, OffsetVector((0,) * 4))
        assert abs(value - 1.6580534235) <= 1e-9
        order = FractionalOrder(alpha=3.7)
        offset = OffsetVector((1, 1, 0, 0))
        gain = 2.0 ** (4.0 + 3.7)
        coarse = element_periodic_nd(order, LatticeSpec(4, (16,) * 4), offset)
        fine = element_periodic_nd(order, LatticeSpec(4, (32,) * 4), offset)
        np.testing.assert_allclose(
            element_infinite_nd_bessel(order, 4, offset),
            (gain * fine - coarse) / (gain - 1.0),
            rtol=0.0,
            atol=1e-9,
        )

    def test_near_integer_orders(self):
        # 1/Gamma(-a) comes from math.gamma, whose reflection keeps its digits next to the poles
        for alpha, p in ((1.9999999, 1), (2.0000002, 0), (3.9999999, 2), (4.0000001, 3), (0.001, 0)):
            order = FractionalOrder(alpha=alpha)
            np.testing.assert_allclose(
                element_infinite_nd_bessel(order, 1, OffsetVector((p,))),
                element_infinite_closed(order, p),
                rtol=1e-13,
                atol=1e-15,
            )

    def test_series_runs_past_the_offset(self):
        # near p = alpha/2 the element is 1e-12 of f(0): a Taylor series cut
        # after the J terms the split point needs, instead of P + J, misses by
        # 1e-12 here (references: the binomial form in 30 digit mpmath)
        for alpha, expected in ((39.0, 0.08948540395106883), (39.05, 0.10285096553851869)):
            value = element_infinite_nd_bessel(FractionalOrder(alpha), 1, OffsetVector((20,)), tol=1e-13)
            assert abs(value - expected) <= 1e-13

    # (alpha, offset, tol, reference): the 1D ones are the binomial form in
    # 60-digit mpmath; the 2D and 3D ones are (2d)^a sum_n (-1)^n C(a, n) P_n(p),
    # P_n(p) the chance that an n-step walk on Z^d ends at p, in 150-digit mpmath,
    # a binomial expansion of lambda^a that shares nothing with the route
    LARGE_ORDERS = (
        (150.1, (74,), 1e-9, 188.62381538854955798),
        (100.3, (49,), 1e-9, -186.43320694535788812),
        (150.1, (50, 40), 1e-6, 0.009684211860900317596),
        (240.819, (84, -80), 1e-9, -1.3575915976782856505e-19),
        (245.9, (-86, -95, -51), 1e-9, -2.798379753900275966e-44),
    )

    @pytest.mark.parametrize("alpha, comps, tol, reference", LARGE_ORDERS)
    def test_large_orders_raise_or_meet_their_estimate(self, alpha, comps, tol, reference):
        # the heat kernel series cancels like e^a: its rounding is part of the
        # estimate, and its scaled terms neither overflow nor underflow (a
        # RuntimeWarning fails the test)
        order, offset = FractionalOrder(alpha), OffsetVector(comps)
        with pytest.raises(ToleranceError) as failure:  # the estimate, whatever tol
            element_infinite_nd_bessel(order, len(comps), offset, tol=1e-300)
        estimate = failure.value.achieved
        assert math.isfinite(estimate)
        if estimate > tol:
            with pytest.raises(ToleranceError):
                element_infinite_nd_bessel(order, len(comps), offset, tol=tol)
        else:
            value = element_infinite_nd_bessel(order, len(comps), offset, tol=tol)
            assert abs(value - reference) <= estimate

    def test_integer_half_rejected(self):
        order = FractionalOrder(alpha=2.0)
        with pytest.raises(ValueError, match="non integer alpha/2"):
            element_infinite_nd_bessel(order, 1, OffsetVector((0,)))

    def test_parameter_validation(self):
        order = FractionalOrder(alpha=0.5)
        with pytest.raises(ValueError, match="dim must be in 1..4"):
            element_infinite_nd_bessel(order, 5, OffsetVector((0, 0, 0, 0, 0)))
        with pytest.raises(ValueError, match="offset has 1 components"):
            element_infinite_nd_bessel(order, 2, OffsetVector((1,)))

    def test_extrapolated_argument_checks_run_first(self, monkeypatch):
        # every argument check fires before a Bessel function is evaluated,
        # also under the older name the benchmark times the route by
        def no_bessel(n, x):
            raise AssertionError(f"ive({n}) evaluated before the argument checks")

        monkeypatch.setattr(lattice, "ive", no_bessel)
        route = lattice.bessel_element_extrapolated
        cases = (
            (FractionalOrder(alpha=2.0), 1, (0,), "non integer alpha/2"),
            (FractionalOrder(alpha=400.5), 1, (0,), "alpha <= 256"),
            (FractionalOrder(alpha=0.5), 5, (0, 0, 0, 0, 0), "dim must be in 1..4"),
            (FractionalOrder(alpha=0.5), 2, (1,), "offset has 1 components"),
        )
        for order, dim, comps, message in cases:
            with pytest.raises(ValueError, match=message):
                route(order, dim, OffsetVector(comps))

    def test_tolerance_failure_reported(self):
        order = FractionalOrder(alpha=0.5)
        with pytest.raises(ToleranceError) as failure:
            element_infinite_nd_bessel(order, 1, OffsetVector((1,)), tol=1e-30)
        value = element_infinite_nd_bessel(order, 1, OffsetVector((1,)))
        assert math.ulp(value) <= failure.value.achieved < math.inf

    def test_tolerance_bounds_the_scaled_value(self):
        # the estimate carries omega_sq, like the value it bounds
        order = FractionalOrder(alpha=0.3, omega_sq=1e12)
        value = element_infinite_nd_bessel(order, 2, OffsetVector((8, 8)), tol=1.0)
        with pytest.raises(ToleranceError) as failure:
            element_infinite_nd_bessel(order, 2, OffsetVector((8, 8)), tol=1e-9)
        assert failure.value.achieved >= math.ulp(value) > 1e-9

    def test_far_offsets_raise_instead_of_nan(self):
        # past p ~ 9e4 at this order the heat kernel lives beyond the last
        # panel, where its Hankel expansion diverges: the route reports that,
        # never a NaN
        order = FractionalOrder(alpha=1.3)
        for comps in ((10**5,), (10**6, 0), (10**9, 1, 0)):
            with pytest.raises(ToleranceError) as failure:
                element_infinite_nd_bessel(order, len(comps), OffsetVector(comps))
            assert not math.isnan(failure.value.achieved)

    def test_values_out_of_range_raise_instead_of_nan(self):
        # even the largest tolerance does not pass an overflowed value, which
        # is reported as the range the value left, not as its inf estimate
        loose = sys.float_info.max
        order = FractionalOrder(alpha=31.5, omega_sq=1e300)
        message = r"^element_infinite_nd_bessel\(alpha=31\.5, offset=\(0, 0\)\) exceeds the double range$"
        with pytest.raises(OverflowError, match=message):
            element_infinite_nd_bessel(order, 2, OffsetVector((0, 0)), loose)
        # the route takes orders up to 256
        value = element_infinite_nd_bessel(FractionalOrder(alpha=255.5), 1, OffsetVector((3,)), loose)
        assert math.isfinite(value)
        with pytest.raises(ValueError, match="alpha <= 256"):
            element_infinite_nd_bessel(FractionalOrder(alpha=400.5), 1, OffsetVector((0,)))

    def test_component_symmetry(self):
        order = FractionalOrder(alpha=1.5)
        base = element_infinite_nd_bessel(order, 3, OffsetVector((2, 1, 0)))
        for comps in ((1, 2, 0), (-2, 1, 0), (0, 2, -1), (0, -1, -2)):
            assert element_infinite_nd_bessel(order, 3, OffsetVector(comps)) == base


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_next_to_integer_half_orders(self, dim):
        # the sine is taken of the reduced alpha/2 - round(alpha/2); sin(pi alpha / 2)
        # of the unreduced order was 7.9e-8 relative off at alpha = 4.000000001.
        # The lgamma sums cost up to 9.3e-14 at alpha about 100.
        for alpha in (2.0000001, 4.000000001, 100.0000001, 0.3, 5.7):
            with mpmath.workdps(40):
                a = mpmath.mpf(alpha)
                expected = float(
                    2 ** (a - 1) * a * mpmath.gamma((a + dim) / 2) * mpmath.gamma(a / 2)
                    * mpmath.sinpi(a / 2) / mpmath.pi ** (mpmath.mpf(dim) / 2 + 1)
                )
            np.testing.assert_allclose(asymptotic_constant_nd(dim, alpha), expected, rtol=2e-13)

    def test_sign_pattern(self):
        assert asymptotic_constant_nd(2, 0.5) > 0.0
        assert asymptotic_constant_nd(2, 2.5) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_constant_nd(0, 1.0)
        with pytest.raises(ValueError):
            asymptotic_constant_nd(2, -1.0)

    def test_past_the_double_range_names_the_call(self):
        # C passes the double range in 4D from alpha about 170; exp of its log magnitude
        # raised a bare "math range error" there
        assert math.isfinite(asymptotic_constant_nd(4, 168.5))
        with pytest.raises(OverflowError, match=r"^asymptotic_constant_nd\(dim=4, alpha=300\.5\) exceeds the double range$"):
            asymptotic_constant_nd(4, 300.5)


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

    @pytest.mark.parametrize("alphas", [(1.3,), (0.7, 2.0, 5.9)])
    @pytest.mark.parametrize("grid", range(2, 10))
    def test_factored_sheet_expands_to_the_full_grid(self, grid, alphas):
        # the sheet evaluated on every grid point, kappa2 fastest, alpha by alpha
        axis = np.linspace(0.0, math.pi, grid)
        k1, k2 = np.meshgrid(axis, axis, indexing="ij")
        surfaces = [np.column_stack([k1.ravel(), k2.ravel(),
                                     normalized_dispersion_2d(FractionalOrder(a), k1, k2).ravel()])
                    for a in alphas]
        for alpha, surface in zip(alphas, surfaces):
            _, values, index = dispersion_sheet(FractionalOrder(alpha), grid)
            assert (len(values), index.shape) == (grid * (grid + 1) // 2, (grid, grid))
            assert dispersion_surface(FractionalOrder(alpha), grid).tobytes() == surface.tobytes()
        # the CLI's factored columns expand to the same rows, bit for bit
        args = build_parser().parse_args(["dispersion", "--dim", "2", "--grid", str(grid),
                                          *(f"--alpha={a}" for a in alphas)])
        record, _ = cmd_dispersion(args)
        expected = np.concatenate([np.column_stack([np.full(grid**2, a), surface])
                                   for a, surface in zip(alphas, surfaces)])
        assert np.array(record.rows).tobytes() == expected.tobytes()
