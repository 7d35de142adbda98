"""Acceptance gate: every stated guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test prints PASS or FAIL with the achieved numbers and then
asserts, so a red run always names the broken guarantee.
"""
import math
import time

import numpy as np

from fraclat.chain import (
    ChainSpec,
    FractionalOrder,
    build_laplacian_1d,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
)
from fraclat.continuum import (
    continuum_convergence_check,
    riesz_amplitude,
    riesz_kernel_infinite,
    riesz_kernel_periodic,
)
from fraclat.lattice import (
    LatticeSpec,
    OffsetVector,
    asymptotic_constant_nd,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
    normalized_dispersion_2d,
)

ALPHA_SET = (0.3, 0.5, 1.0, 1.5, 2.7, 3.5)


def report(index, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n{status} criterion {index:02d} {label}: {detail}")
    assert ok, f"criterion {index} failed: {detail}"


class TestAcceptance:
    def test_criterion_01_binomial_stencils(self):
        t0 = time.perf_counter()
        stencils = {2.0: (2.0, -1.0, 0.0, 0.0), 4.0: (6.0, -4.0, 1.0, 0.0, 0.0)}
        worst = 0.0
        for alpha, expected in stencils.items():
            order = FractionalOrder(alpha)
            for p in range(12):
                target = expected[p] if p < len(expected) else 0.0
                worst = max(worst, abs(element_infinite_closed(order, p) - target))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-13 and elapsed < 1.0
        report(1, "binomial stencils", ok, f"worst {worst:.3e} (limit 1e-13), {elapsed:.2f}s (< 1s)")

    def test_criterion_02_closed_vs_quadrature(self):
        t0 = time.perf_counter()
        worst = 0.0
        for alpha in ALPHA_SET:
            order = FractionalOrder(alpha)
            for p in range(31):
                a = element_infinite_closed(order, p)
                b = element_infinite_quadrature(order, p)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 10.0
        report(2, "closed form vs quadrature", ok, f"worst {worst:.3e} (limit 1e-10), {elapsed:.2f}s (< 10s)")

    def test_criterion_03_finite_lattice_dual_route(self):
        t0 = time.perf_counter()
        worst_pair = 0.0
        for alpha in ALPHA_SET:
            order = FractionalOrder(alpha)
            for n in (4, 7, 16, 101):
                chain = ChainSpec(n)
                for p in range(n):
                    a = element_periodic_bloch(order, chain, p)
                    b = element_periodic_images(order, chain, p, tol=1e-12)
                    worst_pair = max(worst_pair, abs(a - b) / max(1.0, abs(a)))
        # periodization: a 10^4 site ring must sit within N^-alpha of the
        # infinite chain profile
        n = 10_000
        chain = ChainSpec(n)
        worst_ratio = 0.0
        for alpha in ALPHA_SET:
            order = FractionalOrder(alpha)
            bound = float(n) ** -alpha
            for p in range(11):
                gap = abs(element_periodic_bloch(order, chain, p) - element_infinite_closed(order, p))
                worst_ratio = max(worst_ratio, gap / bound)
        elapsed = time.perf_counter() - t0
        ok = worst_pair <= 1e-9 and worst_ratio <= 1.0 and elapsed < 30.0
        report(
            3,
            "Bloch vs image sums and periodization",
            ok,
            f"route gap {worst_pair:.3e} (limit 1e-9), gap/N^-alpha {worst_ratio:.3f} (limit 1), "
            f"{elapsed:.2f}s (< 30s)",
        )

    def test_criterion_04_tail_asymptotics(self):
        worst_amp = 0.0
        worst_slope = 0.0
        for alpha in (0.5, 1.5):
            order = FractionalOrder(alpha)
            amplitude = math.gamma(alpha + 1.0) * math.sin(0.5 * math.pi * alpha) / math.pi
            scaled = element_infinite_closed(order, 200) * 200.0 ** (alpha + 1.0)
            worst_amp = max(worst_amp, abs(scaled + amplitude) / amplitude)
            f_lo = abs(element_infinite_closed(order, 100))
            f_hi = abs(element_infinite_closed(order, 400))
            slope = math.log(f_hi / f_lo) / math.log(4.0)
            worst_slope = max(worst_slope, abs(slope + alpha + 1.0))
        ok = worst_amp <= 0.02 and worst_slope <= 0.02
        report(
            4,
            "power law tail",
            ok,
            f"amplitude error {worst_amp:.3e} (limit 2e-2), slope error {worst_slope:.3e} (limit 2e-2)",
        )

    def test_criterion_05_semidefinite_and_translation_invariant(self):
        rng = np.random.default_rng(20260822)
        worst_eig = 0.0
        worst_sum = 0.0
        for _ in range(50):
            alpha = float(rng.uniform(0.1, 4.0))
            n = int(rng.integers(2, 129))
            order = FractionalOrder(alpha)
            matrix = build_laplacian_1d(order, ChainSpec(n))
            eigenvalues = matrix.eigenvalues()
            scale = float(np.max(np.abs(eigenvalues))) or 1.0
            worst_eig = max(worst_eig, float(np.max(eigenvalues)) / scale)
            row_sums = matrix.toarray().sum(axis=1)
            worst_sum = max(worst_sum, float(np.max(np.abs(row_sums))) / scale)
        ok = worst_eig <= 1e-10 and worst_sum <= 1e-10
        report(
            5,
            "negative semidefinite, zero row sums (50 random draws)",
            ok,
            f"max eigenvalue/scale {worst_eig:.3e}, max |row sum|/scale {worst_sum:.3e} (limits 1e-10)",
        )

    def test_criterion_06_periodic_kernel(self):
        m = 1_000_000
        s = np.arange(1, m, dtype=float)
        worst_zeta = 0.0
        for alpha in (0.4, 1.0, 1.7, 2.5):
            amp = riesz_amplitude(alpha)
            beta = alpha + 1.0
            for xi in (0.1, 0.25, 0.5):
                direct = xi**-beta + float(np.sum((s + xi) ** -beta + (s - xi) ** -beta))
                tail = ((m + xi - 0.5) ** -alpha + (m - xi - 0.5) ** -alpha) / alpha
                reference = amp * (direct + tail)
                got = riesz_kernel_periodic(alpha, 1.0, xi)
                worst_zeta = max(worst_zeta, abs(got - reference) / max(1.0, abs(got)))
        worst_decay = 0.0
        rungs = 0
        for alpha in (0.4, 1.0, 1.7, 2.5):
            x = 0.3
            k_inf = riesz_kernel_infinite(alpha, x)
            # skip decade pairs whose difference sits below float subtraction
            # resolution (at alpha = 2.5 the L = 1e4 gap is ~ 1e-15 of K)
            floor = 1e3 * np.finfo(float).eps * abs(k_inf)
            gaps = [
                riesz_kernel_periodic(alpha, length, x) - k_inf
                for length in (1e2, 1e3, 1e4)
            ]
            for a, b in zip(gaps, gaps[1:]):
                if abs(a) < floor or abs(b) < floor:
                    continue
                rungs += 1
                worst_decay = max(worst_decay, abs(a / b / 10.0 ** (alpha + 1.0) - 1.0))
        assert rungs >= 7
        ok = worst_zeta <= 1e-9 and worst_decay <= 0.05
        report(
            6,
            "zeta form vs 1e6 images, L^-(alpha+1) recovery",
            ok,
            f"image sum gap {worst_zeta:.3e} (limit 1e-9), decay rate deviation {worst_decay:.3e} (limit 5e-2)",
        )

    def test_criterion_07_continuum_limit(self):
        ok = True
        details = []
        for alpha in (0.5, 1.5):
            report_obj = continuum_convergence_check(alpha, 1.0, (0.1, 0.025, 0.00625, 0.0015625))
            errors = report_obj.errors
            monotone = all(b < a for a, b in zip(errors, errors[1:]))
            ok = ok and monotone and errors[-1] <= 0.01
            details.append(f"alpha={alpha}: final {errors[-1]:.3e}, monotone={monotone}")
        report(7, "continuum limit of scaled elements", ok, "; ".join(details) + " (limit 1e-2)")

    def test_criterion_08_nd_cross_representation(self):
        t0 = time.perf_counter()
        cases = (
            (2, 0.5, (0, 0), 512),
            (2, 1.5, (2, 1), 512),
            (3, 1.0, (1, 0, 0), 128),
        )
        worst = 0.0
        details = []
        for dim, alpha, offset_components, n_side in cases:
            order = FractionalOrder(alpha)
            offset = OffsetVector(offset_components)
            spectral = element_periodic_nd(order, LatticeSpec(dim, (n_side,) * dim), offset)
            zone = element_infinite_nd_bz(order, dim, offset)
            bessel = element_infinite_nd_bessel(order, dim, offset)
            gaps = (abs(spectral - zone), abs(zone - bessel), abs(spectral - bessel))
            worst = max(worst, *gaps)
            details.append(f"{(dim, alpha, offset_components)}: max pair gap {max(gaps):.3e}")
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-6 and elapsed < 120.0
        report(
            8,
            "spectral vs zone integral vs heat kernel Bessel integral",
            ok,
            "; ".join(details) + f" (limit 1e-6), {elapsed:.1f}s (< 120s)",
        )

    def test_criterion_09_nd_far_field_constant(self):
        order = FractionalOrder(0.5)
        f20 = element_infinite_nd_bz(order, 2, OffsetVector((20, 0)))
        f40 = element_infinite_nd_bz(order, 2, OffsetVector((40, 0)))
        slope = math.log(abs(f40) / abs(f20)) / math.log(2.0)
        slope_err = abs(slope + 2.5)
        constant = asymptotic_constant_nd(2, 0.5)
        prefactor_err = max(
            abs(-f20 * 20.0**2.5 / constant - 1.0), abs(-f40 * 40.0**2.5 / constant - 1.0)
        )
        rng = np.random.default_rng(20260822)
        worst_identity = 0.0
        for _ in range(10):
            alpha = float(rng.uniform(0.1, 3.9))
            if abs(alpha / 2.0 - round(alpha / 2.0)) < 1e-3:
                alpha += 0.01
            reference = math.gamma(alpha + 1.0) * math.sin(0.5 * math.pi * alpha) / math.pi
            worst_identity = max(
                worst_identity, abs(asymptotic_constant_nd(1, alpha) - reference) / abs(reference)
            )
        ok = slope_err <= 0.05 and prefactor_err <= 0.05 and worst_identity <= 1e-10
        report(
            9,
            "far field decay constant",
            ok,
            f"slope error {slope_err:.3f} (limit 0.05), prefactor error {prefactor_err:.3f} "
            f"(limit 0.05), 1D identity gap {worst_identity:.3e} (limit 1e-10)",
        )

    def test_criterion_10_dispersion_crossing(self):
        # three points where the lattice eigenvalue equals one: on the axis,
        # on the diagonal, and a generic split of the two sine terms
        crossing_points = (
            (math.pi / 3.0, 0.0),
            (2.0 * math.asin(math.sqrt(0.125)), 2.0 * math.asin(math.sqrt(0.125))),
            (2.0 * math.asin(math.sqrt(0.2)), 2.0 * math.asin(math.sqrt(0.05))),
        )
        target = 2.0**-1.5
        worst_cross = 0.0
        for alpha in (1.0, 1.5, 2.0, 3.0):
            order = FractionalOrder(alpha)
            for k1, k2 in crossing_points:
                value = normalized_dispersion_2d(order, k1, k2)
                worst_cross = max(worst_cross, abs(value - target))
        band_edge_gap = abs(normalized_dispersion_2d(FractionalOrder(2.0), math.pi, math.pi) - 1.0)
        ok = worst_cross <= 1e-12 and band_edge_gap <= 1e-12
        report(
            10,
            "universal crossing of dispersion sheets",
            ok,
            f"crossing gap {worst_cross:.3e}, alpha=2 band edge gap {band_edge_gap:.3e} (limits 1e-12)",
        )
