"""Built-in cross-validation suites.

Each check recomputes a quantity by two independent routes and yields the
gaps between them; run_suite reports the worst gap against a tolerance.
Checks are grouped into three suites (oracles, asymptotics, continuum); the
combined suite runs them all.  Tolerances can be overridden per check by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chain import (
    ChainSpec,
    FractionalOrder,
    build_laplacian_1d,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
)
from .continuum import (
    continuum_convergence_check,
    riesz_amplitude,
    riesz_kernel_infinite,
    riesz_kernel_periodic,
)
from .lattice import (
    LatticeSpec,
    OffsetVector,
    asymptotic_constant_nd,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
)
from .special import require_positive_finite

__all__ = ["CheckResult", "SUITES", "available_checks", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    passed: bool
    achieved: float
    tolerance: float

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _check_integer_order_stencils():
    # classical and biharmonic stencils have exact signed binomial entries
    for alpha, table in ((2.0, {0: 2.0, 1: -1.0, 2: 0.0, 3: 0.0}),
                         (4.0, {0: 6.0, 1: -4.0, 2: 1.0, 3: 0.0, 4: 0.0})):
        order = FractionalOrder(alpha)
        for p, expected in table.items():
            yield abs(element_infinite_closed(order, p) - expected)


def _check_closed_vs_quadrature():
    # near offsets over a range of orders, plus one far offset whose panels
    # must resolve thousands of oscillations of cos(kappa p)
    cases = [(alpha, p) for alpha in (0.3, 0.5, 1.0, 1.5, 2.7, 3.5) for p in range(0, 13, 2)]
    for alpha, p in cases + [(1.5, 5000)]:
        yield _relative_gap(element_infinite_quadrature(FractionalOrder(alpha), p),
                            element_infinite_closed(FractionalOrder(alpha), p))


def _check_bloch_vs_images():
    for alpha in (0.5, 1.2, 2.8):
        order = FractionalOrder(alpha)
        for n in (4, 16, 101):
            chain = ChainSpec(n)
            for p in range(0, n, max(1, n // 5)):
                yield _relative_gap(element_periodic_images(order, chain, p, tol=1e-12),
                                    element_periodic_bloch(order, chain, p))


def _check_laplacian_spectrum():
    # eigenvalues of the assembled circulant must match the analytic modes
    for alpha, n in ((0.7, 12), (1.5, 33), (3.2, 8)):
        order = FractionalOrder(alpha)
        modes = 2.0 * np.pi * np.arange(n) / n
        expected = -order.omega_sq * (4.0 * np.sin(modes / 2.0) ** 2) ** (alpha / 2.0)
        got = np.sort(build_laplacian_1d(order, ChainSpec(n)).eigenvalues())
        yield float(np.max(np.abs(got - np.sort(expected))))


def _check_nd_spectral_vs_chain():
    # the one dimensional spectral sum must reduce to the ring's FFT-built row
    for alpha in (0.6, 1.4, 2.9):
        order = FractionalOrder(alpha)
        row = -build_laplacian_1d(order, ChainSpec(24)).first_row
        for p in (0, 1, 5, 11):
            yield abs(element_periodic_nd(order, LatticeSpec(1, (24,)), OffsetVector((p,))) - row[p])


def _check_nd_bz_vs_chain():
    # infinite lattice Brillouin quadrature in one dimension vs closed form
    for alpha in (0.5, 1.5, 3.1):
        order = FractionalOrder(alpha)
        for p in (0, 1, 7, 300):
            a = element_infinite_nd_bz(order, 1, OffsetVector((p,)))
            yield abs(a - element_infinite_closed(order, p))


def _check_nd_bessel_vs_chain():
    # heat kernel route in one dimension vs closed form
    for alpha in (0.5, 1.5, 3.1):
        order = FractionalOrder(alpha)
        for p in (0, 1, 7):
            yield _relative_gap(element_infinite_nd_bessel(order, 1, OffsetVector((p,))),
                                element_infinite_closed(order, p))


def _check_nd_bessel_vs_nd_bz():
    # heat kernel route vs Brillouin zone integral on the square lattice
    for alpha, comps in ((0.3, (0, 0)), (1.3, (1, 4)), (2.7, (3, 1)), (1.3, (40, 3))):
        order, offset = FractionalOrder(alpha), OffsetVector(comps)
        yield _relative_gap(element_infinite_nd_bessel(order, 2, offset),
                            element_infinite_nd_bz(order, 2, offset))


def _check_nd_bessel_vs_periodic_4d():
    # 4D heat kernel route vs a 16^4 periodic sum: its images are about
    # 16^-13.9 at alpha = 9.9
    order, offset = FractionalOrder(9.9), OffsetVector((1, 0, 0, 0))
    yield _relative_gap(element_infinite_nd_bessel(order, 4, offset),
                        element_periodic_nd(order, LatticeSpec(4, (16,) * 4), offset))


def _check_chain_tail_amplitude():
    # p**(alpha+1) * element approaches the negated reflection amplitude
    p = 200
    for alpha in (0.5, 1.5):
        order = FractionalOrder(alpha)
        target = -riesz_amplitude(alpha)
        scaled = element_infinite_closed(order, p) * float(p) ** (alpha + 1.0)
        yield abs(scaled - target) / abs(target)


def _check_chain_tail_slope():
    # log-log decay rate of the coupling profile matches -(alpha + 1)
    p_lo, p_hi = 100, 400
    for alpha in (0.5, 1.5):
        order = FractionalOrder(alpha)
        f_lo, f_hi = (abs(element_infinite_closed(order, p)) for p in (p_lo, p_hi))
        slope = (math.log(f_hi) - math.log(f_lo)) / (math.log(p_hi) - math.log(p_lo))
        yield abs(slope + alpha + 1.0)


def _check_amplitude_identity():
    # the 1D far field constant equals the chain reflection amplitude, at ten
    # orders drawn once by np.random.default_rng(20260822).uniform(0.1, 3.9)
    for alpha in (2.247365230962281, 0.8485692480396332, 2.965226044417119, 1.0348101648290546,
                  1.0771883418861168, 0.5001467899598085, 0.3910719621533443, 0.9111881475215712,
                  3.384151982420547, 2.613943516275599):
        b = riesz_amplitude(alpha)
        yield abs(asymptotic_constant_nd(1, alpha) - b) / abs(b)


def _check_kernel_zeta_vs_images():
    # periodic kernel: Hurwitz zeta form against the direct sum over the images
    # s = 1 .. m - 1, taken 2^14 images at a time in two reused buffers and the
    # block sums added into direct
    m, block = 200_000, 2**14
    plus, minus = np.empty(block), np.empty(block)
    for alpha in (0.4, 1.0, 1.7, 2.5):
        amp = riesz_amplitude(alpha)
        beta = alpha + 1.0
        for xi in (0.1, 0.25, 0.5):
            direct = xi**-beta
            for start in range(1, m, block):
                s = np.arange(start, min(start + block, m), dtype=float)
                p, q = plus[:s.size], minus[:s.size]
                np.power(np.add(s, xi, out=p), -beta, out=p)
                p += np.power(np.subtract(s, xi, out=q), -beta, out=q)
                direct += float(np.sum(p))
            # midpoint tail estimate for both image directions
            tail = ((m + xi - 0.5) ** -alpha + (m - xi - 0.5) ** -alpha) / alpha
            reference = amp * (direct + tail)
            yield _relative_gap(reference, riesz_kernel_periodic(alpha, 1.0, xi))


def _check_continuum_convergence(tol):
    # one (row, achieved, bar) per spacing: each error must undercut the
    # previous spacing's, and the finest spacing must also meet tol
    h_values = (0.1, 0.025, 0.00625, 0.0015625)
    errors = np.zeros(len(h_values))
    for alpha in (0.5, 1.5):
        report = continuum_convergence_check(alpha, 1.0, h_values)
        errors = np.maximum(errors, report.errors)
    previous = math.inf
    for i, err in enumerate(errors):
        bar = previous if i + 1 < len(h_values) else min(previous, tol)
        yield f"continuum_error_h{i}", float(err), bar
        previous = float(err)


def _check_kernel_periodization_decay():
    # K_L - K_inf shrinks like L**-(alpha+1); compare successive decades
    x = 0.3
    for alpha in (0.6, 1.8):
        k_inf = riesz_kernel_infinite(alpha, x)
        gaps = [riesz_kernel_periodic(alpha, length, x) - k_inf for length in (1e2, 1e3, 1e4)]
        for a, b in zip(gaps, gaps[1:]):
            yield abs(a / b / 10.0 ** (alpha + 1.0) - 1.0)


class _Check(NamedTuple):
    name: str
    gaps: Callable
    tol: float
    rows: bool = False  # gaps(tol) yields one (row, achieved, bar) per result row


# the checks of each suite, in row order
_CHECKS = {
    "oracles": (
        _Check("integer_order_stencils", _check_integer_order_stencils, 1e-13),
        _Check("closed_vs_quadrature", _check_closed_vs_quadrature, 1e-10),
        _Check("bloch_vs_images", _check_bloch_vs_images, 1e-13),
        _Check("laplacian_spectrum", _check_laplacian_spectrum, 1e-10),
        _Check("nd_spectral_vs_chain", _check_nd_spectral_vs_chain, 1e-13),
        _Check("nd_bz_vs_chain", _check_nd_bz_vs_chain, 1e-9),
        _Check("nd_bessel_vs_chain", _check_nd_bessel_vs_chain, 1e-12),
        _Check("nd_bessel_vs_nd_bz", _check_nd_bessel_vs_nd_bz, 1e-12),
        _Check("nd_bessel_vs_periodic_4d", _check_nd_bessel_vs_periodic_4d, 1e-12),
    ),
    "asymptotics": (
        _Check("chain_tail_amplitude", _check_chain_tail_amplitude, 2e-2),
        _Check("chain_tail_slope", _check_chain_tail_slope, 2e-2),
        _Check("amplitude_identity", _check_amplitude_identity, 1e-10),
    ),
    "continuum": (
        _Check("kernel_zeta_vs_images", _check_kernel_zeta_vs_images, 1e-9),
        _Check("continuum_convergence", _check_continuum_convergence, 1e-2, rows=True),
        _Check("kernel_periodization_decay", _check_kernel_periodization_decay, 0.1),
    ),
}
SUITES = tuple(_CHECKS)


def available_checks() -> tuple:
    return tuple(check.name for checks in _CHECKS.values() for check in checks)


def run_suite(suite: str = "all", tol_overrides: dict | None = None) -> tuple:
    """Run one suite (or all of them) and return a tuple of CheckResult.

    A check passes when its worst gap is at most its tolerance; a NaN gap
    fails it.  tol_overrides maps check names to replacement tolerances, each
    positive and finite (ValueError otherwise); the continuum convergence scan
    expands into one result row per spacing, whose final row carries the
    overridable bar.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all',) + SUITES}")
    overrides = dict(tol_overrides or {})
    unknown = set(overrides) - set(available_checks())
    if unknown:
        raise ValueError(f"tolerance override for unknown check(s): {sorted(unknown)}")
    for name, tol in overrides.items():
        require_positive_finite(f"tolerance override {name}", float(tol))
    results = []
    for check_suite in SUITES if suite == "all" else (suite,):
        for check in _CHECKS[check_suite]:
            tol = float(overrides.get(check.name, check.tol))
            # np.max, unlike max, propagates a NaN gap
            rows = check.gaps(tol) if check.rows else [
                (check.name, float(np.max(np.fromiter(check.gaps(), float), initial=0.0)), tol)]
            results.extend(CheckResult(name, check_suite, achieved <= bar, achieved, bar)
                           for name, achieved, bar in rows)
    return tuple(results)
