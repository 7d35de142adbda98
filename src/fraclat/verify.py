"""Built-in cross-validation suites.

Each check recomputes a quantity by two independent routes and reports the
achieved disagreement against a tolerance.  Checks are grouped into three
suites (oracles, asymptotics, continuum); the combined suite runs them all.
Tolerances can be overridden per check by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    KernelSpec,
    continuum_convergence_check,
    riesz_amplitude,
    riesz_kernel_infinite,
    riesz_kernel_periodic,
)
from .lattice import (
    LatticeSpec,
    OffsetVector,
    asymptotic_constant_nd,
    element_infinite_nd_bz,
    element_periodic_nd,
)

__all__ = ["CheckResult", "SUITES", "available_checks", "run_suite"]

SUITES = ("oracles", "asymptotics", "continuum")


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


def _result(name, suite, achieved, tolerance):
    return CheckResult(name, suite, achieved <= tolerance, achieved, tolerance)


# ---------------------------------------------------------------- oracles


def _check_integer_order_stencils(tol):
    # classical and biharmonic stencils have exact signed binomial entries
    worst = 0.0
    targets = {
        2.0: {0: 2.0, 1: -1.0, 2: 0.0, 3: 0.0},
        4.0: {0: 6.0, 1: -4.0, 2: 1.0, 3: 0.0, 4: 0.0},
    }
    for alpha, table in targets.items():
        order = FractionalOrder(alpha)
        for p, expected in table.items():
            got = element_infinite_closed(order, p)
            worst = max(worst, abs(got - expected))
    return _result("integer_order_stencils", "oracles", worst, tol)


def _check_closed_vs_quadrature(tol):
    worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 1.5, 2.7, 3.5):
        order = FractionalOrder(alpha)
        for p in range(0, 13, 2):
            a = element_infinite_closed(order, p)
            b = element_infinite_quadrature(order, p)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return _result("closed_vs_quadrature", "oracles", worst, tol)


def _check_bloch_vs_images(tol):
    worst = 0.0
    for alpha in (0.5, 1.2, 2.8):
        order = FractionalOrder(alpha)
        for n in (4, 16, 101):
            chain = ChainSpec(n)
            for p in range(0, n, max(1, n // 5)):
                a = element_periodic_bloch(order, chain, p)
                b = element_periodic_images(order, chain, p, tol=1e-12)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return _result("bloch_vs_images", "oracles", worst, tol)


def _check_laplacian_spectrum(tol):
    # eigenvalues of the assembled circulant must match the analytic modes
    worst = 0.0
    for alpha, n in ((0.7, 12), (1.5, 33), (3.2, 8)):
        order = FractionalOrder(alpha)
        matrix = build_laplacian_1d(order, ChainSpec(n))
        modes = 2.0 * np.pi * np.arange(n) / n
        expected = -order.omega_sq * (4.0 * np.sin(modes / 2.0) ** 2) ** (alpha / 2.0)
        got = np.sort(matrix.eigenvalues())
        worst = max(worst, float(np.max(np.abs(got - np.sort(expected)))))
    return _result("laplacian_spectrum", "oracles", worst, tol)


def _check_nd_spectral_vs_chain(tol):
    # the one dimensional spectral sum must reduce to the ring element
    worst = 0.0
    for alpha in (0.6, 1.4, 2.9):
        order = FractionalOrder(alpha)
        n = 24
        lattice = LatticeSpec(1, (n,))
        chain = ChainSpec(n)
        for p in (0, 1, 5, 11):
            a = element_periodic_nd(order, lattice, OffsetVector((p,)))
            b = element_periodic_bloch(order, chain, p)
            worst = max(worst, abs(a - b))
    return _result("nd_spectral_vs_chain", "oracles", worst, tol)


def _check_nd_bz_vs_chain(tol):
    # infinite lattice Brillouin quadrature in one dimension vs closed form
    worst = 0.0
    for alpha in (0.5, 1.5, 3.1):
        order = FractionalOrder(alpha)
        for p in (0, 1, 7):
            a = element_infinite_nd_bz(order, 1, OffsetVector((p,)))
            b = element_infinite_closed(order, p)
            worst = max(worst, abs(a - b))
    return _result("nd_bz_vs_chain", "oracles", worst, tol)


# ------------------------------------------------------------ asymptotics


def _check_chain_tail_amplitude(tol):
    # p**(alpha+1) * element approaches the negated reflection amplitude
    worst = 0.0
    p = 200
    for alpha in (0.5, 1.5):
        order = FractionalOrder(alpha)
        target = -riesz_amplitude(alpha)
        scaled = element_infinite_closed(order, p) * float(p) ** (alpha + 1.0)
        worst = max(worst, abs(scaled - target) / abs(target))
    return _result("chain_tail_amplitude", "asymptotics", worst, tol)


def _check_chain_tail_slope(tol):
    # log-log decay rate of the coupling profile matches -(alpha + 1)
    worst = 0.0
    for alpha in (0.5, 1.5):
        order = FractionalOrder(alpha)
        p_lo, p_hi = 100, 400
        f_lo = abs(element_infinite_closed(order, p_lo))
        f_hi = abs(element_infinite_closed(order, p_hi))
        slope = (math.log(f_hi) - math.log(f_lo)) / (math.log(p_hi) - math.log(p_lo))
        worst = max(worst, abs(slope + alpha + 1.0))
    return _result("chain_tail_slope", "asymptotics", worst, tol)


def _check_amplitude_identity(tol):
    # the 1D far field constant equals the chain reflection amplitude
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.1, 3.9))
        if abs(alpha / 2.0 - round(alpha / 2.0)) < 1e-3:
            alpha += 0.01
        a = asymptotic_constant_nd(1, alpha)
        b = riesz_amplitude(alpha)
        worst = max(worst, abs(a - b) / abs(b))
    return _result("amplitude_identity", "asymptotics", worst, tol)


# -------------------------------------------------------------- continuum


def _check_kernel_zeta_vs_images(tol):
    # periodic kernel: Hurwitz zeta form against a truncated direct image sum
    worst = 0.0
    m = 200_000
    s = np.arange(1, m, dtype=float)
    for alpha in (0.4, 1.0, 1.7, 2.5):
        amp = riesz_amplitude(alpha)
        beta = alpha + 1.0
        spec = KernelSpec(alpha, period=1.0)
        for xi in (0.1, 0.25, 0.5):
            direct = xi**-beta + float(np.sum((s + xi) ** -beta + (s - xi) ** -beta))
            # midpoint tail estimate for both image directions
            tail = ((m + xi - 0.5) ** -alpha + (m - xi - 0.5) ** -alpha) / alpha
            reference = amp * (direct + tail)
            got = riesz_kernel_periodic(spec, xi)
            worst = max(worst, abs(got - reference) / max(1.0, abs(got)))
    return _result("kernel_zeta_vs_images", "continuum", worst, tol)


def _check_continuum_convergence(tol):
    # one row per spacing: each error must undercut the previous spacing's,
    # and the finest spacing must also meet the absolute bar
    results = []
    h_values = (0.1, 0.025, 0.00625, 0.0015625)
    errors = np.zeros(len(h_values))
    for alpha in (0.5, 1.5):
        report = continuum_convergence_check(alpha, 1.0, h_values)
        errors = np.maximum(errors, report.errors)
    previous = math.inf
    for i, (h, err) in enumerate(zip(h_values, errors)):
        bar = previous if i + 1 < len(h_values) else min(previous, tol)
        results.append(_result(f"continuum_error_h{i}", "continuum", float(err), bar))
        previous = float(err)
    return results


def _check_kernel_periodization_decay(tol):
    # K_L - K_inf shrinks like L**-(alpha+1); compare successive decades
    worst = 0.0
    for alpha in (0.6, 1.8):
        x = 0.3
        k_inf = riesz_kernel_infinite(KernelSpec(alpha), x)
        gaps = [
            riesz_kernel_periodic(KernelSpec(alpha, period=length), x) - k_inf
            for length in (1e2, 1e3, 1e4)
        ]
        for a, b in zip(gaps, gaps[1:]):
            ratio = a / b
            worst = max(worst, abs(ratio / 10.0 ** (alpha + 1.0) - 1.0))
    return _result("kernel_periodization_decay", "continuum", worst, tol)


_CHECKS = (
    ("integer_order_stencils", "oracles", _check_integer_order_stencils, 1e-13),
    ("closed_vs_quadrature", "oracles", _check_closed_vs_quadrature, 1e-10),
    ("bloch_vs_images", "oracles", _check_bloch_vs_images, 1e-9),
    ("laplacian_spectrum", "oracles", _check_laplacian_spectrum, 1e-10),
    ("nd_spectral_vs_chain", "oracles", _check_nd_spectral_vs_chain, 1e-12),
    ("nd_bz_vs_chain", "oracles", _check_nd_bz_vs_chain, 1e-9),
    ("chain_tail_amplitude", "asymptotics", _check_chain_tail_amplitude, 2e-2),
    ("chain_tail_slope", "asymptotics", _check_chain_tail_slope, 2e-2),
    ("amplitude_identity", "asymptotics", _check_amplitude_identity, 1e-10),
    ("kernel_zeta_vs_images", "continuum", _check_kernel_zeta_vs_images, 1e-9),
    ("continuum_convergence", "continuum", _check_continuum_convergence, 1e-2),
    ("kernel_periodization_decay", "continuum", _check_kernel_periodization_decay, 0.1),
)


def available_checks() -> tuple:
    return tuple(name for name, _, _, _ in _CHECKS)


def run_suite(suite: str = "all", tol_overrides: dict | None = None) -> tuple:
    """Run one suite (or all of them) and return a tuple of CheckResult.

    tol_overrides maps check names to replacement tolerances; the continuum
    convergence scan expands into one result row per spacing, whose final
    row carries the overridable bar.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all',) + SUITES}")
    overrides = dict(tol_overrides or {})
    unknown = set(overrides) - set(available_checks())
    if unknown:
        raise ValueError(f"tolerance override for unknown check(s): {sorted(unknown)}")
    results = []
    for name, check_suite, func, default_tol in _CHECKS:
        if suite != "all" and check_suite != suite:
            continue
        tol = float(overrides.get(name, default_tol))
        outcome = func(tol)
        if isinstance(outcome, CheckResult):
            results.append(outcome)
        else:
            results.extend(outcome)
    return tuple(results)
