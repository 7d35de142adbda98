"""Continuum limit kernels of the chain: Riesz fractional derivative forms.

The infinite space kernel is the power law that the chain couplings approach
under the continuum scaling, and the periodic kernel is its image sum over
one period, resummed in closed form through Hurwitz zeta functions.  The
module also provides the discrete-to-continuum convergence scan that drives
the matrix element against the kernel as the lattice spacing shrinks.

Only non integer half orders are covered: at integer alpha/2 the continuum
kernel degenerates to derivatives of delta distributions with no pointwise
values, while the lattice side becomes an exact finite stencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import (
    INFINITE,
    FractionalOrder,
    element_infinite_closed,
    require_non_integer_half,
    riesz_amplitude,
)
from .special import hurwitz_zeta

__all__ = [
    "KernelSpec",
    "ConvergenceReport",
    "riesz_amplitude",
    "riesz_kernel_infinite",
    "riesz_kernel_periodic",
    "continuum_convergence_check",
]

@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: order, period (INFINITE for the whole line), and
    the density and coupling scale entering the continuum force balance."""

    alpha: float
    period: float = INFINITE
    rho0: float = 1.0
    a_alpha: float = 1.0

    def __post_init__(self):
        require_non_integer_half(self.alpha)
        if self.period != INFINITE and not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive or INFINITE, got {self.period}")
        if not (self.rho0 > 0.0 and math.isfinite(self.rho0)):
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if not (self.a_alpha > 0.0 and math.isfinite(self.a_alpha)):
            raise ValueError(f"a_alpha must be positive, got {self.a_alpha}")

    @property
    def is_periodic(self) -> bool:
        return self.period != INFINITE


def riesz_kernel_infinite(spec: KernelSpec, x: float) -> float:
    """Whole line kernel: amplitude times |x|^(-alpha-1), singular at x = 0."""
    if spec.is_periodic:
        raise ValueError("infinite space kernel requires period = INFINITE")
    if x == 0.0:
        raise ValueError("kernel is singular at x = 0")
    try:
        value = riesz_amplitude(spec.alpha) * abs(x) ** (-spec.alpha - 1.0)
    except OverflowError:  # raised by the float power itself
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"riesz_kernel_infinite({spec.alpha!r}, {x!r}) exceeds the double range")
    return value


def riesz_kernel_periodic(spec: KernelSpec, x: float) -> float:
    """Periodic kernel: image sum of the whole line kernel over the period.

    With xi = x / period folded into (0, 1) the sum over all images resums to
    amplitude / period^(alpha+1) * (zeta(alpha+1, xi) + zeta(alpha+1, 1-xi)).
    """
    if not spec.is_periodic:
        raise ValueError("periodic kernel requires a finite period")
    length = spec.period
    xi = (x / length) % 1.0
    if xi == 0.0:
        raise ValueError(f"kernel is singular on the lattice x in {length} * integers")
    beta = spec.alpha + 1.0
    bracket = hurwitz_zeta(beta, xi) + hurwitz_zeta(beta, 1.0 - xi)
    return riesz_amplitude(spec.alpha) * length ** (-beta) * bracket


@dataclass(frozen=True)
class ConvergenceReport:
    """Per spacing comparison of the h-scaled lattice element and the kernel.

    entries hold (h, offset p, scaled element, relative error) tuples ordered
    as given; kernel is the continuum target value at the probe point.
    """

    alpha: float
    x: float
    kernel: float
    entries: tuple

    @property
    def errors(self) -> tuple:
        return tuple(entry[3] for entry in self.entries)

    @property
    def rates(self) -> tuple:
        """Empirical convergence rates between consecutive spacings."""
        out = []
        for (h0, _, _, e0), (h1, _, _, e1) in zip(self.entries, self.entries[1:]):
            out.append(math.log(e0 / e1) / math.log(h0 / h1))
        return tuple(out)


def continuum_convergence_check(alpha: float, x: float, h_values) -> ConvergenceReport:
    """Drive the scaled lattice element toward the kernel at a fixed point.

    Under the continuum scaling the coupling of sites x apart at spacing h is
    -rho0 a_alpha h^(-1-alpha) f(p) with p = round(x / h) and unit scale
    elements f; the density and coupling factors drop out of the relative
    error, so the scan runs in dimensionless mode.
    """
    require_non_integer_half(alpha)
    if not x > 0.0:
        raise ValueError(f"probe point must be positive, got {x}")
    order = FractionalOrder(alpha=alpha, omega_sq=1.0)
    kernel = riesz_kernel_infinite(KernelSpec(alpha), x)
    entries = []
    for h in h_values:
        if not (0.0 < h and math.isfinite(h)):
            raise ValueError(f"spacings must be positive, got {h}")
        p = round(x / h)
        if p < 1:
            raise ValueError(f"spacing {h} is too coarse for probe point {x}")
        scaled = -(h ** (-1.0 - alpha)) * element_infinite_closed(order, p)
        entries.append((float(h), p, scaled, abs(scaled / kernel - 1.0)))
    return ConvergenceReport(alpha=alpha, x=x, kernel=kernel, entries=tuple(entries))
