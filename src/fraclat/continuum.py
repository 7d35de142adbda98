"""Continuum limit kernels of the chain: Riesz fractional derivative forms.

The infinite space kernel is the power law that the chain couplings approach
under the continuum scaling, and the periodic kernel is its image sum over
one period, resummed in closed form through Hurwitz zeta functions.  Each
kernel takes the order alpha, the periodic one also its period, and the
point x.  The module also provides the discrete-to-continuum convergence
scan that drives the matrix element against the kernel as the lattice
spacing shrinks.

Only non integer half orders are covered: at integer alpha/2 the continuum
kernel degenerates to derivatives of delta distributions with no pointwise
values, while the lattice side becomes an exact finite stencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    FractionalOrder,
    element_infinite_closed,
    require_non_integer_half,
    riesz_amplitude,
)
from .special import hurwitz_zeta, require_positive_finite

__all__ = [
    "ConvergenceReport",
    "riesz_amplitude",
    "riesz_kernel_infinite",
    "riesz_kernel_periodic",
    "continuum_convergence_check",
]

def riesz_kernel_infinite(alpha: float, x):
    """Whole line kernel amplitude * |x|^(-alpha-1), singular at x = 0; x a scalar or an array."""
    x = np.asarray(x, dtype=float)
    bad = ~(np.abs(x) > 0.0)
    if bad.any():
        raise ValueError("kernel is singular at x = 0 and undefined at NaN, "
                         f"got x = {float(x[bad][0])}")
    with np.errstate(over="ignore"):  # raised below
        value = riesz_amplitude(alpha) * np.abs(x) ** (-alpha - 1.0)
    bad = ~np.isfinite(value)
    if bad.any():
        raise OverflowError(f"riesz_kernel_infinite({alpha!r}, {float(x[bad][0])!r}) "
                            "exceeds the double range")
    return float(value) if x.ndim == 0 else value


def riesz_kernel_periodic(alpha: float, period: float, x):
    """Periodic kernel: image sum of the whole line kernel over the period.

    With d = fmod(|x|, period), an exact fold as the kernel is even, the images
    resum to amplitude / period^(alpha+1) * (zeta(alpha+1, d / period) +
    zeta(alpha+1, (period - d) / period)); x a scalar or an array.
    """
    # alpha before the zeta sums, which would see an invalid order first; a
    # negative period would make period^(-alpha-1) complex
    require_non_integer_half(alpha)
    require_positive_finite("period", period)
    x = np.asarray(x, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"kernel point x must be finite, got {float(x[bad][0])}")
    d = np.fmod(np.abs(x), period)
    bad = d == 0.0
    if bad.any():
        raise ValueError(f"kernel is singular on the lattice x in {period} * integers, "
                         f"got x = {float(x[bad][0])}")
    beta = alpha + 1.0
    bracket = hurwitz_zeta(beta, d / period) + hurwitz_zeta(beta, (period - d) / period)
    with np.errstate(over="ignore"):  # raised below
        value = riesz_amplitude(alpha) * np.float64(period) ** -beta * bracket
    if not np.isfinite(value).all():
        raise OverflowError(f"riesz_kernel_periodic({alpha!r}, {period!r}, "
                            f"{float(x[~np.isfinite(value)][0])!r}) exceeds the double range")
    return float(value) if x.ndim == 0 else value


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
    require_positive_finite("probe point", x)
    order = FractionalOrder(alpha=alpha, omega_sq=1.0)
    kernel = riesz_kernel_infinite(alpha, x)
    entries = []
    for h in h_values:
        require_positive_finite("spacing", h)
        p = round(x / h)
        if p < 1:
            raise ValueError(f"spacing {h} is too coarse for probe point {x}")
        scaled = -(h ** (-1.0 - alpha)) * element_infinite_closed(order, p)
        entries.append((float(h), p, scaled, abs(scaled / kernel - 1.0)))
    return ConvergenceReport(alpha=alpha, x=x, kernel=kernel, entries=tuple(entries))
