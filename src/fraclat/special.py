"""Scalar special functions and quadrature shared by the lattice and continuum modules.

Everything here is a pure function of its arguments.  gauss_panel_rule is
the one composite Gauss rule: the 1D zone quadrature, the nD zone integral
and the heat kernel integral all build their nodes with it.  The 1D
quadrature is built for even 2*pi-periodic integrands whose only awkward
point is an algebraic cusp |kappa|^a at kappa = 0, which is exactly the
shape of the power-law dispersion integrands evaluated elsewhere in the
package: geometric panels toward the cusp, panel widths halved until an
oscillating factor cos(kappa p) is resolved.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureSpec",
    "ToleranceError",
    "log_gamma",
    "hurwitz_zeta",
    "integrate_even_periodic",
    "gauss_panel_rule",
    "geometric_panel_edges",
]


class ToleranceError(RuntimeError):
    """Raised when a quadrature cannot meet its requested tolerance.

    The achieved error estimate is stored in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class QuadratureSpec:
    """Configuration of the panel-refined Gauss quadrature.

    Parameters
    ----------
    points : int
        Gauss order per panel; the error estimate compares it with points + 8.
    abs_tol : float
        Acceptance threshold for that absolute error estimate.
    """

    points: int = 16
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.points < 16:
            raise ValueError("points must be >= 16")
        if not 0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Delegates to the C library lgamma (a Lanczos/Stirling class evaluation);
    relative error is well below 1e-14 on the positive axis.
    """
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# Direct terms before the Euler-Maclaurin tail takes over.  16 keeps the
# B8 remainder far below 1e-12 relative for beta up to ~50.
_ZETA_DIRECT_TERMS = 16
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def hurwitz_zeta(beta: float, x: float) -> float:
    """Hurwitz zeta  zeta(beta, x) = sum_{n>=0} (x+n)^(-beta),  beta > 1, x > 0.

    Evaluated as a short direct sum plus the Euler-Maclaurin tail through
    the B6 correction term.  Relative error <= 1e-12 over the supported
    parameter range.  Raises OverflowError when the sum exceeds the double
    range, as the leading term x^(-beta) does for small x and large beta.
    """
    if beta <= 1:
        raise ValueError(f"hurwitz_zeta requires beta > 1, got {beta}")
    if x <= 0:
        raise ValueError(f"hurwitz_zeta requires x > 0, got {x}")
    # the leading term x^(-beta) is the largest; refuse before numpy overflows
    if -beta * math.log(x) > _LOG_DOUBLE_MAX:
        raise OverflowError(f"hurwitz_zeta({beta!r}, {x!r}) exceeds the double range")
    n_direct = _ZETA_DIRECT_TERMS if beta <= 12 else _ZETA_DIRECT_TERMS + int(beta)
    n = np.arange(n_direct, dtype=float)
    total = float(np.sum((x + n) ** (-beta)))
    y = x + n_direct
    # integral tail and the midpoint boundary term
    total += y ** (1.0 - beta) / (beta - 1.0) + 0.5 * y ** (-beta)
    # Bernoulli corrections: B2/2! = 1/12, B4/4! = -1/720, B6/6! = 1/30240
    t = beta * y ** (-beta - 1.0)
    total += t / 12.0
    t *= (beta + 1.0) * (beta + 2.0) / (y * y)
    total -= t / 720.0
    t *= (beta + 3.0) * (beta + 4.0) / (y * y)
    total += t / 30240.0
    if not math.isfinite(total):
        raise OverflowError(f"hurwitz_zeta({beta!r}, {x!r}) exceeds the double range")
    return total


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = leggauss(order)
    return _GAUSS_CACHE[order]


def gauss_panel_rule(edges: Sequence[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss rule on the given panel edges."""
    t, w = _gauss(order)
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def geometric_panel_edges(upper: float, min_width: float = 1e-8) -> np.ndarray:
    """Panel edges on [0, upper], halving geometrically toward 0."""
    edges = [upper]
    e = upper / 2.0
    while e > min_width:
        edges.append(e)
        e /= 2.0
    edges.append(0.0)
    edges.reverse()
    return np.array(edges)


# panels at which the refinement gives up: at width pi / 2^14 the nodes
# resolve cos(kappa p) for p up to about 10^5, and the last rounds stay cheap
_MAX_PANELS = 2**14


def integrate_even_periodic(f: Callable, spec: QuadratureSpec | None = None) -> float:
    """Integral of an even 2*pi-periodic function over [-pi, pi].

    Computed as 2 * integral over [0, pi] on the geometric panels of
    geometric_panel_edges(pi), which shrink toward kappa = 0 where integrands
    of the form |kappa|^a are not smooth, each split into equal panels no
    wider than one common width.  The width halves until the estimate
    |Q(points + 8) - Q(points)| of the whole integral, floored at its last
    place, meets spec.abs_tol; per panel differences would add up the
    rounding of oscillating factors that cancels in the whole.  f must map an
    array of nodes to an array of values.
    """
    spec = spec or QuadratureSpec()
    geometric = geometric_panel_edges(math.pi)
    width = math.pi
    while True:
        # the geometric edges are pi / 2^j, so they lie on the grid of width pi / 2^k
        edges = np.union1d(geometric, np.arange(0.0, math.pi, width))
        x, w = gauss_panel_rule(edges, spec.points)
        coarse = 2.0 * float(w @ f(x))
        x, w = gauss_panel_rule(edges, spec.points + 8)
        fine = 2.0 * float(w @ f(x))
        estimate = max(abs(fine - coarse), math.ulp(fine)) if math.isfinite(fine + coarse) else math.inf
        if estimate <= spec.abs_tol:
            return fine
        if estimate == math.inf or len(edges) > _MAX_PANELS:
            raise ToleranceError("adaptive_gauss tolerance not met", estimate)
        width /= 2.0
