"""Scalar special functions and quadrature shared by the lattice and continuum modules.

Everything here is a pure function of its arguments.  The quadrature rule is
built for even 2*pi-periodic integrands whose only awkward point is an
algebraic cusp |kappa|^a at kappa = 0, which is exactly the shape of the
power-law dispersion integrands evaluated elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import jv

__all__ = [
    "QuadratureSpec",
    "ToleranceError",
    "log_gamma",
    "hurwitz_zeta",
    "hurwitz_zeta_abs",
    "bessel_j",
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
    """Configuration of the 1D periodic-integrand quadrature.

    Parameters
    ----------
    scheme : str
        "adaptive_gauss" (panel-refined Gauss rule, the precision scheme) or
        "periodic_trapezoid" (uniform sampling, kept as an independent
        second route with modest accuracy on non-smooth integrands).
    points : int
        Gauss order per panel, or the number of uniform trapezoid samples.
    abs_tol, rel_tol : float
        Acceptance threshold for the internal error estimate,
        abs_tol + rel_tol*|integral|.
    """

    scheme: str = "adaptive_gauss"
    points: int = 16
    abs_tol: float = 1e-12
    rel_tol: float = 0.0

    def __post_init__(self):
        if self.scheme not in ("adaptive_gauss", "periodic_trapezoid"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.points < 16:
            raise ValueError("points must be >= 16")
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be >= 0")
        if self.scheme == "adaptive_gauss" and self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("adaptive scheme needs abs_tol or rel_tol > 0")


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


def hurwitz_zeta_abs(beta: float, x: float) -> float:
    """Absolute-value variant  sum_{n>=0} |x+n|^(-beta)  for beta > 1.

    For x > 0 this is hurwitz_zeta(beta, x).  For negative non-integer x the
    finitely many terms with x + n < 0 are summed explicitly and the rest is
    again a standard Hurwitz zeta with shifted argument in (0, 1).
    """
    if beta <= 1:
        raise ValueError(f"hurwitz_zeta_abs requires beta > 1, got {beta}")
    if x > 0:
        return hurwitz_zeta(beta, x)
    if x == math.floor(x):
        raise ValueError(f"x = {x} makes a term |x+n| vanish")
    m = int(math.ceil(-x))  # x + m lands in (0, 1)
    n = np.arange(m, dtype=float)
    head = float(np.sum(np.abs(x + n) ** (-beta)))
    return head + hurwitz_zeta(beta, x + m)


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x), integer order >= 0."""
    if order < 0 or order != int(order):
        raise ValueError(f"bessel_j requires integer order >= 0, got {order}")
    return float(jv(int(order), x))


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = leggauss(order)
    return _GAUSS_CACHE[order]


def gauss_panel_rule(edges: Sequence[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss rule on the given panel edges."""
    # not memoised through _gauss: the benchmark's trace counts the Gauss
    # orders of the zone integral by wrapping leggauss (bench/spans.py)
    t, w = leggauss(order)
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def geometric_panel_edges(upper: float, min_width: float = 1e-8,
                          max_width: float | None = None) -> np.ndarray:
    """Panel edges on [0, upper], halving geometrically toward 0.

    Optionally caps every panel at max_width (uniform subdivision of the wide
    panels), which resolves oscillatory factors like cos(kappa*p).
    """
    edges = [upper]
    e = upper / 2.0
    while e > min_width:
        edges.append(e)
        e /= 2.0
    edges.append(0.0)
    edges.reverse()
    if max_width is None:
        return np.array(edges)
    refined = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(math.ceil((b - a) / max_width)))
        refined.extend(a + (b - a) * (j + 1) / k for j in range(k))
    return np.array(refined)


def _eval_vectorized(f: Callable, nodes: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(nodes), dtype=float)
        if out.shape != nodes.shape:
            raise TypeError
        return out
    except TypeError:
        return np.array([float(f(v)) for v in nodes], dtype=float)


def integrate_even_periodic(f: Callable, spec: QuadratureSpec | None = None) -> float:
    """Integral of an even 2*pi-periodic function over [-pi, pi].

    Computed as 2 * integral over [0, pi].  The adaptive_gauss scheme uses
    geometric panels shrinking toward kappa = 0 (where integrands of the
    form |kappa|^a are not smooth) and bisects the worst panels until the
    two-order Gauss error estimate meets the tolerance.
    """
    if spec is None:
        spec = QuadratureSpec()
    if spec.scheme == "periodic_trapezoid":
        return _trapezoid_periodic(f, spec)
    return _adaptive_gauss(f, spec)


def _trapezoid_periodic(f: Callable, spec: QuadratureSpec) -> float:
    m = spec.points + (spec.points % 2)  # even count so half-sampling nests
    h = 2.0 * math.pi / m
    nodes = -math.pi + h * np.arange(m)
    vals = _eval_vectorized(f, nodes)
    integral = h * float(np.sum(vals))
    coarse = 2.0 * h * float(np.sum(vals[::2]))
    est = abs(integral - coarse)
    if est > spec.abs_tol + spec.rel_tol * abs(integral):
        raise ToleranceError("periodic_trapezoid tolerance not met", est)
    return integral


_MAX_BISECTIONS = 400


def _adaptive_gauss(f: Callable, spec: QuadratureSpec) -> float:
    lo, hi = spec.points, spec.points + 8

    def panel_pair(a: float, b: float) -> tuple[float, float]:
        na, wa = _gauss(lo)
        nb, wb = _gauss(hi)
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        va = float(np.dot(wa, _eval_vectorized(f, mid + half * na)) * half)
        vb = float(np.dot(wb, _eval_vectorized(f, mid + half * nb)) * half)
        return vb, abs(vb - va)

    edges = geometric_panel_edges(math.pi)
    panels = []  # (a, b, value, error)
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = panel_pair(a, b)
        panels.append((a, b, v, e))

    for _ in range(_MAX_BISECTIONS):
        integral = 2.0 * sum(p[2] for p in panels)
        est = 2.0 * sum(p[3] for p in panels)
        if est <= spec.abs_tol + spec.rel_tol * abs(integral):
            return integral
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _ = panels.pop(worst)
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = panel_pair(aa, bb)
            panels.append((aa, bb, v, e))

    integral = 2.0 * sum(p[2] for p in panels)
    est = 2.0 * sum(p[3] for p in panels)
    if est <= spec.abs_tol + spec.rel_tol * abs(integral):
        return integral
    raise ToleranceError("adaptive_gauss tolerance not met", est)
