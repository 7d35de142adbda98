"""Special functions, on scalars or arrays of x, and quadrature shared by the other modules.

Everything here is a pure function of its arguments.  gauss_panel_rule is
the one composite Gauss rule: the 1D zone quadrature, the nD zone integral
and the heat kernel integral all build their nodes with it.  The 1D
quadrature is built for even 2*pi-periodic integrands whose only awkward
point is an algebraic cusp |kappa|^a at kappa = 0, which is exactly the
shape of the power-law dispersion integrands evaluated elsewhere in the
package: geometric panels toward the cusp, panel widths halved until an
oscillating factor cos(kappa p) is resolved.

The routes that take an error bound share its contract from here: a plain
positive finite tol (require_positive_finite), an estimate never below the
value's last place, and ToleranceError carrying that estimate when it does
not meet the bound (accept_estimate).  A value past the double range raises
OverflowError naming its call, never inf or NaN (within_double_range).  An
integer argument is any integer valued number, 2.0 included (require_integer).

ive is the exponentially scaled modified Bessel function e^(-x) I_n(x) of
integer order that the heat kernel route multiplies out; hankel_coefficients
holds the coefficients of its large argument expansion, which that route's
tail integrates term by term.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "ToleranceError",
    "require_positive_finite",
    "require_integer",
    "accept_estimate",
    "first_entry",
    "within_double_range",
    "hurwitz_zeta",
    "hankel_coefficients",
    "ive",
    "integrate_even_periodic",
    "gauss_panel_rule",
    "geometric_panel_edges",
]


class ToleranceError(RuntimeError):
    """Raised when a route cannot meet its requested tolerance.

    The achieved error estimate is stored in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def require_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless value is positive and finite (NaN is neither)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_integer(value, what: str, low=None, high=None) -> int:
    """value as an int where it is integer valued (a Python or numpy integer, or a float
    such as 2.0) and within low..high, each bound where given; ValueError
    "<what>, got <value>" otherwise, as for 2.7, inf, NaN, None or "2"."""
    try:
        integer = int(value)
        valid = integer == value and (low is None or integer >= low) and (high is None or integer <= high)
    except (OverflowError, TypeError, ValueError):  # inf, None, NaN
        valid = False
    if not valid:
        raise ValueError(f"{what}, got {value}")
    return integer


def _last_place_floor(value: float, estimate: float) -> float:
    """An error estimate of value, never below value's last place, where two
    Gauss orders often agree, nor finite when value or estimate is not."""
    return max(estimate, math.ulp(value)) if math.isfinite(value + estimate) else math.inf


def accept_estimate(value: float, estimate: float, tol: float, route: str) -> float:
    """value, once its error estimate, floored at its last place, meets tol;
    ToleranceError with that estimate otherwise (tol is positive and finite)."""
    estimate = _last_place_floor(value, estimate)
    if estimate > tol:
        raise ToleranceError(f"{route} error estimate above bound {tol:.3e}", estimate)
    return value


def first_entry(x: np.ndarray, bad):
    """x's first entry where the mask bad holds, as a float; None where none does."""
    return float(x[bad][0]) if bad.any() else None


def within_double_range(call, compute: Callable, *args, at=None):
    """compute(*args), numpy's overflow and invalid-value warnings held back, a float where
    0-d; OverflowError "<call> exceeds the double range" where float arithmetic raises one
    or a value (also of a tuple of same-shape arrays) is not finite.  Given at, the inputs
    behind the values of a numpy compute, call maps the entry behind the first such value
    to the text."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = compute(*args)
    except OverflowError:
        raise OverflowError(f"{call} exceeds the double range") from None
    finite = np.isfinite(value)
    if finite.all():
        return value if finite.ndim else float(value)
    name = call if at is None else call(first_entry(at, ~finite))
    raise OverflowError(f"{name} exceeds the double range")


# Bernoulli numbers B_0 .. B_17
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0,
              5 / 66, 0.0, -691 / 2730, 0.0, 7 / 6, 0.0, -3617 / 510, 0.0)
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_UNIT_ROUNDOFF = 2.0**-53
# points of x whose (point, term) power matrix hurwitz_zeta holds at once
_ZETA_BLOCK = 2048


@functools.lru_cache(maxsize=128)
def _zeta_terms(beta: float) -> tuple:
    """(s_i, e_i, c_i) of zeta(beta, x) = sum_i c_i (x + s_i)^e_i: the direct terms
    n < N, then at y = x + N the Euler-Maclaurin tail y^(1-beta) / (beta - 1) +
    y^(-beta) / 2 + sum_(j<=8) B_2j / (2j)! beta (beta + 1) .. (beta + 2j - 2) y^(1-beta-2j)."""
    n = 16 if beta <= 12 else 16 + int(beta)  # direct terms
    bernoulli = np.array(_BERNOULLI[2:17:2]) / [math.factorial(k) for k in range(2, 17, 2)]
    exponents = np.append(np.full(n, -beta), 1.0 - beta - np.array([0.0, 1.0, *range(2, 17, 2)]))
    coefficients = np.concatenate((np.ones(n), [1.0 / (beta - 1.0), 0.5],
                                   bernoulli * np.cumprod(beta + np.arange(15.0))[::2]))
    return np.minimum(np.arange(n + 10.0), n), exponents, coefficients


def hurwitz_zeta(beta: float, x):
    """Hurwitz zeta  zeta(beta, x) = sum_{n>=0} (x+n)^(-beta),  beta > 1, x > 0.

    Takes a scalar x, giving a float, or an array.  A direct sum plus the
    Euler-Maclaurin tail through B16, within 2e-15 relative of 60-digit values
    (worst 4.4e-16) for beta in (1, 171], x in [1e-6, 1e9].  OverflowError, naming
    the first such x, where the sum passes the double range, as x^(-beta) can.
    The terms of _ZETA_BLOCK points are formed at a time; each point's sum is
    the same in any block.
    """
    if not beta > 1:
        raise ValueError(f"hurwitz_zeta requires beta > 1, got {beta}")
    x = np.asarray(x, dtype=float)
    bad = first_entry(x, ~((x > 0.0) & (x < math.inf)))
    if bad is not None:
        raise ValueError(f"hurwitz_zeta requires finite x > 0, got {bad}")
    shifts, exponents, coefficients = _zeta_terms(beta)

    def series():
        points = x.ravel()
        total = np.empty(points.shape)
        for i in range(0, len(points), _ZETA_BLOCK):
            block = points[i:i + _ZETA_BLOCK, None]
            total[i:i + _ZETA_BLOCK] = (np.power(block + shifts, exponents) * coefficients).sum(axis=-1)
        return total.reshape(x.shape)

    return within_double_range(lambda entry: f"hurwitz_zeta({beta!r}, {entry!r})", series, at=x)


def hankel_coefficients(n: int, count: int) -> np.ndarray:
    """c_0 .. c_(count-1) of ive(n, z) ~ (2 pi z)^(-1/2) sum_k c_k / z^k (DLMF 10.40.1),
    c_k = (-1)^k a_k(n) = prod_(i<=k) ((2i - 1)^2 - 4 n^2) / (8 i)."""
    i = np.arange(1, count)
    return np.append(1.0, np.cumprod(((2 * i - 1) ** 2 - 4.0 * n * n) / (8.0 * i)))


# terms of the Hankel and Debye expansions, and the order from which Debye's
# expansion takes over: its first omitted term is below 1e-17 there.  Below it
# the trapezoid rule rounds at about 1e-16 of I_0 rather than of I_n, so the
# series runs up to x = n^2 / 4, where I_0 / I_n ~ e^(n^2 / 2x) is below e^2
_HANKEL_TERMS = 16
_DEBYE_TERMS = 16
_DEBYE_FROM = 20


def _ive_series(n: int, x: np.ndarray) -> np.ndarray:
    # DLMF 10.25.2: e^-x (x/2)^n / n! sum_k (x^2/4)^k n! / (k! (n+k)!), positive
    # terms, cut where the largest x's term falls below 1e-17 of its sum
    y = 0.25 * float(x.max()) ** 2
    term = total = 1.0
    count = 0
    while term > 1e-17 * total:
        count += 1
        term *= y / (count * (n + count))
        total += term
    j = np.arange(1, count + 1)
    terms = np.cumprod(np.multiply.outer(0.25 * x * x, 1.0 / (j * (n + j))), axis=1)
    return np.exp(-x) * (0.5 * x) ** n / math.factorial(n) * (1.0 + terms.sum(axis=1))


def _ive_trapezoid(n: int, x: np.ndarray) -> np.ndarray:
    # DLMF 10.32.3: e^-x I_n(x) = 1/pi int_0^pi e^(-2x sin^2(theta/2)) cos(n theta),
    # a periodic integrand, so the trapezoid rule converges exponentially
    # (Trefethen, Weideman, SIAM Rev. 56 (2014) 385-458); sin^2 keeps the
    # exponent's digits near theta = 0, where cos(theta) - 1 would cancel
    m = math.ceil(n + math.sqrt(n * n + 80.0 * float(x.max())))
    theta = np.arange(m + 1) * (math.pi / m)
    weights = np.cos(n * theta) / m
    weights[[0, -1]] *= 0.5
    return np.exp(np.multiply.outer(x, -2.0 * np.sin(0.5 * theta) ** 2)) @ weights


def _ive_hankel(n: int, x: np.ndarray) -> np.ndarray:
    # DLMF 10.40.1 by Horner's rule in 1/x; the e^(-2x) companion is below 1e-34
    r = 1.0 / x
    total = np.zeros_like(x)
    for c in hankel_coefficients(n, _HANKEL_TERMS)[::-1]:
        total = total * r + c
    return total / np.sqrt(2.0 * math.pi * x)


@functools.cache
def _debye_polynomials() -> np.ndarray:
    """Coefficient rows of U_0 .. U_(K-1), K = _DEBYE_TERMS, in powers of p:
    U_(k+1) = p^2 (1 - p^2) U_k' / 2 + int_0^p (1 - 5t^2) U_k dt / 8 (DLMF 10.41.10)."""
    poly = np.polynomial.polynomial
    rows = np.zeros((_DEBYE_TERMS, 3 * _DEBYE_TERMS - 2))
    rows[0, 0] = 1.0
    for k in range(1, _DEBYE_TERMS):
        u = rows[k - 1, : 3 * k - 2]
        row = poly.polyadd(poly.polymul([0.0, 0.0, 0.5, 0.0, -0.5], poly.polyder(u)),
                           poly.polyint(poly.polymul([0.125, 0.0, -0.625], u)))
        rows[k, : row.size] = row
    return rows


def _ive_debye(n: int, x: np.ndarray) -> np.ndarray:
    # DLMF 10.41.3 at nu = n, z = x / n: e^-x I_n(x) ~ e^E / sqrt(2 pi s) sum_k U_k(n/s) / n^k,
    # s = sqrt(n^2 + x^2), E = n eta - x = n^2 / (s + x) - n asinh(n / x)
    s = np.hypot(n, x)
    coeffs = _debye_polynomials().T @ float(n) ** -np.arange(_DEBYE_TERMS)
    p = n / s
    total = np.zeros_like(x)
    for c in coeffs[::-1]:
        total = total * p + c
    with np.errstate(divide="ignore", over="ignore"):  # n / x is inf at x = 0: the value is 0
        exponent = n * n / (s + x) - n * np.arcsinh(n / x)
    return np.exp(exponent) / np.sqrt(2.0 * math.pi * s) * total


def ive(n: int, x) -> np.ndarray:
    """e^(-x) I_n(x) for an integer order n >= 0 (2.0 counts) at an array of x >= 0.

    Below order 20: the power series for x < max(20, n^2 / 4), the periodic
    trapezoid rule on n + sqrt(n^2 + 80 x) nodes up to max(40, 2 n^2), and
    the Hankel expansion beyond.  From order 20 on: Debye's uniform expansion
    at every x.  Within 1e-15 (4 + |ln ive|) relative of 40-digit values: a
    tiny value is e^E with |E| near |ln ive|, and E carries its rounding.
    """
    n = require_integer(n, "ive needs an integer order n >= 0", low=0)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("ive needs x >= 0 (NaN is not)")
    if n >= _DEBYE_FROM:
        return _ive_debye(n, x)
    out = np.empty_like(x)
    low, high = max(20.0, 0.25 * n * n), max(40.0, 2.0 * n * n)
    for mask, regime in ((x < low, _ive_series), ((x >= low) & (x <= high), _ive_trapezoid),
                         (x > high, _ive_hankel)):
        if mask.any():
            out[mask] = regime(n, x[mask])
    return out


@functools.cache
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(order)


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


# the narrowest geometric panel next to 0
_MIN_PANEL_WIDTH = 1e-8


def geometric_panel_edges(upper: float) -> np.ndarray:
    """Panel edges on [0, upper], halving geometrically toward 0."""
    edges = [upper]
    e = upper / 2.0
    while e > _MIN_PANEL_WIDTH:
        edges.append(e)
        e /= 2.0
    edges.append(0.0)
    edges.reverse()
    return np.array(edges)


# panels at which the refinement gives up: at width pi / 2^14 the nodes
# resolve cos(kappa p) for p up to about 10^5, and the last rounds stay cheap
_MAX_PANELS = 2**14
# Gauss order per panel; the error estimate compares it with order + 8
_GAUSS_ORDER = 16
# panels whose nodes f sees in one call: 8 k to 12 k nodes
_PANEL_BLOCK = 2**9


def _panel_sum(f: Callable, edges: np.ndarray, order: int) -> float:
    # 2 * weights @ f(nodes), the rule built and f called a block of panels at a time
    weights = np.empty(order * (len(edges) - 1))
    values = np.empty_like(weights)
    for start in range(0, len(edges) - 1, _PANEL_BLOCK):
        x, w = gauss_panel_rule(edges[start:start + _PANEL_BLOCK + 1], order)
        nodes = slice(order * start, order * start + w.size)
        weights[nodes], values[nodes] = w, f(x)
    return 2.0 * float(weights @ values)


def integrate_even_periodic(f: Callable, tol: float = 1e-12) -> float:
    """Integral of an even 2*pi-periodic function over [-pi, pi].

    Computed as 2 * integral over [0, pi] on the geometric panels of
    geometric_panel_edges(pi), which shrink toward kappa = 0 where integrands
    of the form |kappa|^a are not smooth, each split into equal panels no
    wider than one common width.  The width halves until the estimate
    |Q(n + 8) - Q(n)| of the whole integral, n the Gauss order per panel,
    floored at its last place, meets tol; per panel differences would add up
    the rounding of oscillating factors that cancels in the whole.  f must
    map an array of nodes to an array of values; it is called on the nodes
    of _PANEL_BLOCK panels at a time, and each Q is one dot product of all
    weights with all values, so its bits do not depend on the block.
    """
    require_positive_finite("tol", tol)
    geometric = geometric_panel_edges(math.pi)
    width = math.pi
    while True:
        # the geometric edges are pi / 2^j, so they lie on the grid of width pi / 2^k;
        # merged by a sort, not np.union1d, whose unique loads numpy.ma
        edges = np.sort(np.concatenate((geometric, np.arange(0.0, math.pi, width))))
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        coarse = _panel_sum(f, edges, _GAUSS_ORDER)
        fine = _panel_sum(f, edges, _GAUSS_ORDER + 8)
        estimate = _last_place_floor(fine, abs(fine - coarse))
        if estimate <= tol:
            return fine
        if estimate == math.inf or len(edges) > _MAX_PANELS:
            raise ToleranceError("adaptive_gauss tolerance not met", estimate)
        width /= 2.0
