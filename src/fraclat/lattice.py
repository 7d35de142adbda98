"""Fractional Laplacian elements on n dimensional cubic lattices.

Extends the chain routes to n dimensions.  The coupling profile at integer
offset vector p is reachable by three independent representations:

* a spectral sum over the Bloch modes of a finite periodic lattice,
* a Brillouin zone integral, evaluated by tensor Gauss rules on dyadic
  shells around the zone centre,
* a subordination integral over the lattice heat kernel, a product of
  exponentially scaled modified Bessel functions e^(-2t) I_|p_j|(2t).

The zone integrand lambda^(alpha/2) prod_j cos(kappa_j p_j) has its only
kink at kappa = 0.  Refining toward it on every axis and taking the tensor
product of the axis rules would spend almost all nodes where one coordinate
is small and another is not, where the integrand is smooth.  Instead the
cube [0, pi]^n is cut into the shells [0, h]^n minus [0, h/2]^n for
h = pi, pi/2, ..., each the union of n boxes on which the integrand is
analytic with its kink about a box width away, so a tensor Gauss rule of
fixed order converges fast on each, and the nodes grow with the number of
shells rather than with its n-th power (nested cubes as in M. G. Duffy,
SIAM J. Numer. Anal. 19 (1982) 1260-1262).

The heat kernel route is Balakrishnan's subordination formula for lambda^a,
a = alpha/2 (Pacific J. Math. 10 (1960) 419-437), over the lattice heat
kernel, which factorises over the axes and is positive, so nothing oscillates
and no damping or extrapolation is needed (the semigroup route of Ciaurri,
Roncal, Stinga, Torrea and Varona, Adv. Math. 330 (2018) 688-738).  Its
Bessel functions are special.ive and its 1/Gamma(-a) is math.gamma's, so
every route here runs on numpy and the standard library alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# bench/spans.py wraps leggauss, jv and bessel_element_extrapolated here by
# name to count Gauss orders and time the routes; no route calls leggauss or jv
from numpy.polynomial.legendre import leggauss  # noqa: F401

from .chain import FractionalOrder, _half_order_sine, _ring_eigenvalues, is_integer_half, ring_axis
from .special import (
    _LOG_DOUBLE_MAX,
    accept_estimate,
    as_integer,
    gauss_panel_rule,
    geometric_panel_edges,
    hankel_coefficients,
    ive,
    require_positive_finite,
    within_double_range,
)

__all__ = [
    "SizeLimitError",
    "LatticeSpec",
    "OffsetVector",
    "eigenvalue_nd",
    "element_periodic_nd",
    "build_laplacian_nd",
    "element_infinite_nd_bz",
    "element_infinite_nd_bessel",
    "asymptotic_constant_nd",
    "normalized_dispersion_2d",
    "dispersion_surface",
]

SPECTRAL_POINT_CAP = 10**7

_MAX_DIM = 4

# default error bound of the zone and heat kernel integrals, and their Gauss
# order per panel; the error estimate compares it with order + 8
_ND_TOL = 1e-9
_GAUSS_ORDER = 24


def jv(order, x):
    # bench/spans.py counts Bessel J calls through this name; no route calls
    # it, and it goes once the library counts its own work (ROADMAP item 1)
    import scipy.special

    return scipy.special.jv(order, x)


class SizeLimitError(ValueError):
    """A periodic spectral sum would exceed the total point cap."""


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic cubic lattice geometry: dimension, per axis sizes and mass.

    sizes is a tuple with one entry per axis, each an integer >= 2; the
    infinite lattice routes take a dimension instead.  The frequency scale
    lives on the FractionalOrder.
    """

    dim: int
    sizes: tuple
    mass: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.dim, int) and 1 <= self.dim <= _MAX_DIM):
            raise ValueError(f"dim must be an integer in 1..{_MAX_DIM}, got {self.dim}")
        sizes = tuple(self.sizes)
        if len(sizes) != self.dim:
            raise ValueError(f"sizes must have {self.dim} entries, got {len(sizes)}")
        for s in sizes:
            size = as_integer(s)
            if size is None or size < 2:
                raise ValueError(f"sizes must be integers >= 2, got {s}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))
        require_positive_finite("mass", self.mass)

    @property
    def n_points(self) -> int:
        return math.prod(self.sizes)


@dataclass(frozen=True)
class OffsetVector:
    """Integer site offset (p_1, ..., p_n) between two lattice points."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if as_integer(c) is None:
                raise ValueError(f"offset components must be integers, got {c}")
        object.__setattr__(self, "components", tuple(int(c) for c in comps))

    @property
    def dim(self) -> int:
        return len(self.components)


def eigenvalue_nd(kappa) -> float:
    """Born-von-Karman eigenvalue 4 sum_j sin^2(kappa_j / 2), in [0, 4n]."""
    kappa = np.asarray(kappa, dtype=float)
    value = np.sum(4.0 * np.sin(0.5 * kappa) ** 2, axis=-1)
    return float(value) if value.ndim == 0 else value


def element_periodic_nd(
    order: FractionalOrder, lattice: LatticeSpec, offset: OffsetVector
) -> float:
    """Coupling profile of a finite periodic lattice by the Bloch mode sum.

    f(p) = omega_sq / N_total * sum over all Bloch vectors of
    cos(kappa . p) * lambda(kappa)^(alpha/2), each axis's from its ring's table.
    OverflowError past the double range, as from alpha 2048 / log2(4 dim) on.
    """
    if offset.dim != lattice.dim:
        raise ValueError(f"offset has {offset.dim} components, lattice has {lattice.dim}")
    if lattice.n_points > SPECTRAL_POINT_CAP:
        raise SizeLimitError(
            f"spectral sum over {lattice.n_points} points exceeds the cap {SPECTRAL_POINT_CAP}"
        )
    # longest axis first: _tensor_sum blocks the rows of axis 0 and builds
    # the sum over the other axes whole, which is then the smallest
    axes = [ring_axis(n_j, p_j) for n_j, p_j in
            sorted(zip(lattice.sizes, offset.components), key=lambda axis: -axis[0])]
    return within_double_range(
        f"element_periodic_nd(alpha={order.alpha!r}, sizes={lattice.sizes}, offset={offset.components})",
        lambda: order.omega_sq * _tensor_sum(0.5 * order.alpha, axes) / lattice.n_points)


def build_laplacian_nd(order: FractionalOrder, lattice: LatticeSpec):
    """Fractional Laplacian of a finite periodic lattice, all at once.

    Returns (table, eigenvalues), both of shape lattice.sizes: table[p] is
    -mass * f(p) over the fundamental cell, the inverse DFT of the modes
    omega_sq * lambda(kappa)^(alpha/2), and eigenvalues[l] is -mass times
    the mode at Bloch vector kappa_j = 2 pi l_j / N_j, where lambda is the sum
    of the axes' ring eigenvalues 4 sin^2(pi l_j / N_j).  OverflowError past
    the double range, as from alpha 2048 / log2(4 dim) on.
    """
    lam = functools.reduce(np.add.outer, (_ring_eigenvalues(n) for n in lattice.sizes))

    def build():
        modes = order.omega_sq * lam ** (0.5 * order.alpha)
        return -lattice.mass * np.fft.ifftn(modes).real, -lattice.mass * modes + 0.0

    return within_double_range(f"build_laplacian_nd(alpha={order.alpha!r}, sizes={lattice.sizes})", build)


# elements of the largest lambda^(alpha/2) array built at once (1 MB)
_BZ_BLOCK = 1 << 17


def _tensor_sum(a: float, axes) -> float:
    """Tensor product rule sum of prod_j cw_j * (sum_j s2_j)^a.

    axes holds one (s2, cw) pair per axis: the values of 4 sin^2(kappa / 2)
    and of cos(p_j kappa) times the weight (one in a Bloch sum) at that
    axis's nodes.  The grid is evaluated in row blocks of axis 0 of at most
    _BZ_BLOCK points (at least one row) and contracted axis by axis.
    """
    rest = np.zeros(())
    for s2, _ in axes[1:]:
        rest = np.add.outer(rest, s2)
    rows = max(1, _BZ_BLOCK // rest.size)
    s2_0, cw_0 = axes[0]
    total = 0.0
    for i0 in range(0, len(s2_0), rows):
        lam = np.add.outer(s2_0[i0 : i0 + rows], rest)
        np.power(lam, a, out=lam)
        for _, cw in axes[:0:-1]:
            lam = lam.reshape(-1, cw.size) @ cw
        total += float(cw_0[i0 : i0 + rows] @ lam)
    return total


def _bz_value(order: FractionalOrder, comps, gauss_order: int) -> float:
    """Zone integral over [0, pi]^n without the scale, on dyadic shells.

    The radii h run over the geometric panel edges pi, pi/2, ... down to the
    1e-8 floor.  On each axis, low is [0, h/2], high is [h/2, h] and full is
    [0, h], each split into equal panels no wider than pi / (2 (|p_j| + 1)),
    under half a period of cos(p_j kappa_j).  The shell [0, h]^n minus
    [0, h/2]^n is the union of the boxes low^j x high x full^(n-j-1),
    j = 0..n-1; the innermost cube, low on every axis of the smallest shell,
    closes the sum.
    """
    a = 0.5 * order.alpha
    caps = [math.pi / (2.0 * (abs(p) + 1.0)) for p in comps]
    radii = geometric_panel_edges(math.pi)
    total = 0.0
    for h in radii[2:]:
        low, high, full = [], [], []
        for p, cap in zip(comps, caps):
            k = max(1, math.ceil(0.5 * h / cap))
            x, w = gauss_panel_rule(h * np.arange(2 * k + 1) / (2 * k), gauss_order)
            axis = (4.0 * np.sin(0.5 * x) ** 2, np.cos(p * x) * w)
            split = k * gauss_order
            low.append(tuple(v[:split] for v in axis))
            high.append(tuple(v[split:] for v in axis))
            full.append(axis)
        boxes = [low[:j] + [high[j]] + full[j + 1 :] for j in range(len(comps))]
        if h == radii[2]:
            boxes.append(low)
        for box in boxes:
            total += _tensor_sum(a, box)
    return total / math.pi ** len(comps)


def element_infinite_nd_bz(
    order: FractionalOrder, dim: int, offset: OffsetVector, tol: float = _ND_TOL
) -> float:
    """Infinite lattice profile as a Brillouin zone integral.

    Evenness folds the integral to [0, pi]^n with a product of cosines:
    f(p) = omega_sq / pi^n * int prod_j cos(kappa_j p_j) lambda^(alpha/2).
    The cube is cut into dyadic shells around the kink of lambda^(alpha/2)
    at the zone centre, h = pi, pi/2, ... down to 1e-8, plus the innermost
    cube; each shell is a few boxes on which the integrand is analytic,
    integrated by a tensor Gauss rule whose panels are capped per axis so
    each sees under half an oscillation period.  Gauss orders n and n + 8,
    n = _GAUSS_ORDER, give the error estimate omega_sq |difference|, floored
    at the value's last place and checked against tol.  The default tol is
    absolute: once |f| reaches 2^23 (about 8.4e6) its last place exceeds it
    and an explicit tol is needed, which at the origin happens from alpha
    about 17.86 in 2D and 15.26 in 3D.  Where the two orders differ by two
    last places, the default already fails at some orders from about 17.1
    in 2D and 14.9 in 3D.
    """
    require_positive_finite("tol", tol)
    if not (isinstance(dim, int) and 1 <= dim <= 3):
        raise ValueError(f"the zone integral supports dim 1..3, got {dim}")
    if offset.dim != dim:
        raise ValueError(f"offset has {offset.dim} components, expected {dim}")
    comps = offset.components
    coarse = _bz_value(order, comps, _GAUSS_ORDER)
    fine = _bz_value(order, comps, _GAUSS_ORDER + 8)
    value, estimate = order.omega_sq * fine, order.omega_sq * abs(fine - coarse)
    return accept_estimate(value, estimate, tol, "zone integral")


# the log t panels end at T = t0 e^U <= 2.5e8, so the Bessel argument 2t stays
# below 5e8, where the tests still compare the route with scipy's ive (NaN from
# 2^30 on).  T bounds the offsets whose Hankel tail converges: at the default
# tol 1D offsets up to 6e4 (alpha 0.5) to 2.6e5 (alpha 3.7) pass, five to six
# times as far with T = 1e10
_HEAT_T_MAX = 2.5e8
_HEAT_TAIL_TERMS = 12
_HEAT_LOG_TOL = math.log(1e-18)  # series terms kept down to 1e-18 of their scale
_HALF_EPSILON = 2.0**-53  # the unit roundoff
# the largest order the route takes; 1/Gamma(-a) leaves the double range from
# alpha about 343
_HEAT_MAX_ALPHA = 256.0


def _series_product(axes, count: int) -> np.ndarray:
    """First count coefficients of the product of per axis power series."""
    total = np.eye(1, count)[0]
    for axis in axes:
        total = np.convolve(total, axis)[:count]
    return total


def _scaled_coefficient(j: int, p: int, shift: int) -> float:
    """(-1)^(j+p) C(2j, j+p) 2^shift / j!, rounded once from the integers."""
    num, den = math.comb(2 * j, j + p), math.factorial(j)
    return (-1) ** (j + p) * ((num << shift) / den if shift >= 0 else num / (den << -shift))


def _heat_series(a: float, t0: float, comps, integral: float) -> tuple[float, float]:
    """sum_k c_k t0^(k-a) / (k-a): the heat kernel minus its Taylor terms of
    degree <= a, integrated against t^(-1-a) over (0, t0) and continued in a,
    and the sum of its terms' magnitudes, by which its rounding is bounded.

    Per axis c_k(p) = (-1)^(k+p) C(2k, k+p) / k!, zero below P = sum_j p_j,
    and |c_k| t0^k <= x^k / k! with x = 4 dim t0: the sum runs from P to P + J,
    J the first count with x^J / J! <= 1e-18 e^x.  For P > a nothing is
    subtracted and, as ive(p, 2t) <= t^p / p!, the sum is below
    t0^(P-a) / ((P-a) prod_j p_j!); it is dropped when that is under 1e-18 of
    the integral beyond t0, which spares far offsets their factorials.

    Far into the sum c_k underflows and t0^(k-a) overflows, so both are
    carried scaled by 2^(s k), 2^s <= t0 < 2^(s+1).  Powers of two scale
    exactly: where neither factor leaves the double range the terms keep
    the bits of the unscaled product, and elsewhere t0^(k-a) 2^(-s k) is
    (t0 2^-s)^k t0^-a, whose factors stay inside it.
    """
    total = sum(comps)
    log_bound = (total - a) * math.log(t0) - sum(math.lgamma(p + 1.0) for p in comps)
    if total > a and log_bound - math.log(total - a) < _HEAT_LOG_TOL + math.log(integral + 1e-300):
        return 0.0, 0.0
    x = 4.0 * len(comps) * t0
    extra = 0
    while extra <= x or extra * math.log(x) - math.lgamma(extra + 1.0) > _HEAT_LOG_TOL + x:
        extra += 1
    k = np.arange(total + extra + 1)
    s = math.frexp(t0)[1] - 1
    axes = ([_scaled_coefficient(j, p, s * j) for j in range(k.size)] for p in comps)
    inside = np.abs((k - a) * math.log(t0)) < _LOG_DOUBLE_MAX - 2.0
    power = np.where(inside, np.ldexp(t0 ** np.where(inside, k - a, 0.0), -s * k),
                     math.ldexp(t0, -s) ** k * t0 ** -a)
    terms = _series_product(axes, k.size) * power / (k - a)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def _heat_integral(a: float, t0: float, comps, panels: int, gauss_order: int) -> float:
    """int_t0^T t^(-1-a) prod_j ive(p_j, 2t) dt, T = t0 e^panels, on unit Gauss
    panels in u = log(t / t0), where the integrand is smooth on the scale of one."""
    u, w = gauss_panel_rule(np.arange(panels + 1.0), gauss_order)
    bessel = {p: ive(p, 2.0 * t0 * np.exp(u)) for p in dict.fromkeys(comps)}
    return t0 ** (-a) * float(w @ math.prod((bessel[p] for p in comps), start=np.exp(-a * u)))


def _heat_tail(a: float, upper: float, comps) -> tuple[float, float]:
    """int_T^inf t^(-1-a) prod_j ive(p_j, 2t) dt and the size of its last term, from
    the Hankel expansion ive(p, z) ~ (2 pi z)^(-1/2) sum_k (-1)^k a_k(p) / z^k
    (DLMF 10.40.1) multiplied out over the axes and integrated term by term."""
    axes = (hankel_coefficients(p, _HEAT_TAIL_TERMS) for p in comps)
    m = np.arange(_HEAT_TAIL_TERMS)
    power = a + 0.5 * len(comps) + m
    terms = _series_product(axes, m.size) * 2.0 ** (-m) * upper ** (-power) / power
    terms *= (4.0 * math.pi) ** (-0.5 * len(comps))
    return float(np.sum(terms)), abs(float(terms[-1]))


def element_infinite_nd_bessel(
    order: FractionalOrder, dim: int, offset: OffsetVector, tol: float = _ND_TOL
) -> float:
    """Infinite lattice profile as a subordination integral over the heat kernel.

    With a = alpha/2 non integer and the heat kernel H(t) = prod_j ive(|p_j|, 2t)
    = prod_j e^(-2t) I_|p_j|(2t), whose Taylor coefficients are c_k,
    f(p) / omega_sq = Gamma(-a)^-1 [ sum_k c_k t0^(k-a) / (k-a) + int_t0^inf t^(-1-a) H dt ].
    The split t0 = a / (4 dim) minimises the cancellation e^(4 dim t0) / (2 dim t0)^a
    between the series and the integral, which runs on unit Gauss panels in
    log t up to T <= 2.5e8 and then on the Hankel expansion of ive.  The
    error estimate, omega_sq / |Gamma(-a)| times the difference of Gauss
    orders n = _GAUSS_ORDER and n + 8, plus the tail's last term, plus the
    series' rounding, half an epsilon of its terms' magnitudes per axis (one
    rounding per term and about one per convolution of the axes' series),
    floored at the value's last place, is checked against tol.  As for the zone
    integral, the default tol cannot be met once |f| reaches 2^23: at the
    origin from alpha about 17.86 in 2D and 15.26 in 3D.  The series and
    the integral cancel like e^a: at the default tol the rounding alone
    refuses a few 1D elements below 2^23 from alpha about 35, a third of
    them from 100 and two thirds from 200.
    """
    require_positive_finite("tol", tol)
    if order.is_integer_half:
        raise ValueError("the Bessel representation requires non integer alpha/2")
    if order.alpha > _HEAT_MAX_ALPHA:
        raise ValueError(f"the Bessel route needs alpha <= {_HEAT_MAX_ALPHA:g}, got {order.alpha}")
    if not (isinstance(dim, int) and 1 <= dim <= _MAX_DIM):
        raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {dim}")
    if offset.dim != dim:
        raise ValueError(f"offset has {offset.dim} components, expected {dim}")
    a = 0.5 * order.alpha
    # sorted, so permuted and sign flipped offsets multiply in one order
    comps = sorted(abs(c) for c in offset.components)
    t0 = a / (4.0 * dim)
    panels = int(math.log(_HEAT_T_MAX / t0))
    coarse, fine = (_heat_integral(a, t0, comps, panels, n) for n in (_GAUSS_ORDER, _GAUSS_ORDER + 8))
    tail, last = _heat_tail(a, t0 * math.exp(panels), comps)
    scale = order.omega_sq / math.gamma(-a)  # finite for non integer 0 < a <= 128
    series, magnitude = _heat_series(a, t0, comps, fine)
    value = scale * (series + fine + tail)
    estimate = abs(scale) * (abs(fine - coarse) + last + _HALF_EPSILON * dim * magnitude)
    return accept_estimate(value, estimate, tol, "heat kernel integral")


# the name bench/spans.py times the route by
bessel_element_extrapolated = element_infinite_nd_bessel


def asymptotic_constant_nd(dim: int, alpha: float) -> float:
    """Far field constant of the nD profile decay -C / p^(dim + alpha).

    C = 2^(alpha-1) alpha gamma((alpha+dim)/2) / (pi^(dim/2) gamma(1-alpha/2)),
    evaluated through the reflection of gamma(1 - alpha/2) so the expression
    stays finite across alpha = 2; at even integer alpha the sine factor is an
    exact zero and 0.0 is returned.  OverflowError past the double range.
    """
    if not (isinstance(dim, int) and 1 <= dim <= _MAX_DIM):
        raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {dim}")
    require_positive_finite("alpha", alpha)
    if is_integer_half(alpha):
        return 0.0
    log_mag = (
        (alpha - 1.0) * math.log(2.0)
        + math.log(alpha)
        + math.lgamma(0.5 * (alpha + dim))
        + math.lgamma(0.5 * alpha)
        - (0.5 * dim + 1.0) * math.log(math.pi)
    )
    return within_double_range(f"asymptotic_constant_nd(dim={dim}, alpha={alpha!r})",
                               math.exp, log_mag) * _half_order_sine(alpha)


def normalized_dispersion_2d(order: FractionalOrder, kappa1, kappa2):
    """2D mode frequency normalized by the alpha = 2 band edge value.

    2^((alpha-3)/2) (sin^2(kappa1/2) + sin^2(kappa2/2))^(alpha/4); the
    frequency scale cancels in the ratio.  Every order crosses 2^(-3/2) where
    the Born-von-Karman eigenvalue equals one.  OverflowError from alpha 2051 on.
    """
    kappa1 = np.asarray(kappa1, dtype=float)
    kappa2 = np.asarray(kappa2, dtype=float)
    base = np.sin(0.5 * kappa1) ** 2 + np.sin(0.5 * kappa2) ** 2
    return within_double_range(f"normalized_dispersion_2d(alpha={order.alpha!r})",
                               lambda: 2.0 ** (0.5 * (order.alpha - 3.0)) * base ** (0.25 * order.alpha))


def dispersion_surface(order: FractionalOrder, grid: int) -> np.ndarray:
    """Normalized 2D dispersion sheet sampled on an m x m grid over [0, pi]^2.

    Returns rows (kappa1, kappa2, normalized frequency), kappa2 fastest.
    """
    if not (isinstance(grid, int) and grid >= 2):
        raise ValueError(f"grid must be an integer >= 2, got {grid}")
    axis = np.linspace(0.0, math.pi, grid)
    k1, k2 = np.meshgrid(axis, axis, indexing="ij")
    values = normalized_dispersion_2d(order, k1, k2)
    return np.column_stack([k1.ravel(), k2.ravel(), values.ravel()])
