"""Fractional Laplacian elements on n dimensional cubic lattices.

Extends the chain routes to n = 1 .. 4 dimensions (_MAX_DIM), one check
for every function that takes a dimension.  The coupling profile at integer
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
SIAM J. Numer. Anal. 19 (1982) 1260-1262).  Below the first few shells
every shell has the same panels scaled by h, so those shells are stacked
and summed in one tensor pass per box.  No array of a pass holds more than
_BZ_BLOCK points, in any dimension: where the grid beside the first axis
is larger, the pass runs once per node of that axis.  The shells are
summed from the outside in, and those whose whole cube [0, h]^n is below
the value's last place are left out; a bound on them joins the error
estimate.

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
import itertools
import math
from dataclasses import dataclass

import numpy as np
# bench/spans.py wraps leggauss, jv and bessel_element_extrapolated here by
# name to count Gauss orders and time the routes; no route calls leggauss or jv
from numpy.polynomial.legendre import leggauss  # noqa: F401

from .chain import FractionalOrder, _half_order_sine, _ring_eigenvalues, is_integer_half, ring_axis
from .special import (
    _LOG_DOUBLE_MAX,
    _UNIT_ROUNDOFF,
    accept_estimate,
    gauss_panel_rule,
    geometric_panel_edges,
    hankel_coefficients,
    ive,
    require_integer,
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
    "dispersion_sheet",
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


def _check_domain(dim, offset=None) -> int:
    """dim as an int in 1.._MAX_DIM, offset, if given, of dim components; ValueError otherwise."""
    dim = require_integer(dim, f"dim must be in 1..{_MAX_DIM}", low=1, high=_MAX_DIM)
    if offset is not None and offset.dim != dim:
        raise ValueError(f"offset has {offset.dim} components, expected {dim}")
    return dim


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
        object.__setattr__(self, "dim", _check_domain(self.dim))
        sizes = tuple(require_integer(s, "sizes must be integers >= 2", low=2) for s in self.sizes)
        if len(sizes) != self.dim:
            raise ValueError(f"sizes must have {self.dim} entries, got {len(sizes)}")
        object.__setattr__(self, "sizes", sizes)
        require_positive_finite("mass", self.mass)

    @property
    def n_points(self) -> int:
        return math.prod(self.sizes)


@dataclass(frozen=True)
class OffsetVector:
    """Integer site offset (p_1, ..., p_n) between two lattice points."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(
            require_integer(c, "offset components must be integers") for c in self.components))

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
    _check_domain(lattice.dim, offset)
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


# points of the largest array _tensor_sum builds, in any dimension (1 MB)
_BZ_BLOCK = 1 << 17


def _tensor_sum(a: float, axes, shift=0.0):
    """Tensor product rule sum of prod_j cw_j * (shift + sum_j s2_j)^a.

    axes holds one (s2, cw) pair per axis: the values of 4 sin^2(kappa / 2)
    and of cos(p_j kappa) times the weight (one in a Bloch sum) at that
    axis's nodes.  Pairs of arrays of shape (stack, nodes) hold a stack of
    grids of one shape, and give an array of their sums.  Where the grids
    of the other axes fit in _BZ_BLOCK points, they are evaluated in row
    blocks of axis 0, all grids at once, of at most _BZ_BLOCK points and
    contracted axis by axis.  Where they do not, each node of axis 0 adds
    its 4 sin^2 as the shift of one such sum over the other axes, so no
    array passes _BZ_BLOCK points in any dimension.
    """
    if axes[0][0].ndim == 1:
        return float(_tensor_sum(a, [(s2[None], cw[None]) for s2, cw in axes])[0])
    stack = len(axes[0][0])
    s2_0, cw_0 = axes[0]
    if stack * math.prod(s2.shape[1] for s2, _ in axes[1:]) > _BZ_BLOCK:
        return sum(cw_0[:, i] * _tensor_sum(a, axes[1:], shift + s2_0[:, i]) for i in range(s2_0.shape[1]))
    rest = np.zeros(stack) + shift
    for s2, _ in axes[1:]:
        rest = rest[..., None] + s2.reshape(stack, *(1,) * (rest.ndim - 1), -1)
    rows = _BZ_BLOCK // rest.size
    expand = (None,) * (rest.ndim - 1)
    totals = np.zeros(stack)
    for i0 in range(0, s2_0.shape[1], rows):
        block = slice(i0, i0 + rows)
        lam = s2_0[(slice(None), block) + expand] + rest[:, None]
        np.power(lam, a, out=lam)
        for _, cw in axes[:0:-1]:
            lam = lam.reshape(stack, -1, cw.shape[1]) @ cw[:, :, None]
        totals += (cw_0[:, None, block] @ lam.reshape(stack, -1, 1))[:, 0, 0]
    return totals


def _halves(x):
    """Veltkamp's split of x into a 26 bit head and the rest, x = head + rest exactly."""
    c = 134217729.0 * x  # 2^27 + 1
    head = c - (c - x)
    return head, x - head


def _cos_of_product(p: int, x: np.ndarray) -> np.ndarray:
    """cos(p x) at the nodes x, from the exact product p x.

    Rounding p x to a double moves the phase by up to half its last place,
    5.7e-14 at p x = 300 pi, the larger part of a far offset's rounding
    error.  Dekker's product gives that rounding e exactly (Numer. Math. 18
    (1971) 224-242), and cos(p x) = cos(q) - e sin(q) to within e^2 / 2,
    q = p x rounded.
    """
    q = p * x
    (p_head, p_rest), (x_head, x_rest) = _halves(float(p)), _halves(x)
    e = ((p_head * x_head - q) + p_head * x_rest + p_rest * x_head) + p_rest * x_rest
    return np.cos(q) - e * np.sin(q)


def _bz_value(a: float, comps, gauss_order: int) -> tuple[float, float]:
    """Zone integral over [0, pi]^n without the scale, on dyadic shells, and a
    bound on the part of it left out.

    The shells [0, h]^n minus [0, h/2]^n run outside in over the geometric
    panel edges h = pi, pi/2, ... down to the 1e-8 floor.  On each axis, low
    is [0, h/2], high is [h/2, h] and full is [0, h], low and high each split
    into equal panels no wider than 2 pi / (|p_j| + 1), one period of
    cos(p_j kappa_j).  A shell is the union of the boxes
    low^j x high x full^(n-j-1), j = 0..n-1.  Shells with the same panel
    counts on every axis scale one rule by h and are stacked, one
    _tensor_sum pass per box and block of shells.  The sum stops before the
    first h where the cube [0, h]^n is at most a quarter of the running
    value's last place.  Since 4 sin^2(kappa / 2) <= kappa^2 and |cos| <= 1,
    that cube is at most (h / pi)^n (n h^2)^a, the bound returned.  Where no
    h stops it, the innermost cube, low on every axis of the smallest shell,
    closes the sum and the bound is 0.  The shells' sums are added exactly
    (math.fsum), so their order adds no rounding.
    """
    dim, scale = len(comps), math.pi ** len(comps)
    caps = [2.0 * math.pi / (abs(p) + 1.0) for p in comps]
    radii = geometric_panel_edges(math.pi)[:1:-1]
    parts = []  # the shells' sums, added exactly
    for counts, run in itertools.groupby(
            radii, key=lambda h: tuple(max(1, math.ceil(0.5 * h / cap)) for cap in caps)):
        shells = np.array(list(run))
        axes, low = [], [k * gauss_order for k in counts]  # nodes on low, as on high
        for p, k in zip(comps, counts):
            x, w = gauss_panel_rule(np.arange(2 * k + 1) / (2 * k), gauss_order)
            x = np.multiply.outer(shells, x)
            axes.append((4.0 * np.sin(0.5 * x) ** 2, _cos_of_product(p, x) * np.multiply.outer(shells, w)))
        boxes = [[slice(m) for m in low[:j]] + [slice(low[j], None)] + [slice(None)] * (dim - j - 1)
                 for j in range(dim)]
        chunk = max(1, _BZ_BLOCK // (math.prod(low) * (2**dim - 1)))  # shells a block holds
        for i, h in enumerate(shells):
            value = math.fsum(parts) / scale
            log_cube = dim * math.log(h / math.pi) + a * math.log(dim * h * h)
            if value != 0.0 and log_cube <= math.log(math.ulp(value)) - math.log(4.0):
                return value, math.exp(log_cube)
            if i % chunk == 0:
                stack = slice(i, i + chunk)
                sums = sum(_tensor_sum(a, [(s2[stack, part], cw[stack, part])
                                           for part, (s2, cw) in zip(box, axes)]) for box in boxes)
            parts.append(float(sums[i % chunk]))
            if not math.isfinite(parts[-1]):  # before fsum, which refuses inf - inf
                raise OverflowError
    parts.extend(_tensor_sum(a, [(s2[-1:, :m], cw[-1:, :m]) for m, (s2, cw) in zip(low, axes)]))
    return math.fsum(parts) / scale, 0.0


def element_infinite_nd_bz(
    order: FractionalOrder, dim: int, offset: OffsetVector, tol: float = _ND_TOL
) -> float:
    """Infinite lattice profile as a Brillouin zone integral, dim 1 to 4.

    Evenness folds the integral to [0, pi]^n with a product of cosines:
    f(p) = omega_sq / pi^n * int prod_j cos(kappa_j p_j) lambda^(alpha/2).
    The cube is cut into dyadic shells around the kink of lambda^(alpha/2)
    at the zone centre, h = pi, pi/2, ... down to 1e-8, plus the innermost
    cube; each shell is a few boxes on which the integrand is analytic,
    integrated by a tensor Gauss rule whose panels are capped per axis so
    each sees at most one period of its cosine, in passes of at most
    _BZ_BLOCK points (_tensor_sum).  The shells are summed from
    the outside in and stop where the whole cube left, bounded by
    (h / pi)^n (n h^2)^(alpha/2), is at most a quarter of the value's last
    place.  Gauss orders n and n + 8, n = _GAUSS_ORDER, give the error
    estimate omega_sq (|difference| + that bound), floored at the value's
    last place and checked against tol.  The default tol is
    absolute: once |f| reaches 2^23 (about 8.4e6) its last place exceeds it
    and an explicit tol is needed, which at the origin happens from alpha
    about 17.86 in 2D, 15.26 in 3D and 13.79 in 4D.  Where the two orders
    differ by two last places, the default already fails at some orders from
    about 17.1 in 2D and 14.9 in 3D.  A 4D element takes 0.3 s at
    (1, 0, 0, 0), about 2 s at mixed components up to 8 and 10 s at
    (8, 8, 8, 8).  OverflowError where
    lambda^(alpha/2) or omega_sq times the integral passes the double range.
    """
    require_positive_finite("tol", tol)
    _check_domain(dim, offset)
    comps, a = offset.components, 0.5 * order.alpha
    call = f"element_infinite_nd_bz(alpha={order.alpha!r}, offset={comps})"
    coarse, _ = within_double_range(call, _bz_value, a, comps, _GAUSS_ORDER)
    fine, left_out = within_double_range(call, _bz_value, a, comps, _GAUSS_ORDER + 8)
    value = within_double_range(call, lambda: order.omega_sq * fine)
    return accept_estimate(value, order.omega_sq * (abs(fine - coarse) + left_out), tol, "zone integral")


# the log t panels end at T = t0 e^U <= 2.5e8, so the Bessel argument 2t stays
# below 5e8, where the tests still compare the route with scipy's ive (NaN from
# 2^30 on).  T bounds the offsets whose Hankel tail converges: at the default
# tol 1D offsets up to 6e4 (alpha 0.5) to 2.6e5 (alpha 3.7) pass, five to six
# times as far with T = 1e10
_HEAT_T_MAX = 2.5e8
_HEAT_TAIL_TERMS = 12
_HEAT_LOG_TOL = math.log(1e-18)  # series terms kept down to 1e-18 of their scale
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
    them from 100 and two thirds from 200.  OverflowError where the value
    passes the double range.
    """
    require_positive_finite("tol", tol)
    if order.is_integer_half:
        raise ValueError("the Bessel representation requires non integer alpha/2")
    if order.alpha > _HEAT_MAX_ALPHA:
        raise ValueError(f"the Bessel route needs alpha <= {_HEAT_MAX_ALPHA:g}, got {order.alpha}")
    dim = _check_domain(dim, offset)
    a = 0.5 * order.alpha
    # sorted, so permuted and sign flipped offsets multiply in one order
    comps = sorted(abs(c) for c in offset.components)
    t0 = a / (4.0 * dim)
    panels = int(math.log(_HEAT_T_MAX / t0))
    coarse, fine = (_heat_integral(a, t0, comps, panels, n) for n in (_GAUSS_ORDER, _GAUSS_ORDER + 8))
    tail, last = _heat_tail(a, t0 * math.exp(panels), comps)
    scale = order.omega_sq / math.gamma(-a)  # finite for non integer 0 < a <= 128
    series, magnitude = _heat_series(a, t0, comps, fine)
    call = f"element_infinite_nd_bessel(alpha={order.alpha!r}, offset={offset.components})"
    value = within_double_range(call, lambda: scale * (series + fine + tail))
    estimate = abs(scale) * (abs(fine - coarse) + last + _UNIT_ROUNDOFF * dim * magnitude)
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
    dim = _check_domain(dim)
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


def dispersion_sheet(order: FractionalOrder, grid: int) -> tuple:
    """Normalized 2D dispersion sheet on an m x m grid over [0, pi]^2, each
    value once: the sheet is symmetric under kappa1 <-> kappa2 bit for bit, as
    sin^2 a + sin^2 b is sin^2 b + sin^2 a.

    Returns (axis, values, index): the m samples of either axis, the sheet at
    (axis[i], axis[j]) for i <= j, row by row, and the m x m matrix whose
    entry [i, j] is the position of the sheet at (axis[i], axis[j]) in values.
    """
    m = require_integer(grid, "grid must be an integer >= 2", low=2)
    axis = np.linspace(0.0, math.pi, m)
    lengths = np.arange(m, 0, -1)  # row i of the upper triangle holds j = i .. m-1
    values = normalized_dispersion_2d(order, np.repeat(axis, lengths),
                                      np.concatenate([axis[i:] for i in range(m)]))
    index = np.empty((m, m), dtype=np.min_scalar_type(len(values) - 1))
    for i, start in enumerate((np.cumsum(lengths) - lengths).tolist()):
        index[i, i:] = np.arange(start, start + m - i)
        index[i, :i] = index[:i, i]  # the upper triangle's rows above, mirrored
    return axis, values, index


def dispersion_surface(order: FractionalOrder, grid: int) -> np.ndarray:
    """Normalized 2D dispersion sheet sampled on an m x m grid over [0, pi]^2.

    Returns rows (kappa1, kappa2, normalized frequency), kappa2 fastest: the
    rows of dispersion_sheet expanded.
    """
    axis, values, index = dispersion_sheet(order, grid)
    k1, k2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([k1.ravel(), k2.ravel(), values[index].ravel()])
