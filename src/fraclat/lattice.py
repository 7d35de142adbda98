"""Fractional Laplacian elements on n dimensional cubic lattices.

Extends the chain routes to n dimensions.  The coupling profile at integer
offset vector p is reachable by three independent representations:

* a spectral sum over the Bloch modes of a finite periodic lattice,
* a Brillouin zone integral, evaluated by tensor Gauss rules on dyadic
  shells around the zone centre,
* a damped oscillatory integral over a product of Bessel functions of the
  first kind against the regularized power law kernel, extrapolated to zero
  damping by a three point Richardson scheme.

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

The Bessel route converges in the damping parameter with a mixture of integer
powers and a band edge power (dim + alpha) / 2 coming from the kink of
lambda^(alpha/2) at the zone centre, so the Richardson weights are built for
the two leading exponents of that mixture rather than for plain powers.  The
three dampings are sampled in one pass: their uniform panel grids are
prefixes of the smallest damping's grid, so the damping independent factor
trig(2 n xi) prod_j J_{|p_j|}(2 xi) is evaluated once per node and only the
damped kernel is evaluated per damping.  The Bessel functions come from
scipy.special, which is imported on the route's first jv call, so importing
this module does not load scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# unused here, but bench/spans.py wraps lattice.leggauss to count Gauss orders
from numpy.polynomial.legendre import leggauss  # noqa: F401

from .chain import INFINITE, FractionalOrder, is_integer_half
from .special import (
    QuadratureSpec,
    ToleranceError,
    gauss_panel_rule,
    geometric_panel_edges,
    log_gamma,
)

__all__ = [
    "SizeLimitError",
    "ExtrapolationError",
    "LatticeSpec",
    "OffsetVector",
    "eigenvalue_nd",
    "element_periodic_nd",
    "build_laplacian_nd",
    "element_infinite_nd_bz",
    "element_infinite_nd_bessel",
    "bessel_element_extrapolated",
    "default_bessel_epsilon",
    "asymptotic_constant_nd",
    "normalized_dispersion_2d",
    "dispersion_surface",
]

SPECTRAL_POINT_CAP = 10**7

_MAX_DIM = 4


def jv(order, x):
    """Bessel function of the first kind J_order(x), from scipy.special.

    scipy.special takes about 0.3 s to import and only the Bessel route
    needs it, so it is imported on the first call.  The route calls jv by
    this module level name, which bench/spans.py wraps to count evaluations.
    """
    from scipy.special import jv as scipy_jv

    return scipy_jv(order, x)


class SizeLimitError(ValueError):
    """A periodic spectral sum would exceed the total point cap."""


class ExtrapolationError(RuntimeError):
    """Zero damping extrapolation failed its self consistency check."""

    def __init__(self, message: str, epsilons: tuple[float, float, float], estimate: float):
        super().__init__(
            f"{message}: damping values {epsilons[0]:g}, {epsilons[1]:g}, {epsilons[2]:g} "
            f"give consistency estimate {estimate:.3e}"
        )
        self.epsilons = epsilons
        self.estimate = estimate


@dataclass(frozen=True)
class LatticeSpec:
    """Cubic lattice geometry: dimension, per axis sizes and mass.

    sizes is a tuple with one entry per axis, each an integer >= 2, or every
    entry INFINITE for the infinite lattice.  The frequency scale lives on
    the FractionalOrder.
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
        finite = [s for s in sizes if s != INFINITE]
        if finite and len(finite) != self.dim:
            raise ValueError("sizes must be all finite or all INFINITE")
        if finite:
            coerced = []
            for s in sizes:
                if s != int(s) or int(s) < 2:
                    raise ValueError(f"finite sizes must be integers >= 2, got {s}")
                coerced.append(int(s))
            sizes = tuple(coerced)
        object.__setattr__(self, "sizes", sizes)
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    @property
    def is_infinite(self) -> bool:
        return self.sizes[0] == INFINITE

    @property
    def n_points(self) -> float:
        return INFINITE if self.is_infinite else float(math.prod(self.sizes))


@dataclass(frozen=True)
class OffsetVector:
    """Integer site offset (p_1, ..., p_n) between two lattice points."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if c != int(c):
                raise ValueError(f"offset components must be integers, got {c}")
        object.__setattr__(self, "components", tuple(int(c) for c in comps))

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def total_order(self) -> int:
        return sum(abs(c) for c in self.components)

    def reduced(self, sizes) -> "OffsetVector":
        return OffsetVector(tuple(c % n for c, n in zip(self.components, sizes)))


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
    cos(kappa . p) * lambda(kappa)^(alpha/2).
    """
    if lattice.is_infinite:
        raise ValueError("spectral sum requires a finite lattice")
    if offset.dim != lattice.dim:
        raise ValueError(f"offset has {offset.dim} components, lattice has {lattice.dim}")
    if lattice.n_points > SPECTRAL_POINT_CAP:
        raise SizeLimitError(
            f"spectral sum over {lattice.n_points:.0f} points exceeds the cap {SPECTRAL_POINT_CAP}"
        )
    a = 0.5 * order.alpha
    offset = offset.reduced(lattice.sizes)
    # iterate over the shortest axis and broadcast the rest, so the inner
    # vectorised block is as large as possible
    axes = sorted(range(lattice.dim), key=lambda j: lattice.sizes[j])
    sizes = [lattice.sizes[j] for j in axes]
    comps = [offset.components[j] for j in axes]
    s2 = []
    cosines = []
    for n_j, p_j in zip(sizes, comps):
        ell = np.arange(n_j)
        s2.append(4.0 * np.sin(math.pi * ell / n_j) ** 2)
        cosines.append(np.cos(2.0 * math.pi * ell * p_j / n_j))
    if lattice.dim == 1:
        total = float(np.dot(cosines[0], s2[0] ** a))
    else:
        shape = [1] * (lattice.dim - 1)
        rest_sum = np.zeros(shape)
        rest_cos = np.ones(shape)
        for j in range(1, lattice.dim):
            form = [1] * (lattice.dim - 1)
            form[j - 1] = sizes[j]
            rest_sum = rest_sum + s2[j].reshape(form)
            rest_cos = rest_cos * cosines[j].reshape(form)
        total = 0.0
        for i in range(sizes[0]):
            total += cosines[0][i] * float(np.sum(rest_cos * (s2[0][i] + rest_sum) ** a))
    return float(order.omega_sq * total / math.prod(sizes))


def build_laplacian_nd(order: FractionalOrder, lattice: LatticeSpec):
    """Fractional Laplacian of a finite periodic lattice, all at once.

    Returns (table, eigenvalues), both of shape lattice.sizes: table[p] is
    -mass * f(p) over the fundamental cell, the inverse DFT of the modes
    omega_sq * lambda(kappa)^(alpha/2), and eigenvalues[l] is -mass times
    the mode at Bloch vector kappa_j = 2 pi l_j / N_j.
    """
    if lattice.is_infinite:
        raise ValueError("matrix construction requires a finite lattice")
    axes = [2.0 * np.pi * np.arange(n) / n for n in lattice.sizes]
    kappa = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    modes = order.omega_sq * eigenvalue_nd(kappa) ** (0.5 * order.alpha)
    table = -lattice.mass * np.fft.ifftn(modes).real
    return table, -lattice.mass * modes + 0.0


# elements of the largest lambda^(alpha/2) array built at once (1 MB)
_BZ_BLOCK = 1 << 17


def _tensor_sum(a: float, axes) -> float:
    """Tensor product rule sum of prod_j cw_j * (sum_j s2_j)^a.

    axes holds one (s2, cw) pair per axis: the values of 4 sin^2(kappa / 2)
    and of cos(p_j kappa) times the weight at that axis's nodes.  The grid
    is evaluated in row blocks of axis 0 of at most _BZ_BLOCK points (at
    least one row) and contracted axis by axis.
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
    order: FractionalOrder, dim: int, offset: OffsetVector, spec: QuadratureSpec | None = None
) -> float:
    """Infinite lattice profile as a Brillouin zone integral.

    Evenness folds the integral to [0, pi]^n with a product of cosines:
    f(p) = omega_sq / pi^n * int prod_j cos(kappa_j p_j) lambda^(alpha/2).
    The cube is cut into dyadic shells around the kink of lambda^(alpha/2)
    at the zone centre, h = pi, pi/2, ... down to 1e-8, plus the innermost
    cube; each shell is a few boxes on which the integrand is analytic,
    integrated by a tensor Gauss rule whose panels are capped per axis so
    each sees under half an oscillation period.  Gauss orders spec.points
    and spec.points + 8 give the error estimate |difference|, checked
    against spec.abs_tol; it is never taken below one unit in the last place
    of the result, since the two orders often agree to the last bit.
    """
    if not (isinstance(dim, int) and 1 <= dim <= 3):
        raise ValueError(f"the zone integral supports dim 1..3, got {dim}")
    if offset.dim != dim:
        raise ValueError(f"offset has {offset.dim} components, expected {dim}")
    if spec is None:
        spec = QuadratureSpec(points=24, abs_tol=1e-9)
    comps = offset.components
    coarse = _bz_value(order, comps, spec.points)
    fine = _bz_value(order, comps, spec.points + 8)
    estimate = max(abs(fine - coarse), math.ulp(fine))
    if estimate > spec.abs_tol:
        raise ToleranceError(
            f"zone integral error estimate above bound {spec.abs_tol:.3e}", achieved=estimate
        )
    return order.omega_sq * fine


_BESSEL_GAUSS_ORDER = 16
_BESSEL_BLOCK_PANELS = 50000


def _damped_bessel_values(
    order: FractionalOrder, dim: int, offset: OffsetVector, epsilons, xi_maxes
) -> list[float]:
    """Damped Bessel product integrals at several dampings, without the scale.

    Integrand on xi >= 0 (the negative half plane is its mirror):
    2 sigma trig(2 n xi) prod_j J_{|p_j|}(2 xi) D(xi) exp(-2 n eps xi),
    where D is the regularized power law kernel
    gamma(s) / pi * Re (eps - i xi)^(-s) with s = alpha/2 + 1, and the
    trig/sign pair comes from the phase factor (-i)^P of the Bessel bridge
    I_p(-2 i xi) = (-i)^p J_p(2 xi) with P = sum |p_j|.

    Returns one value per (epsilon, xi_max) pair, each bit-identical to a
    call with that pair alone.  The factor trig(2 n xi) prod_j J does not
    depend on the damping.  Each damping gets its own geometric start-up,
    but dampings whose start-ups end at the same point share one uniform
    panel grid, of which each uses a prefix; the shared factor is evaluated
    once per node of the longest grid, with one J call per distinct |p_j|.
    """
    s = 0.5 * order.alpha + 1.0
    total_p = offset.total_order
    width = math.pi / (2.0 * (2 * dim + 1))
    kernel_scale = math.exp(log_gamma(s)) / math.pi
    sign = -1.0 if (total_p // 2) % 2 else 1.0
    use_cos = total_p % 2 == 0
    abs_p = [abs(c) for c in offset.components]

    def shared_factor(xi: np.ndarray) -> np.ndarray:
        osc = np.cos(2.0 * dim * xi) if use_cos else np.sin(2.0 * dim * xi)
        x2 = 2.0 * xi
        bessel = {p: jv(p, x2) for p in dict.fromkeys(abs_p)}
        prod = bessel[abs_p[0]]
        for p in abs_p[1:]:
            prod = prod * bessel[p]
        return osc * prod

    def damped_sum(epsilon: float, xi: np.ndarray, wts: np.ndarray, shared: np.ndarray) -> float:
        r = np.hypot(epsilon, xi)
        theta = np.arctan2(-xi, epsilon)
        kernel = kernel_scale * r ** (-s) * np.cos(s * theta)
        return float(np.dot(wts, shared * kernel * np.exp(-2.0 * dim * epsilon * xi)))

    totals = []
    grids = {}  # uniform grid origin -> (damping index, panel count) pairs
    for i, (epsilon, xi_max) in enumerate(zip(epsilons, xi_maxes)):
        # geometric panels resolve the eps scale spike of the kernel at xi = 0
        # and its algebraic xi^(-s) shape; uniform panels track the oscillation.
        # lo = eps/32 scales by exact powers of two, so the default ladder
        # eps, eps/2, eps/4 ends its start-ups at one shared origin
        lo = min(epsilon / 32.0, width / 1024.0)
        geo = [0.0]
        w_cur = lo
        while w_cur < width:
            geo.append(w_cur)
            w_cur *= 2.0
        xi, wts = gauss_panel_rule(geo, _BESSEL_GAUSS_ORDER)
        totals.append(damped_sum(epsilon, xi, wts, shared_factor(xi)))
        n_uniform = int(math.ceil((xi_max - geo[-1]) / width))
        grids.setdefault(geo[-1], []).append((i, n_uniform))

    def uniform_block(start: float, k0: int, k1: int, members) -> None:
        # panels k0..k1-1 of one shared grid; a damping whose grid ends inside
        # the block sums over the prefix of nodes it would have built itself
        edges = start + width * np.arange(k0, k1 + 1)
        xi, wts = gauss_panel_rule(edges, _BESSEL_GAUSS_ORDER)
        shared = shared_factor(xi)
        for i, n_uniform in members:
            if n_uniform > k0:
                m = _BESSEL_GAUSS_ORDER * (min(k1, n_uniform) - k0)
                totals[i] += damped_sum(epsilons[i], xi[:m], wts[:m], shared[:m])

    for start, members in grids.items():
        n_max = max(n for _, n in members)
        for k0 in range(0, n_max, _BESSEL_BLOCK_PANELS):
            uniform_block(start, k0, min(k0 + _BESSEL_BLOCK_PANELS, n_max), members)
    return [2.0 * sign * total for total in totals]


def _bessel_envelope(order: FractionalOrder, dim: int, epsilon: float, xi: float) -> float:
    s = 0.5 * order.alpha + 1.0
    return (
        2.0
        * math.exp(log_gamma(s))
        / math.pi
        * math.hypot(epsilon, xi) ** (-s)
        * math.exp(-2.0 * dim * epsilon * xi)
    )


def _check_bessel_args(
    order: FractionalOrder, dim: int, offset: OffsetVector, epsilon: float, xi_max=None
) -> float:
    # checks one damping and returns its xi_max, by default 36 / (2 dim epsilon)
    if order.is_integer_half:
        raise ValueError("the Bessel representation requires non integer alpha/2")
    if not (isinstance(dim, int) and 1 <= dim <= _MAX_DIM):
        raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {dim}")
    if offset.dim != dim:
        raise ValueError(f"offset has {offset.dim} components, expected {dim}")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if xi_max is None:
        xi_max = 36.0 / (2.0 * dim * epsilon)
    if not xi_max > 0.0:
        raise ValueError(f"xi_max must be positive, got {xi_max}")
    if _bessel_envelope(order, dim, epsilon, xi_max) >= 1e-14:
        raise ValueError(
            f"xi_max {xi_max:g} leaves damped integrand envelope "
            f"{_bessel_envelope(order, dim, epsilon, xi_max):.3e} >= 1e-14"
        )
    return xi_max


def element_infinite_nd_bessel(
    order: FractionalOrder, dim: int, offset: OffsetVector, epsilon: float, xi_max: float
) -> float:
    """Single damping evaluation of the Bessel product representation.

    Returns the profile at damping epsilon; the limit of zero damping is the
    infinite lattice element, reached by Richardson extrapolation over
    epsilon, epsilon/2, epsilon/4 (see bessel_element_extrapolated).
    """
    _check_bessel_args(order, dim, offset, epsilon, xi_max)
    return order.omega_sq * _damped_bessel_values(order, dim, offset, (epsilon,), (xi_max,))[0]


_BESSEL_EPSILON = {1: 1.5e-4, 2: 2.5e-4, 3: 1.25e-3, 4: 2.5e-3}


def default_bessel_epsilon(dim: int) -> float:
    """Base damping of the Richardson ladder, calibrated for errors near 3e-7.

    The 3e-7 target is not met everywhere.  Measured misses: in 3D at the
    origin for alpha = 0.1, 0.3 (off by 1.9e-6) and 0.7, and at (1, 0, 0)
    for alpha = 3.3 (2.3e-6); in 1D at p = 0 for alpha = 1.3 (7.5e-7) and
    alpha = 2.2 (9.7e-5); in 4D at the origin for alpha = 0.5, where the
    route gives 1.6580706787 and periodic sums at N = 24 and 48, Richardson
    extrapolated in N^-4.5, give 1.6580534235 (off by 1.7e-5).  See
    bench/NOTES.md; ROADMAP item 5 tracks the fix.
    """
    if dim not in _BESSEL_EPSILON:
        raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {dim}")
    return _BESSEL_EPSILON[dim]


def _extrapolation_exponents(dim: int, alpha: float) -> tuple[float, float]:
    # error mixture: integer powers of the damping plus the band edge power
    # (dim + alpha) / 2; eliminate the two leading exponents
    beta = 0.5 * (dim + alpha)
    if beta < 1.0:
        return beta, 1.0
    if abs(beta - round(beta)) < 1e-9:
        return 1.0, 2.0
    return 1.0, min(2.0, beta)


def _richardson_weights(e1: float, e2: float) -> np.ndarray:
    x = np.array([1.0, 0.5, 0.25])
    system = np.vstack([np.ones(3), x**e1, x**e2])
    return np.linalg.solve(system, np.array([1.0, 0.0, 0.0]))


def bessel_element_extrapolated(
    order: FractionalOrder,
    dim: int,
    offset: OffsetVector,
    epsilon: float | None = None,
    check_tol: float = 1e-4,
) -> float:
    """Zero damping limit of the Bessel route by three point Richardson.

    Evaluates at epsilon, epsilon/2, epsilon/4 and combines with weights that
    cancel the two leading error exponents.  The difference between the two
    point and three point extrapolants measures the size of the last
    eliminated term; it is a deliberately conservative consistency check, two
    to three orders above the true error at the calibrated defaults.
    """
    if epsilon is None:
        epsilon = default_bessel_epsilon(dim)
    epsilons = (epsilon, 0.5 * epsilon, 0.25 * epsilon)
    xi_maxes = tuple(_check_bessel_args(order, dim, offset, eps) for eps in epsilons)
    values = [
        order.omega_sq * value
        for value in _damped_bessel_values(order, dim, offset, epsilons, xi_maxes)
    ]
    e1, e2 = _extrapolation_exponents(dim, order.alpha)
    weights = _richardson_weights(e1, e2)
    third = float(np.dot(weights, values))
    gain = 2.0**e1
    second = (gain * values[2] - values[1]) / (gain - 1.0)
    estimate = abs(second - third)
    if estimate > check_tol * max(1.0, abs(third)):
        raise ExtrapolationError("extrapolation did not converge", epsilons, estimate)
    return third


def asymptotic_constant_nd(dim: int, alpha: float) -> float:
    """Far field constant of the nD profile decay -C / p^(dim + alpha).

    C = 2^(alpha-1) alpha gamma((alpha+dim)/2) / (pi^(dim/2) gamma(1-alpha/2)),
    evaluated through the reflection of gamma(1 - alpha/2) so the expression
    stays finite across alpha = 2; at even integer alpha the sine factor is an
    exact zero and 0.0 is returned.
    """
    if not (isinstance(dim, int) and 1 <= dim <= _MAX_DIM):
        raise ValueError(f"dim must be in 1..{_MAX_DIM}, got {dim}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if is_integer_half(alpha):
        return 0.0
    log_mag = (
        (alpha - 1.0) * math.log(2.0)
        + math.log(alpha)
        + log_gamma(0.5 * (alpha + dim))
        + log_gamma(0.5 * alpha)
        - (0.5 * dim + 1.0) * math.log(math.pi)
    )
    return math.exp(log_mag) * math.sin(0.5 * math.pi * alpha)


def normalized_dispersion_2d(order: FractionalOrder, kappa1, kappa2):
    """2D mode frequency normalized by the alpha = 2 band edge value.

    2^((alpha-3)/2) (sin^2(kappa1/2) + sin^2(kappa2/2))^(alpha/4); the
    frequency scale cancels in the ratio.  Every order crosses 2^(-3/2) where
    the Born-von-Karman eigenvalue equals one.
    """
    kappa1 = np.asarray(kappa1, dtype=float)
    kappa2 = np.asarray(kappa2, dtype=float)
    base = np.sin(0.5 * kappa1) ** 2 + np.sin(0.5 * kappa2) ** 2
    value = 2.0 ** (0.5 * (order.alpha - 3.0)) * base ** (0.25 * order.alpha)
    return float(value) if value.ndim == 0 else value


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
