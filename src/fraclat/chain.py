"""Fractional Laplacian elements on the one dimensional chain.

The central object is the coupling profile f(p): the entry of the
characteristic matrix (2 - D - D^dagger)^(alpha/2) at offset p between two
sites, scaled by the squared frequency constant.  The Laplacian matrix itself
carries an extra factor -mass.  Every element is computable by independent
routes:

* a closed form for the infinite chain, its series walked down a recurrence,
* a Brillouin zone integral of the dispersion against a plane wave,
* a Bloch sum over the discrete modes of a finite ring,
* a sum over periodic images of the infinite chain profile.

The routes share no code beyond scalar special functions, which makes
cross-checking them a meaningful test of each.  The closed form is a pure
function of the order and the offset.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .special import (
    _BERNOULLI,
    _LOG_DOUBLE_MAX,
    _UNIT_ROUNDOFF,
    ToleranceError,
    accept_estimate,
    hurwitz_zeta,
    integrate_even_periodic,
    require_integer,
    require_positive_finite,
    within_double_range,
)

__all__ = [
    "FractionalOrder",
    "ChainSpec",
    "CirculantMatrix",
    "element_infinite_closed",
    "element_infinite_quadrature",
    "element_periodic_bloch",
    "element_periodic_images",
    "element_asymptotic",
    "dispersion_1d",
    "normalized_dispersion_1d",
    "build_laplacian_1d",
    "laplacian_eigenvalues_1d",
]

_OFFSET = "offset must be an integer"  # what a 1D route says of a fractional offset

# tolerance for recognising alpha/2 as an integer; below this the profile
# truncates to a finite stencil and several formulas degenerate
_INTEGER_HALF_TOL = 1e-12


def is_integer_half(alpha: float) -> bool:
    """Whether alpha/2 is an integer, where the profile is a finite stencil."""
    half = 0.5 * alpha
    return abs(half - round(half)) < _INTEGER_HALF_TOL


def require_non_integer_half(alpha: float) -> None:
    """Reject alpha unless it is positive, finite and alpha/2 is not an integer."""
    require_positive_finite("alpha", alpha)
    if is_integer_half(alpha):
        raise ValueError(f"alpha/2 must not be an integer, got alpha = {alpha}")


def _half_order_sine(alpha: float) -> float:
    # sin(pi a), a = alpha / 2, taken of the exact a - round(a) so that it keeps
    # its relative digits next to the integers, where sin(pi a) is small
    a = 0.5 * alpha
    return (-1.0) ** (round(a) % 2) * math.sin(math.pi * (a - round(a)))


@functools.lru_cache(maxsize=64)
def riesz_amplitude(alpha: float) -> float:
    """Power law amplitude gamma(alpha + 1) sin(alpha pi / 2) / pi.

    It sets the chain tail f(p) ~ -A p^(-alpha-1) and the continuum Riesz
    kernel A |x|^(-alpha-1); neither exists at integer alpha/2.  The sine is
    taken of the reduced alpha/2 - round(alpha/2).  OverflowError from alpha 170.6 on;
    cached per order, as the image sum takes it once per offset.
    """
    require_non_integer_half(alpha)
    return within_double_range(f"riesz_amplitude(alpha={alpha!r})",
                               lambda: math.gamma(alpha + 1.0) * _half_order_sine(alpha) / math.pi)


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of the fractional power together with its frequency scale.

    omega_sq multiplies every element; it is the squared frequency constant
    that fixes physical units and is otherwise inert.
    """

    alpha: float
    omega_sq: float = 1.0

    def __post_init__(self):
        require_positive_finite("alpha", self.alpha)
        require_positive_finite("omega_sq", self.omega_sq)

    @property
    def is_integer_half(self) -> bool:
        return is_integer_half(self.alpha)


@dataclass(frozen=True)
class ChainSpec:
    """A ring of `size` sites; the infinite chain routes take no spec."""

    size: int
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "size", require_integer(self.size, "size must be an integer >= 2", low=2))
        require_positive_finite("mass", self.mass)


@dataclass(frozen=True, eq=False)
class CirculantMatrix:
    """Symmetric circulant matrix stored through its first row."""

    first_row: np.ndarray = field(repr=False)

    def __post_init__(self):
        row = np.asarray(self.first_row, dtype=float)
        if row.ndim != 1:
            raise ValueError(f"first_row must be one dimensional, got shape {row.shape}")
        object.__setattr__(self, "first_row", row)

    @property
    def n(self) -> int:
        return len(self.first_row)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def eigenvalues(self) -> np.ndarray:
        """Spectrum in mode order l = 0 .. n-1 (DFT of the first row)."""
        return np.fft.fft(self.first_row).real

    def row_sum(self) -> float:
        return float(np.sum(self.first_row))

    def toarray(self) -> np.ndarray:
        idx = (np.arange(self.n)[None, :] - np.arange(self.n)[:, None]) % self.n
        return self.first_row[idx]

    def validate(self, rtol: float = 1e-10) -> None:
        """Check symmetry, zero row sum and a one signed spectrum.

        The Laplacian has a non positive spectrum, the characteristic matrix a
        non negative one; either sign pattern is accepted, mixtures are not.
        """
        scale = float(np.max(np.abs(self.first_row)))
        if scale == 0.0:
            return
        body = self.first_row[1:]
        if not np.allclose(body, body[::-1], rtol=0.0, atol=rtol * scale):
            raise ValueError("first_row is not symmetric under p -> n - p")
        if abs(self.row_sum()) > rtol * scale:
            raise ValueError(f"row sum {self.row_sum():.3e} exceeds {rtol * scale:.3e}")
        spectrum = self.eigenvalues()
        tol = rtol * scale * self.n
        if spectrum.min() < -tol and spectrum.max() > tol:
            raise ValueError("spectrum has eigenvalues of both signs")


def _binomial_element(m: int, q: int) -> int:
    """Integer half order m: the signed central binomial stencil (-1)^q C(2m, m+q),
    an exact int, zero beyond q = m.  OverflowError where it leaves the double
    range: the bound C(2m, k) >= (2m / k)^k, k = m - q, tells that before
    math.comb builds the integer, so only k <= 1024 are built."""
    if q > m:
        return 0
    k = m - q
    if k and k * math.log(2 * m / k) > _LOG_DOUBLE_MAX:
        raise OverflowError
    return (-1) ** (q % 2) * math.comb(2 * m, k)


@functools.lru_cache(maxsize=64)
def _series_terms(alpha: float) -> tuple:
    """(P0, A, A's relative error, ln|A|, (c_16, c_14, .. c_2)) of the series from offset P0.

    A is riesz_amplitude's, +-inf from alpha = 170; c_n = 2 B_{n+1}(a+1) / (n (n+1)),
    a = alpha/2.
    """
    require_non_integer_half(alpha)
    a = 0.5 * alpha
    sine = _half_order_sine(alpha)
    amp = riesz_amplitude(alpha) if alpha < 170.0 else math.copysign(math.inf, sine)
    coeffs = tuple(2.0 * sum(math.comb(n + 1, i) * _BERNOULLI[i] * (a + 1.0) ** (n + 1 - i)
                             for i in range(n + 2)) / (n * (n + 1)) for n in range(16, 0, -2))
    log_amp = math.lgamma(alpha + 1.0) + math.log(abs(sine) / math.pi)
    # A is gamma of the rounded alpha + 1: off by up to psi(alpha + 1) < ln(alpha + 1)
    # times that rounding, 620 u for alpha in [127, 128)
    amp_error = _START_BOUND + math.log(alpha + 1.0) * abs(alpha + 1.0 - alpha - 1.0)
    return max(13, math.ceil(3.0 * alpha)), amp, amp_error, log_amp, coeffs


# relative error bound of the closed form's direct series start and of the image sum's
# tail, each built from A at once: A's own error (math.gamma is up to 48 u off near
# alpha = 16), a power, an exp or a hurwitz_zeta (at most 4 u measured), the products
_START_BOUND = 64 * _UNIT_ROUNDOFF

# powers of the image sum's resummed tail; the d_k past them, to twice as many, bound the rest
_TAIL_TERMS = 16


@functools.lru_cache(maxsize=64)
def _tail_series(alpha: float, q_min: int) -> tuple:
    """(d_0 .. d_32) of exp(sum_j c_2j r^j) = sum_k d_k r^k, the c_2j of _series_terms,
    by d_0 = 1, k d_k = sum_j j c_2j d_(k-j); and (B_0 .. B_33), B_k >= sum_{j>=k}
    |d_j| r^j at r = q_min^-2.  Past d_32 by Cauchy's estimate: the |d_j| are at most
    the coefficients of exp(sum_j |c_2j| r^j), so on the circle of radius 4r the
    powers past the 32nd sum to at most exp(sum_j |c_2j| (4r)^j) 4^-32 / 3."""
    c = _series_terms(alpha)[4][::-1]
    d = [1.0]
    for k in range(1, 2 * _TAIL_TERMS + 1):
        d.append(sum(j * c[j - 1] * d[k - j] for j in range(1, min(k, len(c)) + 1)) / k)
    rest = math.exp(_even_sum(tuple(map(abs, c[::-1])), 0.5 * q_min)) * 4.0 ** (1 - len(d)) / 3.0
    powers = (abs(d_k) * q_min ** (-2.0 * k) for k, d_k in reversed(tuple(enumerate(d))))
    return tuple(d), tuple(itertools.accumulate(powers, initial=rest))[::-1]


def _even_sum(coeffs: tuple, p):
    # sum_j c_2j p^(-2j) by Horner's rule
    r = 1.0 / (p * p)
    total = 0.0
    for c in coeffs:
        total = (total + c) * r
    return total


def element_infinite_closed(order: FractionalOrder, p: int) -> float:
    """Coupling profile f(p) of the infinite chain, in closed form.

    f(p) = -omega_sq A gamma(p - a) / gamma(p + 1 + a), a = alpha / 2, with A
    the amplitude of riesz_amplitude; at integer a the signed binomial stencil.
    From P0 = max(13, ceil(3 alpha)) on, the gamma ratio's log is its even series
    -(alpha+1) ln p + sum_{j<=8} c_2j p^(-2j) (DLMF 5.11.8; Tricomi, Erdelyi 1951;
    Fields 1966), with p^(-alpha/2) taken twice where p^(-alpha) alone is not normal,
    and from its base-2 log where the start is still not a normal double.  Below P0
    it walks down from f(P0) by f(s) = f(s+1) (s+1+a) / (s-a) (DLMF 5.5.1) in a
    frexp mantissa and exponent; a walk of over 100 steps first bounds ln|f(p)| by
    math.lgamma and raises, or returns a signed zero, where f(p) leaves the range.
    Its stated relative error bound is (4 max(0, P0 - p) + 64) u, u = 2^-53, plus
    ln(alpha + 1) times the rounding of alpha + 1, which gamma(alpha + 1) takes, plus
    4 (|ln|A|| + alpha ln q) u where the start at q = max(p, P0) is built in log
    space; 2 u at integer a.
    """
    return _closed(order, p)[0]


def _closed(order: FractionalOrder, p: int) -> tuple:
    """(f(p), relative error bound) of element_infinite_closed."""
    p = abs(require_integer(p, _OFFSET))
    alpha = order.alpha
    try:
        if order.is_integer_half:
            return order.omega_sq * _binomial_element(round(0.5 * alpha), p), 2.0 * _UNIT_ROUNDOFF
        start, amp, amp_error, log_amp, coeffs = _series_terms(alpha)
        q = max(p, start)
        series = _even_sum(coeffs, q)
        scale = q ** -alpha
        bound = 4 * (q - p) * _UNIT_ROUNDOFF + amp_error
        if math.isinf(amp):
            value = 0.0  # A passed the double range: the start is built in log space below
        elif scale >= sys.float_info.min:
            value = -order.omega_sq * amp * scale / q * math.exp(series)
            if math.isinf(value):  # omega_sq * amp passed the double range, not f(q)
                value = -(order.omega_sq * scale) * (amp / q) * math.exp(series)
            if q == p:
                return value, bound
        else:  # q^-alpha alone is not normal, A q^-alpha may be
            half = q ** (-0.5 * alpha)
            value = -order.omega_sq * amp * half / q * math.exp(series) * half
        if sys.float_info.min <= abs(value) < math.inf:
            mantissa, exponent = math.frexp(value)
        else:
            log2_value = (log_amp - alpha * math.log(q) + series) / math.log(2.0)
            exponent = math.floor(log2_value)
            mantissa = -order.omega_sq * math.copysign(2.0 ** (log2_value - exponent), amp) / q
            bound += 4.0 * (abs(log_amp) + alpha * math.log(q)) * _UNIT_ROUNDOFF
        a = 0.5 * alpha
        if q - p > 100:  # ln|f(p)| by lgamma, within the slack, before a long walk
            log_f = math.log(order.omega_sq) - math.lgamma(p + 1.0 + a) + (
                math.lgamma(alpha + 1.0) - math.lgamma(a + 1.0 - p) if p <= a
                else log_amp + math.lgamma(p + 1.0 - a) - math.log(p - a))
            slack = 1.0 + 1e-13 * alpha * math.log(alpha)  # lgamma's and the terms' rounding
            if log_f - slack > _LOG_DOUBLE_MAX:
                raise OverflowError
            if log_f + slack < -1075.0 * math.log(2.0):  # below half the least subnormal,
                return math.copysign(0.0, mantissa), bound  # so p > a: each step keeps the sign
        for s in range(q - 1, p - 1, -1):
            mantissa, step = math.frexp(mantissa * (s + 1 + a) / (s - a))
            exponent += step
        return math.ldexp(mantissa, exponent), bound
    except OverflowError:
        raise OverflowError(f"element_infinite_closed(alpha={alpha!r}, p={p}) "
                            "exceeds the double range") from None


def element_infinite_quadrature(order: FractionalOrder, p: int, tol: float = 1e-12) -> float:
    """Infinite chain profile as a Brillouin zone integral.

    f(p) = omega_sq / (2 pi) * int_{-pi}^{pi} cos(kappa p)
           (4 sin^2(kappa/2))^(alpha/2) dkappa,
    by integrate_even_periodic, whose panels halve in width until they
    resolve cos(kappa p): about 2000 panels at p = 10^4.  tol bounds
    omega_sq times the integral's error estimate, which is never below the
    integral's last place: from alpha about 12.6, where 2 pi f(0) passes 2^13,
    the default 1e-12 cannot be met at small offsets.  The bound is verified
    for p <= 10^4 only: beyond that the rounding of cos(kappa p) can pass it
    unseen, as at alpha = 3.9, p = 5 10^4, which returns 3.9e-13 for 1e-23.
    OverflowError where omega_sq times the integral passes the double range.
    """
    require_positive_finite("tol", tol)
    p = abs(require_integer(p, _OFFSET))
    a = 0.5 * order.alpha

    def integrand(kappa):
        return np.cos(kappa * p) * (4.0 * np.sin(0.5 * kappa) ** 2) ** a

    # floored at the least double, which no estimate meets, rather than 0, and
    # capped at the greatest, as a tiny omega_sq would overflow the quotient
    scaled_tol = min(max(tol / order.omega_sq, math.ulp(0.0)), sys.float_info.max)
    try:
        value = integrate_even_periodic(integrand, scaled_tol)
    except ToleranceError as exc:
        raise ToleranceError("adaptive_gauss tolerance not met", order.omega_sq * exc.achieved)
    return within_double_range(f"element_infinite_quadrature(alpha={order.alpha!r}, p={p})",
                               lambda: order.omega_sq * value / (2.0 * math.pi))


@functools.lru_cache(maxsize=16)
def _ring_eigenvalues(n: int) -> np.ndarray:
    """The read-only Born-von-Karman eigenvalues 4 sin^2(pi l / n), l = 0 .. n-1,
    of a ring of n sites."""
    lam = 4.0 * np.sin(math.pi * np.arange(n) / n) ** 2
    lam.flags.writeable = False
    return lam


@functools.lru_cache(maxsize=16)
def _ring_phases(n: int) -> np.ndarray:
    """The read-only phase cosines cos(2 pi k / n), k = 0 .. n-1, of a ring of n sites."""
    phase = np.cos(2.0 * math.pi * np.arange(n) / n)
    phase.flags.writeable = False
    return phase


@functools.lru_cache(maxsize=16)
def _ring_powers(n: int, alpha: float) -> np.ndarray:
    """The read-only powers (4 sin^2(pi l / n))^(alpha/2), l = 0 .. n-1, of a ring of
    n sites: inf where one passes the double range, which its readers' guards report."""
    with np.errstate(over="ignore"):
        power = _ring_eigenvalues(n) ** (0.5 * alpha)
    power.flags.writeable = False
    return power


def ring_axis(n: int, p: int) -> tuple:
    """Eigenvalues of a ring of n sites and the phases cos(2 pi (l p mod n) / n) of
    offset p at its modes l = 0 .. n-1, gathered from the ring's cached tables."""
    return _ring_eigenvalues(n), _ring_phases(n)[np.arange(n) * (require_integer(p, _OFFSET) % n) % n]


def element_periodic_bloch(order: FractionalOrder, chain: ChainSpec, p: int) -> float:
    """Profile of a finite ring as a sum over its Bloch modes.

    f_N(p) = omega_sq / N * sum_l cos(2 pi (l p mod N) / N) (4 sin^2(pi l / N))^(alpha/2),
    both factors read from the ring's cached tables.  The sum is one BLAS dot
    product, so in a library process with a threaded BLAS its last bits can
    depend on the thread count; the CLI pins BLAS to one thread.  OverflowError
    past the double range, as from alpha 1024 on.
    """
    n = chain.size
    power, phase = _ring_powers(n, order.alpha), ring_axis(n, p)[1]

    def bloch_sum():
        return order.omega_sq * float(np.dot(phase, power)) / n

    # a term is at most omega_sq 2^alpha: where n of them stay below the double range,
    # nothing can overflow and the sum skips the guard's errstate
    if order.alpha + math.log2(order.omega_sq * n) < 1023.0:
        return bloch_sum()
    return within_double_range(f"element_periodic_bloch(alpha={order.alpha!r}, n={n}, p={p})", bloch_sum)


def element_periodic_images(
    order: FractionalOrder, chain: ChainSpec, p: int, tol: float = 1e-12
) -> float:
    """Profile of a finite ring as a sum of infinite chain images.

    f_N(p) = sum_{s in Z} f(p + s N).  For integer half orders the profile has
    finite support, summed in integers and rounded once.  Otherwise the images
    q = |p + s N| below Q = max(P0, N), P0 the closed form's series start, are
    summed one by one.  From Q on the closed form's series gives f(q) = -omega_sq A
    q^(-alpha-1) sum_k d_k q^(-2k), so the images beyond resum to Hurwitz zeta
    functions, one pair per power.  The powers stop before the first k whose
    bound on all they leave out, sum_{j>=k} |d_j| Q^(-2j) |first power's sum|,
    is below the sum's last place, or after the 16th; that bound is the error
    estimate, plus the head images' own error by element_infinite_closed's
    stated bound, floored at the last place, which tol bounds.  OverflowError
    naming this sum where its head images or its finite support pass the double range.
    """
    require_positive_finite("tol", tol)
    n = chain.size
    p = require_integer(p, f"offset must satisfy 0 <= p <= {n - 1}", low=0, high=n - 1)

    call = f"element_periodic_images(alpha={order.alpha!r}, n={n}, p={p})"
    if order.is_integer_half:
        m = round(0.5 * order.alpha)
        return within_double_range(
            call, lambda: order.omega_sq * sum(_binomial_element(m, q) for q in itertools.chain(
                range(p, m + 1, n), range(n - p, m + 1, n))))

    alpha = order.alpha
    beta = alpha + 1.0
    scale = -order.omega_sq * riesz_amplitude(alpha) * n ** -beta
    if not math.isfinite(scale):  # omega_sq * A passed the double range, not the scale
        scale = -(order.omega_sq * n ** -beta) * riesz_amplitude(alpha)
    q_min = max(_series_terms(alpha)[0], n)
    plus, minus = range(p, q_min, n), range(n - p, q_min, n)
    # _closed raises where a head image passes the double range; a plain try, as
    # within_double_range's errstate would add about 5 us to every offset's sum
    total = head = 0.0  # head bounds the head images' own error
    try:
        for q in itertools.chain(plus, minus):
            value, bound = _closed(order, q)
            total += value
            head += bound * abs(value)
    except OverflowError:
        raise OverflowError(f"{call} exceeds the double range") from None

    starts = np.array([len(plus) + p / n, len(minus) + 1 - p / n])

    def tail(k):
        # sum over the images from q_min on of q^(-beta-2k), times the scale
        return scale * n ** (-2.0 * k) * float(hurwitz_zeta(beta + 2 * k, starts).sum())

    lead = tail(0)
    total += lead
    # term k sums d_k q^(-beta-2k) over q >= q_min, within |d_k| q_min^(-2k) |lead|,
    # so |lead| left_out[k] bounds the powers from k on and |lead| times A's error their rounding
    d, left_out = _tail_series(alpha, q_min)
    k = 1
    while k <= _TAIL_TERMS and abs(lead) * left_out[k] >= math.ulp(total):
        total += d[k] * tail(k)
        k += 1
    estimate = head + abs(lead) * (left_out[k] + _series_terms(alpha)[2])
    return accept_estimate(total, estimate, tol, "image sum")


def dispersion_1d(order: FractionalOrder, kappa):
    """Squared mode frequency omega_sq * (4 sin^2(kappa/2))^(alpha/2).

    Accepts scalars or arrays; the value at kappa = pi is omega_sq * 2**alpha.
    OverflowError past the double range.
    """
    kappa = np.asarray(kappa, dtype=float)
    return within_double_range(
        f"dispersion_1d(alpha={order.alpha!r})",
        lambda: order.omega_sq * (4.0 * np.sin(0.5 * kappa) ** 2) ** (0.5 * order.alpha))


def normalized_dispersion_1d(order: FractionalOrder, kappa) -> np.ndarray:
    """1D mode frequency normalized by the alpha = 2 zone edge value 2.

    (4 sin^2(kappa/2))^(alpha/4) / 2; the frequency scale cancels in the
    ratio.  Every order crosses 1/2 where the Born-von-Karman eigenvalue
    equals one.  A float for a scalar kappa; OverflowError from alpha 2048 on.
    """
    kappa = np.asarray(kappa, dtype=float)
    return within_double_range(f"normalized_dispersion_1d(alpha={order.alpha!r})",
                               lambda: (4.0 * np.sin(0.5 * kappa) ** 2) ** (0.25 * order.alpha) / 2.0)


def element_asymptotic(order: FractionalOrder, p: int) -> float:
    """Leading large offset behaviour of the infinite chain profile.

    f(p) -> -omega_sq * gamma(alpha+1) sin(alpha pi / 2) / pi * p^(-alpha-1).
    Undefined for integer half orders, where the profile has finite support
    and no power law tail exists.  OverflowError past the double range.
    """
    if order.is_integer_half:
        raise ValueError("no power law tail exists at integer alpha/2")
    p = abs(require_integer(p, _OFFSET))
    if p == 0:
        raise ValueError("the asymptotic form needs a nonzero offset")
    amplitude = riesz_amplitude(order.alpha)
    return within_double_range(f"element_asymptotic(alpha={order.alpha!r}, p={p})",
                               lambda: -order.omega_sq * amplitude * float(p) ** (-order.alpha - 1.0))


def build_laplacian_1d(order: FractionalOrder, chain: ChainSpec) -> CirculantMatrix:
    """Fractional Laplacian of a ring: first_row[p] = -mass * f_N(p).

    Built spectrally: the Bloch eigenvalues of the characteristic matrix are
    transformed back to the first row in O(N log N), then symmetrised to kill
    rounding asymmetry.  OverflowError past the double range, as from alpha 1024 on.
    """
    n = chain.size

    def first_row():
        modes = order.omega_sq * _ring_powers(n, order.alpha)
        row = np.fft.ifft(modes).real
        return -chain.mass * (0.5 * (row + np.roll(row[::-1], 1)))

    return CirculantMatrix(within_double_range(f"build_laplacian_1d(alpha={order.alpha!r}, n={n})",
                                               first_row))


def laplacian_eigenvalues_1d(order: FractionalOrder, chain: ChainSpec) -> np.ndarray:
    """Ring Laplacian spectrum -mass * omega_sq * lambda_l^(alpha/2), l = 0 .. N-1.

    The analytic form; CirculantMatrix.eigenvalues() of build_laplacian_1d
    reproduces it to roundoff and stays an independent cross check.  OverflowError
    past the double range, as from alpha 1024 on.
    """
    return within_double_range(
        f"laplacian_eigenvalues_1d(alpha={order.alpha!r}, n={chain.size})",
        lambda: -chain.mass * order.omega_sq * _ring_powers(chain.size, order.alpha) + 0.0)
