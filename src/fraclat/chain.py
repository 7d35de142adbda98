"""Fractional Laplacian elements on the one dimensional chain.

The central object is the coupling profile f(p): the entry of the
characteristic matrix (2 - D - D^dagger)^(alpha/2) at offset p between two
sites, scaled by the squared frequency constant.  The Laplacian matrix itself
carries an extra factor -mass.  Every element is computable by independent
routes:

* a closed product formula for the infinite chain,
* a Brillouin zone integral of the dispersion against a plane wave,
* a Bloch sum over the discrete modes of a finite ring,
* a sum over periodic images of the infinite chain profile.

The routes share no code beyond scalar special functions, which makes
cross-checking them a meaningful test of each.  The closed form is a pure
function of the order and the offset, with an array form for the image sum.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .special import (
    ToleranceError,
    as_integer,
    hurwitz_zeta,
    integrate_even_periodic,
    log_gamma,
    require_positive_finite,
)

__all__ = [
    "TruncationError",
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

# tolerance for recognising alpha/2 as an integer; below this the profile
# truncates to a finite stencil and several formulas degenerate
_INTEGER_HALF_TOL = 1e-12

_IMAGE_SUM_CAP = 10**7


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


def riesz_amplitude(alpha: float) -> float:
    """Power law amplitude gamma(alpha + 1) sin(alpha pi / 2) / pi.

    It sets the chain tail f(p) ~ -A p^(-alpha-1) and the continuum Riesz
    kernel A |x|^(-alpha-1); neither exists at integer alpha/2.  The sine is
    taken of the reduced alpha/2 - round(alpha/2).
    """
    require_non_integer_half(alpha)
    try:
        return math.gamma(alpha + 1.0) * _half_order_sine(alpha) / math.pi
    except OverflowError:  # gamma(alpha + 1) passes the double range near alpha = 170.6
        raise OverflowError(f"riesz_amplitude(alpha={alpha!r}) exceeds the double range") from None


class TruncationError(ToleranceError):
    """An image sum could not reach the requested tolerance within the cap."""


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
        size = as_integer(self.size)
        if size is None or size < 2:
            raise ValueError(f"size must be an integer >= 2, got {self.size}")
        object.__setattr__(self, "size", size)
        require_positive_finite("mass", self.mass)


@dataclass(frozen=True, eq=False)
class CirculantMatrix:
    """Symmetric circulant matrix stored through its first row."""

    order: FractionalOrder
    n: int
    first_row: np.ndarray = field(repr=False)

    def __post_init__(self):
        row = np.asarray(self.first_row, dtype=float)
        if row.shape != (self.n,):
            raise ValueError(f"first_row must have shape ({self.n},), got {row.shape}")
        object.__setattr__(self, "first_row", row)

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


_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _binomial_element(m: int, q: int) -> float:
    """Integer half order m: the signed central binomial stencil (-1)^q C(2m, m+q),
    zero beyond q = m.  OverflowError where it leaves the double range: the
    bound C(2m, k) >= (2m / k)^k, k = m - q, tells that before math.comb
    builds the integer, so only k <= 1024 are built."""
    if q > m:
        return 0.0
    k = m - q
    if k and k * math.log(2 * m / k) > _LOG_DOUBLE_MAX:
        raise OverflowError
    # the parity of q itself, as a float q loses it past 2^53
    return (-1.0) ** (q % 2) * math.comb(2 * m, k)  # OverflowError as the int turns float


# Bernoulli numbers B_0 .. B_17
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0,
              5 / 66, 0.0, -691 / 2730, 0.0, 7 / 6, 0.0, -3617 / 510, 0.0)


@functools.lru_cache(maxsize=64)
def _series_terms(alpha: float) -> tuple:
    """(P0, A, ln|A|, (c_16, c_14, .. c_2)) of the closed form's series from offset P0.

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
    return max(13, math.ceil(3.0 * alpha)), amp, log_amp, coeffs


def _even_sum(coeffs: tuple, p):
    # sum_j c_2j p^(-2j) by Horner's rule, for a float or an array p
    r = 1.0 / (p * p)
    total = 0.0
    for c in coeffs:
        total = (total + c) * r
    return total


def element_infinite_closed(order: FractionalOrder, p: int) -> float:
    """Coupling profile f(p) of the infinite chain, in closed form.

    f(p) = -omega_sq A gamma(p - a) / gamma(p + 1 + a), a = alpha / 2, with A
    the amplitude of riesz_amplitude; at integer a the signed binomial stencil.
    Below offset P0, about 3 alpha, it walks omega_sq gamma(alpha+1) / (gamma(a+1)
    gamma(a+p+1)) prod_{s<p} (s - a) in log space; from P0 on, the gamma ratio's
    log is its even series -(alpha+1) ln p + sum_{j<=8} c_2j p^(-2j) (DLMF 5.11.8;
    Tricomi, Erdelyi 1951; Fields 1966), in log space where A or p^(-alpha) is not normal.
    """
    p = abs(int(p))
    alpha = order.alpha
    if order.is_integer_half:
        try:
            return order.omega_sq * _binomial_element(round(0.5 * alpha), p)
        except OverflowError:
            raise OverflowError(
                f"element_infinite_closed(alpha={alpha!r}, p={p}) exceeds the double range"
            ) from None
    start, amp, log_amp, coeffs = _series_terms(alpha)
    if p >= start:
        series = _even_sum(coeffs, p)
        scale = p ** -alpha
        if scale >= sys.float_info.min and math.isfinite(amp):
            return -order.omega_sq * amp * scale / p * math.exp(series)
        value = math.exp(log_amp - alpha * math.log(p) + series) / p
        return -order.omega_sq * math.copysign(value, amp)
    a = 0.5 * alpha
    log_ratio = log_gamma(alpha + 1.0) - log_gamma(a + 1.0) - log_gamma(a + p + 1.0)
    sign, log_prod = 1.0, 0.0
    for s in range(p):
        term = s - a
        if term < 0.0:
            sign = -sign
        log_prod += math.log(abs(term))
    try:
        value = math.exp(log_ratio + log_prod)
    except OverflowError:  # f(0) alone passes the double range near alpha = 1029
        raise OverflowError(
            f"element_infinite_closed(alpha={alpha!r}, p={p}) exceeds the double range"
        ) from None
    return order.omega_sq * sign * value


def _elements_closed_array(order: FractionalOrder, q) -> np.ndarray:
    """element_infinite_closed at an array of offsets, alpha/2 not an integer.

    The offsets the series does not cover take the scalar function.  numpy's
    pow and exp round apart from the C library's in the last place or so.
    """
    p = np.abs(np.asarray(q, dtype=float))
    start, amp, _, coeffs = _series_terms(order.alpha)
    with np.errstate(all="ignore"):  # at the offsets the scalar function takes
        scale = p ** -order.alpha
        out = -order.omega_sq * amp * scale / p * np.exp(_even_sum(coeffs, p))
    scalar = (p < start) | ~(scale >= sys.float_info.min) | math.isinf(amp)
    out[scalar] = [element_infinite_closed(order, int(offset)) for offset in p[scalar]]
    return out


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
    """
    require_positive_finite("tol", tol)
    p = abs(int(p))
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
    return order.omega_sq * value / (2.0 * math.pi)


def element_periodic_bloch(order: FractionalOrder, chain: ChainSpec, p: int) -> float:
    """Profile of a finite ring as a sum over its Bloch modes.

    f_N(p) = omega_sq / N * sum_l cos(2 pi l p / N) (4 sin^2(pi l / N))^(alpha/2).
    """
    n = chain.size
    p = int(p) % n
    ell = np.arange(n)
    modes = (4.0 * np.sin(math.pi * ell / n) ** 2) ** (0.5 * order.alpha)
    return order.omega_sq * float(np.dot(np.cos(2.0 * math.pi * ell * p / n), modes)) / n


def element_periodic_images(
    order: FractionalOrder, chain: ChainSpec, p: int, tol: float = 1e-12
) -> float:
    """Profile of a finite ring as a sum of infinite chain images.

    f_N(p) = sum_{s in Z} f(p + s N).  For integer half orders the profile has
    finite support and the sum is exact.  Otherwise the images are summed
    explicitly up to a cutoff S and the remainder is replaced by its power law
    limit, which resums to Hurwitz zeta functions; the deviation of the last
    summed image from that limit bounds the error of the replacement.
    """
    require_positive_finite("tol", tol)
    n = chain.size
    p = int(p)
    if not 0 <= p <= n - 1:
        raise ValueError(f"offset must satisfy 0 <= p <= {n - 1}, got {p}")

    if order.is_integer_half:
        m = round(0.5 * order.alpha)
        total = element_infinite_closed(order, p)
        s = 1
        while s * n - p <= m:
            total += element_infinite_closed(order, s * n + p)
            total += element_infinite_closed(order, s * n - p)
            s += 1
        return total

    alpha = order.alpha
    amp = order.omega_sq * riesz_amplitude(alpha)
    total = element_infinite_closed(order, p)
    s_done = 0
    s_target = 8
    err_est = math.inf
    while True:
        if s_target > _IMAGE_SUM_CAP:
            raise TruncationError(
                f"image sum needs more than {_IMAGE_SUM_CAP} terms for tol {tol:.3e}",
                achieved=err_est,
            )
        s = np.arange(s_done + 1, s_target + 1, dtype=np.int64) * n
        total += float(np.sum(_elements_closed_array(order, np.concatenate((s + p, s - p)))))
        s_done = s_target

        # tail resummation: sum_{s > S} (sN +- p)^(-alpha-1) in closed form
        correction = -amp * n ** (-alpha - 1.0) * (
            hurwitz_zeta(alpha + 1.0, s_done + 1.0 + p / n)
            + hurwitz_zeta(alpha + 1.0, s_done + 1.0 - p / n)
        )
        # the relative deviation from the power law decays as g2 / q^2 with
        # g2 = alpha (alpha+1) (alpha+2) / 24, the closed form's first series
        # coefficient; that leading term, doubled to cover the next order,
        # drives the stopping rule
        q_ref = (s_done + 1) * n - p
        g2 = alpha * (alpha + 1.0) * (alpha + 2.0) / 24.0
        rel_dev = 2.0 * g2 / float(q_ref) ** 2
        err_est = rel_dev * abs(correction)
        if err_est <= 0.5 * tol:
            return total + correction
        s_target = 2 * s_target


def dispersion_1d(order: FractionalOrder, kappa):
    """Squared mode frequency omega_sq * (4 sin^2(kappa/2))^(alpha/2).

    Accepts scalars or arrays; the value at kappa = pi is omega_sq * 2**alpha.
    """
    kappa = np.asarray(kappa, dtype=float)
    value = order.omega_sq * (4.0 * np.sin(0.5 * kappa) ** 2) ** (0.5 * order.alpha)
    return float(value) if value.ndim == 0 else value


def normalized_dispersion_1d(order: FractionalOrder, kappa) -> np.ndarray:
    """1D mode frequency normalized by the alpha = 2 zone edge value 2.

    (4 sin^2(kappa/2))^(alpha/4) / 2; the frequency scale cancels in the
    ratio.  Every order crosses 1/2 where the Born-von-Karman eigenvalue
    equals one.
    """
    kappa = np.asarray(kappa, dtype=float)
    with np.errstate(over="ignore"):
        value = (4.0 * np.sin(0.5 * kappa) ** 2) ** (0.25 * order.alpha) / 2.0
    if not np.isfinite(value).all():  # 4^(alpha/4) passes the double range near alpha = 2048
        raise OverflowError(f"normalized_dispersion_1d(alpha={order.alpha!r}) exceeds the double range")
    return value


def element_asymptotic(order: FractionalOrder, p: int) -> float:
    """Leading large offset behaviour of the infinite chain profile.

    f(p) -> -omega_sq * gamma(alpha+1) sin(alpha pi / 2) / pi * p^(-alpha-1).
    Undefined for integer half orders, where the profile has finite support
    and no power law tail exists.
    """
    if order.is_integer_half:
        raise ValueError("no power law tail exists at integer alpha/2")
    p = abs(int(p))
    if p == 0:
        raise ValueError("the asymptotic form needs a nonzero offset")
    return -order.omega_sq * riesz_amplitude(order.alpha) * float(p) ** (-order.alpha - 1.0)


def _ring_lambda(n: int) -> np.ndarray:
    # Born-von-Karman eigenvalues 4 sin^2(pi l / N) of the ring, l = 0 .. N-1
    return 4.0 * np.sin(math.pi * np.arange(n) / n) ** 2


def build_laplacian_1d(order: FractionalOrder, chain: ChainSpec) -> CirculantMatrix:
    """Fractional Laplacian of a ring: first_row[p] = -mass * f_N(p).

    Built spectrally: the Bloch eigenvalues of the characteristic matrix are
    transformed back to the first row in O(N log N), then symmetrised to kill
    rounding asymmetry.
    """
    n = chain.size
    modes = order.omega_sq * _ring_lambda(n) ** (0.5 * order.alpha)
    row = np.fft.ifft(modes).real
    row = 0.5 * (row + np.roll(row[::-1], 1))
    return CirculantMatrix(order=order, n=n, first_row=-chain.mass * row)


def laplacian_eigenvalues_1d(order: FractionalOrder, chain: ChainSpec) -> np.ndarray:
    """Ring Laplacian spectrum -mass * omega_sq * lambda_l^(alpha/2), l = 0 .. N-1.

    The analytic form; CirculantMatrix.eigenvalues() of build_laplacian_1d
    reproduces it to roundoff and stays an independent cross check.
    """
    return -chain.mass * order.omega_sq * _ring_lambda(chain.size) ** (0.5 * order.alpha) + 0.0
