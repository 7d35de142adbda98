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
cross-checking them a meaningful test of each.  The closed product resumes
its last walk when offsets ascend, so a request for offsets up to P, asked
in ascending order as the CLI ranges and the image sum do, costs O(P)
rather than O(sum of the offsets).
scipy.special is imported on first use, by the image sum's tail (gammaln)
only, so importing this module does not load scipy.
"""
from __future__ import annotations

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


def _gammaln(x):
    # importing scipy.special costs about 0.3 s, more than most 1D requests
    # compute, and only the image sum's tail needs it: import on first call
    from scipy.special import gammaln

    return gammaln(x)


def is_integer_half(alpha: float) -> bool:
    """Whether alpha/2 is an integer, where the profile is a finite stencil."""
    half = 0.5 * alpha
    return abs(half - round(half)) < _INTEGER_HALF_TOL


def require_non_integer_half(alpha: float) -> None:
    """Reject alpha unless it is positive, finite and alpha/2 is not an integer."""
    require_positive_finite("alpha", alpha)
    if is_integer_half(alpha):
        raise ValueError(f"alpha/2 must not be an integer, got alpha = {alpha}")


def riesz_amplitude(alpha: float) -> float:
    """Power law amplitude gamma(alpha + 1) sin(alpha pi / 2) / pi.

    It sets the chain tail f(p) ~ -A p^(-alpha-1) and the continuum Riesz
    kernel A |x|^(-alpha-1); neither exists at integer alpha/2.
    """
    require_non_integer_half(alpha)
    try:
        scale = math.exp(log_gamma(alpha + 1.0))
    except OverflowError:  # gamma(alpha + 1) passes the double range near alpha = 170.6
        raise OverflowError(f"riesz_amplitude(alpha={alpha!r}) exceeds the double range") from None
    return scale * math.sin(0.5 * math.pi * alpha) / math.pi


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


def _binomial_element(m: int, q: int) -> float:
    # integer half order: signed central binomial stencil, zero beyond |q| = m
    if q > m:
        return 0.0
    return (-1.0) ** q * math.comb(2 * m, m + q)


# Where the furthest product walk so far stopped, as (a, s, sign, log_prod)
# with sign and log_prod those of prod_{t<s} (t - a).  A request at the same a
# with p >= s continues from there, so ascending offsets walk the product once
# in all.  The tuple is replaced whole: a thread that reads it sees one
# consistent state, and a lost update only costs a longer walk.
_closed_walk = (math.nan, 0, 1.0, 0.0)


def element_infinite_closed(order: FractionalOrder, p: int) -> float:
    """Coupling profile f(p) of the infinite chain, by the product formula.

    f(p) = omega_sq * gamma(alpha+1) / (gamma(a+1) gamma(a+p+1))
           * prod_{s=0}^{p-1} (s - a)      with a = alpha / 2.

    The product keeps the expression finite for every non negative integer p,
    including integer a where the profile truncates exactly.  A call resumes
    the last walk of the product at the same a when that walk stopped at or
    below p; the additions are then the same, in the same order, as a walk
    from s = 0, so the value does not depend on earlier calls.
    """
    global _closed_walk
    p = abs(int(p))
    alpha = order.alpha
    a = 0.5 * alpha
    if order.is_integer_half:
        return order.omega_sq * _binomial_element(round(a), p)
    # accumulate the product in log space: its magnitude grows like p! and
    # would overflow long before the gamma ratio rescales it
    log_ratio = log_gamma(alpha + 1.0) - log_gamma(a + 1.0) - log_gamma(a + p + 1.0)
    walk = _closed_walk
    if walk[0] == a and walk[1] <= p:
        _, start, sign, log_prod = walk
    else:
        start, sign, log_prod = 0, 1.0, 0.0
    for s in range(start, p):
        term = s - a
        if term < 0.0:
            sign = -sign
        log_prod += math.log(abs(term))
    if walk[0] != a or walk[1] <= p:
        _closed_walk = (a, p, sign, log_prod)
    try:
        value = math.exp(log_ratio + log_prod)
    except OverflowError:  # f(0) alone passes the double range near alpha = 1029
        raise OverflowError(
            f"element_infinite_closed(alpha={alpha!r}, p={p}) exceeds the double range"
        ) from None
    return order.omega_sq * sign * value


def _elements_closed_array(order: FractionalOrder, q: np.ndarray) -> np.ndarray:
    """Vectorised infinite chain profile at non negative integer offsets q.

    Small offsets (q <= a + 1) go through the product formula, each distinct
    one once and in ascending order so one walk serves them all; beyond that an
    equivalent reflection form with two log gamma calls avoids the O(q) loop:
    f(q) = -omega_sq * A * gamma(q - a) / gamma(q + 1 + a) with
    A = gamma(alpha + 1) sin(alpha pi / 2) / pi, which raises at integer
    alpha/2, where the image sum needs no tail.
    """
    q = np.asarray(q, dtype=np.int64)
    alpha = order.alpha
    a = 0.5 * alpha
    out = np.empty(q.shape, dtype=float)
    amp = riesz_amplitude(alpha)
    small = q <= a + 1.0
    if np.any(small):
        offsets, where = np.unique(q[small], return_inverse=True)
        out[small] = np.array([element_infinite_closed(order, int(p)) for p in offsets])[where]
    big = ~small
    if np.any(big):
        qb = q[big].astype(float)
        out[big] = -order.omega_sq * amp * np.exp(_gammaln(qb - a) - _gammaln(qb + 1.0 + a))
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
        s = np.arange(s_done + 1, s_target + 1, dtype=np.int64)
        total += float(np.sum(_elements_closed_array(order, s * n + p)))
        total += float(np.sum(_elements_closed_array(order, s * n - p)))
        s_done = s_target

        # tail resummation: sum_{s > S} (sN +- p)^(-alpha-1) in closed form
        correction = -amp * n ** (-alpha - 1.0) * (
            hurwitz_zeta(alpha + 1.0, s_done + 1.0 + p / n)
            + hurwitz_zeta(alpha + 1.0, s_done + 1.0 - p / n)
        )
        # the relative deviation from the power law decays as g2 / q^2 with
        # g2 = alpha (alpha+1) (alpha+2) / 24; measuring that ratio through
        # the closed form loses to cancellation in the log gamma difference
        # past q ~ 1e5, so the analytic leading term, doubled to cover the
        # next order, drives the stopping rule
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
