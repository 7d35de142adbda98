"""Property tests of the heat kernel Bessel route over orders, dimensions and offsets,
and of the 1D zone quadrature over orders and offsets up to 10^4.

Derandomised, so every run draws the same examples.
"""
import sys

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat.chain import FractionalOrder, element_infinite_quadrature, is_integer_half
from fraclat.lattice import OffsetVector, element_infinite_nd_bessel, element_infinite_nd_bz
from fraclat.special import QuadratureSpec

orders = st.floats(min_value=0.0, max_value=40.0, exclude_min=True).filter(
    lambda alpha: not is_integer_half(alpha)
)


def binomial_element(alpha: float, p: int) -> float:
    """(-1)^p Gamma(alpha+1) / (Gamma(alpha/2+p+1) Gamma(alpha/2-p+1)) in 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        value = mpmath.gamma(a + 1) * mpmath.rgamma(a / 2 + p + 1) * mpmath.rgamma(a / 2 - p + 1)
        return float((-1) ** p * value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alpha=orders, p=st.integers(min_value=0, max_value=40))
def test_one_dimension_matches_binomial_form(alpha, p):
    expected = binomial_element(alpha, p)
    bound = 1e-12 * max(1.0, abs(expected))
    value = element_infinite_nd_bessel(
        FractionalOrder(alpha), 1, OffsetVector((p,)), QuadratureSpec(24, bound)
    )
    assert abs(value - expected) <= bound


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    alpha=orders.filter(lambda alpha: alpha <= 3.9),
    comps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
)
def test_square_lattice_matches_zone_integral(alpha, comps):
    order = FractionalOrder(alpha)
    expected = element_infinite_nd_bz(order, 2, OffsetVector(comps))
    value = element_infinite_nd_bessel(order, 2, OffsetVector(comps))
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    alpha=orders,
    comps=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    data=st.data(),
)
def test_value_is_invariant_under_lattice_symmetries(alpha, comps, data):
    order = FractionalOrder(alpha)
    spec = QuadratureSpec(24, sys.float_info.max)  # any finite estimate passes
    image = data.draw(st.permutations(comps))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(comps), max_size=len(comps)))
    image = tuple(s * c for s, c in zip(signs, image))
    dim = len(comps)
    base = element_infinite_nd_bessel(order, dim, OffsetVector(comps), spec)
    assert element_infinite_nd_bessel(order, dim, OffsetVector(image), spec) == base


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    alpha=orders.filter(lambda alpha: alpha <= 3.9),
    p=st.integers(min_value=0, max_value=10_000),
)
def test_zone_quadrature_matches_binomial_form(alpha, p):
    expected = binomial_element(alpha, p)
    value = element_infinite_quadrature(FractionalOrder(alpha), p)
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
