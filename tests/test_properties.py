"""Property tests of the heat kernel Bessel route over orders, dimensions and offsets,
of the 1D zone quadrature over orders and offsets up to 10^4, and of the 1D
closed form on both sides of its series start.  The Bessel route is also held
to its evaluation on scipy.special's ive and rgamma.

Derandomised, so every run draws the same examples.
"""
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import lattice

from fraclat.chain import (
    FractionalOrder,
    element_infinite_closed,
    element_infinite_quadrature,
    is_integer_half,
)
from fraclat.chain import _series_terms
from fraclat.lattice import OffsetVector, element_infinite_nd_bessel, element_infinite_nd_bz

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
    value = element_infinite_nd_bessel(FractionalOrder(alpha), 1, OffsetVector((p,)), tol=bound)
    assert abs(value - expected) <= bound


ZONE_OFFSET_LIMITS = {1: 300, 2: 64, 3: 16}


@settings(derandomize=True, max_examples=90, deadline=None)
@given(alpha=orders.filter(lambda alpha: alpha <= 3.9), dim=st.integers(1, 3), data=st.data())
def test_cubic_lattices_match_zone_integral(alpha, dim, data):
    # the zone integral's panels span up to one period of the largest offset's
    # cosine; the closed form is the 1D reference, the heat kernel route the nD one
    limit = ZONE_OFFSET_LIMITS[dim]
    comps = data.draw(st.lists(st.integers(-limit, limit), min_size=dim, max_size=dim))
    order = FractionalOrder(alpha)
    value = element_infinite_nd_bz(order, dim, OffsetVector(comps))
    if dim == 1:
        expected = element_infinite_closed(order, comps[0])
    else:
        expected = element_infinite_nd_bessel(order, dim, OffsetVector(comps))
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    alpha=orders,
    comps=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    data=st.data(),
)
def test_value_is_invariant_under_lattice_symmetries(alpha, comps, data):
    order = FractionalOrder(alpha)
    tol = sys.float_info.max  # any finite estimate passes
    image = data.draw(st.permutations(comps))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(comps), max_size=len(comps)))
    image = tuple(s * c for s, c in zip(signs, image))
    dim = len(comps)
    base = element_infinite_nd_bessel(order, dim, OffsetVector(comps), tol=tol)
    assert element_infinite_nd_bessel(order, dim, OffsetVector(image), tol=tol) == base


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=256.0, exclude_min=True).filter(
        lambda alpha: not is_integer_half(alpha)
    ),
    comps=st.lists(st.integers(-10, 10), min_size=1, max_size=4),
)
def test_bessel_route_matches_its_scipy_evaluation(alpha, comps):
    # the same route on scipy's ive, and rescaled from 1 / math.gamma(-a) to
    # scipy's rgamma(-a): the values it returned before it ran on numpy alone
    order, offset = FractionalOrder(alpha), OffsetVector(comps)
    loose = sys.float_info.max  # any finite estimate passes
    value = element_infinite_nd_bessel(order, len(comps), offset, tol=loose)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "ive", scipy.special.ive)
        on_scipy = element_infinite_nd_bessel(order, len(comps), offset, tol=loose)
    a = 0.5 * alpha
    expected = on_scipy * (float(scipy.special.rgamma(-a)) * math.gamma(-a))
    assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    alpha=orders.filter(lambda alpha: alpha <= 3.9),
    p=st.integers(min_value=0, max_value=10_000),
)
def test_zone_quadrature_matches_binomial_form(alpha, p):
    expected = binomial_element(alpha, p)
    value = element_infinite_quadrature(FractionalOrder(alpha), p)
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alpha=orders, step=st.integers(min_value=-3, max_value=3))
def test_closed_form_across_the_series_start(alpha, step):
    start = _series_terms(alpha)[0]
    p = start + step
    order = FractionalOrder(alpha)
    value = element_infinite_closed(order, p)
    if alpha <= 30.5:
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha) / 2
            amp = mpmath.gamma(2 * a + 1) * mpmath.sinpi(a) / mpmath.pi
            expected = float(-amp * mpmath.gamma(p - a) / mpmath.gamma(p + 1 + a))
        # relative on both sides of the series start
        assert abs(value - expected) <= 1e-14 * abs(expected)
