"""The verify runner: suite composition, per-row bars and the NaN rule."""
import math
import re

import pytest

import fraclat.verify
from fraclat.verify import SUITES, run_suite


def test_all_is_the_single_suites_concatenated():
    rows = [(r.name, r.suite) for r in run_suite("all")]
    assert rows == [(r.name, r.suite) for suite in SUITES for r in run_suite(suite)]
    assert {suite for _, suite in rows} == set(SUITES)


def test_unknown_suite_names_the_suites():
    message = re.escape(f"unknown suite 'nope'; expected one of {('all',) + SUITES}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite("nope")


def test_convergence_override_moves_only_the_finest_bar():
    results = run_suite("continuum", {"continuum_convergence": 1e-30})
    assert [r.name for r in results if not r.passed] == ["continuum_error_h3"]
    assert results[-2].tolerance == 1e-30


@pytest.mark.parametrize("route, check", [("element_infinite_quadrature", "closed_vs_quadrature"),
                                          ("element_infinite_nd_bz", "nd_bz_vs_chain")])
def test_a_nan_route_fails_its_check(monkeypatch, route, check):
    # max(worst, nan) is worst, so a running maximum by max() lets NaN pass
    monkeypatch.setattr(fraclat.verify, route, lambda *args, **kwargs: math.nan)
    failed = {r.name: r.achieved for r in run_suite("oracles") if not r.passed}
    assert check in failed and math.isnan(failed[check])
