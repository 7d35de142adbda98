"""Tests of the benchmark itself: python -m pytest bench -q (from the repository root)."""
import json
import math
import sys
from pathlib import Path

import pytest

import oracle
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_same_argv_lists(workload):
    first = [job.args for job in workloads.generate(workload, 7)]
    again = [job.args for job in workloads.generate(workload, 7)]
    other = [job.args for job in workloads.generate(workload, 8)]
    assert first == again
    assert first != other
    assert all(args[0] in ("elements", "matrix", "dispersion", "kernel", "verify")
               for args in first)


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, counts or {}]


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("cli.cmd", 0.0, 10.0, -1),
        _span("lattice.nd_bz", 1.0, 4.0, 0, {"nodes": 100}),
        _span("lattice.nd_bz", 3.0, 6.0, 0, {"nodes": 50}),  # overlaps its sibling
        _span("lattice.jv", 2.0, 3.0, 1),
    ]
    own = spans.self_times(tree)
    assert [round(s, 12) for s, _ in own] == [5.0, 2.0, 3.0, 1.0]
    assert own[0][1] == pytest.approx(1.0)  # children sum 6 s over a 5 s union
    totals = spans.layer_totals(tree)
    assert totals["lattice.nd_bz.self_s"] == pytest.approx(5.0)
    assert totals["lattice.nd_bz.calls"] == 2
    assert totals["lattice.nd_bz.nodes"] == 150
    assert totals["parallel_excess_s"] == pytest.approx(1.0)
    # self times minus the parallel excess account for the root exactly
    accounted = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert accounted - totals["parallel_excess_s"] == pytest.approx(10.0)
    assert totals["elements.child_s"] / totals["elements.cmd_s"] == pytest.approx(0.6)


def _closed_job(p_list, alpha=0.7):
    return workloads.Job("elements", ["elements", "--route", "closed"],
                         {"route": "closed", "alpha": alpha, "p": p_list})


def _closed_table(alpha, p_list, perturb=None):
    lines = ["# command: elements", "p,value,route"]
    for p in p_list:
        value = oracle.chain_element(alpha, p)
        if p == perturb:
            value *= 1.0 + 1e-8
        lines.append(f"{p},{value!r},closed")
    return ("\n".join(lines) + "\n").encode()


def test_checker_accepts_reference_table():
    outcome = oracle.check_job(_closed_job([0, 3, 250]), 0, _closed_table(0.7, [0, 3, 250]), "")
    assert outcome.ok and outcome.err_to_tol < 1.0 and outcome.cells == 9


def test_checker_flags_perturbed_value():
    table = _closed_table(0.7, [0, 3, 250], perturb=3)
    outcome = oracle.check_job(_closed_job([0, 3, 250]), 0, table, "")
    assert not outcome.ok and not outcome.known
    assert outcome.err_to_tol > 1.0


def test_checker_flags_nonzero_exit():
    outcome = oracle.check_job(_closed_job([0, 3]), 1, b"", "fraclat: boom")
    assert not outcome.ok and not outcome.known and math.isnan(outcome.err_to_tol)


def test_known_quadrature_defect_is_classified_only_at_large_offsets():
    stderr = "fraclat: adaptive_gauss tolerance not met (achieved error estimate 4e-12)"
    big = workloads.Job("elements", [], {"route": "quadrature", "alpha": 1.5, "p": [3, 1900]})
    small = workloads.Job("elements", [], {"route": "quadrature", "alpha": 1.5, "p": [3, 90]})
    assert oracle.check_job(big, 1, b"", stderr).known == "quadrature_large_p"
    assert oracle.check_job(small, 1, b"", stderr).known == ""


def test_wrappers_bind_in_every_namespace(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import fraclat.cli
    import fraclat.verify

    rec = spans.Recorder()
    root = rec.open("job")
    spans.install(rec)
    try:
        assert fraclat.cli.element_infinite_closed is fraclat.chain.element_infinite_closed
        assert fraclat.verify.element_infinite_closed is fraclat.chain.element_infinite_closed
        code = fraclat.cli.main(["elements", "--infinite", "--route", "closed",
                                 "--alpha", "0.5", "--p", "0..3"])
    finally:
        rec.close(root)
        for name in [m for m in sys.modules if m == "fraclat" or m.startswith("fraclat.")]:
            del sys.modules[name]
    assert code == 0
    assert capsys.readouterr().out.count(",closed") == 4
    names = [span[spans.NAME] for span in rec.spans]
    assert names.count("chain.closed") == 4
    for name in ("cli.cmd", "output.record", "output.csv", "cli.write"):
        assert name in names


def test_benchmark_json_names_every_metric_printed():
    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in run.PER_LAYER]
    passes = [run.Pass(False, walls=[1.0, 2.0], cpus=[1.0, 1.5], rss=[50.0, 60.0], probes=[0.4],
                       references=[0.8], reference_cpus=[0.7])]
    assert sorted(run.end_to_end(passes)) == sorted(m["name"] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
