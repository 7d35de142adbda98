"""fraclat benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload ring1d --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each job is a fresh `python -m fraclat.cli`
process with `src` on PYTHONPATH and FRACLAT_THREADS unset (auto), launched
through spawner.py.  One
client runs the jobs of a pass one after another (closed loop) and repeats
the pass while another one fits in --seconds; `fraclat --version` probes
are spread through each pass to sample set-up time.  Every job's exit code
and table are checked against the references in oracle.py outside the
timed region, the first time the job runs; later runs must reproduce its
bytes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (traced jobs run through shim.py) and prints the per-layer
metrics, the tracing overhead and the oracle figures.  The last line of
stdout is the result object; the line before it carries run details
(machine, load, failures, tail latency).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import oracle
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
PROBES_PER_PASS = 8

# A fixed reference process that shares no code with fraclat: interpreter
# start, the numpy and scipy.special imports, ufuncs and jv on 1e5 points, a
# BLAS matrix product and 1e5 '%.17g' formats.  Timed beside the jobs, it
# measures how fast the shared machine runs right now; time metrics are
# reported in units of its median wall time in the same run.
REFERENCE_CODE = """
import numpy as np
import scipy.special as sp
x = np.linspace(0.01, 50.0, 100_000)
y = sp.jv(1, x) * sp.jv(2, x) * np.cos(3.0 * x) * np.abs(np.sin(0.5 * x)) ** 0.65
a = np.cos(np.outer(x[:800], x[:800]))
for _ in range(3):
    a = a @ a / 800.0
text = ",".join("%.17g" % v for v in y)
"""
JOB_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
TRACE_BUDGET_S = 120.0

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.main_self_s", "s"), ("cli.cmd_self_s", "s"),
    ("cli.write_s", "s"), ("cli.parallel_overlap", "ratio"),
    ("chain.closed.calls", "count"), ("chain.closed.self_s", "s"),
    ("chain.quadrature.calls", "count"), ("chain.quadrature.self_s", "s"),
    ("chain.bloch.calls", "count"), ("chain.bloch.self_s", "s"),
    ("chain.images.calls", "count"), ("chain.images.self_s", "s"),
    ("chain.images.terms", "count"), ("chain.laplacian.self_s", "s"),
    ("special.quad.calls", "count"), ("special.quad.self_s", "s"),
    ("special.quad.nodes", "count"), ("special.quad.fail", "count"),
    ("special.zeta.calls", "count"), ("special.zeta.self_s", "s"),
    ("lattice.periodic_nd.calls", "count"), ("lattice.periodic_nd.self_s", "s"),
    ("lattice.nd_bz.calls", "count"), ("lattice.nd_bz.self_s", "s"),
    ("lattice.nd_bz.nodes", "count"),
    ("lattice.bessel.calls", "count"), ("lattice.bessel.self_s", "s"),
    ("lattice.jv.evals", "count"), ("lattice.jv.self_s", "s"),
    ("lattice.extrap.fail", "count"), ("lattice.dispersion2d.self_s", "s"),
    ("continuum.kernel_periodic.calls", "count"), ("continuum.kernel_periodic.self_s", "s"),
    ("continuum.kernel_infinite.calls", "count"), ("continuum.kernel_infinite.self_s", "s"),
    ("output.record_s", "s"), ("output.csv_s", "s"), ("output.json_s", "s"),
    ("output.cells", "count"), ("output.bytes", "bytes"),
    ("verify.suite_self_s", "s"), ("verify.checks", "count"), ("verify.failed", "count"),
    ("proc.spawn_s", "s"), ("proc.exit_s", "s"), ("trace.shim_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s"),
    ("oracle.fail_frac", "ratio"), ("oracle.err_to_tol_max", "ratio"),
    ("oracle.digests_changed", "count"),
)

# per-layer metric -> key of spans.layer_totals it reads
_FROM_TOTALS = {
    "cli.import_s": "cli.import.self_s",
    "cli.main_self_s": "cli.main.self_s",
    "cli.cmd_self_s": "cli.cmd.self_s",
    "cli.write_s": "cli.write.self_s",
    "trace.shim_s": "job.self_s",
    "output.record_s": "output.record.self_s",
    "output.csv_s": "output.csv.self_s",
    "output.json_s": "output.json.self_s",
    "output.cells": "output.record.cells",
    "verify.suite_self_s": "verify.suite.self_s",
    "verify.checks": "verify.suite.checks",
    "verify.failed": "verify.suite.failed",
    "lattice.extrap.fail": "lattice.bessel.fail",
}


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    output: bytes
    stderr: str
    spawned: float
    reaped: float


@dataclass
class Pass:
    traced: bool
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    references: list = field(default_factory=list)
    reference_cpus: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    accounted: float = 0.0
    elapsed: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / workloads.WORK_DIR
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("FRACLAT_THREADS", None)
        self.jobs = workloads.generate(workload, seed)
        self.first = {}  # job key -> (returncode, digest, Outcome, output bytes) of its first run
        self.attempted = 0
        self.failures = []  # (job key, Outcome)
        self.probe_failures = []  # stderr of --version probes that failed
        self.errors = []  # finite error-to-tolerance ratios of checked jobs
        self.changed_digests = 0
        self.known_digests = 0
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.stored = stored.get(workload, {})
        self.observed = {}
        self.spawner = None
        self.job_log = []  # [argv head, wall s, max RSS MB, exit code] of each job's first run

    def start(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.spawner = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                        env=self.env, cwd=self.root)

    def stop(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.stdout.close()
            self.spawner.wait(timeout=JOB_TIMEOUT_S + 10)
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, argv: list, output: str) -> Proc:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "cwd": str(self.root), "timeout": JOB_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        path = out_path if output == "-" else self.root / output
        data = path.read_bytes() if path.exists() else b""
        if output != "-" and path.exists():
            path.unlink()
        return Proc(reply["reaped"] - reply["spawned"], reply["cpu"], reply["maxrss_kb"] / 1024.0,
                    reply["returncode"], data, err_path.read_text(errors="replace"),
                    reply["spawned"], reply["reaped"])

    def probe(self) -> float:
        proc = self.spawn([sys.executable, "-m", "fraclat.cli", "--version"], "-")
        if proc.returncode != 0 or not proc.output.startswith(b"fraclat "):
            self.probe_failures.append(f"--version: exit {proc.returncode}: {proc.stderr}")
        return proc.wall

    def reference(self) -> Proc:
        proc = self.spawn([sys.executable, "-c", REFERENCE_CODE], "-")
        if proc.returncode != 0:
            self.probe_failures.append(f"reference: exit {proc.returncode}: {proc.stderr}")
        return proc

    def check(self, job, proc: Proc) -> None:
        digest = hashlib.sha256(proc.output).hexdigest()
        first = self.first.get(job.key)
        if first is None:
            outcome = oracle.check_job(job, proc.returncode, proc.output, proc.stderr)
            self.first[job.key] = (proc.returncode, digest, outcome, len(proc.output))
            if math.isfinite(outcome.err_to_tol):
                self.errors.append(outcome.err_to_tol)
            key = hashlib.sha256(job.key.encode()).hexdigest()[:16]
            self.observed[key] = digest
            if key in self.stored:
                self.known_digests += 1
                self.changed_digests += self.stored[key] != digest
        elif (proc.returncode, digest) != first[:2]:
            outcome = oracle.Outcome(False, "output differs from this job's first run")
        else:
            outcome = first[2]
        self.attempted += 1
        if not outcome.ok:
            self.failures.append((job.key, outcome))

    def run_pass(self, traced: bool) -> Pass:
        result = Pass(traced)
        started = time.monotonic()
        probe_at = {round(k * len(self.jobs) / PROBES_PER_PASS) for k in range(PROBES_PER_PASS)}
        spans_path = self.work / "spans.jsonl"
        for i, job in enumerate(self.jobs):
            if i in probe_at:
                result.probes.append(self.probe())
                reference = self.reference()
                result.references.append(reference.wall)
                result.reference_cpus.append(reference.cpu)
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "shim.py"), str(spans_path), str(i), "--"]
            else:
                argv = [sys.executable, "-m", "fraclat.cli"]
            proc = self.spawn(argv + job.args, job.output)
            if not self.first.get(job.key):
                self.job_log.append([" ".join(job.args[:9]), round(proc.wall, 3),
                                     round(proc.rss_mb, 1), proc.returncode])
            result.walls.append(proc.wall)
            result.cpus.append(proc.cpu)
            result.rss.append(proc.rss_mb)
            if traced and spans_path.exists():
                job_spans = spans.load(spans_path)
                spans_path.unlink()
                self._add_trace(result, proc, job_spans)
            self.check(job, proc)
        result.elapsed = time.monotonic() - started
        return result

    @staticmethod
    def _add_trace(result: Pass, proc: Proc, job_spans: list) -> None:
        totals = spans.layer_totals(job_spans)
        for key, value in totals.items():
            result.totals[key] = result.totals.get(key, 0) + value
        root = job_spans[0]
        spawn_s = root[spans.START] - proc.spawned
        exit_s = proc.reaped - root[spans.END]
        result.totals["proc.spawn_s"] = result.totals.get("proc.spawn_s", 0) + spawn_s
        result.totals["proc.exit_s"] = result.totals.get("proc.exit_s", 0) + exit_s
        own = sum(v for k, v in totals.items() if k.endswith(".self_s"))
        result.accounted += spawn_s + exit_s + own - totals.get("parallel_excess_s", 0.0)


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def _tail(values: list) -> tuple:
    """Highest of p50/p75/p90/p99 with at least ten samples above it."""
    best = None
    ordered = sorted(values)
    for pct in (50, 75, 90, 99):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            best = (f"p{pct}", ordered[rank - 1])
    return best


def _loadavg() -> list:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _steal_seconds() -> float:
    """CPU time the hypervisor gave to others while this VM wanted it (all cpus)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for name in ("numpy", "scipy", "mpmath"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = None
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def raw_times(passes: list) -> dict:
    """Time metrics as measured, in seconds."""
    return {
        "setup_s": _median([w for p in passes for w in p.probes]),
        "wall_s": _median([p.wall for p in passes]),
        "job_p50_s": _median([w for p in passes for w in p.walls]),
        "cpu_s": _median([sum(p.cpus) for p in passes]),
    }


def reference_s(passes: list) -> dict:
    """Median wall and CPU seconds of the reference process in the run."""
    return {"wall": _median([r for p in passes for r in p.references]),
            "cpu": _median([r for p in passes for r in p.reference_cpus])}


def end_to_end(passes: list) -> dict:
    """Time metrics in reference seconds, and peak RSS.

    Wall times are divided by the reference's wall time and CPU time by its
    CPU time: the shared machine's slow spells are sometimes time the VM is
    not running (steal), which stretches wall but not CPU time, and
    sometimes slower execution, which stretches both.
    """
    reference = reference_s(passes)
    raw = raw_times(passes)
    out = {name: _metric(raw[name] / reference["wall"], "s")
           for name in ("setup_s", "wall_s", "job_p50_s")}
    out["cpu_s"] = _metric(raw["cpu_s"] / reference["cpu"], "s")
    out["peak_rss_mb"] = _metric(max(r for p in passes for r in p.rss), "MB")
    return out


def per_layer(runner: Runner, passes: list) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    totals = {}
    for p in traced:
        for key, value in p.totals.items():
            totals[key] = totals.get(key, 0) + value / len(traced)
    traced_wall = statistics.fmean(p.wall for p in traced)
    derived = {
        "cli.parallel_overlap": (totals.get("elements.child_s", 0.0) / totals["elements.cmd_s"]
                                 if totals.get("elements.cmd_s") else 0.0),
        "output.bytes": totals.get("output.csv.bytes", 0) + totals.get("output.json.bytes", 0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(p.wall for p in plain),
        "trace.unaccounted_s": traced_wall - statistics.fmean(p.accounted for p in traced),
        "oracle.fail_frac": len(runner.failures) / max(1, runner.attempted),
        "oracle.err_to_tol_max": max(runner.errors, default=0.0),
        "oracle.digests_changed": runner.changed_digests,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            value = totals.get(_FROM_TOTALS.get(name, name), 0)
        out[name] = _metric(float(value) if unit != "count" else int(round(value)), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save-digests", action="store_true",
                        help="merge this run's output digests into bench/digests.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fraclat" / "cli.py").is_file():
        print(f"bench: no src/fraclat/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    load_before = _loadavg()
    steal_before = _steal_seconds()
    started = time.monotonic()
    try:
        runner.start()
        runner.probe()  # warm-up: page cache and bytecode, not measured
        passes = []
        while True:
            # traced runs alternate U T, T U, ... so neither side always goes first
            traced = bool(args.trace) and (len(passes) % 4 in (1, 2))
            passes.append(runner.run_pass(traced))
            elapsed = time.monotonic() - started
            if args.trace:
                # whole untraced/traced pairs, as many as fit in TRACE_BUDGET_S
                if len(passes) % 2 == 0 and elapsed + 2 * passes[-1].elapsed > TRACE_BUDGET_S:
                    break
            elif elapsed + passes[-1].elapsed > min(args.seconds, RUN_LIMIT_S):
                break
    finally:
        runner.stop()

    unexpected = [f"{k}: {o.reason}" for k, o in runner.failures if not o.known]
    unexpected += runner.probe_failures
    job_walls = [w for p in passes for w in p.walls]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": len(runner.jobs),
        "setup_samples": sum(len(p.probes) for p in passes),
        "reference_s": reference_s(passes),
        "raw_s": raw_times(passes),
        "cells_per_pass": sum(first[2].cells for first in runner.first.values()),
        "bytes_per_pass": sum(first[3] for first in runner.first.values()),
        "job_tail_s": _tail(job_walls),
        "jobs": runner.job_log,
        "failed": len(runner.failures),
        "failed_known": {k: sum(1 for _, o in runner.failures if o.known == k)
                         for k in sorted({o.known for _, o in runner.failures if o.known})},
        "unexpected": unexpected[:5],
        "err_to_tol_max": max(runner.errors, default=0.0),
        "digests": {"known": runner.known_digests, "changed": runner.changed_digests},
        "machine": {"nproc": os.cpu_count(), "fraclat_threads": min(8, os.cpu_count() or 1),
                    **_versions(), "loadavg_before": load_before, "loadavg_after": _loadavg(),
                    # more runnable tasks than cores before the run started
                    "busy_at_start": bool(load_before) and load_before[0] > (os.cpu_count() or 1),
                    "steal_s": _steal_seconds() - steal_before},
    }
    if args.save_digests:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored.setdefault(args.workload, {}).update(runner.observed)
        DIGESTS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    print(json.dumps({"info": info}))
    metrics = per_layer(runner, passes) if args.trace else end_to_end(passes)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
