"""Seeded job lists for the three benchmark workloads.

A workload is one pass: a list of `fraclat` invocations that a single client
runs one after another, each in a fresh process.  Every pass of a workload
has the same composition (job types and size strata); the seed draws the
order alpha, offsets, sizes inside each stratum, output format and output
destination.  Keeping the composition fixed keeps the cost of a pass close
from seed to seed, so the end-to-end figures compare across seeds; drawing
every value from the documented parameter space keeps the requests the seed
code gets wrong (large-offset quadrature, the Bessel route near alpha = 3 or
at small alpha in 3D) in the mix.

Each Job carries the argv the program receives and a `spec` dict that only
the oracle reads.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("ring1d", "bulk_tables", "lattice_nd")

# output files of jobs that write with --output, relative to the checkout root
WORK_DIR = "bench/.work"


@dataclass
class Job:
    kind: str
    args: list
    spec: dict = field(default_factory=dict)
    output: str = "-"
    fmt: str = "csv"

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _alpha(rng: random.Random, integer_half_ok: bool = True) -> float:
    """Order alpha from the grid 0.1, 0.2, ..., 3.9 (alpha/2 integer only at 2.0)."""
    while True:
        alpha = rng.randint(1, 39) / 10
        if integer_half_ok or alpha != 2.0:
            return alpha


def _log_offsets(rng: random.Random, count: int, top: int) -> list:
    """Distinct offsets in [0, top - 1], log-uniform so every decade appears."""
    out = set()
    while len(out) < count:
        out.add(min(top - 1, round(top ** rng.random()) - 1))
    return sorted(out)


def _plist(values) -> str:
    return ",".join(str(v) for v in values)


class _Builder:
    def __init__(self, rng: random.Random, json_share: float, file_share: float):
        self.rng = rng
        self.json_share = json_share
        self.file_share = file_share
        self.jobs = []

    def add(self, kind: str, args: list, spec: dict, table: bool = True, fixed=None) -> None:
        """Append a job; `fixed` = (format, to_file) overrides the seeded choice."""
        index = len(self.jobs)
        fmt, output = "csv", "-"
        if table:
            if fixed is None:
                fixed = (("json" if self.rng.random() < self.json_share else "csv"),
                         self.rng.random() < self.file_share)
            fmt = fixed[0]
            if fixed[1]:
                output = f"{WORK_DIR}/job{index}.{fmt}"
            args = args + ["--format", fmt, "--output", output]
        self.jobs.append(Job(kind, args, spec, output, fmt))


def _elements_infinite(b: _Builder, route: str, p_text: str, p_list: list) -> None:
    alpha = _alpha(b.rng)
    b.add(
        "elements",
        ["elements", "--infinite", "--route", route, "--alpha", str(alpha), "--p", p_text],
        {"route": route, "alpha": alpha, "p": p_list},
    )


def _elements_ring(b: _Builder, route: str, n: int, p_list=None, tol=None) -> None:
    alpha = _alpha(b.rng)
    args = ["elements", "--n", str(n), "--route", route, "--alpha", str(alpha)]
    if p_list is not None:
        args += ["--p", _plist(p_list)]
    if tol is not None:
        args += ["--tol", repr(tol)]
    b.add("elements", args, {"route": route, "alpha": alpha, "n": n,
                             "p": p_list if p_list is not None else list(range(n))})


def _kernel(b: _Builder, samples: int, periodic: bool, fixed=None) -> None:
    rng = b.rng
    alpha = _alpha(rng, integer_half_ok=False)
    if periodic:
        length = round(rng.uniform(0.5, 10.0), 3)
        lo = round(rng.uniform(-length, 0.5 * length), 3)
        hi = round(lo + rng.uniform(0.5, 2.0) * length, 3)
        where = ["--length", repr(length)]
    else:
        length = None
        lo = round(rng.uniform(-10.0, 1.0), 3)
        hi = round(rng.uniform(max(lo, 0.0) + 0.5, 12.0), 3)
        where = ["--infinite"]
    b.add(
        "kernel",
        ["kernel", "--alpha", str(alpha)] + where
        + [f"--x-range={lo!r}..{hi!r}", "--samples", str(samples)],
        {"alpha": alpha, "length": length, "lo": lo, "hi": hi, "samples": samples},
        fixed=fixed,
    )


def _dispersion(b: _Builder, dim: int, grid: int, n_alpha: int, fixed=None) -> None:
    alphas = [_alpha(b.rng) for _ in range(n_alpha)]
    args = ["dispersion", "--dim", str(dim), "--grid", str(grid)]
    for alpha in alphas:
        args += ["--alpha", str(alpha)]
    if dim == 2:
        args += ["--cut", "full"]
    b.add("dispersion", args, {"dim": dim, "grid": grid, "alphas": alphas}, fixed=fixed)


def _matrix_1d(b: _Builder, n: int, scaled: bool = False, fixed=None) -> None:
    rng = b.rng
    alpha = _alpha(rng)
    mu, omega_sq = 1.0, 1.0
    args = ["matrix", "--n", str(n), "--alpha", str(alpha)]
    if scaled:
        mu = round(rng.uniform(0.5, 2.0), 3)
        omega_sq = round(rng.uniform(0.5, 2.0), 3)
        args += ["--mu", repr(mu), "--omega-sq", repr(omega_sq)]
    b.add("matrix", args, {"alpha": alpha, "sizes": [n], "mu": mu, "omega_sq": omega_sq},
          fixed=fixed)


def _matrix_nd(b: _Builder, sizes: list, fixed=None) -> None:
    alpha = _alpha(b.rng)
    dims = "x".join(str(s) for s in sizes)
    b.add("matrix", ["matrix", "--dims", dims, "--alpha", str(alpha)],
          {"alpha": alpha, "sizes": sizes, "mu": 1.0, "omega_sq": 1.0}, fixed=fixed)


def _nd_element(b: _Builder, route: str, offsets: list) -> None:
    alpha = _alpha(b.rng, integer_half_ok=route != "nd_bessel")
    args = ["elements", "--infinite", "--route", route, "--alpha", str(alpha)]
    for offset in offsets:
        args += ["--offset", _plist(offset)]
    b.add("elements", args, {"route": route, "alpha": alpha, "offsets": offsets})


def _offset(rng: random.Random, dim: int, top: int) -> tuple:
    return tuple(rng.randint(0, top) for _ in range(dim))


def ring1d(rng: random.Random) -> list:
    """Many short 1D jobs: the scripting user, dominated by process start-up."""
    b = _Builder(rng, json_share=0.25, file_share=0.25)
    start = rng.randint(8000, 9800)
    _elements_infinite(b, "closed", f"{start}..{start + 199}", list(range(start, start + 200)))
    p = _log_offsets(rng, 8, 10_000)
    _elements_infinite(b, "closed", _plist(p), p)
    top = rng.randint(10, 100)
    _elements_infinite(b, "closed", f"0..{top}", list(range(top + 1)))
    # offsets up to 1e4: the seed code's quadrature fails from p ~ 1800
    p = _log_offsets(rng, 4, 10_000)
    _elements_infinite(b, "quadrature", _plist(p), p)
    p = _log_offsets(rng, 4, 200)
    _elements_infinite(b, "quadrature", _plist(p), p)
    top = rng.randint(5, 20)
    _elements_infinite(b, "quadrature", f"0..{top}", list(range(top + 1)))
    _elements_ring(b, "bloch", rng.randint(2048, 4096))
    _elements_ring(b, "bloch", rng.randint(2, 512))
    _elements_ring(b, "images", rng.randint(3072, 4096))
    n = rng.randint(2, 512)
    _elements_ring(b, "images", n, _log_offsets(rng, min(8, n), n))
    n = rng.randint(512, 4096)
    _elements_ring(b, "images", n, _log_offsets(rng, 8, n), tol=rng.choice([1e-12, 1e-10]))
    _matrix_1d(b, rng.randint(1024, 4096))
    _matrix_1d(b, rng.randint(2, 256), scaled=True)
    _kernel(b, rng.randint(101, 2001), periodic=True)
    _kernel(b, rng.randint(101, 2001), periodic=False)
    _dispersion(b, 1, rng.randint(33, 1025), rng.randint(1, 3))
    # one light suite and one that runs the continuum checks (2e5-term sums)
    for suite in (rng.choice(["oracles", "asymptotics"]), rng.choice(["continuum", "all"])):
        b.add("verify", ["verify", "--suite", suite], {"suite": suite},
              table=rng.random() < 0.5)
    return b.jobs


def bulk_tables(rng: random.Random) -> list:
    """A few jobs with large tables: encoders and CLI row building dominate.

    Format and destination are fixed per job so every seed encodes the same
    mix of CSV and JSON, stdout and --output files.
    """
    b = _Builder(rng, json_share=0.5, file_share=0.5)
    _dispersion(b, 2, rng.randint(497, 513), 1, fixed=("json", True))
    _dispersion(b, 2, rng.randint(241, 257), 2, fixed=("csv", False))
    _dispersion(b, 1, rng.randint(8065, 8193), 3, fixed=("json", False))
    _matrix_1d(b, rng.randint(96_000, 100_000), fixed=("csv", True))
    _matrix_nd(b, [64, 64], fixed=("json", True))
    _matrix_nd(b, [16, 16, 16], fixed=("csv", False))
    _matrix_nd(b, [8, 8, 8, 8], fixed=("json", False))
    _kernel(b, rng.randint(19_001, 20_001), periodic=True, fixed=("csv", True))
    _kernel(b, rng.randint(19_001, 20_001), periodic=False, fixed=("json", False))
    return b.jobs


def lattice_nd(rng: random.Random) -> list:
    """Infinite-lattice nD elements: lattice compute dominates, output is tiny."""
    b = _Builder(rng, json_share=0.25, file_share=0.25)
    for _ in range(3):
        offsets = []
        while len(offsets) < 16:
            offset = _offset(rng, 2, 8)
            if offset not in offsets:
                offsets.append(offset)
        _nd_element(b, "nd_bz", offsets)
    _nd_element(b, "nd_bz", [_offset(rng, 3, 2)])
    # three 3D Bessel jobs (~2.5 s) sit in the middle of the pass's cost
    # order, so the median job is one of three like jobs, not a single draw
    for dim in (1, 2, 3, 3, 3):
        _nd_element(b, "nd_bessel", [_offset(rng, dim, 3)])
    return b.jobs


def generate(workload: str, seed: int) -> list:
    """The job list of one pass of `workload` for `seed`, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = globals()[workload](rng)
    rng.shuffle(jobs)
    return jobs
