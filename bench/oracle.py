"""Independent reference values and the per-job output check.

None of the references calls into `fraclat`: each is a second route written
here from the defining formula, so a job's table is checked against
arithmetic the program under test does not share.

* infinite chain (closed, quadrature, 1D Bessel): the binomial form
  (-1)^p Gamma(alpha+1) / (Gamma(alpha/2+p+1) Gamma(alpha/2-p+1)) in
  30-digit mpmath
* ring elements (Bloch, images) and 1D matrix rows: the Bloch mode sum,
  by FFT for the element routes and summed directly for matrix rows
* nD infinite lattice (nd_bz, nd_bessel in 2D and 3D): periodic mode sums
  at N and 2N, Richardson-extrapolated in the leading image term N^-(d+alpha)
* eigenvalues, dispersion sheets, whole-line kernel: their closed forms
* periodic kernel: a direct image sum with a midpoint tail

Tolerances are the ones each route states (verify's for the 1D routes, the
zone integral's 1e-9, the Bessel route's documented 3e-7).  A failed check
is classified as one of the known defects of the seed code when it matches
one; any other failure is unexpected and makes the run incorrect.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

SAMPLE_ROWS = 48

TOL = {
    "closed": 1e-10,
    "quadrature": 1e-10,
    "bloch": 1e-9,
    "images": 1e-9,
    "nd_bz": 1e-9,
    "nd_bessel": 3e-7,
    "matrix": 1e-10,
    "dispersion": 1e-12,
    "kernel_periodic": 1e-9,
    "kernel_infinite": 1e-12,
}

# Known defects of the seed code (ROADMAP open items 3 and 5).  A failure
# that matches one of these counts as failed but not as incorrect:
#   quadrature_large_p    zone quadrature raises ToleranceError for large p
#   bessel_extrapolation  nd_bessel raises ExtrapolationError (seen at the
#                         origin for alpha near 3 in 1D, 2D and 3D)
#   bessel_accuracy       nd_bessel returns a value off its documented 3e-7
#                         (3D at small alpha and alpha = 3.3, 1D at alpha 1.3, 2.2)
QUADRATURE_FAILS_FROM_P = 1600  # first failures measured at p = 1700-1800


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    known: str = ""
    err_to_tol: float = 0.0
    cells: int = 0


# ------------------------------------------------------------------ parsing


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str, fmt: str) -> tuple:
    """(columns, rows) of an emitted record; numeric cells become floats."""
    if fmt == "json":
        data = json.loads(text)
        rows = [[float(c) if isinstance(c, (int, float)) else c for c in row]
                for row in data["rows"]]
        return tuple(data["columns"]), rows
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    columns = tuple(lines[0].split(","))
    return columns, [[_cell(c) for c in line.split(",")] for line in lines[1:]]


# --------------------------------------------------------------- references


@lru_cache(maxsize=None)
def chain_element(alpha: float, p: int) -> float:
    mpmath.mp.dps = 30
    a = mpmath.mpf(alpha) / 2
    value = mpmath.gamma(alpha + 1) * mpmath.rgamma(a + p + 1) * mpmath.rgamma(a - p + 1)
    return float(-value if p % 2 else value)


@lru_cache(maxsize=8)
def _modes(alpha: float, sizes: tuple) -> np.ndarray:
    """lambda(kappa)^(alpha/2) on the Bloch grid of a periodic lattice."""
    lam = np.zeros(sizes)
    for axis, n in enumerate(sizes):
        shape = [1] * len(sizes)
        shape[axis] = n
        lam = lam + (4.0 * np.sin(np.pi * np.arange(n) / n) ** 2).reshape(shape)
    return lam ** (alpha / 2.0)


@lru_cache(maxsize=16)
def ring_row(alpha: float, n: int) -> np.ndarray:
    return np.fft.ifft(_modes(alpha, (n,))).real


def periodic_element(alpha: float, sizes, index) -> float:
    """(1/N) sum over Bloch modes of cos(kappa . index) lambda^(alpha/2), summed directly."""
    modes = _modes(alpha, tuple(sizes))
    phase = np.zeros(tuple(sizes))
    for axis, (n, i) in enumerate(zip(sizes, index)):
        shape = [1] * len(sizes)
        shape[axis] = n
        phase = phase + (2.0 * np.pi * np.arange(n) * i / n).reshape(shape)
    return float(np.sum(np.cos(phase) * modes)) / modes.size


@lru_cache(maxsize=None)
def lattice_element(alpha: float, offset: tuple) -> float:
    dim = len(offset)
    if dim == 1:
        return chain_element(alpha, abs(offset[0]))
    n = {2: 512, 3: 64}[dim]
    gain = 2.0 ** (dim + alpha)
    coarse = periodic_element(alpha, (n,) * dim, offset)
    fine = periodic_element(alpha, (2 * n,) * dim, offset)
    return (gain * fine - coarse) / (gain - 1.0)


def riesz_amplitude(alpha: float) -> float:
    mpmath.mp.dps = 30
    return float(mpmath.gamma(alpha + 1) * mpmath.sin(mpmath.pi * alpha / 2) / mpmath.pi)


_IMAGES = np.arange(1, 100_000, dtype=float)


def periodic_kernel(alpha: float, length: float, x: float) -> float:
    beta = alpha + 1.0
    xi = (x / length) % 1.0
    m = _IMAGES[-1] + 1.0
    direct = xi**-beta + float(np.sum((_IMAGES + xi) ** -beta + (_IMAGES - xi) ** -beta))
    tail = ((m + xi - 0.5) ** -alpha + (m - xi - 0.5) ** -alpha) / alpha
    return riesz_amplitude(alpha) * length**-beta * (direct + tail)


# ------------------------------------------------------------------- checks


class _Check:
    """Accumulates the worst error-to-tolerance ratio of one job."""

    def __init__(self):
        self.worst = 0.0
        self.first_miss = ""

    def value(self, label: str, got, ref: float, tol: float, relative: bool = True) -> None:
        scale = max(1.0, abs(ref)) if relative else 1.0
        if not isinstance(got, float) or not math.isfinite(got):
            ratio = math.inf
        else:
            ratio = abs(got - ref) / (tol * scale)
        if ratio > self.worst:
            self.worst = ratio
        if ratio > 1.0 and not self.first_miss:
            self.first_miss = f"{label}: got {got!r}, reference {ref!r}, tolerance {tol:g}"

    def exact(self, label: str, got, want) -> None:
        if got != want:
            self.worst = math.inf
            if not self.first_miss:
                self.first_miss = f"{label}: got {got!r}, expected {want!r}"


def _sample(rng: random.Random, count: int) -> list:
    if count <= SAMPLE_ROWS:
        return list(range(count))
    return sorted(rng.sample(range(count), SAMPLE_ROWS))


def _check_rows(rows, count, check) -> bool:
    check.exact("row count", len(rows), count)
    return len(rows) == count


def _elements(spec, columns, rows, rng, check) -> None:
    route = spec["route"]
    tol = TOL[route]
    alpha = spec["alpha"]
    if "offsets" in spec:
        offsets = [tuple(o) for o in spec["offsets"]]
        dim = len(offsets[0])
        check.exact("columns", columns, tuple(f"p{j + 1}" for j in range(dim)) + ("value", "route"))
        if not _check_rows(rows, len(offsets), check):
            return
        for i in _sample(rng, len(rows)):
            row = rows[i]
            check.exact(f"offset row {i}", tuple(int(c) for c in row[:dim]), offsets[i])
            check.exact(f"route row {i}", row[-1], route)
            check.value(f"{route} {offsets[i]}", row[dim], lattice_element(alpha, offsets[i]),
                        tol, relative=False)
        return
    p_list = spec["p"]
    check.exact("columns", columns, ("p", "value", "route"))
    if not _check_rows(rows, len(p_list), check):
        return
    row_ref = ring_row(alpha, spec["n"]) if "n" in spec else None
    for i in _sample(rng, len(rows)):
        p, value, name = rows[i]
        check.exact(f"p row {i}", p, float(p_list[i]))
        check.exact(f"route row {i}", name, route)
        ref = chain_element(alpha, p_list[i]) if row_ref is None else float(row_ref[p_list[i]])
        check.value(f"{route} p={p_list[i]}", value, ref, tol)


def _matrix(spec, columns, rows, rng, check) -> None:
    sizes = tuple(spec["sizes"])
    alpha, mu, omega_sq = spec["alpha"], spec["mu"], spec["omega_sq"]
    total = math.prod(sizes)
    if len(sizes) == 1:
        check.exact("columns", columns, ("kind", "i", "value"))
        kinds = ("row", "eigenvalue")
    else:
        check.exact("columns", columns,
                    ("kind",) + tuple(f"i{j + 1}" for j in range(len(sizes))) + ("value",))
        kinds = ("element", "eigenvalue")
    if not _check_rows(rows, 2 * total, check):
        return
    modes = _modes(alpha, sizes).ravel()
    for i in _sample(rng, len(rows)):
        row = rows[i]
        kind = kinds[i // total]
        index = tuple(int(v) for v in np.unravel_index(i % total, sizes))
        check.exact(f"kind row {i}", row[0], kind)
        check.exact(f"index row {i}", tuple(int(c) for c in row[1:-1]), index)
        if kind == "eigenvalue":
            ref = -mu * omega_sq * float(modes[i % total])
        else:
            ref = -mu * omega_sq * periodic_element(alpha, sizes, index)
        check.value(f"{kind} {index}", row[-1], ref, TOL["matrix"])


def _dispersion(spec, columns, rows, rng, check) -> None:
    grid, dim, alphas = spec["grid"], spec["dim"], spec["alphas"]
    axis = np.linspace(0.0, math.pi, grid)
    per_alpha = grid**dim
    if dim == 1:
        check.exact("columns", columns, ("alpha", "kappa", "omega_normalized"))
    else:
        check.exact("columns", columns, ("alpha", "kappa1", "kappa2", "omega_normalized"))
    if not _check_rows(rows, per_alpha * len(alphas), check):
        return
    # every order crosses the same value where the eigenvalue 4 sum sin^2 equals one
    crossing = 0.5 if dim == 1 else 2.0**-1.5
    for i in _sample(rng, len(rows)):
        row = rows[i]
        alpha = alphas[i // per_alpha]
        kappas = np.unravel_index(i % per_alpha, (grid,) * dim)
        kappas = [float(axis[k]) for k in kappas]
        check.exact(f"alpha row {i}", row[0], alpha)
        check.exact(f"kappa row {i}", row[1:-1], kappas)
        s = sum(math.sin(0.5 * k) ** 2 for k in kappas)
        if dim == 1:
            ref = (4.0 * s) ** (alpha / 4.0) / 2.0
        else:
            ref = 2.0 ** (0.5 * (alpha - 3.0)) * s ** (alpha / 4.0)
        check.value(f"dispersion row {i}", row[-1], ref, TOL["dispersion"])
        side = 4.0 * s - 1.0
        if abs(side) > 1e-9 and isinstance(row[-1], float):
            check.exact(f"crossing side row {i}", row[-1] > crossing, side > 0.0)


def _kernel(spec, columns, rows, rng, check) -> None:
    alpha, length = spec["alpha"], spec["length"]
    points = np.linspace(spec["lo"], spec["hi"], spec["samples"])
    periodic = length is not None
    if periodic:
        check.exact("columns", columns, ("x", "kernel", "kernel_infinite", "flag"))
    else:
        check.exact("columns", columns, ("x", "kernel", "flag"))
    if not _check_rows(rows, len(points), check):
        return
    amplitude = riesz_amplitude(alpha)
    for i in _sample(rng, len(rows)):
        row = rows[i]
        x = float(points[i])
        check.exact(f"x row {i}", row[0], x)
        gap = abs(x - round(x / length) * length) if periodic else abs(x)
        singular = gap <= 1e-12 * (length if periodic else 1.0)
        check.exact(f"flag row {i}", row[-1], "singular" if singular else "ok")
        if singular:
            continue
        whole_line = amplitude * abs(x) ** (-alpha - 1.0)
        check.value(f"kernel_infinite x={x}", row[-2], whole_line, TOL["kernel_infinite"])
        if periodic:
            check.value(f"kernel_periodic x={x}", row[1], periodic_kernel(alpha, length, x),
                        TOL["kernel_periodic"])


def _verify(spec, columns, rows, rng, check) -> None:
    check.exact("columns", columns, ("check", "suite", "status", "achieved", "tolerance"))
    check.exact("row count > 0", len(rows) > 0, True)
    for row in rows:
        name, suite, status, achieved, tolerance = row
        if spec["suite"] != "all":
            check.exact(f"suite of {name}", suite, spec["suite"])
        check.exact(f"status of {name}", status, "pass")
        check.exact(f"{name} achieved <= tolerance", achieved <= tolerance, True)


_CHECKERS = {
    "elements": _elements,
    "matrix": _matrix,
    "dispersion": _dispersion,
    "kernel": _kernel,
    "verify": _verify,
}


def _known_failure(job, returncode: int, stderr: str, check: _Check) -> str:
    route = job.spec.get("route")
    if returncode == 1 and route == "quadrature" and "tolerance not met" in stderr \
            and max(job.spec["p"]) >= QUADRATURE_FAILS_FROM_P:
        return "quadrature_large_p"
    if returncode == 1 and route == "nd_bessel" and "extrapolation did not converge" in stderr:
        return "bessel_extrapolation"
    if returncode == 0 and route == "nd_bessel" and check.worst < math.inf:
        return "bessel_accuracy"
    return ""


def check_job(job, returncode: int, stdout: bytes, stderr: str) -> Outcome:
    """Check one job's exit code and table against the references."""
    check = _Check()
    if returncode != 0:
        reason = f"exit {returncode}: {stderr.strip()[-300:]}"
        return Outcome(False, reason, _known_failure(job, returncode, stderr, check), math.nan)
    try:
        columns, rows = parse_table(stdout.decode("utf-8"), job.fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return Outcome(False, f"unparseable output: {exc}", "", math.nan)
    rng = random.Random(f"check:{job.key}")
    try:
        _CHECKERS[job.kind](job.spec, columns, rows, rng, check)
    except (ValueError, TypeError, IndexError) as exc:
        check.exact("table shape", repr(exc), "")
    cells = len(rows) * len(columns)
    # verify rows carry their own achieved/tolerance; they are pass/fail only
    err = 0.0 if job.kind == "verify" else check.worst
    if not check.first_miss:
        return Outcome(True, "", "", err, cells)
    return Outcome(False, check.first_miss, _known_failure(job, 0, stderr, check), err, cells)
