"""Command line front end.

Subcommands: elements, matrix, dispersion, kernel, verify.  Every command
builds one OutputRecord and writes it as CSV (default) or JSON to stdout or
a file.  Exit codes: 0 success, 1 verification or tolerance failure, 2 usage
or parameter error (with a one line reason on stderr).  The environment
variable FRACLAT_THREADS caps per-offset parallelism (0 means auto); output
is byte identical for identical flags regardless of the thread count.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .chain import (
    ChainSpec,
    FractionalOrder,
    TruncationError,
    build_laplacian_1d,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
    laplacian_eigenvalues_1d,
    normalized_dispersion_1d,
)
from .continuum import KernelSpec, riesz_kernel_infinite, riesz_kernel_periodic
from .lattice import (
    OffsetVector,
    ExtrapolationError,
    LatticeSpec,
    bessel_element_extrapolated,
    build_laplacian_nd,
    dispersion_surface,
    element_infinite_nd_bz,
    normalized_dispersion_2d,
)
from .output import OutputRecord, record_to_csv, record_to_json
from .special import QuadratureSpec, ToleranceError
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]

MATRIX_MAX_SITES_1D = 100_000
MATRIX_MAX_SITES_ND = 4096

_ROUTES_1D_INFINITE = ("closed", "quadrature")
_ROUTES_1D_PERIODIC = ("bloch", "images")
_ROUTES_ND = ("nd_bz", "nd_bessel")


class UsageError(ValueError):
    """Parameter combination rejected before any computation."""


# ------------------------------------------------------------- flag parsing


def _parse_int_list(text: str, flag: str) -> list:
    """Accept 'a..b' (inclusive), a single integer, or a comma list."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError:
        raise UsageError(f"{flag} expects 'a..b', 'v', or 'v1,v2,...', got {text!r}")


def _parse_dims(text: str) -> tuple:
    parts = text.strip().lower().split("x")
    try:
        sizes = tuple(int(part) for part in parts)
    except ValueError:
        raise UsageError(f"--dims expects N1xN2[xN3[xN4]], got {text!r}")
    if not 2 <= len(sizes) <= 4:
        raise UsageError(f"--dims expects 2 to 4 axes, got {len(sizes)} in {text!r}")
    return sizes


def _parse_offset(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise UsageError(f"--offset expects comma separated integers, got {text!r}")


def _parse_real_range(text: str, flag: str) -> tuple:
    try:
        lo_text, hi_text = text.strip().split("..", 1)
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise UsageError(f"{flag} expects 'a..b', got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise UsageError(f"{flag} needs a finite range with b > a, got {text!r}")
    return lo, hi


def _single_alpha(args) -> float:
    if len(args.alpha) != 1:
        raise UsageError(f"{args.command} takes exactly one --alpha")
    return float(args.alpha[0])


def thread_cap() -> int:
    """Worker cap from FRACLAT_THREADS: unset or 0 means auto, else the value."""
    raw = os.environ.get("FRACLAT_THREADS", "0").strip()
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"FRACLAT_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise UsageError(f"FRACLAT_THREADS must be >= 0, got {value}")
    if value == 0:
        return min(8, os.cpu_count() or 1)
    return value


def _parallel_values(func, items: list) -> list:
    """Map func over items, preserving order; threads only when they help."""
    workers = min(thread_cap(), len(items))
    if workers <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


# ---------------------------------------------------------------- commands


def _metadata() -> dict:
    return {"version": __version__}


def cmd_elements(args):
    alpha = _single_alpha(args)
    order = FractionalOrder(alpha, omega_sq=args.omega_sq)
    route = args.route
    parameters = {"alpha": alpha, "route": route, "omega_sq": args.omega_sq}
    metadata = _metadata()

    if route in _ROUTES_1D_INFINITE + _ROUTES_1D_PERIODIC:
        if args.offset:
            raise UsageError(f"route {route} is one dimensional; use --p, not --offset")
        if route in _ROUTES_1D_INFINITE:
            if args.n is not None or args.dims is not None or not args.infinite:
                raise UsageError(f"route {route} requires --infinite")
            p_list = _parse_int_list(args.p or "0..10", "--p")
            parameters["size"] = "infinite"
        else:
            if args.infinite or args.dims is not None or args.n is None:
                raise UsageError(f"route {route} requires a ring size --n")
            chain = ChainSpec(args.n)
            p_list = _parse_int_list(args.p or f"0..{args.n - 1}", "--p")
            parameters["size"] = args.n
        if any(p < 0 for p in p_list):
            raise UsageError("--p offsets must be >= 0")
        parameters["p"] = args.p or ("0..10" if route in _ROUTES_1D_INFINITE else f"0..{args.n - 1}")

        if route == "closed":
            values = [element_infinite_closed(order, p) for p in p_list]
        elif route == "quadrature":
            spec = None
            if args.tol is not None:
                spec = QuadratureSpec(abs_tol=args.tol)
                parameters["tol"] = args.tol
            values = [element_infinite_quadrature(order, p, spec) for p in p_list]
        elif route == "bloch":
            values = [element_periodic_bloch(order, chain, p) for p in p_list]
        else:
            tol = args.tol if args.tol is not None else 1e-12
            parameters["tol"] = tol
            values = [element_periodic_images(order, chain, p, tol=tol) for p in p_list]
        columns = ("p", "value", "route")
        rows = [(p, v, route) for p, v in zip(p_list, values)]
        return OutputRecord("elements", parameters, columns, rows, metadata), 0

    # nD routes act on the infinite lattice and take explicit offset vectors
    if not args.infinite or args.n is not None or args.dims is not None:
        raise UsageError(f"route {route} requires --infinite")
    if not args.offset:
        raise UsageError(f"route {route} requires at least one --offset p1,p2[,p3]")
    offsets = [_parse_offset(text) for text in args.offset]
    dim = len(offsets[0])
    if any(len(offset) != dim for offset in offsets):
        raise UsageError("all --offset vectors must have the same number of components")
    parameters["size"] = "infinite"
    parameters["dim"] = dim

    if route == "nd_bz":
        spec = None
        if args.tol is not None:
            spec = QuadratureSpec(points=24, abs_tol=args.tol)
            parameters["tol"] = args.tol

        def compute(offset):
            return element_infinite_nd_bz(order, dim, OffsetVector(offset), spec)

    else:
        check_tol = args.tol if args.tol is not None else 1e-4
        parameters["tol"] = check_tol

        def compute(offset):
            return bessel_element_extrapolated(order, dim, OffsetVector(offset), check_tol=check_tol)

    values = _parallel_values(compute, offsets)
    columns = tuple(f"p{j + 1}" for j in range(dim)) + ("value", "route")
    rows = [offset + (value, route) for offset, value in zip(offsets, values)]
    return OutputRecord("elements", parameters, columns, rows, metadata), 0


def cmd_matrix(args):
    alpha = _single_alpha(args)
    if args.infinite:
        raise UsageError("matrix export requires a finite lattice (--n or --dims)")
    if (args.n is None) == (args.dims is None):
        raise UsageError("matrix export needs exactly one of --n or --dims")
    if args.n is not None:
        if args.n > MATRIX_MAX_SITES_1D:
            raise UsageError(f"--n {args.n} exceeds the matrix export limit {MATRIX_MAX_SITES_1D}")
        order = FractionalOrder(alpha, omega_sq=args.omega_sq)
        chain = ChainSpec(args.n, mass=args.mu)
        row = build_laplacian_1d(order, chain).first_row.tolist()
        eigenvalues = laplacian_eigenvalues_1d(order, chain).tolist()
        parameters = {"alpha": alpha, "n": args.n, "mu": args.mu, "omega_sq": args.omega_sq}
        rows = [("row", p, v) for p, v in enumerate(row)]
        rows += [("eigenvalue", l, v) for l, v in enumerate(eigenvalues)]
        return OutputRecord("matrix", parameters, ("kind", "i", "value"), rows, _metadata()), 0

    sizes = _parse_dims(args.dims)
    if math.prod(sizes) > MATRIX_MAX_SITES_ND:
        raise UsageError(
            f"--dims {args.dims} has {math.prod(sizes)} sites, over the export limit {MATRIX_MAX_SITES_ND}"
        )
    lattice = LatticeSpec(len(sizes), sizes, mass=args.mu)
    table, eigenvalues = build_laplacian_nd(FractionalOrder(alpha, omega_sq=args.omega_sq), lattice)
    parameters = {"alpha": alpha, "dims": args.dims, "mu": args.mu, "omega_sq": args.omega_sq}
    columns = ("kind",) + tuple(f"i{j + 1}" for j in range(len(sizes))) + ("value",)
    cells = list(np.ndindex(*sizes))
    rows = [("element",) + idx + (v,) for idx, v in zip(cells, table.ravel().tolist())]
    rows += [("eigenvalue",) + idx + (v,) for idx, v in zip(cells, eigenvalues.ravel().tolist())]
    return OutputRecord("matrix", parameters, columns, rows, _metadata()), 0


def cmd_dispersion(args):
    alphas = [float(a) for a in args.alpha]
    for alpha in alphas:
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise UsageError(f"--alpha must be positive and finite, got {alpha}")
    if args.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {args.grid}")
    parameters = {
        "alpha": ",".join(repr(a) for a in alphas),
        "dim": args.dim,
        "grid": args.grid,
        "cut": args.cut,
    }
    if args.dim == 2 and args.cut == "full":
        columns = ("alpha", "kappa1", "kappa2", "omega_normalized")
        rows = []
        for alpha in alphas:
            surface = dispersion_surface(FractionalOrder(alpha), args.grid)
            rows += [(alpha, k1, k2, v) for k1, k2, v in zip(*surface.T.tolist())]
        return OutputRecord("dispersion", parameters, columns, rows, _metadata()), 0

    # a path over [0, pi]: the 1D zone, or the 2D axis or diagonal cut
    path = np.linspace(0.0, math.pi, args.grid)
    columns = ("alpha", "kappa" if args.dim == 1 else "kappa_path", "omega_normalized")
    rows = []
    for alpha in alphas:
        order = FractionalOrder(alpha)
        if args.dim == 1:
            values = normalized_dispersion_1d(order, path)
        else:
            across = np.zeros_like(path) if args.cut == "plane_010" else path
            values = normalized_dispersion_2d(order, path, across)
        rows += [(alpha, k, v) for k, v in zip(path.tolist(), values.tolist())]
    return OutputRecord("dispersion", parameters, columns, rows, _metadata()), 0


def cmd_kernel(args):
    alpha = _single_alpha(args)
    if args.n is not None or args.dims is not None:
        raise UsageError("kernel sampling takes --length or --infinite, not --n/--dims")
    if (args.length is None) == (not args.infinite):
        raise UsageError("kernel sampling needs exactly one of --length or --infinite")
    lo, hi = _parse_real_range(args.x_range, "--x-range")
    if args.samples < 2:
        raise UsageError(f"--samples must be >= 2, got {args.samples}")
    points = np.linspace(lo, hi, args.samples)
    parameters = {
        "alpha": alpha,
        "x_range": args.x_range,
        "samples": args.samples,
        "length": "infinite" if args.infinite else args.length,
    }

    if args.infinite:
        spec = KernelSpec(alpha)
        singular_gap = 1e-12

        def row(x):
            if abs(x) <= singular_gap:
                return (float(x), math.nan, "singular")
            return (float(x), riesz_kernel_infinite(spec, float(x)), "ok")

        columns = ("x", "kernel", "flag")
        rows = [row(x) for x in points]
    else:
        length = float(args.length)
        if not (length > 0.0 and math.isfinite(length)):
            raise UsageError(f"--length must be positive and finite, got {args.length}")
        periodic = KernelSpec(alpha, period=length)
        whole_line = KernelSpec(alpha)
        singular_gap = 1e-12 * length

        def row(x):
            x = float(x)
            nearest = round(x / length) * length
            if abs(x - nearest) <= singular_gap:
                return (x, math.nan, math.nan, "singular")
            return (x, riesz_kernel_periodic(periodic, x), riesz_kernel_infinite(whole_line, x), "ok")

        columns = ("x", "kernel", "kernel_infinite", "flag")
        rows = [row(x) for x in points]
    return OutputRecord("kernel", parameters, columns, rows, _metadata()), 0


def cmd_verify(args):
    overrides = {}
    for text in args.override or []:
        if "=" not in text:
            raise UsageError(f"--override expects name=tolerance, got {text!r}")
        name, value = text.split("=", 1)
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            raise UsageError(f"--override tolerance must be a real number, got {value!r}")
    results = run_suite(args.suite, overrides)
    parameters = {"suite": args.suite}
    if overrides:
        parameters["overrides"] = ";".join(f"{k}={v:g}" for k, v in sorted(overrides.items()))
    rows = [(r.name, r.suite, r.status, r.achieved, r.tolerance) for r in results]
    columns = ("check", "suite", "status", "achieved", "tolerance")
    record = OutputRecord("verify", parameters, columns, rows, _metadata())
    return record, (0 if all(r.passed for r in results) else 1)


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclat",
        description="Fractional Laplacian lattice matrices, dispersion tables, and kernels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(sub):
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--output", default="-", metavar="PATH|-")

    def add_size_flags(sub):
        sub.add_argument("--n", type=int, metavar="INT", help="ring size (1D periodic)")
        sub.add_argument("--dims", metavar="N1xN2[xN3]", help="finite lattice sizes per axis")
        sub.add_argument("--infinite", action="store_true", help="infinite lattice")

    sub = subparsers.add_parser("elements", help="coupling profile values by any route")
    sub.add_argument("--alpha", type=float, action="append", required=True)
    add_size_flags(sub)
    sub.add_argument("--p", metavar="a..b", help="1D offsets: range, value, or comma list")
    sub.add_argument(
        "--offset",
        action="append",
        metavar="p1,p2[,p3]",
        help="nD offset vector (repeatable), for routes nd_bz and nd_bessel",
    )
    sub.add_argument(
        "--route",
        required=True,
        choices=_ROUTES_1D_INFINITE + _ROUTES_1D_PERIODIC + _ROUTES_ND,
    )
    sub.add_argument("--omega-sq", type=float, default=1.0, dest="omega_sq")
    sub.add_argument("--tol", type=float, help="route tolerance (images, quadrature, nd routes)")
    add_output_flags(sub)
    sub.set_defaults(func=cmd_elements)

    sub = subparsers.add_parser("matrix", help="finite Laplacian table plus eigenvalues")
    sub.add_argument("--alpha", type=float, action="append", required=True)
    add_size_flags(sub)
    sub.add_argument("--mu", type=float, default=1.0, help="mass prefactor of the Laplacian")
    sub.add_argument("--omega-sq", type=float, default=1.0, dest="omega_sq")
    add_output_flags(sub)
    sub.set_defaults(func=cmd_matrix)

    sub = subparsers.add_parser("dispersion", help="normalized mode frequency tables")
    sub.add_argument("--alpha", type=float, action="append", required=True)
    sub.add_argument("--dim", type=int, choices=(1, 2), default=2)
    sub.add_argument("--grid", type=int, default=33, help="samples per axis or along the cut")
    sub.add_argument(
        "--cut",
        choices=("full", "plane_010", "plane_110"),
        default="full",
        help="full surface, axis cut, or zone diagonal cut (2D only)",
    )
    add_output_flags(sub)
    sub.set_defaults(func=cmd_dispersion)

    sub = subparsers.add_parser("kernel", help="continuum kernel samples")
    sub.add_argument("--alpha", type=float, action="append", required=True)
    add_size_flags(sub)
    sub.add_argument("--length", type=float, metavar="L", help="period of the periodic kernel")
    sub.add_argument("--x-range", default="0..10", metavar="a..b", dest="x_range")
    sub.add_argument("--samples", type=int, default=21)
    add_output_flags(sub)
    sub.set_defaults(func=cmd_kernel)

    sub = subparsers.add_parser("verify", help="run the built in cross checks")
    sub.add_argument("--suite", choices=("all",) + SUITES, default="all")
    sub.add_argument(
        "--override",
        action="append",
        metavar="CHECK=TOL",
        help="replace the tolerance of one named check (repeatable)",
    )
    add_output_flags(sub)
    sub.set_defaults(func=cmd_verify)

    return parser


def _write_output(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        record, exit_code = args.func(args)
    except (ToleranceError, TruncationError, ExtrapolationError, OverflowError) as exc:
        print(f"fraclat: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"fraclat: {exc}", file=sys.stderr)
        return 2
    text = record_to_csv(record) if args.format == "csv" else record_to_json(record)
    _write_output(text, args.output)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
