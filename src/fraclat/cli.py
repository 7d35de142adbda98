"""Command line front end.

Subcommands: elements, matrix, dispersion, kernel, verify.  Every command
builds one OutputRecord and writes it as CSV (default) or JSON to stdout or
a file.  The encoder spells a plain column row by row and each cell of a
factored column once, and finds no repeats of its own (see `output`), so a
command hands over factored, as its cells and each row's position among
them, every column whose cells it knows to repeat: the 2D dispersion sheet,
whose frequencies are computed once per pair kappa1 <= kappa2; the index,
kind, route, flag, alpha and kappa columns; and the value column of the 1D
matrix, whose first row is symmetric, first_row[p] == first_row[n - p] bit
for bit.  Every cell is spelled first, then the table's head, its row blocks
(see `output`) and its tail are written one at a time as they are joined, so
no table is held as one string.  A failure while spelling leaves an existing
--output file untouched; one while the blocks are written (a full disk, or
memory running out while a block is joined) leaves the part already written,
before its one stderr line.  Exit codes: 0 success, 1 verification or
tolerance failure, 2 usage or parameter error, an oversized request or a
destination that cannot be written; each failure leaves one
`fraclat: <reason>` line on stderr (`out of memory` for a MemoryError with no
text of its own), except a closed stdout, which exits 1 silently.  argparse's
own --help and --version text keeps the same contract.  Output is byte
identical for identical flags.

Importing this module loads numpy with its BLAS on one thread unless one of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set: no route
gains from a threaded BLAS, whose workers cost each process start-up time and
CPU, and whose split sums would make the bytes depend on the core count.

Run as the program (`main()` with no argv, as `python -m fraclat.cli` and the
`fraclat` console script call it), it first moves the objects its imports left
into the collector's permanent generation with `gc.freeze()`, so no collection,
the ones at interpreter exit included, walks them again.  Importing the module
and calling `main(argv)` leave the collector as they found it.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import math
import operator
import os
import sys

# before numpy loads: the variables OpenBLAS reads, in its order of precedence
if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                           "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .chain import (
    ChainSpec,
    FractionalOrder,
    build_laplacian_1d,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
    laplacian_eigenvalues_1d,
    normalized_dispersion_1d,
)
from .continuum import riesz_kernel_infinite, riesz_kernel_periodic
from .lattice import (
    LatticeSpec,
    OffsetVector,
    build_laplacian_nd,
    dispersion_sheet,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    normalized_dispersion_2d,
)
from .output import OutputRecord, _blocks
from .special import ToleranceError, require_positive_finite
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]

MATRIX_MAX_SITES_1D = 100_000
MATRIX_MAX_SITES_ND = 4096


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


# ---------------------------------------------------------------- commands


def _metadata() -> dict:
    return {"version": __version__}


def _pattern(cells, each: int = 1, times: int = 1) -> tuple:
    """The factored table column (cells, index) whose rows hold each cell of
    `cells` `each` times running, the whole run repeated `times` times."""
    index = np.arange(len(cells), dtype=np.min_scalar_type(max(len(cells) - 1, 0)))
    return cells, np.tile(np.repeat(index, each), times)


def _routes() -> dict:
    """Route name -> (domain, bound, element function) of `fraclat elements`.

    The domain is what the route acts on: "chain" the infinite chain
    (--infinite --p), "ring" a ring (--n --p), "lattice" the infinite lattice
    (--infinite --offset).  The bound is None for a route without an error
    bound, "own" for one that gets --tol, and records it, only when given, or
    else the default the route gets and records when --tol is absent.  The
    table is built per call: bench/spans.py times a route by rebinding its
    function's name in this module after import.
    """
    return {
        "closed": ("chain", None, element_infinite_closed),
        "quadrature": ("chain", "own", element_infinite_quadrature),
        "bloch": ("ring", None, element_periodic_bloch),
        "images": ("ring", 1e-12, element_periodic_images),
        "nd_bz": ("lattice", "own", element_infinite_nd_bz),
        "nd_bessel": ("lattice", "own", element_infinite_nd_bessel),
    }


def cmd_elements(args):
    alpha = _single_alpha(args)
    order = FractionalOrder(alpha, omega_sq=args.omega_sq)
    route = args.route
    domain, bound, element = _routes()[route]
    on_ring = domain == "ring"
    if args.infinite == on_ring or (args.n is not None) != on_ring:
        raise UsageError(f"route {route} requires {'a ring size --n' if on_ring else '--infinite'}")
    if domain == "lattice" and args.p is not None:
        raise UsageError(f"route {route} acts on offset vectors; use --offset, not --p")
    if domain != "lattice" and args.offset:
        raise UsageError(f"route {route} is one dimensional; use --p, not --offset")
    if bound is None and args.tol is not None:
        raise UsageError(f"route {route} has no error bound; it takes no --tol")
    parameters = {"alpha": alpha, "route": route, "omega_sq": args.omega_sq}
    parameters["size"] = args.n if on_ring else "infinite"

    if domain == "lattice":
        if not args.offset:
            raise UsageError(f"route {route} requires at least one --offset p1[,p2[,p3[,p4]]]")
        points = [_parse_offset(text) for text in args.offset]
        dim = parameters["dim"] = len(points[0])
        if any(len(point) != dim for point in points):
            raise UsageError("all --offset vectors must have the same number of components")
        lead, argument = (order, dim), OffsetVector
        columns = tuple(f"p{j + 1}" for j in range(dim))
    else:
        lead = (order, ChainSpec(args.n)) if on_ring else (order,)
        parameters["p"] = args.p or (f"0..{args.n - 1}" if on_ring else "0..10")
        points = [(p,) for p in _parse_int_list(parameters["p"], "--p")]
        if any(p < 0 for p, in points):
            raise UsageError("--p offsets must be >= 0")
        if on_ring and any(p >= args.n for p, in points):
            raise UsageError(f"--p offsets on a ring of {args.n} sites must be <= {args.n - 1}")
        argument, columns = operator.itemgetter(0), ("p",)

    bound = bound if args.tol is None else args.tol
    tol = {} if bound in (None, "own") else {"tol": bound}
    parameters.update(tol)
    values = np.array([element(*lead, argument(point), **tol) for point in points])
    table = (*np.array(points).T, values, _pattern([route], each=len(points)))
    return OutputRecord("elements", parameters, columns + ("value", "route"), table, _metadata()), 0


def cmd_matrix(args):
    alpha = _single_alpha(args)
    if (args.n is None) == (args.dims is None):
        raise UsageError("matrix export needs exactly one of --n or --dims")
    if args.n is not None:
        if args.n > MATRIX_MAX_SITES_1D:
            raise UsageError(f"--n {args.n} exceeds the matrix export limit {MATRIX_MAX_SITES_1D}")
        order = FractionalOrder(alpha, omega_sq=args.omega_sq)
        chain = ChainSpec(args.n, mass=args.mu)
        n, half = args.n, args.n // 2 + 1
        # first_row[p] == first_row[n - p] bit for bit: rows p and n - p share cell min(p, n - p)
        cells = np.concatenate([build_laplacian_1d(order, chain).first_row[:half],
                                laplacian_eigenvalues_1d(order, chain)])
        p = np.arange(n, dtype=np.min_scalar_type(len(cells) - 1))  # after the FFT, off its peak
        values = (cells, np.concatenate([np.minimum(p, n - p), p + half]))
        parameters = {"alpha": alpha, "n": n, "mu": args.mu, "omega_sq": args.omega_sq}
        table = (_pattern(["row", "eigenvalue"], each=n), _pattern(np.arange(n), times=2), values)
        return OutputRecord("matrix", parameters, ("kind", "i", "value"), table, _metadata()), 0

    sizes = _parse_dims(args.dims)
    if math.prod(sizes) > MATRIX_MAX_SITES_ND:
        raise UsageError(
            f"--dims {args.dims} has {math.prod(sizes)} sites, over the export limit {MATRIX_MAX_SITES_ND}"
        )
    lattice = LatticeSpec(len(sizes), sizes, mass=args.mu)
    laplacian, eigenvalues = build_laplacian_nd(FractionalOrder(alpha, omega_sq=args.omega_sq), lattice)
    parameters = {"alpha": alpha, "dims": args.dims, "mu": args.mu, "omega_sq": args.omega_sq}
    columns = ("kind",) + tuple(f"i{j + 1}" for j in range(len(sizes))) + ("value",)
    sites = laplacian.size
    # C order, as np.ndindex: the last axis runs fastest
    indices = [_pattern(np.arange(size), each=math.prod(sizes[j + 1:]), times=2 * math.prod(sizes[:j]))
               for j, size in enumerate(sizes)]
    table = (_pattern(["element", "eigenvalue"], each=sites), *indices,
             np.concatenate([laplacian.ravel(), eigenvalues.ravel()]))
    return OutputRecord("matrix", parameters, columns, table, _metadata()), 0


def cmd_dispersion(args):
    alphas = [float(a) for a in args.alpha]
    for alpha in alphas:
        require_positive_finite("--alpha", alpha)
    if args.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {args.grid}")
    if args.dim == 1 and args.cut != "full":
        raise UsageError(f"--cut {args.cut} cuts the 2D zone; --dim 1 takes only --cut full")
    parameters = {
        "alpha": ",".join(repr(a) for a in alphas),
        "dim": args.dim,
        "grid": args.grid,
        "cut": args.cut,
    }
    if args.dim == 2 and args.cut == "full":
        columns = ("alpha", "kappa1", "kappa2", "omega_normalized")
        sheets = [dispersion_sheet(FractionalOrder(a), args.grid) for a in alphas]
        axis, sheet, index = sheets[0]
        values = np.concatenate([values_k for _, values_k, _ in sheets])
        # the k-th alpha's sheet starts at k len(sheet) in values
        index_type = np.min_scalar_type(len(values) - 1)
        starts = np.arange(len(alphas), dtype=index_type) * len(sheet)
        omega = (index.astype(index_type, copy=False) + starts[:, None, None]).ravel()
        grid, count = args.grid, len(alphas)
        table = (_pattern(np.array(alphas), each=grid**2), _pattern(axis, each=grid, times=count),
                 _pattern(axis, times=grid * count), (values, omega))
        return OutputRecord("dispersion", parameters, columns, table, _metadata()), 0

    # a path over [0, pi]: the 1D zone, or the 2D axis or diagonal cut
    path = np.linspace(0.0, math.pi, args.grid)
    columns = ("alpha", "kappa" if args.dim == 1 else "kappa_path", "omega_normalized")
    values = []
    for alpha in alphas:
        order = FractionalOrder(alpha)
        if args.dim == 1:
            values.append(normalized_dispersion_1d(order, path))
        else:
            across = np.zeros_like(path) if args.cut == "plane_010" else path
            values.append(normalized_dispersion_2d(order, path, across))
    table = (_pattern(np.array(alphas), each=args.grid), _pattern(path, times=len(alphas)),
             np.concatenate(values))
    return OutputRecord("dispersion", parameters, columns, table, _metadata()), 0


def cmd_kernel(args):
    alpha = _single_alpha(args)
    if (args.length is None) == (not args.infinite):
        raise UsageError("kernel sampling needs exactly one of --length or --infinite")
    lo, hi = _parse_real_range(args.x_range, "--x-range")
    if args.samples < 2:
        raise UsageError(f"--samples must be >= 2, got {args.samples}")
    if not args.infinite:
        require_positive_finite("--length", args.length)
    points = np.linspace(lo, hi, args.samples)
    parameters = {
        "alpha": alpha,
        "x_range": args.x_range,
        "samples": args.samples,
        "length": "infinite" if args.infinite else args.length,
    }

    # samples within 1e-12 of 0 on the line, or 1e-12 periods of a lattice point, are singular
    if args.infinite:
        singular = np.abs(points) <= 1e-12
        columns = ("x", "kernel", "flag")
    else:
        length = args.length
        singular = np.abs(points - np.round(points / length) * length) <= 1e-12 * length
        columns = ("x", "kernel", "kernel_infinite", "flag")
    table = np.full((len(columns) - 2, points.size), math.nan)
    if not args.infinite:
        table[0, ~singular] = riesz_kernel_periodic(alpha, length, points[~singular])
    table[-1, ~singular] = riesz_kernel_infinite(alpha, points[~singular])
    flags = (["ok", "singular"], singular.view(np.uint8))
    return OutputRecord("kernel", parameters, columns, (points, *table, flags), _metadata()), 0


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
    table = ([r.name for r in results], [r.suite for r in results], [r.status for r in results],
             np.array([r.achieved for r in results], dtype=float),
             np.array([r.tolerance for r in results], dtype=float))
    columns = ("check", "suite", "status", "achieved", "tolerance")
    record = OutputRecord("verify", parameters, columns, table, _metadata())
    return record, (0 if all(r.passed for r in results) else 1)


# ------------------------------------------------------------------ driver


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse swallows the OSError of a failed write; one to stdout (--help,
        # --version) must reach main(), as an unbuffered stdout leaves no flush to fail
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fraclat",
        description="Fractional Laplacian lattice matrices, dispersion tables, and kernels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(sub):
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--output", default="-", metavar="PATH|-")

    sub = subparsers.add_parser("elements", help="coupling profile values by any route")
    sub.add_argument("--alpha", type=float, action="append", required=True)
    sub.add_argument("--n", type=int, metavar="INT", help="ring size (1D periodic)")
    sub.add_argument("--infinite", action="store_true", help="infinite lattice")
    sub.add_argument("--p", metavar="a..b", help="1D offsets: range, value, or comma list")
    sub.add_argument(
        "--offset",
        action="append",
        metavar="p1[,p2[,p3[,p4]]]",
        help="offset vector of 1 to 4 components (repeatable), for routes nd_bz and nd_bessel",
    )
    sub.add_argument("--route", required=True, choices=tuple(_routes()))
    sub.add_argument("--omega-sq", type=float, default=1.0, dest="omega_sq")
    sub.add_argument("--tol", type=float, help="route tolerance (images, quadrature, nd routes)")
    add_output_flags(sub)
    sub.set_defaults(func=cmd_elements)

    sub = subparsers.add_parser("matrix", help="finite Laplacian table plus eigenvalues")
    sub.add_argument("--alpha", type=float, action="append", required=True)
    sub.add_argument("--n", type=int, metavar="INT", help="ring size (1D periodic)")
    sub.add_argument("--dims", metavar="N1xN2[xN3[xN4]]", help="finite lattice sizes per axis")
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
    sub.add_argument("--infinite", action="store_true", help="infinite lattice")
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


def _write_output(record: OutputRecord, fmt: str, destination: str) -> None:
    """Write the record's table block by block.  Every cell is spelled before
    `destination` opens, so a failure while spelling leaves an existing file as
    it was; a failure while the blocks are written leaves the part written."""
    pieces = _blocks(record, fmt)
    with contextlib.nullcontext(sys.stdout) if destination == "-" else open(
            destination, "w", encoding="utf-8") as handle:
        for piece in pieces:
            handle.write(piece)


def main(argv=None) -> int:
    if argv is None:
        # the program's own process: the tens of thousands of objects its imports
        # left are never garbage, yet every collection up to interpreter exit would
        # walk them again; frozen, they stay out of every generation
        gc.freeze()
    parser = build_parser()
    destination = "-"  # argparse writes --help and --version to stdout
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, --version or a usage error, already printed
            exit_code = exc.code if isinstance(exc.code, int) else 2
        else:
            destination = args.output
            record, exit_code = args.func(args)
            _write_output(record, args.format, destination)
        sys.stdout.flush()
    except (ToleranceError, OverflowError) as exc:
        reason, exit_code = exc, 1
    except ValueError as exc:
        reason, exit_code = exc, 2
    except MemoryError as exc:  # a list's or a str's own MemoryError carries no text
        reason, exit_code = str(exc) or "out of memory", 2
    except OSError as exc:  # only the write opens or writes a file
        if argv is None and destination == "-":
            # stdout keeps what it could not write; pointed at /dev/null, the
            # interpreter's final flush of it cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader has gone: nothing is left to tell it
            return 1
        where = "stdout" if destination == "-" else destination
        reason, exit_code = f"cannot write {where}: {exc.strerror or exc}", 2
    else:
        return exit_code
    print(f"fraclat: {reason}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
