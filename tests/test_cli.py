"""End-to-end checks of the command line front end and its serialization."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fraclat.chain import (
    ChainSpec,
    FractionalOrder,
    build_laplacian_1d,
    element_periodic_bloch,
    laplacian_eigenvalues_1d,
)
from fraclat.cli import build_parser, cmd_matrix, main
from fraclat.lattice import (
    LatticeSpec,
    OffsetVector,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
)
from fraclat import output
from fraclat.output import OutputRecord, parse_csv, parse_json, record_to_csv, record_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestElementsCommand:
    def test_binomial_stencil_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "elements", "--alpha", "2", "--infinite", "--p", "0..4", "--route", "closed"
        )
        assert code == 0
        record = parse_csv(out)
        assert record["command"] == "elements"
        assert record["columns"] == ("p", "value", "route")
        values = {row[0]: row[1] for row in record["rows"]}
        assert values == {0: 2, 1: -1, 2: 0, 3: 0, 4: 0}

    def test_closed_form_with_huge_omega_sq_is_finite(self, capsys):
        # omega_sq * A passes the double range here, f(p) does not
        code, out, _ = run_cli(capsys, "elements", "--alpha", "30.5", "--omega-sq", "1e308",
                               "--infinite", "--p", "99..100", "--route", "closed")
        assert code == 0
        values = [row[1] for row in parse_csv(out)["rows"]]
        assert values == pytest.approx([5.194071850339423e277, 3.774433991027564e277], rel=1e-15)

    def test_bloch_images_identity(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "elements", "--alpha", "0.5", "--n", "16", "--route", "bloch")
        code_b, out_b, _ = run_cli(
            capsys, "elements", "--alpha", "0.5", "--n", "16", "--route", "images", "--tol", "1e-12"
        )
        assert code_a == 0 and code_b == 0
        rows_a = parse_csv(out_a)["rows"]
        rows_b = parse_csv(out_b)["rows"]
        assert len(rows_a) == 16
        gaps = [abs(a[1] - b[1]) for a, b in zip(rows_a, rows_b)]
        assert max(gaps) <= 1e-9

    def test_quadrature_route_honors_tol(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "elements", "--alpha", "1.5", "--infinite", "--p", "0..6",
            "--route", "quadrature", "--tol", "1e-11",
        )
        assert code == 0
        record = parse_csv(out)
        assert record["parameters"]["tol"] == 1e-11
        order = FractionalOrder(1.5)
        for p, value, _ in record["rows"]:
            expected = element_periodic_bloch(order, ChainSpec(4096), p)
            np.testing.assert_allclose(value, expected, rtol=0, atol=5e-6)

    def test_comma_list_offsets(self, capsys):
        code, out, _ = run_cli(
            capsys, "elements", "--alpha", "1.2", "--infinite", "--p", "0,3,9", "--route", "closed"
        )
        assert code == 0
        assert [row[0] for row in parse_csv(out)["rows"]] == [0, 3, 9]

    def test_nd_bz_offsets_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "elements", "--alpha", "1.5", "--infinite", "--route", "nd_bz",
            "--offset", "0,0", "--offset", "2,1",
        )
        assert code == 0
        record = parse_csv(out)
        assert record["columns"] == ("p1", "p2", "value", "route")
        order = FractionalOrder(1.5)
        for p1, p2, value, route in record["rows"]:
            assert route == "nd_bz"
            expected = element_infinite_nd_bz(order, 2, OffsetVector((p1, p2)))
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_nd_bz_four_dimensions(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "elements", "--alpha", "9.9", "--infinite", "--route", "nd_bz", "--offset", "1,1,0,0",
        )
        assert code == 0
        record = parse_csv(out)
        assert record["columns"] == ("p1", "p2", "p3", "p4", "value", "route")
        reference = element_infinite_nd_bessel(FractionalOrder(9.9), 4, OffsetVector((1, 1, 0, 0)))
        assert abs(record["rows"][0][4] - reference) <= 1e-12 * abs(reference)

    def test_nd_bessel_one_dimension(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "elements", "--alpha", "0.5", "--infinite", "--route", "nd_bessel", "--offset", "1",
        )
        assert code == 0
        record = parse_csv(out)
        assert "tol" not in record["parameters"]
        value = record["rows"][0][1]
        order = FractionalOrder(0.5)
        expected = element_infinite_nd_bz(order, 1, OffsetVector((1,)))
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-12)

    def test_nd_bessel_honors_tol(self, capsys):
        argv = ("elements", "--alpha", "1.3", "--infinite", "--route", "nd_bessel",
                "--offset", "2,1,0", "--offset", "0,0,0")
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-11")
        assert code == 0
        record = parse_csv(out)
        assert record["parameters"]["tol"] == 1e-11
        order = FractionalOrder(1.3)
        for p1, p2, p3, value, route in record["rows"]:
            assert route == "nd_bessel"
            expected = element_infinite_nd_bz(order, 3, OffsetVector((p1, p2, p3)))
            np.testing.assert_allclose(value, expected, rtol=0, atol=1e-12)
        code, out, err = run_cli(capsys, *argv, "--tol", "1e-30")
        assert code == 1 and not out
        assert "heat kernel integral error estimate above bound" in err

    def test_image_sum_refusal_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "elements", "--alpha", "0.4", "--n", "4", "--p", "1", "--route", "images", "--tol", "1e-300"
        )
        assert code == 1 and not out
        assert err.startswith("fraclat: image sum error estimate above bound 1.000e-300")
        # f_8(0) = 15706.117391831985 at alpha = 16.3: its error estimate, 4.5e-10 from
        # the closed form's bound on its head images, is above the default bound
        argv = ("elements", "--alpha", "16.3", "--n", "8", "--p", "0", "--route", "images")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("fraclat: image sum error estimate above bound 1.000e-12")
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-9")
        assert code == 0
        assert abs(parse_csv(out)["rows"][0][1] - 15706.117391831985) <= 1e-14 * 15706.12

    @pytest.mark.parametrize("route", ("bloch", "images"))
    def test_ring_offsets_past_the_ring_exit_2(self, capsys, route):
        for p in ("10", "0..8", "3,8"):
            code, out, err = run_cli(capsys, "elements", "--alpha", "1.5", "--n", "8", "--p", p, "--route", route)
            assert (code, out) == (2, "")
            assert err == "fraclat: --p offsets on a ring of 8 sites must be <= 7\n"
        code, out, _ = run_cli(capsys, "elements", "--alpha", "1.5", "--n", "8", "--p", "7", "--route", route)
        assert code == 0

    def test_nd_bessel_rejects_integer_half(self, capsys):
        code, _, err = run_cli(
            capsys, "elements", "--alpha", "2.0", "--infinite", "--route", "nd_bessel", "--offset", "0,0"
        )
        assert code == 2
        assert "integer" in err

    def test_nd_bessel_rejects_five_components(self, capsys):
        code, _, err = run_cli(
            capsys, "elements", "--alpha", "1.3", "--infinite", "--route", "nd_bessel",
            "--offset", "1,0,0,0,0",
        )
        assert code == 2
        assert "dim must be in 1..4" in err

    @pytest.mark.parametrize("alpha,n,p,tol,reference", [
        ("16.3", "8", "0", "2e-12", 15706.117391831993),
        ("169.9", "3", "1", "1e25", -1.1332594095125912e40),
    ])
    def test_image_estimate_covers_the_head_images(self, capsys, alpha, n, p, tol, reference):
        # the values are 7.3e-11 and 6.2e33 off the Bloch sum at the double alpha
        # (60 digits), outside tol, so the estimate must take in the head images'
        # own rounding (at 169.9 they cancel) and refuse tol
        argv = ("elements", "--alpha", alpha, "--n", n, "--p", p, "--route", "images")
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 1 and not out
        achieved = float(err.rsplit("estimate ", 1)[1].rstrip(")\n"))
        code, out, _ = run_cli(capsys, *argv, "--tol", repr(2.0 * achieved))
        assert code == 0
        assert float(tol) < abs(parse_csv(out)["rows"][0][1] - reference) <= achieved

    def test_images_amplitude_overflow_is_reported_with_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "elements", "--alpha", "171.5", "--n", "8", "--route", "images")
        assert code == 1
        assert not out
        assert err.strip() == "fraclat: riesz_amplitude(alpha=171.5) exceeds the double range"

    def test_overflow_past_the_amplitude_range_is_named(self, capsys):
        # at alpha = 1100.5 the direct term f(0) overflows too; the image
        # route still reports the amplitude, which it computes first
        code, out, err = run_cli(capsys, "elements", "--alpha", "1100.5", "--n", "8", "--route", "images")
        assert code == 1
        assert not out
        assert err.strip() == "fraclat: riesz_amplitude(alpha=1100.5) exceeds the double range"
        code, out, err = run_cli(
            capsys, "elements", "--alpha", "1100.5", "--infinite", "--route", "closed", "--p", "0..3"
        )
        assert code == 1
        assert not out
        assert err.strip() == "fraclat: element_infinite_closed(alpha=1100.5, p=0) exceeds the double range"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, call", [
        (("--alpha", "1100.5", "--n", "4", "--route", "bloch"), "element_periodic_bloch(alpha=1100.5, n=4, p=0)"),
        (("--alpha", "3.3", "--omega-sq", "1e308", "--n", "4", "--route", "bloch"),
         "element_periodic_bloch(alpha=3.3, n=4, p=0)"),
        (("--alpha", "2000", "--n", "3", "--route", "images"), "element_periodic_images(alpha=2000.0, n=3, p=0)"),
        (("--alpha", "3", "--omega-sq", "1e308", "--infinite", "--p", "0", "--route", "quadrature", "--tol", "1e300"),
         "element_infinite_quadrature(alpha=3.0, p=0)"),
        (("--alpha", "3", "--omega-sq", "1e308", "--infinite", "--offset", "0,0", "--route", "nd_bz",
          "--tol", "1e300"), "element_infinite_nd_bz(alpha=3.0, offset=(0, 0))"),
        # lambda^(alpha/2) overflows to -inf on the outer shell and +inf on the next
        (("--alpha", "4000", "--infinite", "--offset", "1", "--route", "nd_bz", "--tol", "1e300"),
         "element_infinite_nd_bz(alpha=4000.0, offset=(1,))"),
        (("--alpha", "3.3", "--omega-sq", "1e308", "--infinite", "--offset", "1,0", "--route", "nd_bessel",
          "--tol", "1e300"), "element_infinite_nd_bessel(alpha=3.3, offset=(1, 0))"),
        (("--alpha", "3.3", "--omega-sq", "1e308", "--n", "8", "--route", "images", "--p", "0"),
         "element_periodic_images(alpha=3.3, n=8, p=0)"),
    ])
    def test_route_overflow_names_the_call(self, capsys, argv, call):
        # the Bloch and quadrature rows printed inf and exited 0; the nD routes
        # reported an inf error estimate, and the image sum named a head image
        code, out, err = run_cli(capsys, "elements", *argv)
        assert (code, out, err) == (1, "", f"fraclat: {call} exceeds the double range\n")

    def test_image_sum_inside_the_double_range(self):
        # omega_sq * A passes the double range while the element does not: both
        # processes exit 0, the first value 1e308 times the second
        values = []
        for omega_sq in ("1e308", "1"):
            argv = ["elements", "--alpha", "3.3", "--omega-sq", omega_sq, "--n", "1000", "--p", "500",
                    "--route", "images", "--tol", "1e300"]
            done = subprocess.run([sys.executable, "-m", "fraclat.cli", *argv],
                                  capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, ""), argv
            values.append(float(done.stdout.splitlines()[-1].split(",")[1]))
        big, unit = values
        assert abs(big - 1e308 * unit) <= 1e-14 * abs(big)

    def test_huge_even_order_overflow_is_named_at_once(self, capsys):
        # C(2m, m) is bounded before math.comb builds it: this took 13 s and
        # then failed to convert an integer, and alpha = 1e19 never finished
        for alpha in ("1e6", "1e19"):
            code, out, err = run_cli(
                capsys, "elements", "--alpha", alpha, "--infinite", "--p", "0..2", "--route", "closed"
            )
            assert (code, out) == (1, "")
            assert err.strip() == (
                f"fraclat: element_infinite_closed(alpha={float(alpha)!r}, p=0) exceeds the double range"
            )

    def test_huge_odd_order_overflow_is_named_at_once(self, capsys):
        # the walk down from the series start, about 3 alpha steps, is bounded
        # first: at 1000000001 it would have taken about 1350 s
        for alpha in ("1000000001", "1000000000000001"):
            code, out, err = run_cli(
                capsys, "elements", "--alpha", alpha, "--infinite", "--p", "0..2", "--route", "closed"
            )
            assert (code, out) == (1, "")
            assert err.strip() == (
                f"fraclat: element_infinite_closed(alpha={float(alpha)!r}, p=0) exceeds the double range"
            )

    @pytest.mark.parametrize("argv,message", [
        (("--n", "4", "--route", "images"), "tol must be positive and finite, got inf"),
        (("--infinite", "--p", "0", "--route", "quadrature"), "tol must be positive and finite, got inf"),
        (("--infinite", "--offset", "0,0", "--route", "nd_bz"), "tol must be positive and finite, got inf"),
        (("--infinite", "--offset", "0,0", "--route", "nd_bessel"), "tol must be positive and finite, got inf"),
    ])
    def test_infinite_tol_is_a_usage_error(self, capsys, argv, message):
        # an infinite bound would accept the route's first estimate
        code, out, err = run_cli(capsys, "elements", "--alpha", "1.3", *argv, "--tol", "inf")
        assert code == 2
        assert not out
        assert err == f"fraclat: {message}\n"

    @pytest.mark.parametrize("function,argv", [
        ("element_infinite_closed", ("--infinite", "--p", "0..1", "--route", "closed")),
        ("element_infinite_quadrature", ("--infinite", "--p", "0..1", "--route", "quadrature")),
        ("element_periodic_bloch", ("--n", "4", "--p", "0..1", "--route", "bloch")),
        ("element_periodic_images", ("--n", "4", "--p", "0..1", "--route", "images")),
        ("element_infinite_nd_bz", ("--infinite", "--offset", "0,0", "--offset", "1,0", "--route", "nd_bz")),
        ("element_infinite_nd_bessel", ("--infinite", "--offset", "0", "--offset", "1", "--route", "nd_bessel")),
    ])
    def test_routes_resolve_their_function_per_call(self, capsys, monkeypatch, function, argv):
        # bench/spans.py times a route by rebinding its name in fraclat.cli after import
        monkeypatch.setattr(f"fraclat.cli.{function}", lambda *args, **kwargs: 42.5)
        code, out, _ = run_cli(capsys, "elements", "--alpha", "1.5", *argv)
        assert code == 0
        assert [row[-2] for row in parse_csv(out)["rows"]] == [42.5, 42.5]

    def test_route_lattice_mismatches_exit_2(self, capsys):
        bad_invocations = [
            ("elements", "--alpha", "1.5", "--n", "8", "--route", "closed"),
            ("elements", "--alpha", "1.5", "--infinite", "--route", "bloch"),
            ("elements", "--alpha", "1.5", "--route", "quadrature"),
            ("elements", "--alpha", "1.5", "--infinite", "--route", "nd_bz"),
            ("elements", "--alpha", "1.5", "--n", "8", "--route", "images", "--offset", "1,1"),
            ("elements", "--alpha", "1.5", "--infinite", "--p=-3..2", "--route", "closed"),
            ("elements", "--alpha", "1.5", "--infinite", "--p", "junk", "--route", "closed"),
            ("elements", "--alpha", "1.5", "--alpha", "2.5", "--infinite", "--route", "closed"),
            ("elements", "--alpha", "1.5", "--infinite", "--route", "nd_bz",
             "--offset", "1,2", "--offset", "1,2,3"),
            ("elements", "--alpha", "1.5", "--dims", "8x8", "--route", "bloch"),
        ]
        for argv in bad_invocations:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.strip(), argv

    @pytest.mark.parametrize("argv, message", [
        (("elements", "--alpha", "1.5", "--infinite", "--p=-3..2", "--route", "closed"),
         "--p offsets must be >= 0"),
        (("elements", "--alpha", "1.5", "--infinite", "--p", "5..3", "--route", "closed"),
         "--p expects 'a..b', 'v', or 'v1,v2,...', got '5..3'"),
        (("matrix", "--alpha", "1.5", "--dims", "4xa"), "--dims expects N1xN2[xN3[xN4]], got '4xa'"),
        (("elements", "--alpha", "1.5", "--infinite", "--route", "nd_bz"),
         "route nd_bz requires at least one --offset p1[,p2[,p3[,p4]]]"),
        (("elements", "--alpha", "1.5", "--infinite", "--offset", "1,a", "--route", "nd_bz"),
         "--offset expects comma separated integers, got '1,a'"),
        (("kernel", "--alpha", "1.5", "--infinite", "--x-range", "1..a"), "--x-range expects 'a..b', got '1..a'"),
        (("verify", "--override", "closed_vs_quadrature=abc"),
         "--override tolerance must be a real number, got 'abc'"),
    ])
    def test_parse_errors_exit_2_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"fraclat: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("--infinite", "--p", "0..2", "--route", "closed", "--tol", "1e-3"), "route closed has no error bound"),
        (("--infinite", "--p", "0..2", "--route", "closed", "--tol", "-1"), "route closed has no error bound"),
        (("--n", "8", "--route", "bloch", "--tol", "5"), "route bloch has no error bound"),
        (("--infinite", "--route", "nd_bz", "--offset", "1,2", "--p", "3"), "route nd_bz acts on offset vectors"),
    ])
    def test_routes_refuse_flags_they_do_not_read(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "elements", "--alpha", "1.5", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"fraclat: {message}") and err.count("\n") == 1


class TestMatrixCommand:
    def test_classical_ring(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--alpha", "2", "--n", "5")
        assert code == 0
        record = parse_csv(out)
        rows = {row[1]: row[2] for row in record["rows"] if row[0] == "row"}
        np.testing.assert_allclose(
            [rows[i] for i in range(5)], [-2.0, 1.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-13
        )
        eigen = {row[1]: row[2] for row in record["rows"] if row[0] == "eigenvalue"}
        # 4 sin^2(pi/5) = (5 - sqrt 5)/2 and 4 sin^2(2 pi/5) = (5 + sqrt 5)/2
        lo, hi = (5.0 - math.sqrt(5.0)) / 2.0, (5.0 + math.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(
            [eigen[i] for i in range(5)], [0.0, -lo, -hi, -hi, -lo], rtol=0, atol=1e-14
        )

    def test_half_order_ring_negative_semidefinite(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--alpha", "1", "--n", "8")
        assert code == 0
        eigen = [row[2] for row in parse_csv(out)["rows"] if row[0] == "eigenvalue"]
        assert len(eigen) == 8
        assert max(eigen) == 0.0
        assert all(value <= 0.0 for value in eigen)

    def test_nd_table_row_sum_and_elements(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--alpha", "1.3", "--dims", "8x8")
        assert code == 0
        record = parse_csv(out)
        elements = {(row[1], row[2]): row[3] for row in record["rows"] if row[0] == "element"}
        eigen = [row[3] for row in record["rows"] if row[0] == "eigenvalue"]
        assert len(elements) == 64 and len(eigen) == 64
        assert abs(sum(elements.values())) <= 1e-12
        assert max(eigen) == 0.0
        order = FractionalOrder(1.3)
        lattice = LatticeSpec(2, (8, 8))
        for offset in [(0, 0), (1, 0), (3, 5)]:
            expected = -element_periodic_nd(order, lattice, OffsetVector(offset))
            np.testing.assert_allclose(elements[offset], expected, rtol=1e-12, atol=1e-15)

    def test_mass_prefactor_scales_table(self, capsys):
        _, out_unit, _ = run_cli(capsys, "matrix", "--alpha", "0.8", "--n", "6")
        _, out_mu, _ = run_cli(capsys, "matrix", "--alpha", "0.8", "--n", "6", "--mu", "2.5")
        base = [row[2] for row in parse_csv(out_unit)["rows"]]
        scaled = [row[2] for row in parse_csv(out_mu)["rows"]]
        np.testing.assert_allclose(scaled, [2.5 * v for v in base], rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 4097])
    def test_ring_table_encodes_as_its_expanded_record(self, capsys, n):
        # the value column reaches the encoder factored by the first row's
        # symmetry; the table must be that of the first row and the spectrum
        # handed over whole
        argv = ("matrix", "--alpha", "1.3", "--n", str(n), "--mu", "0.7", "--omega-sq", "2.5")
        record, _ = cmd_matrix(build_parser().parse_args(argv))
        order, chain = FractionalOrder(1.3, omega_sq=2.5), ChainSpec(n, mass=0.7)
        values = np.concatenate([build_laplacian_1d(order, chain).first_row,
                                 laplacian_eigenvalues_1d(order, chain)])
        expanded = OutputRecord(record.command, record.parameters, record.columns,
                                (*record.table[:-1], values), record.metadata)
        for fmt, encode in (("csv", record_to_csv), ("json", record_to_json)):
            assert run_cli(capsys, *argv, "--format", fmt) == (0, encode(expanded), "")

    def test_size_and_flag_validation(self, capsys):
        bad_invocations = [
            ("matrix", "--alpha", "1.5", "--n", "100001"),
            ("matrix", "--alpha", "1.5", "--dims", "70x70"),
            ("matrix", "--alpha", "1.5", "--infinite"),
            ("matrix", "--alpha", "1.5"),
            ("matrix", "--alpha", "1.5", "--n", "8", "--dims", "4x4"),
            ("matrix", "--alpha", "1.5", "--dims", "8"),
        ]
        for argv in bad_invocations:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.strip(), argv

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, call", [
        (("--alpha", "1100", "--n", "4"), "build_laplacian_1d(alpha=1100.0, n=4)"),
        (("--alpha", "3", "--omega-sq", "1e308", "--n", "4"), "build_laplacian_1d(alpha=3.0, n=4)"),
        (("--alpha", "1100", "--dims", "2x2"), "build_laplacian_nd(alpha=1100.0, sizes=(2, 2))"),
        (("--alpha", "3", "--omega-sq", "1e308", "--dims", "2x2"), "build_laplacian_nd(alpha=3.0, sizes=(2, 2))"),
    ])
    def test_overflow_names_the_call(self, capsys, argv, call):
        # these printed inf and NaN rows, after numpy's warnings, and exited 0
        code, out, err = run_cli(capsys, "matrix", *argv)
        assert (code, out, err) == (1, "", f"fraclat: {call} exceeds the double range\n")


class TestDispersionCommand:
    def test_zero_at_zone_centre(self, capsys):
        code, out, _ = run_cli(
            capsys, "dispersion", "--alpha", "1", "--alpha", "2.7", "--dim", "2", "--grid", "5"
        )
        assert code == 0
        rows = parse_csv(out)["rows"]
        assert len(rows) == 2 * 25
        for row in rows:
            if row[1] == 0 and row[2] == 0:
                assert row[3] == 0

    def test_classical_diagonal_reaches_band_edge(self, capsys):
        code, out, _ = run_cli(
            capsys, "dispersion", "--alpha", "2", "--cut", "plane_110", "--grid", "9"
        )
        assert code == 0
        rows = parse_csv(out)["rows"]
        assert rows[-1][1] == pytest.approx(math.pi, abs=1e-15)
        np.testing.assert_allclose(rows[-1][2], 1.0, rtol=0, atol=1e-12)

    def test_common_crossing_on_axis_cut(self, capsys):
        # grid 7 puts a sample at kappa = pi/3 where the eigenvalue equals one
        crossing = 2.0 ** -1.5
        for alpha in ("1", "1.5", "2", "3"):
            code, out, _ = run_cli(
                capsys, "dispersion", "--alpha", alpha, "--cut", "plane_010", "--grid", "7"
            )
            assert code == 0
            row = parse_csv(out)["rows"][2]
            assert row[1] == pytest.approx(math.pi / 3.0, abs=1e-15)
            np.testing.assert_allclose(row[2], crossing, rtol=0, atol=1e-12)

    def test_one_dimensional_curve(self, capsys):
        code, out, _ = run_cli(capsys, "dispersion", "--alpha", "2", "--dim", "1", "--grid", "7")
        assert code == 0
        record = parse_csv(out)
        assert record["columns"] == ("alpha", "kappa", "omega_normalized")
        assert record["rows"][-1][2] == pytest.approx(1.0, abs=1e-15)
        # the one dimensional analogue of the crossing sits at 1/2
        np.testing.assert_allclose(record["rows"][2][2], 0.5, rtol=0, atol=1e-12)

    def test_alpha_sheets_stack_in_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "dispersion", "--alpha", "1.5", "--alpha", "3", "--cut", "plane_110", "--grid", "4"
        )
        assert code == 0
        rows = parse_csv(out)["rows"]
        assert [row[0] for row in rows] == [1.5] * 4 + [3] * 4

    def test_grid_validation(self, capsys):
        code, _, err = run_cli(capsys, "dispersion", "--alpha", "1", "--grid", "1")
        assert code == 2 and err.strip()

    @pytest.mark.parametrize("cut", ["plane_010", "plane_110"])
    def test_one_dimension_takes_no_2d_cut(self, capsys, cut):
        code, out, err = run_cli(capsys, "dispersion", "--alpha", "1.5", "--dim", "1", "--cut", cut)
        assert (code, out) == (2, "")
        assert err == f"fraclat: --cut {cut} cuts the 2D zone; --dim 1 takes only --cut full\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,call", [
        (("--dim", "1", "--alpha", "5000"), "normalized_dispersion_1d(alpha=5000.0)"),
        (("--dim", "1", "--alpha", "1e308", "--format", "json"), "normalized_dispersion_1d(alpha=1e+308)"),
        (("--dim", "2", "--alpha", "5000", "--cut", "full"), "normalized_dispersion_2d(alpha=5000.0)"),
        (("--dim", "2", "--alpha", "5000", "--cut", "plane_010"), "normalized_dispersion_2d(alpha=5000.0)"),
        (("--dim", "2", "--alpha", "5000", "--cut", "plane_110"), "normalized_dispersion_2d(alpha=5000.0)"),
    ])
    def test_overflow_names_the_call(self, capsys, argv, call):
        code, out, err = run_cli(capsys, "dispersion", "--grid", "3", *argv)
        assert code == 1
        assert not out
        assert err.strip() == f"fraclat: {call} exceeds the double range"


class TestKernelCommand:
    def test_infinite_point_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--alpha", "1", "--infinite", "--x-range", "0..2", "--samples", "3"
        )
        assert code == 0
        record = parse_csv(out)
        assert record["columns"] == ("x", "kernel", "flag")
        origin, unit, two = record["rows"]
        assert origin[2] == "singular" and math.isnan(origin[1])
        np.testing.assert_allclose(unit[1], 1.0 / math.pi, rtol=1e-15)
        np.testing.assert_allclose(two[1], 1.0 / (4.0 * math.pi), rtol=1e-15)

    def test_periodic_column_dominates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "kernel", "--alpha", "0.5", "--length", "10",
            "--x-range", "0..10", "--samples", "21",
        )
        assert code == 0
        record = parse_csv(out)
        assert record["columns"] == ("x", "kernel", "kernel_infinite", "flag")
        flags = [row[3] for row in record["rows"]]
        assert flags[0] == "singular" and flags[-1] == "singular"
        interior = [row for row in record["rows"] if row[3] == "ok"]
        assert len(interior) == 19
        for _, periodic, infinite, _ in interior:
            assert periodic > infinite

    def test_integer_half_orders_rejected(self, capsys):
        bad_invocations = [
            ("--alpha", "2", "--infinite"),
            ("--alpha", "4.0", "--infinite"),
            # every sample is singular, so no kernel function sees alpha
            ("--alpha", "2", "--infinite", "--x-range=-1e-13..1e-13", "--samples", "2"),
            ("--alpha", "2", "--length", "1", "--x-range", "0..1", "--samples", "2"),
        ]
        for argv in bad_invocations:
            code, out, err = run_cli(capsys, "kernel", *argv)
            assert code == 2, argv
            assert not out, argv
            assert err.startswith("fraclat: alpha/2 must not be an integer"), argv

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_reported_with_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--alpha", "30.5", "--length", "1", "--x-range", "1e-10..0.5",
            "--samples", "2",
        )
        assert code == 1
        assert not out
        assert "exceeds the double range" in err

    def test_periodic_kernel_amplitude_overflow_names_the_order(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--alpha", "171.5", "--length", "1", "--x-range", "0.1..0.5",
            "--samples", "2",
        )
        assert code == 1
        assert not out
        assert err.strip() == "fraclat: riesz_amplitude(alpha=171.5) exceeds the double range"

    def test_periodic_kernel_overflow_names_the_call(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--alpha", "30.5", "--length", "0.4", "--x-range=2.000000001..2.1",
            "--samples", "2",
        )
        assert code == 1
        assert not out
        assert err.strip() == "fraclat: riesz_kernel_periodic(30.5, 0.4, 2.000000001) exceeds the double range"

    def test_infinite_kernel_overflow_names_the_call(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--alpha", "30.5", "--infinite", "--x-range", "1e-11..1",
            "--samples", "2",
        )
        assert code == 1
        assert not out
        assert err.strip() == "fraclat: riesz_kernel_infinite(30.5, 1e-11) exceeds the double range"

    def test_parameter_validation(self, capsys):
        bad_invocations = [
            ("kernel", "--alpha", "0.5"),
            ("kernel", "--alpha", "0.5", "--length", "10", "--infinite"),
            ("kernel", "--alpha", "0.5", "--infinite", "--x-range", "5..1"),
            ("kernel", "--alpha", "0.5", "--infinite", "--samples", "1"),
            ("kernel", "--alpha", "0.5", "--length", "-3"),
            ("kernel", "--alpha", "0.5", "--n", "8"),
            ("kernel", "--alpha", "0.5", "--dims", "8x8"),
        ]
        for argv in bad_invocations:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.strip(), argv


class TestVerifyCommand:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracles")
        assert code == 0
        record = parse_csv(out)
        assert record["columns"] == ("check", "suite", "status", "achieved", "tolerance")
        assert record["rows"]
        assert all(row[2] == "pass" for row in record["rows"])

    def test_impossible_override_fails_with_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "asymptotics", "--override", "amplitude_identity=1e-30"
        )
        assert code == 1
        statuses = {row[0]: row[2] for row in parse_csv(out)["rows"]}
        assert statuses["amplitude_identity"] == "fail"
        assert statuses["chain_tail_slope"] == "pass"

    def test_continuum_errors_decrease_per_spacing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "continuum")
        assert code == 0
        errors = [row[3] for row in parse_csv(out)["rows"] if row[0].startswith("continuum_error_h")]
        assert len(errors) == 4
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_unknown_override_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--override", "no_such_check=1")
        assert code == 2 and "no_such_check" in err
        code, _, err = run_cli(capsys, "verify", "--override", "not-a-pair")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_override_needs_a_positive_finite_tolerance(self, capsys, tol):
        # as every --tol: a NaN, zero or negative bar would fail the check, inf pass it
        code, out, err = run_cli(capsys, "verify", "--suite", "asymptotics",
                                 "--override", f"amplitude_identity={tol}")
        assert (code, out) == (2, "")
        assert err == (f"fraclat: tolerance override amplitude_identity must be positive and finite, "
                       f"got {float(tol)}\n")


class TestOutputContracts:
    def test_csv_round_trip_is_bit_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "elements", "--alpha", "0.7", "--infinite", "--p", "0..20", "--route", "closed"
        )
        assert code == 0
        from fraclat.chain import element_infinite_closed

        order = FractionalOrder(0.7)
        for p, value, _ in parse_csv(out)["rows"]:
            assert float(value) == element_infinite_closed(order, p)

    def test_json_round_trip_is_bit_exact(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "elements", "--alpha", "0.7", "--infinite", "--p", "0..20",
            "--route", "closed", "--format", "json",
        )
        assert code == 0
        from fraclat.chain import element_infinite_closed

        record = parse_json(out)
        assert record["command"] == "elements"
        assert tuple(record["columns"]) == ("p", "value", "route")
        order = FractionalOrder(0.7)
        for p, value, _ in record["rows"]:
            assert float(value) == element_infinite_closed(order, p)

    def test_formats_agree_on_payload(self, capsys):
        _, out_csv, _ = run_cli(capsys, "matrix", "--alpha", "1.7", "--n", "9")
        _, out_json, _ = run_cli(capsys, "matrix", "--alpha", "1.7", "--n", "9", "--format", "json")
        assert parse_csv(out_csv)["rows"] == parse_json(out_json)["rows"]

    def test_reruns_are_byte_identical(self, capsys):
        argv = ("elements", "--alpha", "1.5", "--infinite", "--route", "nd_bz",
                "--offset", "0,0", "--offset", "1,0", "--offset", "1,1")
        _, first, _ = run_cli(capsys, *argv)
        _, again, _ = run_cli(capsys, *argv)
        assert first == again

    def test_output_file_destination(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "kernel", "--alpha", "0.5", "--infinite", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert parse_csv(target.read_text())["command"] == "kernel"

    def test_metadata_names_the_version(self, capsys):
        from fraclat import __version__

        _, out, _ = run_cli(capsys, "dispersion", "--alpha", "1", "--grid", "2")
        assert parse_csv(out)["metadata"]["version"] == __version__

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_console_script_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "fraclat.cli", "elements", "--alpha", "2", "--infinite",
             "--p", "0..2", "--route", "closed"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert parse_csv(result.stdout)["rows"] == ((0, 2, "closed"), (1, -1, "closed"), (2, 0, "closed"))


# over 10x the memory of any machine and past a 47-bit address space: the
# kernel refuses the allocation at once, whatever its overcommit policy
HUGE_SAMPLES = "100000000000000"
# about 5 MB of CSV: far more than a pipe holds
BIG_TABLE = ("dispersion", "--alpha", "1.3", "--grid", "301")


def program(*argv, buffered=True, **kwargs):
    """`python -m fraclat.cli argv` with a buffered stdout, as a shell runs it,
    or an unbuffered one, as with PYTHONUNBUFFERED=1."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "fraclat.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


class TestFailureContract:
    """Every failure is one `fraclat: ...` line on stderr, never a traceback."""

    @pytest.mark.parametrize("target", ["missing/table.csv", "."])
    def test_unwritable_output_exits_2_with_one_line(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, *BIG_TABLE, "--output", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"fraclat: cannot write {path}: ") and err.count("\n") == 1

    # numpy's MemoryError names its size; a list's, here of 10^14 offsets, has no text
    @pytest.mark.parametrize("request_argv, reason", [
        (("kernel", "--alpha", "1.3", "--infinite", "--samples", HUGE_SAMPLES), "Unable to allocate"),
        (("elements", "--infinite", "--route", "closed", "--alpha", "1.3", "--p", f"0..{HUGE_SAMPLES}"),
         "out of memory\n"),
    ], ids=["numpy", "list"])
    def test_oversized_request_exits_2_and_writes_nothing(self, capsys, tmp_path, request_argv, reason):
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier table\n")
        for destination in ("-", str(kept), str(tmp_path / "new.csv")):
            code, out, err = run_cli(capsys, *request_argv, "--output", destination)
            assert (code, out) == (2, "")
            assert err.startswith(f"fraclat: {reason}") and err.count("\n") == 1
        assert kept.read_text() == "earlier table\n"
        assert not (tmp_path / "new.csv").exists()

    def test_in_process_caller_keeps_its_stdout(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        closed = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", closed)
        before = os.fstat(1)
        code = main(list(BIG_TABLE))
        after = os.fstat(1)
        assert sys.stdout is closed
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (1, "")

    # the reader closes the pipe mid-table, or before the table, all held in stdout's buffer, is written
    @pytest.mark.parametrize("grid, read", [("301", 100), ("3", 0)])
    def test_closed_pipe_exits_1_silently(self, grid, read):
        with program(*BIG_TABLE[:-1], grid, stdout=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("grid", ["3", "301"])  # all held in stdout's buffer, or not
    def test_full_device_exits_2_with_one_line(self, grid):
        with open("/dev/full", "w") as full, program(*BIG_TABLE[:-1], grid, stdout=full) as proc:
            err = proc.stderr.read()
        assert (proc.returncode, err) == (2, "fraclat: cannot write stdout: No space left on device\n")

    def test_failure_while_spelling_leaves_the_output_file(self, capsys, monkeypatch, tmp_path):
        # every cell is spelled before --output opens, so the earlier table stays whole
        def spelled(*args):
            raise MemoryError("Unable to allocate 8.00 MiB for the cell texts")

        monkeypatch.setattr(output, "_spelled", spelled)
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier table\n")
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, *BIG_TABLE, "--format", fmt, "--output", str(kept))
            assert (code, out) == (2, "")
            assert err == "fraclat: Unable to allocate 8.00 MiB for the cell texts\n"
        assert kept.read_text() == "earlier table\n"

    def test_writes_are_one_block_each(self, capsys, monkeypatch):
        # a table of three blocks reaches stdout as its head, one write per block, and its tail
        writes = []
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        code = main(["dispersion", "--alpha", "1.3", "--grid", "182"])  # 33124 rows
        monkeypatch.undo()
        capsys.readouterr()
        rows = output._BLOCK_ROWS
        assert code == 0
        assert [piece.count("\n") for piece in writes[1:]] == [rows, rows, 182**2 - 2 * rows, 0]
        assert parse_csv("".join(writes))["rows"][-1][:3] == (1.3, math.pi, math.pi)

    # argparse prints --version and --help to stdout itself, before any table; it
    # ignores a failed write, which with an unbuffered stdout is the only one
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("--version",), ("dispersion", "--help")])
    def test_parser_output_into_a_full_device_exits_2(self, argv, buffered):
        with open("/dev/full", "w") as full, program(*argv, buffered=buffered, stdout=full) as proc:
            err = proc.stderr.read()
        assert (proc.returncode, err) == (2, "fraclat: cannot write stdout: No space left on device\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("--version",), ("dispersion", "--help")])
    def test_parser_output_into_a_closed_pipe_exits_1_silently(self, argv, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the program writes
        try:
            with program(*argv, buffered=buffered, stdout=write_end) as proc:
                err = proc.stderr.read()
        finally:
            os.close(write_end)
        assert (proc.returncode, err) == (1, "")


# Runs in a fresh interpreter: reports the modules of scipy, numpy.random
# and numpy.ma loaded by the import of the CLI, then runs main(argv) and
# reports the output digest and the modules of those three loaded by then.
STARTUP_PROBE = """
import contextlib, hashlib, io, json, sys
import fraclat, fraclat.cli
def unwanted_modules():
    return sorted(m for m in sys.modules
                  if any(m == name or m.startswith(name + ".") for name in ("scipy", "numpy.random", "numpy.ma")))
at_import = unwanted_modules()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = fraclat.cli.main(sys.argv[1:])
print(json.dumps({
    "at_import": at_import,
    "after_run": unwanted_modules(),
    "code": code,
    "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
}))
"""

# the variables OpenBLAS reads for its thread count, in its order of precedence
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Runs in a fresh interpreter, as pytest's own numpy has its BLAS threads:
# imports the module named by argv[1] and reports the interpreter's threads,
# the BLAS variables it sees, and whether numpy or a fraclat module is loaded.
THREAD_PROBE = """
import importlib, json, os, sys
importlib.import_module(sys.argv[1])
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None,
    "variables": {name: os.environ[name] for name in %r if name in os.environ},
    "loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith("fraclat.")),
}))
""" % (BLAS_VARIABLES,)


# Runs in a fresh interpreter, whose collector no test has touched: reports
# gc.isenabled() and gc.get_freeze_count() before and after the import of the
# CLI, after main(argv), and after main() as the program, with its exit code.
GC_PROBE = """
import contextlib, gc, io, json, sys
states = [(gc.isenabled(), gc.get_freeze_count())]
import fraclat.cli
states.append((gc.isenabled(), gc.get_freeze_count()))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fraclat.cli.main(["elements", "--alpha", "1.3", "--infinite", "--route", "closed"])]
    states.append((gc.isenabled(), gc.get_freeze_count()))
    sys.argv = ["fraclat", "--version"]
    codes.append(fraclat.cli.main())
states.append((gc.isenabled(), gc.get_freeze_count()))
print(json.dumps({"states": states, "codes": codes}))
"""


def blas_env(**variables):
    """This process's environment without the BLAS variables, plus `variables`."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARIABLES}
    return {**env, **variables}


class TestStartup:
    """Every run of STARTUP_PROBE loads none of scipy, numpy.random and
    numpy.ma, neither at import nor by the end of its command."""

    # digest of this table since its head images, below the closed form's
    # series start, come from the walk down from the series; every row is
    # within 1.9e-16 relative of a 40-digit Bloch mode sum (1.1e-15 with the
    # walk up from s = 0, 4.8e-15 with the B6 zeta tail before that)
    IMAGES_ARGV = ("elements", "--alpha", "0.7", "--n", "9", "--route", "images", "--omega-sq", "1.3")
    IMAGES_DIGEST = "7106998820bb830b4552a8257d7cf89744281bbb80e24c08300b6f326eaec8da"
    CLOSED_ARGV = ("elements", "--alpha", "0.7", "--infinite", "--p", "0..100", "--route", "closed")

    def probe(self, *argv):
        result = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, *argv], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self):
        report = self.probe("--version")
        assert report["at_import"] == []
        assert report["after_run"] == []

    def test_images_and_closed_routes_load_no_scipy(self):
        report = self.probe(*self.IMAGES_ARGV)
        assert (report["at_import"], report["after_run"], report["code"]) == ([], [], 0)
        assert report["sha256"] == self.IMAGES_DIGEST
        report = self.probe(*self.CLOSED_ARGV)
        assert (report["at_import"], report["after_run"], report["code"]) == ([], [], 0)

    @pytest.mark.parametrize("offset", ("1", "2,1", "2,2,2", "1,1,0,0"))
    def test_bessel_route_loads_no_scipy(self, offset):
        report = self.probe("elements", "--alpha", "1.4", "--infinite", "--route", "nd_bessel",
                            "--offset", offset)
        assert (report["at_import"], report["after_run"], report["code"]) == ([], [], 0)

    def test_bz_route_loads_no_scipy(self):
        report = self.probe("elements", "--alpha", "1.4", "--infinite", "--route", "nd_bz",
                            "--offset", "1,1,0,0")
        assert (report["at_import"], report["after_run"], report["code"]) == ([], [], 0)

    def test_quadrature_route_loads_no_scipy(self):
        report = self.probe("elements", "--alpha", "1.5", "--infinite", "--route", "quadrature", "--p", "7")
        assert (report["at_import"], report["after_run"], report["code"]) == ([], [], 0)

    def test_verify_suites_load_no_scipy(self):
        report = self.probe("verify", "--suite", "all")
        assert (report["at_import"], report["after_run"], report["code"]) == ([], [], 0)

    def thread_probe(self, module, env):
        result = subprocess.run([sys.executable, "-c", THREAD_PROBE, module], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    @pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
    def test_cli_import_runs_one_thread(self):
        report = self.thread_probe("fraclat.cli", blas_env())
        assert (report["threads"], report["variables"]) == (1, {"OPENBLAS_NUM_THREADS": "1"})
        assert "numpy" in report["loaded"]

    @pytest.mark.parametrize("variable", BLAS_VARIABLES)
    def test_cli_import_keeps_a_chosen_thread_count(self, variable):
        report = self.thread_probe("fraclat.cli", blas_env(**{variable: "2"}))
        assert report["variables"] == {variable: "2"}

    def test_package_import_is_lazy(self):
        report = self.thread_probe("fraclat", blas_env())
        assert (report["variables"], report["loaded"]) == ({}, [])
        code = "import fraclat; print(fraclat.FractionalOrder.__module__)"
        result = subprocess.run([sys.executable, "-c", code], env=blas_env(),
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout) == (0, "fraclat.chain\n"), result.stderr

    def test_only_the_program_freezes_the_import_heap(self):
        result = subprocess.run([sys.executable, "-c", GC_PROBE], capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        initial, imported, called, program = report["states"]
        assert report["codes"] == [0, 0]
        assert initial[0] and initial == imported == called
        assert program[0] and program[1] > initial[1]

    def test_quadrature_bytes_do_not_depend_on_the_thread_count(self):
        # the zone quadrature's w @ f(x) is a BLAS dot product, whose threads
        # would split the sum: p = 9927 moved in its last places with them
        argv = [sys.executable, "-m", "fraclat.cli", "elements", "--infinite", "--route",
                "quadrature", "--alpha", "0.2", "--p", "3,9,161,9927"]
        outputs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
                   for env in (blas_env(), blas_env(OPENBLAS_NUM_THREADS="1"))]
        assert [result.returncode for result in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout
