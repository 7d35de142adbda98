"""Golden bytes of CLI tables, small ones and a few longer than one encoder run.

The sha256 digests were recorded from the CLI before the matrix and
dispersion tables moved into library builders; any change in a single
output bit (order of floating point operations, formatting, row order)
changes a digest.  The scaled matrix cases guard the eigenvalue list,
whose last bits depend on evaluating (-mu * omega_sq) * lambda^(alpha/2)
in that order.  The kernel digests were re-recorded when the amplitude
took its sine of the reduced alpha/2 - round(alpha/2) and Gamma from
math.gamma: their rows moved in the last places only, every one within
2.1e-13 relative of a 40-digit mpmath evaluation, as before.
"""
import hashlib

import pytest

from fraclat.cli import main

GOLDEN = [
    (
        ("matrix", "--alpha", "0.7", "--n", "7", "--mu", "1.7", "--omega-sq", "2.3"),
        "73abfeeae1db70495f957dbc84973ea570dd5c52b05c7ee5217bc7d7d73df7c8",
    ),
    (
        ("matrix", "--alpha", "1.3", "--n", "8", "--mu", "0.37", "--omega-sq", "1.9"),
        "877526befa24e7215ae86151622535618fffababba884ee0c58221c48c32fbda",
    ),
    (
        ("matrix", "--alpha", "3.1", "--n", "5", "--mu", "2.5", "--omega-sq", "0.61",
         "--format", "json"),
        "ceea6cfb89ca8f6ea1865865530bc9593b23655f887884e6a0e0daff2d1de968",
    ),
    (
        ("matrix", "--alpha", "1.3", "--dims", "4x3"),
        "364ff43d84402b0a4da5b95679b5fc08ab5d0410b6d9b949384c6812c99dbd7a",
    ),
    (
        ("matrix", "--alpha", "0.9", "--dims", "3x3x2", "--mu", "1.7", "--omega-sq", "2.3"),
        "8e66db7223f056e5a6c1ccf096e2aaad3913dd6ce03d07b4ace78a30dfebeb2c",
    ),
    (
        ("dispersion", "--alpha", "0.5", "--alpha", "1.7", "--dim", "1", "--grid", "7"),
        "1705a817e63eb060fc1dda8b761f672b46186159dfc1c84548727b520611bbe9",
    ),
    (
        ("dispersion", "--alpha", "0.5", "--alpha", "2.6", "--dim", "2", "--grid", "5",
         "--cut", "full"),
        "324d3db46c601782d18cb54e3df68f1418b3cc06b7e03fd245d1b83f63a237e2",
    ),
    (
        ("dispersion", "--alpha", "1.3", "--dim", "2", "--grid", "6", "--cut", "plane_010"),
        "708b0ef0e755a4441497f557ab0c61813d4f9c4b7a92d515eec9d881e2dfd106",
    ),
    (
        ("dispersion", "--alpha", "1.3", "--alpha", "3.7", "--dim", "2", "--grid", "6",
         "--cut", "plane_110"),
        "2d3fcc224c75232bfc21d6626f275fe7cc8c43bd01804554f19703d21fb0b888",
    ),
    (
        ("kernel", "--alpha", "1.3", "--infinite", "--x-range=-1..2", "--samples", "7"),
        "854f9255b08c9b806a38597bb94d24bc44f0eb0091808437d8358e9761634234",
    ),
    (
        ("kernel", "--alpha", "0.7", "--length", "3", "--x-range", "0..6", "--samples", "9"),
        "494f8a428a50882969e08a41999d90a94509390a7b5902d18f2cb8b0bbb03b60",
    ),
    (
        ("elements", "--alpha", "1.5", "--infinite", "--p", "0..12", "--route", "closed",
         "--omega-sq", "1.3"),
        "b7d1e11b15ffbdd09e39167e42a2f9e01eb896a37011febc7a4cff1a6f42c5ce",
    ),
    # tables longer than one run of the row encoder, recorded from the
    # per-cell encoder; the periodic kernel's 1001 singular rows carry NaN
    (
        ("matrix", "--n", "5000", "--alpha", "1.3"),
        "cda674a149fba5714a4a2a97af66459a95ebdb2eebe27de95db81d55d8559b89",
    ),
    (
        ("matrix", "--n", "5000", "--alpha", "1.3", "--format", "json"),
        "6c4e37997452e81e0e78b2ece7ede34f85c35df3b141171f798ef8ab70723fe8",
    ),
    (
        ("kernel", "--alpha", "1.3", "--length", "2", "--x-range=0..4000", "--samples", "5001",
         "--format", "json"),
        "25011ef17abb96dc4bd3c1de6a4879f6812fbadbcc52eddc3693762fb7ac5bd9",
    ),
    (
        ("dispersion", "--alpha", "0.7", "--dim", "2", "--grid", "70", "--cut", "full",
         "--format", "json"),
        "cb43c96aa5481f8d987e953700c6508707d839e1a7a378de05e2a1c744883508",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_cli_output_matches_golden_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
