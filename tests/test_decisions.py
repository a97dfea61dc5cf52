"""Every seed-1 decision of the benchmark's reoptimize draws, line for line, on both scan routes.

The lines live in ``tests/golden/decisions.seed1.txt``: per draw and mode the
outcome, T and P in hex and the sorted flags, or the exception type.  A change
meant to move decisions rewrites them with

    PYTHONPATH=src python tests/decision_digest.py --write

and lists the moved draws in CHANGES.md.  The library's array route and the
CLI's plain route must both give those lines.
"""

import pytest

from decision_digest import GOLDEN, golden_lines, moves
from subtrial import distributions


@pytest.mark.parametrize("plain", [False, True], ids=["array_route", "plain_route"])
def test_seed1_decisions_match_golden(plain):
    previous = distributions._use_plain_grids(plain)
    try:
        got = golden_lines(1)
    finally:
        distributions._use_plain_grids(previous)
    want = GOLDEN.read_text().splitlines()
    moved = [f"golden {w!r} now {g!r}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) == 1375
    assert moved == [], f"{len(moved)} decisions moved, first: {moved[:5]}"


def test_write_reports_what_it_moves():
    old = ["0 report_only ok 0x1.0p+0 0x1.0p-1 none", "0 binding_ir ok 0x1.0p+2 0x1.0p-1 T_at_max",
           "1 report_only NoRootError", "4 binding_ir ok 0x0.0p+0 0x1.0p-1 none"]
    new = ["0 report_only ok 0x1.0p+0 0x1.0p-1 none", "0 binding_ir ok 0x1.00001p+2 0x1.0p-1 T_at_max",
           "1 report_only ok 0x1.0p+0 0x1.0p-1 none", "4 binding_ir ok 0x0.0p+0 0x1.0p-1 T_at_zero"]
    assert moves(old, new) == [
        "binding_ir: 2 of 2 lines moved, 1 changed outcome or flags; largest relative move of T 9.54e-07, of P 0.00e+00",
        "  0: T 9.54e-07, P 0.00e+00",
        "  4: ok 0x0.0p+0 0x1.0p-1 none -> ok 0x0.0p+0 0x1.0p-1 T_at_zero",
        "report_only: 1 of 2 lines moved, 1 changed outcome or flags; largest relative move of T 0.00e+00, of P 0.00e+00",
        "  1: NoRootError -> ok 0x1.0p+0 0x1.0p-1 none",
    ]
    assert moves(old, old)[0] == (
        "binding_ir: 0 of 2 lines moved, 0 changed outcome or flags; largest relative move of T 0.00e+00, of P 0.00e+00"
    )
