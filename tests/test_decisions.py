"""Every seed-1 decision of the benchmark's reoptimize draws, line for line, on both scan routes.

The lines live in ``tests/golden/decisions.seed1.txt``: per draw and mode the
outcome, T and P in hex and the sorted flags, or the exception type.  A change
meant to move decisions rewrites them with

    PYTHONPATH=src python tests/decision_digest.py --write

and lists the moved draws in CHANGES.md.  The library's array route and the
CLI's plain route must both give those lines.
"""

import pytest

from decision_digest import GOLDEN, golden_lines
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
