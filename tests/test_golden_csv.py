"""Every CLI command on every bundled scenario writes its golden CSV byte for byte.

The goldens live in ``tests/golden/<command>.<scenario>.csv``.  A command
runs on a scenario when the scenario carries the blocks the command needs.
After a change that is meant to move a number, rewrite them with

    PYTHONPATH=src python tests/test_golden_csv.py

and list every moved file, with its cause, in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from subtrial.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("solve", "sweep", "policy", "paid", "hetero", "verify")
# blocks a scenario must carry for the command to apply to it
NEEDS = {"sweep": ("sweep",), "paid": ("signup",), "hetero": ("mixture", "contract")}


def cli_pairs() -> list[tuple[str, str]]:
    pairs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        record = json.loads(path.read_text())
        for command in COMMANDS:
            if all(block in record for block in NEEDS.get(command, ())):
                pairs.append((command, path.stem))
    return pairs


def run_pair(command: str, scenario: str, out: Path) -> int:
    return main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"), "--out", str(out)])


def test_every_supported_pair_has_a_golden():
    assert len(cli_pairs()) == 25
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(
        f"{command}.{scenario}.csv" for command, scenario in cli_pairs()
    )


@pytest.mark.parametrize("command,scenario", cli_pairs())
def test_csv_matches_golden(tmp_path, capsys, command, scenario):
    out = tmp_path / "out.csv"
    assert run_pair(command, scenario, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.{scenario}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command, scenario in cli_pairs():
        if run_pair(command, scenario, GOLDEN / f"{command}.{scenario}.csv") != 0:
            sys.exit(f"{command} on {scenario} failed")
