"""Every CLI command on every bundled scenario writes its golden CSV byte for byte.

The goldens live in ``tests/golden/<command>.<scenario>.csv``.  A command
runs on a scenario when the scenario carries the blocks the command needs.
``solve --mode binding_ir`` on every bundled scenario is pinned in
``tests/golden/binding_ir/``: its CSV, or, where the solve fails, the exit
code 2 and the message in ``solve.<scenario>.stderr``.  No bundled scenario
uses the truncated Weibull, so ``tests/golden/weibull/`` pins ``solve`` (also
``--mode binding_ir``), ``policy`` and ``verify`` on
``tests/scenarios/weibull_interior.json``, which lies outside ``scenarios/``
and so outside the benchmark's CLI calls.  After a change that is meant to
move a number, rewrite them with

    PYTHONPATH=src python tests/test_golden_csv.py

and list every moved file, with its cause, in CHANGES.md.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from subtrial.cli import EXIT_OK, EXIT_SOLVER, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
BINDING = GOLDEN / "binding_ir"
WEIBULL = Path(__file__).resolve().parent / "scenarios" / "weibull_interior.json"
# each pinned Weibull run: its golden's name and the command line
WEIBULL_RUNS = {"solve": ("solve",), "solve.binding_ir": ("solve", "--mode", "binding_ir"), "policy": ("policy",),
                "verify": ("verify",)}
COMMANDS = ("solve", "sweep", "policy", "paid", "hetero", "verify")
# blocks a scenario must carry for the command to apply to it
NEEDS = {"sweep": ("sweep",), "paid": ("signup",), "hetero": ("mixture", "contract")}
# bundled scenarios on which the binding_ir solve fails: no price leaves utility nonnegative
BINDING_FAILS = ("iso_elastic_curve", "policy_iso_elastic")


def cli_pairs() -> list[tuple[str, str]]:
    pairs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        record = json.loads(path.read_text())
        for command in COMMANDS:
            if all(block in record for block in NEEDS.get(command, ())):
                pairs.append((command, path.stem))
    return pairs


def run_pair(command: str, scenario: str, out: Path, *mode: str) -> int:
    return main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"), "--out", str(out), *mode])


def run_binding(scenario: str, out: Path) -> tuple[int, str]:
    """(exit code, standard error) of ``solve --mode binding_ir`` on the scenario."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_pair("solve", scenario, out, "--mode", "binding_ir")
    return code, err.getvalue()


def test_every_supported_pair_has_a_golden():
    assert len(cli_pairs()) == 25
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(
        f"{command}.{scenario}.csv" for command, scenario in cli_pairs()
    )
    scenarios = sorted(path.stem for path in SCENARIOS.glob("*.json"))
    assert set(BINDING_FAILS) < set(scenarios)
    assert sorted(p.name for p in BINDING.iterdir()) == sorted(
        f"solve.{s}.{'stderr' if s in BINDING_FAILS else 'csv'}" for s in scenarios
    )


@pytest.mark.parametrize("command,scenario", cli_pairs())
def test_csv_matches_golden(tmp_path, capsys, command, scenario):
    out = tmp_path / "out.csv"
    assert run_pair(command, scenario, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.{scenario}.csv").read_bytes()


@pytest.mark.parametrize("scenario", sorted(path.stem for path in SCENARIOS.glob("*.json")))
def test_binding_ir_solve_matches_golden(tmp_path, scenario):
    out = tmp_path / "out.csv"
    code, err = run_binding(scenario, out)
    if scenario in BINDING_FAILS:
        assert (code, err) == (EXIT_SOLVER, (BINDING / f"solve.{scenario}.stderr").read_text())
        assert not out.exists()
    else:
        assert (code, err) == (EXIT_OK, "")
        assert out.read_bytes() == (BINDING / f"solve.{scenario}.csv").read_bytes()


def run_weibull(name: str, out: Path) -> int:
    command, *mode = WEIBULL_RUNS[name]
    return main([command, "--scenario", str(WEIBULL), "--out", str(out), *mode])


@pytest.mark.parametrize("name", WEIBULL_RUNS)
def test_weibull_csv_matches_golden(tmp_path, capsys, name):
    out = tmp_path / "out.csv"
    assert run_weibull(name, out) == 0
    assert out.read_bytes() == (GOLDEN / "weibull" / f"{name}.weibull_interior.csv").read_bytes()


def readme_schemas() -> dict[str, list[str]]:
    """The column list of each command under README "CSV schemas"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### CSV schemas", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^\* `(\w+)`: `([^`]+)`", section, flags=re.M)
    return {command: " ".join(columns.split()).split(", ") for command, columns in items}


def test_readme_lists_a_schema_per_command():
    assert sorted(readme_schemas()) == sorted(COMMANDS)


@pytest.mark.parametrize("command,scenario", cli_pairs())
def test_csv_header_is_the_readme_schema(command, scenario):
    # the goldens are the CLI's bytes (test_csv_matches_golden), so this pins the
    # header the code writes to the columns the README states
    header = (GOLDEN / f"{command}.{scenario}.csv").read_text().splitlines()[1]
    assert header.split(",") == readme_schemas()[command]


@pytest.mark.parametrize("path", sorted(BINDING.glob("*.csv")), ids=lambda p: p.stem)
def test_binding_ir_header_is_the_readme_solve_schema(path):
    assert path.read_text().splitlines()[1].split(",") == readme_schemas()["solve"]


if __name__ == "__main__":
    BINDING.mkdir(parents=True, exist_ok=True)
    for command, scenario in cli_pairs():
        if run_pair(command, scenario, GOLDEN / f"{command}.{scenario}.csv") != 0:
            sys.exit(f"{command} on {scenario} failed")
    for path in sorted(SCENARIOS.glob("*.json")):
        code, err = run_binding(path.stem, BINDING / f"solve.{path.stem}.csv")
        if code == EXIT_SOLVER:
            (BINDING / f"solve.{path.stem}.stderr").write_text(err)
        elif code != EXIT_OK:
            sys.exit(f"binding_ir solve on {path.stem} exited {code}")
    for name in WEIBULL_RUNS:
        if run_weibull(name, GOLDEN / "weibull" / f"{name}.weibull_interior.csv") != 0:
            sys.exit(f"{name} on weibull_interior failed")
