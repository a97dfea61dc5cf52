"""Digest of the solver's decisions on the benchmark's seeded reoptimize draws.

    PYTHONPATH=src python tests/decision_digest.py SEED [SEED ...]
    PYTHONPATH=src python tests/decision_digest.py --write

For each seed, every draw of perfbench's ``Reoptimize().build(seed)`` is
solved by ``joint_optimum`` in report_only mode, and every fourth draw also in
binding_ir mode.  A solve contributes the hex form of T and P, its sorted
boundary flags and the reprs of its residuals and outcome; a failure
contributes its exception type and message.  Each seed gets two lines, one
per scan route: first on numpy grids (the library's array route), then on
float-tuple grids (the CLI's plain route).  A line gives the route, the
outcome counts and the SHA-256 of those contributions, so two versions of the
program that decide alike print the same lines, and the two routes of one
version print the same counts and hash.  ``--write`` rewrites
``tests/golden/decisions.seed1.txt``, one line per seed-1 decision (index,
mode, outcome, T and P in hex, sorted flags, or the exception type), which
``test_decisions.py`` compares line by line.  Before it rewrites the file it
prints what the rewrite moves, per mode: the number of moved lines, each
change of outcome or flags, the largest relative move of T and of P, and
every moved line.  pytest does not collect this file.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded model draws)

from subtrial.distributions import _use_plain_grids  # noqa: E402
from subtrial.solver import joint_optimum  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "decisions.seed1.txt"


def solves(seed: int):
    """(index, mode, contract or exception) of every decision of the seed, in order."""
    for i, draw in enumerate(workloads.Reoptimize().build(seed)):
        for mode in ("report_only", "binding_ir") if i % 4 == 0 else ("report_only",):
            config = draw.config._replace(participation_mode=mode)
            try:
                yield i, mode, joint_optimum(draw.dist, draw.params, config)
            except Exception as exc:  # every failure is a decision to record, not to stop on
                yield i, mode, exc


def golden_lines(seed: int) -> list[str]:
    """One short line per decision: the golden file's form."""
    lines = []
    for i, mode, opt in solves(seed):
        if isinstance(opt, Exception):
            lines.append(f"{i} {mode} {type(opt).__name__}")
        else:
            flags = "|".join(sorted(opt.boundary_flags)) or "none"
            lines.append(f"{i} {mode} ok {opt.contract.T.hex()} {opt.contract.P.hex()} {flags}")
    return lines


def _relative(old: float, new: float) -> float:
    return abs(new - old) / max(abs(old), abs(new)) if new != old else 0.0


def moves(old: list[str], new: list[str]) -> list[str]:
    """What replacing the golden lines ``old`` by ``new`` moves, per mode: a summary line, then
    one line per moved decision, with the relative moves of T and P or its change of outcome or flags."""
    before = {tuple(line.split()[:2]): line.split()[2:] for line in old}
    after = {tuple(line.split()[:2]): line.split()[2:] for line in new}
    every, report = before.keys() | after.keys(), []
    for mode in sorted({mode for _, mode in every}):
        keys = sorted((key for key in every if key[1] == mode), key=lambda key: int(key[0]))
        lines, changed, largest_T, largest_P = [], 0, 0.0, 0.0
        for key in keys:
            was, now = before.get(key, ["absent"]), after.get(key, ["absent"])
            if was == now:
                continue
            if was[0] == now[0] == "ok" and was[3:] == now[3:]:
                T, P = (_relative(float.fromhex(was[j]), float.fromhex(now[j])) for j in (1, 2))
                largest_T, largest_P = max(largest_T, T), max(largest_P, P)
                lines.append(f"  {key[0]}: T {T:.2e}, P {P:.2e}")
            else:
                changed += 1
                lines.append(f"  {key[0]}: {' '.join(was)} -> {' '.join(now)}")
        report.append(f"{mode}: {len(lines)} of {len(keys)} lines moved, {changed} changed outcome or flags; "
                      f"largest relative move of T {largest_T:.2e}, of P {largest_P:.2e}")
        report += lines
    return report


def digest(seed: int) -> str:
    """The seed's line on the current scan route."""
    counts, sha = Counter(), hashlib.sha256()
    for i, mode, opt in solves(seed):
        if isinstance(opt, Exception):
            name, line = type(opt).__name__, f"{type(opt).__name__}: {opt}"
        else:
            c = opt.contract
            name = "ok"
            line = f"{c.T.hex()} {c.P.hex()} {sorted(opt.boundary_flags)} {opt.foc_residuals!r} {opt.outcome!r}"
        counts[f"{mode}:{name}"] += 1
        sha.update(f"{i} {mode} {line}\n".encode())
    return f"seed {seed}: {dict(sorted(counts.items()))} sha256 {sha.hexdigest()}"


def route_digests(seed: int) -> list[str]:
    """The seed's line on the array route, then on the plain route; the route in
    force before the call is restored."""
    lines = [f"array {digest(seed)}"]
    previous = _use_plain_grids(True)
    try:
        lines.append(f"plain {digest(seed)}")
    finally:
        _use_plain_grids(previous)
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        lines = golden_lines(1)
        print("\n".join(moves(GOLDEN.read_text().splitlines() if GOLDEN.exists() else [], lines)), flush=True)
        GOLDEN.write_text("\n".join(lines) + "\n")
    elif len(sys.argv) < 2:
        sys.exit(__doc__)
    else:
        for arg in sys.argv[1:]:
            for line in route_digests(int(arg)):
                print(line, flush=True)
