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
``test_decisions.py`` compares line by line.  pytest does not collect this
file.
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
        GOLDEN.write_text("\n".join(golden_lines(1)) + "\n")
    elif len(sys.argv) < 2:
        sys.exit(__doc__)
    else:
        for arg in sys.argv[1:]:
            for line in route_digests(int(arg)):
                print(line, flush=True)
