"""Digest of the solver's decisions on the benchmark's seeded reoptimize draws.

    PYTHONPATH=src python tests/decision_digest.py SEED [SEED ...]

For each seed, every draw of perfbench's ``Reoptimize().build(seed)`` is
solved by ``joint_optimum`` in report_only mode, and every fourth draw also in
binding_ir mode.  A solve contributes the hex form of T and P, its sorted
boundary flags and the reprs of its residuals and outcome; a failure
contributes its exception type and message.  One line per seed gives the
outcome counts and the SHA-256 of those contributions, so two versions of the
program that decide alike print the same lines.  pytest does not collect this
file.
"""

import dataclasses
import hashlib
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded model draws)

from subtrial.solver import joint_optimum  # noqa: E402


def decision(draw, mode: str) -> tuple[str, str]:
    """(outcome name, contribution) of one solve."""
    config = dataclasses.replace(draw.config, participation_mode=mode)
    try:
        opt = joint_optimum(draw.dist, draw.params, config)
    except Exception as exc:  # every failure is a decision to record, not to stop on
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    c = opt.contract
    return "ok", f"{c.T.hex()} {c.P.hex()} {sorted(opt.boundary_flags)} {opt.foc_residuals!r} {opt.outcome!r}"


def digest(seed: int) -> str:
    counts, sha = Counter(), hashlib.sha256()
    for i, draw in enumerate(workloads.Reoptimize().build(seed)):
        for mode in ("report_only", "binding_ir") if i % 4 == 0 else ("report_only",):
            name, line = decision(draw, mode)
            counts[f"{mode}:{name}"] += 1
            sha.update(f"{i} {mode} {line}\n".encode())
    return f"seed {seed}: {dict(sorted(counts.items()))} sha256 {sha.hexdigest()}"


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for arg in sys.argv[1:]:
        print(digest(int(arg)), flush=True)
