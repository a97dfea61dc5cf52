"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The program is imported from
``src``; nothing is installed.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it reports the
per-layer metrics and the tracing overhead.  The full record of the run,
with the environment, input-property shares and failures by type, is written
to ``perfbench/out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_batch", "reoptimize", "contract_eval")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0


def layout_error() -> str | None:
    for rel in ("BENCHMARK.json", "src/subtrial/__init__.py", "src/subtrial/cli.py", "scenarios",
                "tests/oracles.py"):
        if not (ROOT / rel).exists():
            return f"{rel} not found under {ROOT}; run from the root of a source checkout"
    if not any((ROOT / "scenarios").glob("*.json")):
        return "no scenario files under scenarios/"
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one worker thread: no BLAS or OpenMP pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start a fresh worker; return its set-up time, scaled to the nominal
    host speed, and its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return (record["ready"] - t0) * record["setup_scale"], record


def shares(names: list[str], summary: dict) -> dict[str, float]:
    """The declared ``share.*`` metrics: input properties and failures by
    type, each over attempted operations; undeclared types go to ``other``."""
    attempted = max(summary["attempted"], 1)
    fails = {name[len("share.fail."):]: 0 for name in names if name.startswith("share.fail.")}
    for kind, count in summary["fail_types"].items():
        fails[kind if kind in fails else "other"] += count
    out = {}
    for name in names:
        if name.startswith("share.fail."):
            out[name] = fails[name[len("share.fail."):]] / attempted
        elif name.startswith("share."):
            out[name] = summary["shares"].get(name[len("share."):], 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    problem = layout_error()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = worker_env()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, env, deadline, setup_only=True)[0])
        setup, rec = run_worker(args, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    if not Path(rec["subtrial_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: subtrial imported from {rec['subtrial_file']}, not this checkout", file=sys.stderr)
        return 1

    plain = rec["untraced"]
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": args.seed,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in declared["per_layer"]]
    if args.trace:
        traced = rec["traced"]
        values = dict(rec["import"])
        values.update(rec["layers"])
        values.update(shares(layer_names, plain))
        values["trace.untraced_ops_per_s"] = plain["ops_per_s"]
        values["trace.traced_ops_per_s"] = traced["ops_per_s"]
        values["trace.overhead_ops_per_s"] = traced["ops_per_s"] - plain["ops_per_s"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "op_p50_ms": plain["op_p50_ms"],
            "op_p90_ms": plain["op_p90_ms"],
            "ok_ratio": (plain["attempted"] - plain["failed"]) / max(plain["attempted"], 1),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        attempted, failed = plain["attempted"], plain["failed"]
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        print(f"error: metrics {sorted(set(units) ^ set(values))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    correct = not rec["errors"]
    report(args, environment, plain, metrics, setups, rec)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    full = {"workload": args.workload, "trace": args.trace, "environment": environment,
            "setup_samples_s": setups, "record": rec, "metrics": metrics,
            "shares": shares(layer_names, plain), "correct": correct}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def report(args, environment: dict, plain: dict, metrics: dict, setups: list, rec: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  " +
          "  ".join(f"{k} {v}" for k, v in environment.items() if k != "seed"))
    attempted, failed = plain["attempted"], plain["failed"]
    print(f"  failed_ratio {failed / max(attempted, 1):.6f} -   ({failed} failed of {attempted} attempted"
          f" in {plain['passes']} pass(es) over {rec['batch']} inputs)")
    notes = {}
    if not args.trace:
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters",
            "ops_per_s": f"{plain['unscaled_ops_per_s']:.6g} unscaled",
            "op_p50_ms": f"{plain['samples']} samples",
            "op_p90_ms": f"{plain['samples_beyond_p90']} samples beyond it"
            + ("" if plain["samples_beyond_p90"] >= 10 else ", fewer than ten: read with care"),
            "ok_ratio": "1 - failed_ratio",
        }
    for k, m in metrics.items():
        print(f"  {k:<44} {m['value']:.6g} {m['unit']}   {notes.get(k, '')}".rstrip())
    if not args.trace:
        print(f"  timings scaled by {plain['speed_scale']:.4f} to the nominal host speed")
    if plain["fail_types"]:
        print("  failures by type: " + ", ".join(f"{k} {v}" for k, v in sorted(plain["fail_types"].items())))
    print("  shares: " + ", ".join(f"{k} {v:.3f}" for k, v in plain["shares"].items()))
    for err in rec["errors"][:10]:
        print(f"  CHECK FAILED: {err}")
    for note in rec["not_optimal"][:10]:
        print(f"  not optimal: {note}")


if __name__ == "__main__":
    sys.exit(main())
