"""One benchmark run in a fresh interpreter: set up, time, check, report.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Set-up is everything from
interpreter start through ``import subtrial`` and building the workload's
inputs; the monotonic clock reading at that point is reported so the parent
can measure set-up time.  The last line of standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

import subtrial  # noqa: E402  (set-up starts here)

import workloads  # noqa: E402

# Nominal time of one reference unit.  Timings are scaled by nominal/measured
# so that they read as if the host ran at one fixed speed.
REF_UNIT_S = 3e-4
REF_EVERY_S = 0.1  # of timed work between reference samples
REF_UNITS = 4  # units in one sample
SETUP_REF_UNITS = 100


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_unit() -> float:
    """Fixed work unrelated to the program, in its mix of float math, calls
    and small frozen dataclasses."""
    s = 0.0
    for i in range(1, 400):
        x = i * 2.5e-3
        s += math.exp(-x) * math.log1p(x) / (1.0 + x * x)
        s += _Point(x, s).x
    return s


def reference_sample(units: int = REF_UNITS) -> float:
    """Seconds per reference unit, timed now.

    On a shared host the CPU speed drifts by ~20% within minutes, and the
    work and the reference slow down together: scaling a run's timings by
    its mean reference time cut the run-to-run spread of a fixed workload
    from 18% to 2% on a 2-core host.  Operations that each run for a second
    or more are tracked less well.
    """
    t0 = perf_counter()
    for _ in range(units):
        reference_unit()
    return (perf_counter() - t0) / units


def canonical(obj) -> str:
    """Order-independent text form of a result, for repeat comparison."""
    if isinstance(obj, BaseException):
        return f"{type(obj).__name__}: {obj}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in obj)) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in obj) + ")"
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        return type(obj).__name__ + canonical([getattr(obj, f) for f in fields])
    return repr(obj)


class Phase:
    """Outcome of timing whole passes over the input batch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        # (seconds per reference unit, seconds of work since the previous sample)
        self.speed_samples: list[tuple[float, float]] = []
        self.passes = 0
        # 8 bytes a sample, so peak memory barely moves with the number of passes
        self.latencies = array.array("d")
        self.fail_types: Counter = Counter()
        self.fail_kinds: Counter = Counter()
        self.properties: Counter = Counter()
        self.errors: list[str] = []
        self.notes: list[str] = []  # operations that are not optimal
        self.first: list | None = None  # results of the first pass
        self.outcomes: list | None = None  # their (failure, branches)

    def error(self, message: str) -> None:
        self.errors.append(message)
        del self.errors[20:]

    def summary(self) -> dict:
        """Counts and timings; timings are scaled to the nominal host speed."""
        unit_s, work_s = zip(*self.speed_samples)
        scale = REF_UNIT_S / statistics.fmean(unit_s, weights=work_s)
        ok = self.attempted - self.failed
        lat = sorted(self.latencies)
        n = len(lat)
        deciles = statistics.quantiles(lat, n=10, method="inclusive") if n >= 2 else lat * 9
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "passes": self.passes,
            "wall_s": self.wall,
            "speed_scale": scale,
            "ops_per_s": ok / (self.wall * scale),
            "unscaled_ops_per_s": ok / self.wall,
            "samples": n,
            "op_p50_ms": 1000.0 * scale * statistics.median(lat) if n else 0.0,
            "op_p90_ms": 1000.0 * scale * deciles[8] if n else 0.0,
            "samples_beyond_p90": sum(1 for x in lat if x > deciles[8]) if n else 0,
            "fail_types": dict(self.fail_types),
            "fail_kinds": dict(self.fail_kinds),
            "shares": {k: v / max(self.attempted, 1) for k, v in sorted(self.properties.items())},
        }


def same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b or canonical(a) == canonical(b)


def run_phase(wl, inputs: list, seconds: float, tracer=None, reference: Phase | None = None) -> Phase:
    """Time whole passes over ``inputs``: at least one, and another only while
    it is expected to end within ``seconds``.

    A reference sample runs whenever REF_EVERY_S has passed and at the end
    of each pass, outside the timed wall; it stands for the speed of the
    work since the previous sample.  Outputs are checked after each pass,
    also outside the timed region: in the first pass by the workload's check,
    in later passes by equality with the first pass's result for the same
    input.  Given a ``reference`` phase over the same inputs, every pass is
    compared with the reference's first pass and takes its check outcomes,
    so that no check runs here; a traced phase needs this, because checks
    that call the program (the grid oracle) would add to the layer counts.
    """
    ph = Phase()
    if reference is not None:
        ph.first, ph.outcomes = reference.first, reference.outcomes
    while ph.passes == 0 or ph.wall + ph.wall / ph.passes <= seconds:
        gc.collect()  # the previous pass's garbage is not this pass's cost
        results = []
        start = last_sample = perf_counter()
        sampled = 0.0
        for x in inputs:
            if tracer is not None:
                tracer.op_id += 1
            t0 = perf_counter()
            try:
                r = wl.run(x)
            except Exception as exc:  # every failure is counted by type
                r = exc
            t1 = perf_counter()
            results.append((t1 - t0, r))
            if t1 - last_sample >= REF_EVERY_S:
                ph.speed_samples.append((reference_sample(), t1 - last_sample))
                last_sample = perf_counter()
                sampled += last_sample - t1
        end = perf_counter()
        ph.speed_samples.append((reference_sample(), end - last_sample))
        ph.wall += end - start - sampled
        ph.passes += 1
        if ph.first is None:
            ph.first = [r for _, r in results]
            ph.outcomes = [classify(ph, wl, x, r) for x, r in zip(inputs, ph.first)]
        for i, (x, (dt, r)) in enumerate(zip(inputs, results)):
            if not same(r, ph.first[i]):
                ph.error(f"pass {ph.passes} result differs from the first result for input {i}")
            tally(ph, wl, x, dt, *ph.outcomes[i])
    return ph


def classify(ph: Phase, wl, x, r) -> tuple[str | None, list[str]]:
    """Failure type (None on success) and solver branches of one result."""
    if isinstance(r, Exception):
        return type(r).__name__, []
    err = wl.check(x, r)
    if err is not None:
        ph.error(f"{wl.kind(x)}: {err}")
        return "check", []
    miss = wl.optimality(x, r)
    if miss is not None:
        ph.notes.append(f"{wl.kind(x)}: {miss}")
        return "oracle", []
    return None, wl.branches(x, r)


def tally(ph: Phase, wl, x, dt: float, failure: str | None, branches: list[str]) -> None:
    ph.attempted += 1
    ph.properties[f"family.{x.family}"] += 1
    if failure is not None:
        ph.failed += 1
        ph.fail_types[failure] += 1
        ph.fail_kinds[f"{wl.kind(x)}.{failure}"] += 1
        return
    ph.latencies.append(dt)
    for branch in branches:
        ph.properties[f"branch.{branch}"] += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    wl = workloads.make(args.workload, dict(os.environ), in_process=bool(args.trace))
    inputs = wl.build(args.seed)
    ready = time.monotonic()
    setup_scale = REF_UNIT_S / reference_sample(SETUP_REF_UNITS)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    out = {"ready": ready, "setup_scale": setup_scale, "subtrial_file": subtrial.__file__}
    if args.trace:
        import tracer as tracing

        out["import"] = tracing.import_times(ROOT, dict(os.environ))
        inputs = inputs[: max(1, round(len(inputs) * wl.trace_share))]
        plain = run_phase(wl, inputs, args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_phase(wl, inputs, args.seconds / 2, tracer=tr, reference=plain)
        finally:
            tr.remove()
        out["traced"] = traced.summary()
        out["layers"] = tr.per_op(traced.attempted)
        spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tr.write_spans(spans)
        out["spans"] = {"file": str(spans.relative_to(ROOT)), "kept": len(tr.spans), "dropped": tr.dropped}
        errors = plain.errors + traced.errors
    else:
        plain = run_phase(wl, inputs, args.seconds)
        errors = list(plain.errors)
    # read before the summaries and final checks, whose allocations are the benchmark's
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_batch" and not args.trace else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    out["batch"] = len(inputs)
    out["untraced"] = plain.summary()
    errors += wl.final_checks(inputs, plain.first)
    out["errors"] = errors
    out["not_optimal"] = plain.notes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
