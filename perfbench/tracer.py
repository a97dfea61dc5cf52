"""Span tracing around the package's layers, from the benchmark's own files.

``Tracer.install`` rebinds every public function of each layer module, and
the evaluation methods of the distribution classes, to timing wrappers in
every namespace that holds them; ``Tracer.remove`` puts the originals back.
Each span records name, start, end, parent and operation id.  Spans are kept
in memory (up to a cap) and written out at the end; per-name counts and self
times are kept for every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("distributions", "consumer", "market", "solver", "policy", "paid",
          "heterogeneity", "scenario", "cli", "verify")
DIST_METHODS = ("cdf", "pdf", "survivor", "hazard")
# policy functions that run joint solves; the denominator of joint_solves_per_op
POLICY_ENTRIES = ("click_to_cancel_statics", "beta_profit_curve", "mandatory_reminder_limit")
DIST_CLASSES = ("ValuationDistribution", "Uniform", "PiecewiseIsoElastic", "TruncatedWeibull")


class _Frame:
    __slots__ = ("name", "span_id", "child_time")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.span_id = span_id
        self.child_time = 0.0


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.errors: Counter = Counter()
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._next_id = 0
        self._stack: list[_Frame] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = _Frame(name, span_id)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame.child_time
                if parent is not None:
                    parent.child_time += duration
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, t0, t1, parent.span_id if parent else None, self.op_id))
                else:
                    self.dropped += 1
            self._observe(name, parent, result)
            return result

        return wrapper

    def _observe(self, name: str, parent: _Frame | None, result) -> None:
        """Counts that need a return value or the caller's identity."""
        if name == "solver.joint_optimum":
            self.extra["solver.joint_optimum.iterations"] += getattr(result, "iterations", 0)
            if any(f.name.startswith("policy.") for f in self._stack):
                self.extra["policy.joint_solves"] += 1
        elif name == "solver.price_foc" and parent is not None and parent.name == "solver.solve_price":
            self.extra["solver.price_foc.in_scan"] += 1

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"subtrial.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[key] = entry[1]
                    self._restore.append((namespace, key, value))
        dist_module = importlib.import_module("subtrial.distributions")
        for cls_name in DIST_CLASSES:
            cls = getattr(dist_module, cls_name)
            for method in DIST_METHODS:
                original = cls.__dict__.get(method)
                if original is not None:
                    setattr(cls, method, self._wrap(f"distributions.{cls_name}.{method}", original))
                    self._restore.append((cls, method, original))

    def remove(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def layer_self_ms(self, layer: str) -> float:
        return 1000.0 * sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer counts and self times, divided by the operations traced."""
        n = max(ops, 1)
        calls = self.calls
        solve_price_ok = calls["solver.solve_price"] - self.errors["solver.solve_price.NoRootError"]
        dist_evals = sum(c for name, c in calls.items() if name.startswith("distributions.")
                         and name.rsplit(".", 1)[-1] in DIST_METHODS)
        policy_entries = sum(calls[f"policy.{fn}"] for fn in POLICY_ENTRIES)
        return {
            "scenario.load_ms": 1000.0 * self.total["scenario.load"] / n,
            "cli.main.self_ms": 1000.0 * self.self_time["cli.main"] / n,
            "verify.run_invariant_checks.self_ms": 1000.0 * self.self_time["verify.run_invariant_checks"] / n,
            "solver.price_foc.calls": calls["solver.price_foc"] / n,
            "solver.trial_foc.calls": calls["solver.trial_foc"] / n,
            "solver.solve_price.calls": calls["solver.solve_price"] / n,
            "solver.solve_trial.calls": calls["solver.solve_trial"] / n,
            "solver.joint_optimum.iterations": self.extra["solver.joint_optimum.iterations"] / n,
            "solver.self_ms": self.layer_self_ms("solver") / n,
            "solver.price_foc_per_root": self.extra["solver.price_foc.in_scan"] / max(solve_price_ok, 1),
            "solver.solve_price.no_root": self.errors["solver.solve_price.NoRootError"] / n,
            "distributions.evals": dist_evals / n,
            "distributions.self_ms": self.layer_self_ms("distributions") / n,
            "distributions.check_ifr.calls": calls["distributions.check_ifr"] / n,
            "consumer.optimal_q.calls": calls["consumer.optimal_q"] / n,
            "consumer.self_ms": self.layer_self_ms("consumer") / n,
            "market.profit.calls": calls["market.profit"] / n,
            "market.surplus_integral.calls": calls["market.surplus_integral"] / n,
            "market.surplus_integral.self_ms": 1000.0 * self.self_time["market.surplus_integral"] / n,
            "market.self_ms": self.layer_self_ms("market") / n,
            "policy.self_ms": self.layer_self_ms("policy") / n,
            "paid.self_ms": self.layer_self_ms("paid") / n,
            "heterogeneity.self_ms": self.layer_self_ms("heterogeneity") / n,
            "policy.joint_solves_per_op": self.extra["policy.joint_solves"] / max(policy_entries, 1),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


IMPORT_PACKAGES = ("subtrial", "scipy", "numpy")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms per top-level package from ``-X importtime`` output.

    Lines are printed when an import finishes, children before parents, with
    two spaces of indent per nesting level.  A package's time is the sum of
    its outermost entries (a module of the package not nested in another
    module of the same package).
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    ancestors: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        pkg = name.split(".")[0]
        if pkg in totals and not any(a.split(".")[0] == pkg for _, a in ancestors):
            totals[pkg] += cumulative / 1000.0
        ancestors.append((level, name))
    return totals


def import_times(cwd, env, repeats: int = 3) -> dict[str, float]:
    """Median per-package import time over fresh ``python -X importtime`` runs."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import subtrial"],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{pkg}_ms": statistics.median(r[pkg] for r in runs) for pkg in IMPORT_PACKAGES}
