"""The benchmark workloads: seeded inputs, one operation each, output checks.

Model inputs come from a randomized Halton sequence (a seeded start index and
a seeded shift per coordinate), so every seed covers each family's domain
evenly.  Known failures of the program are not filtered out of the draws.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from subtrial import (
    AttentionMixture,
    AttentionParams,
    Contract,
    PiecewiseIsoElastic,
    PriceWindow,
    SolverConfig,
    TruncatedWeibull,
    Uniform,
    aggregate_loss,
    joint_optimum,
    profit,
)
from subtrial import cli

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("uniform", "iso_elastic", "trunc_weibull")
IFR_FAMILIES = ("uniform", "trunc_weibull")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
BETA_ZERO_SHARE = 0.2

# The solver's default is 200 coordinate iterations.  Every successful solve
# seen on these draws took at most 14, so 40 fails the same inputs while a
# non-converging solve costs ~0.1 s instead of ~0.5 s; with the default, the
# few such failures per run set most of the run's time and its spread.
MAX_ITER = 40

# Residuals are recomputed independently, so allow rounding on top of root_tol.
RESIDUAL_SLACK = 1e-12


class CliExitError(Exception):
    """A CLI call exited with a non-zero code."""


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    shift = [rng.random() for _ in range(dims)]
    start = rng.randrange(1, 1 << 20)
    return [
        [(_radical_inverse(start + i, PRIMES[j]) + shift[j]) % 1.0 for j in range(dims)]
        for i in range(n)
    ]


@dataclass
class Draw:
    """One model input: a valuation distribution, attention, price window."""

    family: str
    dist: object
    params: AttentionParams
    config: SolverConfig
    oracle: bool = False  # compare this solve with the grid oracle


def model_draw(u: list[float]) -> Draw:
    """Map nine unit coordinates onto the families' declared domains.

    Uniform(a, b): 0 <= a < b <= 1.  Iso-elastic: eps, v0 in (0, 1) and
    kappa in (0, v0**eps].  Truncated Weibull: k in [1, 4], s log-uniform in
    [0.2, 2].  Window p_lo in [0.01, 0.30], p_hi in [0.60, 0.95].  lambda0
    log-uniform in [0.5, 60], across the uniform interior threshold ~5.93.
    beta is 0 for a fifth of draws and log-uniform in [0.01, 2] otherwise;
    gamma is uniform in [1, 3].
    """
    family = FAMILIES[min(int(u[0] * 3), 2)]
    if family == "uniform":
        a, b = min(u[1], u[2]), max(u[1], u[2])
        dist = Uniform(a, b if b > a else min(1.0, a + 1e-9))
    elif family == "iso_elastic":
        eps = 0.01 + 0.98 * u[1]
        v0 = 0.01 + 0.98 * u[2]
        kappa = (1.0 - u[8]) * v0**eps * (1.0 - 1e-12)
        dist = PiecewiseIsoElastic(kappa=kappa, eps=eps, v0=v0)
    else:
        dist = TruncatedWeibull(k=1.0 + 3.0 * u[1], s=0.2 * 10.0 ** u[2])
    window = PriceWindow(0.01 + 0.29 * u[5], 0.60 + 0.35 * u[3])
    lambda0 = 0.5 * 120.0 ** u[4]
    if u[6] < BETA_ZERO_SHARE:
        beta = 0.0
    else:
        beta = 0.01 * 200.0 ** ((u[6] - BETA_ZERO_SHARE) / (1.0 - BETA_ZERO_SHARE))
    params = AttentionParams(lambda0=lambda0, beta=beta, gamma=1.0 + 2.0 * u[7])
    return Draw(family, dist, params, SolverConfig(price_window=window, max_iter=MAX_ITER))


def check_solve(dist, params, config: SolverConfig, opt) -> str | None:
    """Residual rule of the joint solve plus an independent profit recompute."""
    T, P = opt.contract.T, opt.contract.P
    w = config.price_window
    flags = opt.boundary_flags
    if not (w.p_lo <= P <= w.p_hi and 0.0 <= T <= config.t_max):
        return f"contract ({T}, {P}) outside the window or trial range"
    tol = config.root_tol + RESIDUAL_SLACK
    if config.participation_mode != "binding_ir":
        price_res = ref.price_foc(dist, params, T, P)
        if abs(price_res) > tol and "P_at_window_edge" not in flags:
            return f"price residual {price_res:.3e} with flags {sorted(flags)}"
        trial_res = ref.trial_foc(dist, params, P, T)
        corner_ok = "T_at_zero" in flags and trial_res <= RESIDUAL_SLACK
        if abs(trial_res) > tol and not corner_ok and "T_at_max" not in flags:
            return f"trial residual {trial_res:.3e} with flags {sorted(flags)}"
    std, ir, q, lam = ref.revenues(dist, params, T, P)
    if not (ref.close(opt.outcome.profit, std + ir) and ref.close(opt.outcome.q_star, q)):
        return f"outcome record disagrees with the recompute at ({T}, {P})"
    return None


def solve_branches(opt) -> list[str]:
    flags = opt.boundary_flags
    return sorted(flags) if flags else ["interior"]


class Workload:
    """Inputs, operation, output check and input properties of one workload."""

    name = ""
    batch_size = 0
    # share of the batch (a prefix) that traced runs time, with and without spans
    trace_share = 1.0

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, result) -> str | None:
        """Identities the output must satisfy; a message when it does not."""
        return None

    def optimality(self, x, result) -> str | None:
        """A message when an output solves its conditions but is not the
        optimum a brute-force oracle finds."""
        return None

    def branches(self, x, result) -> list[str]:
        """Solver branches a successful operation took."""
        return []

    def kind(self, x) -> str:
        return self.name

    def final_checks(self, inputs: list, results: list) -> list[str]:
        """Checks run once after timing; returns error messages."""
        return []


class Reoptimize(Workload):
    """joint_optimum in report_only mode over seeded draws."""

    name = "reoptimize"
    batch_size = 1100
    trace_share = 0.25
    oracle_picks = 4
    oracle_grid = 128

    def build(self, seed):
        rng = random.Random(seed)
        inputs = [model_draw(u) for u in halton(rng, self.batch_size, 9)]
        rng.shuffle(inputs)
        for x in rng.sample([x for x in inputs if x.family in IFR_FAMILIES], self.oracle_picks):
            x.oracle = True
        return inputs

    def run(self, x):
        return joint_optimum(x.dist, x.params, x.config)

    def check(self, x, result):
        return check_solve(x.dist, x.params, x.config, result)

    def branches(self, x, result):
        return solve_branches(result)

    def optimality(self, x, opt):
        """Compare a seeded few interior or T = 0 corner solves with the oracle.

        The oracle maximizes profit over the whole window; the solver keeps
        the best first-order root.  They answer the same question only where
        the hazard increases (the uniform and truncated Weibull families),
        and even there a profit maximum at the window edge, which the solver
        does not consider, shows as a disagreement.  The oracle scans T up
        to 40.
        """
        if not x.oracle or not (opt.is_interior and opt.contract.T < 30.0
                                or opt.boundary_flags == {"T_at_zero"}):
            return None
        sys.path.insert(0, str(ROOT / "tests"))
        import oracles

        try:
            T, P = oracles.joint_by_grid(x.dist, x.params, x.config, n=self.oracle_grid)
        except AssertionError as exc:  # no trial root below the oracle's cap
            return f"oracle: {exc} for {x.dist}, {x.params}, solve {opt.contract}"
        std, ir, _, _ = ref.revenues(x.dist, x.params, T, P)
        if abs(opt.outcome.profit - (std + ir)) > 1e-7:
            return (f"oracle profit {std + ir:.10g} at ({T:.6g}, {P:.6g}) vs solver "
                    f"{opt.outcome.profit:.10g} for {x.dist}, {x.params}")
        return None


@dataclass
class ContractInput:
    family: str
    dist: object
    params: AttentionParams
    contract: Contract
    mixture: AttentionMixture | None


class ContractEval(Workload):
    """profit at a fixed contract, plus aggregate_loss for a share of inputs."""

    name = "contract_eval"
    batch_size = 8192
    mixture_share = 0.25

    def build(self, seed):
        rng = random.Random(seed)
        inputs = []
        for u in halton(rng, self.batch_size, 11):
            d = model_draw(u[:9])
            contract = Contract(T=40.0 * u[9], P=0.02 + 0.96 * u[10])
            mixture = None
            if rng.random() < self.mixture_share:
                n = rng.randint(2, 4)
                weights = [rng.random() + 0.05 for _ in range(n)]
                total = sum(weights)
                weights = [w / total for w in weights[:-1]]
                weights.append(1.0 - sum(weights))
                atoms = tuple((0.5 * 120.0 ** rng.random(), w) for w in weights)
                mixture = AttentionMixture(atoms=atoms)
            inputs.append(ContractInput(d.family, d.dist, d.params, contract, mixture))
        rng.shuffle(inputs)
        return inputs

    def run(self, x):
        outcome = profit(x.dist, x.params, x.contract)
        if x.mixture is None:
            return outcome, None
        return outcome, aggregate_loss(x.dist, x.mixture, x.contract)

    def check(self, x, result):
        out, loss = result
        T, P = x.contract.T, x.contract.P
        if abs(out.profit - out.standard_revenue - out.inattentive_revenue) > 1e-12:
            return "profit != standard + inattentive revenue"
        std, ir, q, lam = ref.revenues(x.dist, x.params, T, P)
        if not (ref.close(out.standard_revenue, std) and ref.close(out.inattentive_revenue, ir)
                and ref.close(out.q_star, q) and ref.close(out.lambda_eff, lam)):
            return f"revenues disagree with the recompute at ({T}, {P})"
        if x.family == "uniform" and not ref.close(out.utility, ref.uniform_utility(x.dist, x.params, T, P)):
            return f"uniform utility {out.utility} vs closed form at ({T}, {P})"
        if loss is not None:
            F = 1.0 - ref.survivor(x.dist, P)
            expected = P * F * sum(w * (1.0 - ref.logistic(lam_i * P)) for lam_i, w in x.mixture.atoms)
            if not ref.close(loss, expected):
                return f"aggregate loss {loss} vs {expected}"
        return None


@dataclass
class CliInput:
    family: str
    command: str
    scenario: str
    out: Path


CLI_COMMANDS = ("solve", "sweep", "policy", "paid", "hetero", "verify")
# blocks a scenario must carry for the command to apply to it
CLI_NEEDS = {"sweep": ("sweep",), "paid": ("signup",), "hetero": ("mixture", "contract")}


class CliBatch(Workload):
    """Each (command, bundled scenario) pair the scenario supports, one CLI call each.

    Timed runs spawn ``python -m subtrial.cli`` one call at a time; traced
    runs call ``cli.main(argv)`` in process so that spans see the layers.
    """

    name = "cli_batch"

    def __init__(self, env: dict, in_process: bool):
        self.env = env
        self.in_process = in_process
        self.out_dir = ROOT / "perfbench" / "out" / "csv"

    def build(self, seed):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            record = json.loads(path.read_text())
            family = record["distribution"]["family"]
            for command in CLI_COMMANDS:
                if all(block in record for block in CLI_NEEDS.get(command, ())):
                    scenario = f"scenarios/{path.name}"
                    out = self.out_dir / f"{command}.{path.stem}.csv"
                    inputs.append(CliInput(family, command, scenario, out))
        random.Random(seed).shuffle(inputs)
        return inputs

    def kind(self, x):
        return x.command

    def argv(self, x, out: Path) -> list[str]:
        return [x.command, "--scenario", x.scenario, "--out", str(out)]

    def run(self, x):
        if self.in_process:
            return self.run_in_process(x, x.out)
        proc = subprocess.run(
            [sys.executable, "-m", "subtrial.cli", *self.argv(x, x.out)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if proc.returncode != 0:
            raise CliExitError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return x.out.read_bytes()

    def run_in_process(self, x, out: Path) -> bytes:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(self.argv(x, out))
        if code != 0:
            raise CliExitError(f"exit {code}: {sink.getvalue()[-300:]}")
        return out.read_bytes()

    def check(self, x, result):
        lines = result.decode().splitlines()
        if len(lines) < 3 or not lines[0].startswith("# "):
            return "CSV lacks its comment, header or rows"
        rows = list(csv.reader(lines[1:]))
        header = rows[0]
        if any(len(row) != len(header) for row in rows[1:]):
            return "CSV rows do not match the header width"
        if header[0] != "scenario" or any(row[0] != Path(x.scenario).stem for row in rows[1:]):
            return "CSV scenario column does not name the scenario"
        return None

    def final_checks(self, inputs, results):
        """CLI output must be byte-identical to cli.main(argv) run in process."""
        if self.in_process:
            return []
        errors = []
        for x, r in zip(inputs, results):
            if isinstance(r, BaseException):
                continue
            out = self.out_dir / f"inproc.{x.out.name}"
            try:
                mine = self.run_in_process(x, out)
            except CliExitError as exc:
                errors.append(f"{x.command} {x.scenario}: in-process {exc}")
                continue
            if mine != r:
                errors.append(f"{x.command} {x.scenario}: CSV differs from the in-process result")
        return errors


def make(name: str, env: dict, in_process: bool) -> Workload:
    if name == "cli_batch":
        return CliBatch(env, in_process)
    return {"reoptimize": Reoptimize, "contract_eval": ContractEval}[name]()


WORKLOADS = ("cli_batch", "reoptimize", "contract_eval")
