"""Command-line runner: scenario in, deterministic CSV out.

Commands
--------
solve   joint contract optimization for the scenario
sweep   market outcomes along the scenario's sweep axis
policy  attention-shock comparative statics
paid    paid-trial joint optimization
hetero  mixture aggregate-loss experiment
verify  cross-module invariant checks (nonzero exit on violation)

Every float is printed with 12 significant digits and rows are buffered and
written in grid order, so identical inputs produce byte-identical files.
A command scans plain float grids, so it loads no numpy unless a truncated
Weibull's surplus needs its dot product.
Exit codes: 0 success, 1 scenario validation failure, 2 solver failure,
3 invariant violation from ``verify``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import scenario as scenario_mod
from .distributions import _use_plain_grids
from .exceptions import ScenarioError, SubtrialError
from .heterogeneity import aggregate_loss, mps_pair
from .market import profit
from .paid import joint_paid_optimum
from .policy import PolicyShock, click_to_cancel_statics
from .scenario import Scenario
from .solver import PARTICIPATION_MODES, joint_optimum
from .verify import run_invariant_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_INVARIANT = 3


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str, comment: str, header: list[str], rows: list[list[object]]) -> None:
    lines = [f"# {comment}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _flags(opt) -> str:
    return "|".join(sorted(opt.boundary_flags)) or "none"


def _maybe_round(T: float, round_t: bool) -> float:
    return float(round(T)) if round_t else T


def _cmd_solve(sc: Scenario, out: str, round_t: bool) -> None:
    opt = joint_optimum(sc.distribution, sc.attention, sc.solver)
    header = [
        "scenario", "mode", "T_star", "P_star", "profit", "standard_revenue",
        "inattentive_revenue", "utility", "ir_slack", "q_star", "lambda_eff",
        "price_residual", "trial_residual", "flags", "participation_satisfied",
    ]
    row = [
        sc.name, sc.solver.participation_mode, _maybe_round(opt.contract.T, round_t),
        opt.contract.P, opt.outcome.profit, opt.outcome.standard_revenue,
        opt.outcome.inattentive_revenue, opt.outcome.utility, opt.outcome.ir_slack,
        opt.outcome.q_star, opt.outcome.lambda_eff, opt.foc_residuals[0],
        opt.foc_residuals[1], _flags(opt), opt.participation_satisfied,
    ]
    _write_csv(out, "joint contract optimum, one row per scenario", header, [row])


def _sweep_point(sc: Scenario, value: float):
    contract = sc.contract
    params = sc.attention
    if sc.sweep.param == "T":
        contract = replace(contract, T=value)
    elif sc.sweep.param == "P":
        contract = replace(contract, P=value)
    else:
        params = replace(params, **{sc.sweep.param: value})
    if contract is None:
        opt = joint_optimum(sc.distribution, params, sc.solver)
        contract = opt.contract
    return contract, profit(sc.distribution, params, contract)


def _cmd_sweep(sc: Scenario, out: str, round_t: bool) -> None:
    if sc.sweep is None:
        raise ScenarioError("scenario has no sweep block")
    results = [_sweep_point(sc, v) for v in sc.sweep.grid]
    header = [
        "scenario", "param", "value", "T", "P", "standard_revenue", "inattentive_revenue",
        "profit", "utility", "ir_slack", "q_star", "lambda_eff",
    ]
    rows = []
    for value, (contract, outcome) in zip(sc.sweep.grid, results):
        rows.append([
            sc.name, sc.sweep.param, value, _maybe_round(contract.T, round_t), contract.P,
            outcome.standard_revenue, outcome.inattentive_revenue, outcome.profit,
            outcome.utility, outcome.ir_slack, outcome.q_star, outcome.lambda_eff,
        ])
    _write_csv(out, "market outcome per sweep grid point, buffered in grid order", header, rows)


def _cmd_policy(sc: Scenario, out: str, round_t: bool) -> None:
    shock = sc.shock or PolicyShock(gamma=2.0, label="default_boost")
    report = click_to_cancel_statics(sc.distribution, sc.attention, shock, sc.solver)
    header = [
        "scenario", "shock_gamma", "shock_label", "T_base", "P_base", "profit_base",
        "T_shocked", "P_shocked", "profit_shocked", "dT_dGamma", "dP_dGamma",
        "epsilon_used", "sign_rule_holds", "baseline_interior",
    ]
    row = [
        sc.name, shock.gamma, shock.label or "none",
        _maybe_round(report.baseline.contract.T, round_t), report.baseline.contract.P,
        report.baseline.outcome.profit,
        _maybe_round(report.shocked.contract.T, round_t), report.shocked.contract.P,
        report.shocked.outcome.profit, report.dT_dGamma, report.dP_dGamma,
        "none" if report.epsilon_used is None else report.epsilon_used,
        "n/a" if report.sign_rule_holds is None else report.sign_rule_holds,
        report.baseline_interior,
    ]
    _write_csv(out, "attention-shock comparative statics", header, [row])


def _cmd_paid(sc: Scenario, out: str, round_t: bool) -> None:
    if sc.signup is None:
        raise ScenarioError("scenario has no signup block")
    opt = joint_paid_optimum(sc.distribution, sc.attention, sc.signup, sc.solver)
    header = [
        "scenario", "alpha", "theta", "T_star", "P_star", "P0_star", "p_aug",
        "signup_rate", "profit", "corner", "capped",
    ]
    row = [
        sc.name, sc.signup.alpha, sc.signup.theta, _maybe_round(opt.contract.T, round_t),
        opt.contract.P, opt.contract.P0, opt.p_aug, opt.signup_rate, opt.profit,
        opt.corner, opt.capped,
    ]
    _write_csv(out, "paid-trial joint optimum", header, [row])


def _cmd_hetero(sc: Scenario, out: str, round_t: bool) -> None:
    if sc.mixture is None:
        raise ScenarioError("scenario has no mixture block")
    if sc.contract is None:
        raise ScenarioError("hetero command needs a base contract block")
    mixture = sc.mixture
    contract = sc.contract
    loss = aggregate_loss(sc.distribution, mixture, contract)
    base, _ = mps_pair(mixture.mean_z(), 0.0)
    point_loss = aggregate_loss(sc.distribution, base, contract)
    header = [
        "scenario", "T", "P", "n_atoms", "mean_z", "aggregate_loss",
        "point_mass_loss", "spread_premium",
    ]
    row = [
        sc.name, _maybe_round(contract.T, round_t), contract.P, len(mixture.atoms),
        mixture.mean_z(), loss, point_loss, loss - point_loss,
    ]
    _write_csv(out, "aggregate inattentive loss for the scenario mixture", header, [row])


def _cmd_verify(sc: Scenario, out: str, round_t: bool) -> int:
    checks = run_invariant_checks(sc)
    header = ["scenario", "module", "check", "status", "detail"]
    rows = [
        [sc.name, c.module, c.name, "pass" if c.ok else "FAIL", c.detail.replace(",", ";")]
        for c in checks
    ]
    _write_csv(out, "invariant checks, one row per check", header, rows)
    failures = [c for c in checks if not c.ok]
    for c in checks:
        print(f"[{'pass' if c.ok else 'FAIL'}] {c.module}.{c.name}: {c.detail}")
    if failures:
        print(f"{len(failures)} invariant violation(s)", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "policy": _cmd_policy,
    "paid": _cmd_paid,
    "hetero": _cmd_hetero,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtrial",
        description="Subscription-contract optimization with inattentive consumers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*COMMANDS, "verify"]:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument(
            "--mode",
            choices=PARTICIPATION_MODES,
            help="override the scenario's participation mode",
        )
        p.add_argument(
            "--round-T", action="store_true", dest="round_t",
            help="round reported trial lengths to whole periods",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    plain = _use_plain_grids(True)
    try:
        return _run(args)
    finally:
        _use_plain_grids(plain)


def _run(args: argparse.Namespace) -> int:
    """Load the scenario and run the command; returns the exit code."""
    try:
        sc = scenario_mod.load(args.scenario)
        if args.mode:
            sc = replace(sc, solver=replace(sc.solver, participation_mode=args.mode))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "verify":
            return _cmd_verify(sc, args.out, args.round_t)
        COMMANDS[args.command](sc, args.out, args.round_t)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SubtrialError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
