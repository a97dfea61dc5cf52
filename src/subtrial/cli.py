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
A command scans plain float grids and evaluates every family's surplus in
closed form, so it loads no numpy.
Exit codes: 0 success, 1 scenario validation failure or an unwritable ``--out``,
2 solver failure, 3 invariant violation from ``verify``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import scenario as scenario_mod
from .distributions import _use_plain_grids
from .exceptions import ScenarioError, SubtrialError
from .scenario import SWEEP_PARAMS, Scenario
from .solver import PARTICIPATION_MODES, joint_optimum

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


def _write_csv(path: str, comment: str, rows: list[dict[str, object]]) -> None:
    """Write the rows, each a dict from column name to value in column order, under a
    header of the first row's keys."""
    lines = [f"# {comment}", ",".join(rows[0])]
    lines.extend(",".join(_fmt(v) for v in row.values()) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _flags(opt) -> str:
    return "|".join(sorted(opt.boundary_flags)) or "none"


def _maybe_round(T: float, round_t: bool) -> float:
    return float(round(T)) if round_t else T


def _cmd_solve(sc: Scenario, out: str, round_t: bool) -> None:
    opt = joint_optimum(sc.distribution, sc.attention, sc.solver)
    o = opt.outcome
    row = {
        "scenario": sc.name, "mode": sc.solver.participation_mode,
        "T_star": _maybe_round(opt.contract.T, round_t), "P_star": opt.contract.P, "profit": o.profit,
        "standard_revenue": o.standard_revenue, "inattentive_revenue": o.inattentive_revenue,
        "utility": o.utility, "ir_slack": o.ir_slack, "q_star": o.q_star, "lambda_eff": o.lambda_eff,
        "price_residual": opt.foc_residuals[0], "trial_residual": opt.foc_residuals[1],
        "flags": _flags(opt), "participation_satisfied": opt.participation_satisfied,
    }
    _write_csv(out, "joint contract optimum, one row per scenario", [row])


def _sweep_point(sc: Scenario, value: float):
    """The swept scenario's base contract, or its joint optimum without one, and its outcome."""
    from .market import profit
    block = SWEEP_PARAMS[sc.sweep.param]
    sc = sc._replace(**{block: getattr(sc, block)._replace(**{sc.sweep.param: value})})
    contract = sc.contract or joint_optimum(sc.distribution, sc.attention, sc.solver).contract
    return contract, profit(sc.distribution, sc.attention, contract)


def _cmd_sweep(sc: Scenario, out: str, round_t: bool) -> None:
    if sc.sweep is None:
        raise ScenarioError("scenario has no sweep block")
    results = [_sweep_point(sc, v) for v in sc.sweep.grid]
    rows = [
        {"scenario": sc.name, "param": sc.sweep.param, "value": value, "T": _maybe_round(contract.T, round_t),
         "P": contract.P, **outcome._asdict()}
        for value, (contract, outcome) in zip(sc.sweep.grid, results)
    ]
    _write_csv(out, "market outcome per sweep grid point, buffered in grid order", rows)


def _cmd_policy(sc: Scenario, out: str, round_t: bool) -> None:
    from .policy import DEFAULT_SHOCK, click_to_cancel_statics
    shock = sc.shock or DEFAULT_SHOCK
    report = click_to_cancel_statics(sc.distribution, sc.attention, shock, sc.solver)
    base, shocked = report.baseline, report.shocked
    row = {
        "scenario": sc.name, "shock_gamma": shock.gamma, "shock_label": shock.label or "none",
        "T_base": _maybe_round(base.contract.T, round_t), "P_base": base.contract.P,
        "profit_base": base.outcome.profit, "T_shocked": _maybe_round(shocked.contract.T, round_t),
        "P_shocked": shocked.contract.P, "profit_shocked": shocked.outcome.profit,
        "dT_dGamma": report.dT_dGamma, "dP_dGamma": report.dP_dGamma,
        "epsilon_used": "none" if report.epsilon_used is None else report.epsilon_used,
        "sign_rule_holds": "n/a" if report.sign_rule_holds is None else report.sign_rule_holds,
        "baseline_interior": report.baseline_interior,
    }
    _write_csv(out, "attention-shock comparative statics", [row])


def _cmd_paid(sc: Scenario, out: str, round_t: bool) -> None:
    from .paid import joint_paid_optimum
    if sc.signup is None:
        raise ScenarioError("scenario has no signup block")
    opt = joint_paid_optimum(sc.distribution, sc.attention, sc.signup, sc.solver)
    row = {
        "scenario": sc.name, "alpha": sc.signup.alpha, "theta": sc.signup.theta,
        "T_star": _maybe_round(opt.contract.T, round_t), "P_star": opt.contract.P,
        "P0_star": opt.contract.P0, "p_aug": opt.p_aug, "signup_rate": opt.signup_rate,
        "profit": opt.profit, "corner": opt.corner, "capped": opt.capped,
    }
    _write_csv(out, "paid-trial joint optimum", [row])


def _cmd_hetero(sc: Scenario, out: str, round_t: bool) -> None:
    from .heterogeneity import aggregate_loss, mps_pair
    if sc.mixture is None:
        raise ScenarioError("scenario has no mixture block")
    if sc.contract is None:
        raise ScenarioError("hetero command needs a base contract block")
    mixture, contract = sc.mixture, sc.contract
    loss = aggregate_loss(sc.distribution, mixture, contract)
    base, _ = mps_pair(mixture.mean_z(), 0.0)
    point_loss = aggregate_loss(sc.distribution, base, contract)
    row = {
        "scenario": sc.name, "T": _maybe_round(contract.T, round_t), "P": contract.P,
        "n_atoms": len(mixture.atoms), "mean_z": mixture.mean_z(), "aggregate_loss": loss,
        "point_mass_loss": point_loss, "spread_premium": loss - point_loss,
    }
    _write_csv(out, "aggregate inattentive loss for the scenario mixture", [row])


def _cmd_verify(sc: Scenario, out: str, round_t: bool) -> int | None:
    from .verify import run_invariant_checks
    checks = run_invariant_checks(sc)
    rows = [
        {"scenario": sc.name, "module": c.module, "check": c.name, "status": "pass" if c.ok else "FAIL",
         "detail": c.detail.replace(",", ";")}
        for c in checks
    ]
    _write_csv(out, "invariant checks, one row per check", rows)
    failures = [c for c in checks if not c.ok]
    for c in checks:
        print(f"[{'pass' if c.ok else 'FAIL'}] {c.module}.{c.name}: {c.detail}")
    if failures:
        print(f"{len(failures)} invariant violation(s)", file=sys.stderr)
        return EXIT_INVARIANT


# each command returns its exit code, or None for success
COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "policy": _cmd_policy,
    "paid": _cmd_paid,
    "hetero": _cmd_hetero,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtrial",
        description="Subscription-contract optimization with inattentive consumers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
            sc = sc._replace(solver=sc.solver._replace(participation_mode=args.mode))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](sc, args.out, args.round_t) or EXIT_OK
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SubtrialError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"output error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
