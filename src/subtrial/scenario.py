"""Scenario files: one JSON record per experiment.

A scenario bundles a valuation distribution, attention parameters, the price
window and solver settings, plus optional blocks for the paid-trial sign-up
model, an attention mixture, a policy shock, a base contract, and a sweep
axis.  Parsing and emission round-trip exactly so runs are reproducible from
the emitted record alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .consumer import AttentionParams
from .distributions import PriceWindow, ValuationDistribution, from_spec
from .exceptions import ScenarioError, SubtrialError
from .heterogeneity import AttentionMixture
from .market import Contract
from .paid import SignupModel
from .policy import PolicyShock
from .solver import SolverConfig

SWEEP_PARAMS = ("T", "P", "lambda0", "beta", "gamma")


@dataclass(frozen=True)
class SweepAxis:
    param: str
    grid: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    distribution: ValuationDistribution
    attention: AttentionParams
    solver: SolverConfig
    contract: Contract | None = None
    signup: SignupModel | None = None
    mixture: AttentionMixture | None = None
    shock: PolicyShock | None = None
    sweep: SweepAxis | None = None

    def to_dict(self) -> dict:
        window = self.solver.price_window
        record: dict = {
            "name": self.name,
            "distribution": self.distribution.to_spec(),
            "attention": {
                "lambda0": self.attention.lambda0,
                "beta": self.attention.beta,
                "gamma": self.attention.gamma,
            },
            "price_window": {"p_lo": window.p_lo, "p_hi": window.p_hi},
            "solver": {
                "t_max": self.solver.t_max,
                "bracket_grid": self.solver.bracket_grid,
                "root_tol": self.solver.root_tol,
                "opt_tol": self.solver.opt_tol,
                "participation_mode": self.solver.participation_mode,
            },
        }
        if self.contract is not None:
            record["contract"] = {"T": self.contract.T, "P": self.contract.P, "P0": self.contract.P0}
        if self.signup is not None:
            record["signup"] = {
                "alpha": self.signup.alpha,
                "theta": self.signup.theta,
                "cap": self.signup.cap,
            }
        if self.mixture is not None:
            record["mixture"] = {"atoms": [[lam, w] for lam, w in self.mixture.atoms]}
        if self.shock is not None:
            record["shock"] = {"gamma": self.shock.gamma, "label": self.shock.label}
        if self.sweep is not None:
            record["sweep"] = {"param": self.sweep.param, "grid": list(self.sweep.grid)}
        return record

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _require(record: dict, key: str) -> object:
    if key not in record:
        raise ScenarioError(f"scenario is missing required field {key!r}")
    return record[key]


def from_dict(record: dict) -> Scenario:
    try:
        window_rec = _require(record, "price_window")
        window = PriceWindow(p_lo=float(window_rec["p_lo"]), p_hi=float(window_rec["p_hi"]))
        att_rec = _require(record, "attention")
        attention = AttentionParams(
            lambda0=float(att_rec["lambda0"]),
            beta=float(att_rec.get("beta", 0.0)),
            gamma=float(att_rec.get("gamma", 1.0)),
        )
        solver_rec = record.get("solver", {})
        solver = SolverConfig(
            price_window=window,
            t_max=float(solver_rec.get("t_max", 365.0)),
            bracket_grid=solver_rec.get("bracket_grid", 256),
            root_tol=float(solver_rec.get("root_tol", 1e-10)),
            opt_tol=float(solver_rec.get("opt_tol", 1e-9)),
            participation_mode=str(solver_rec.get("participation_mode", "report_only")),
        )
        contract = None
        if "contract" in record:
            c = record["contract"]
            contract = Contract(T=float(c["T"]), P=float(c["P"]), P0=float(c.get("P0", 0.0)))
        signup = None
        if "signup" in record:
            s = record["signup"]
            signup = SignupModel(
                alpha=float(s["alpha"]), theta=float(s["theta"]), cap=float(s.get("cap", 1.0))
            )
        mixture = None
        if "mixture" in record:
            atoms = tuple((float(a[0]), float(a[1])) for a in record["mixture"]["atoms"])
            mixture = AttentionMixture(atoms=atoms)
        shock = None
        if "shock" in record:
            sh = record["shock"]
            shock = PolicyShock(gamma=float(sh["gamma"]), label=str(sh.get("label", "")))
        sweep = None
        if "sweep" in record:
            sw = record["sweep"]
            param = str(sw["param"])
            if param not in SWEEP_PARAMS:
                raise ScenarioError(f"unknown sweep parameter {param!r}; expected one of {SWEEP_PARAMS}")
            grid = tuple(float(g) for g in sw["grid"])
            if not grid or not all(math.isfinite(g) for g in grid):
                raise ScenarioError("sweep grid must be nonempty and finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ScenarioError("sweep grid must be strictly increasing")
            sweep = SweepAxis(param=param, grid=grid)
        scenario = Scenario(
            name=str(_require(record, "name")),
            distribution=from_spec(dict(_require(record, "distribution"))),
            attention=attention,
            solver=solver,
            contract=contract,
            signup=signup,
            mixture=mixture,
            shock=shock,
            sweep=sweep,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, SubtrialError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    if sweep is not None and sweep.param in ("T", "P") and contract is None:
        raise ScenarioError(f"sweep over {sweep.param!r} needs a base contract block")
    return scenario


def load(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return from_dict(record)
