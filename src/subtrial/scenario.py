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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .consumer import AttentionParams
from .distributions import PriceWindow, ValuationDistribution, from_fields, from_spec
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
        """The scenario as a JSON record: each block is its record's fields, except ``solver`` (its own
        window block, and no ``max_iter``, which scenarios do not set) and the lists of the last two."""
        record: dict = {
            "name": self.name,
            "distribution": self.distribution.to_spec(),
            "attention": asdict(self.attention),
            "price_window": asdict(self.solver.price_window),
            "solver": {
                "t_max": self.solver.t_max,
                "bracket_grid": self.solver.bracket_grid,
                "root_tol": self.solver.root_tol,
                "opt_tol": self.solver.opt_tol,
                "participation_mode": self.solver.participation_mode,
            },
        }
        for key, block in (("contract", self.contract), ("signup", self.signup), ("shock", self.shock)):
            if block is not None:
                record[key] = asdict(block)
        if self.mixture is not None:
            record["mixture"] = {"atoms": [[lam, w] for lam, w in self.mixture.atoms]}
        if self.sweep is not None:
            record["sweep"] = {"param": self.sweep.param, "grid": list(self.sweep.grid)}
        return record

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _require(record: dict, key: str) -> object:
    if key not in record:
        raise ScenarioError(f"scenario is missing required field {key!r}")
    return record[key]


def _csv_text(value: object, what: str) -> str:
    """value as text that a CSV field carries raw: no comma, double quote or line break."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        raise ScenarioError(f"{what} {text!r} holds a comma, a double quote or a line break")
    return text


def from_dict(record: dict) -> Scenario:
    try:
        window = from_fields(PriceWindow, _require(record, "price_window"))
        attention = from_fields(AttentionParams, _require(record, "attention"))
        solver_rec = record.get("solver", {})
        solver = SolverConfig(
            price_window=window,
            t_max=float(solver_rec.get("t_max", 365.0)),
            bracket_grid=solver_rec.get("bracket_grid", 256),
            root_tol=float(solver_rec.get("root_tol", 1e-10)),
            opt_tol=float(solver_rec.get("opt_tol", 1e-9)),
            participation_mode=str(solver_rec.get("participation_mode", "report_only")),
        )
        contract = from_fields(Contract, record["contract"]) if "contract" in record else None
        signup = from_fields(SignupModel, record["signup"]) if "signup" in record else None
        mixture = None
        if "mixture" in record:
            atoms = tuple((float(a[0]), float(a[1])) for a in record["mixture"]["atoms"])
            mixture = AttentionMixture(atoms=atoms)
        shock = None
        if "shock" in record:
            sh = record["shock"]
            shock = PolicyShock(gamma=float(sh["gamma"]), label=_csv_text(sh.get("label", ""), "shock label"))
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
            swept = contract if param in ("T", "P") else attention
            if swept is None:
                raise ScenarioError(f"sweep over {param!r} needs a base contract block")
            for g in grid:  # each swept record once, so an out-of-domain value is a scenario error
                replace(swept, **{param: g})
            sweep = SweepAxis(param=param, grid=grid)
        return Scenario(
            name=_csv_text(_require(record, "name"), "scenario name"),
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
