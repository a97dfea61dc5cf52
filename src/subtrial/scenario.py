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
from pathlib import Path
from typing import TYPE_CHECKING

from .consumer import AttentionParams
from .distributions import PriceWindow, Record, ValuationDistribution, from_fields, from_spec, number
from .exceptions import ScenarioError, SubtrialError
from .market import Contract
from .solver import SolverConfig

if TYPE_CHECKING:  # the optional blocks' modules load only with a block that needs them
    from .heterogeneity import AttentionMixture
    from .paid import SignupModel
    from .policy import PolicyShock

# each sweep parameter, and the block whose record it is a field of
SWEEP_PARAMS = {"T": "contract", "P": "contract", "lambda0": "attention", "beta": "attention", "gamma": "attention"}
_RECORDS = {"attention": AttentionParams, "solver": SolverConfig, "contract": Contract}


class SweepAxis(Record):
    param: str
    grid: tuple[float, ...]


class Scenario(Record):
    name: str
    distribution: ValuationDistribution
    attention: AttentionParams  # this field and every one after it is a record block
    solver: SolverConfig
    contract: Contract | None = None
    signup: SignupModel | None = None
    mixture: AttentionMixture | None = None
    shock: PolicyShock | None = None
    sweep: SweepAxis | None = None

    def to_dict(self) -> dict:
        """The scenario as a JSON record: each block is its record's fields, except that ``solver``
        leaves out its window, a block of its own, and ``max_iter``, which scenarios do not set."""
        record = {"name": self.name, "distribution": self.distribution.to_spec(),
                  "price_window": self.solver.price_window._asdict()}
        for name in self._fields[2:]:
            if getattr(self, name) is not None:
                record[name] = getattr(self, name)._asdict()
        del record["solver"]["price_window"], record["solver"]["max_iter"]
        return record

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _require(record: dict, key: str) -> object:
    if key not in record:
        raise ScenarioError(f"scenario is missing required field {key!r}")
    return record[key]


def _csv_text(value: object, what: str) -> str:
    """value as text that a CSV field carries raw: a JSON string with no comma, double quote or line break."""
    if not isinstance(value, str):
        raise ScenarioError(f"{what} must be a JSON string, got {value!r}")
    if any(c in value for c in ',"\r\n'):
        raise ScenarioError(f"{what} {value!r} holds a comma, a double quote or a line break")
    return value


def _check_sweep(sweep: SweepAxis, blocks: dict) -> SweepAxis:
    if sweep.param not in SWEEP_PARAMS:
        raise ScenarioError(f"unknown sweep parameter {sweep.param!r}; expected one of {tuple(SWEEP_PARAMS)}")
    if not sweep.grid or not all(math.isfinite(g) for g in sweep.grid):
        raise ScenarioError("sweep grid must be nonempty and finite")
    if any(b <= a for a, b in zip(sweep.grid, sweep.grid[1:])):
        raise ScenarioError("sweep grid must be strictly increasing")
    swept = blocks.get(SWEEP_PARAMS[sweep.param])
    if swept is None:
        raise ScenarioError(f"sweep over {sweep.param!r} needs a base contract block")
    for g in sweep.grid:  # each swept record once, so an out-of-domain value is a scenario error
        swept._replace(**{sweep.param: g})
    return sweep


def from_dict(record: dict) -> Scenario:
    try:
        window = from_fields(PriceWindow, _require(record, "price_window"))
        given = {**record, "attention": _require(record, "attention"),
                 "solver": {**record.get("solver", {}), "price_window": window, "max_iter": SolverConfig.max_iter}}
        blocks = {key: from_fields(cls, given[key]) for key, cls in _RECORDS.items() if key in given}
        if "signup" in given:
            from .paid import SignupModel
            blocks["signup"] = from_fields(SignupModel, given["signup"])
        if "shock" in given:
            from .policy import PolicyShock
            blocks["shock"] = from_fields(PolicyShock, given["shock"])
            _csv_text(blocks["shock"].label, "shock label")
        if "mixture" in record:
            from .heterogeneity import AttentionMixture
            atoms = tuple((number(lam), number(w)) for lam, w in record["mixture"]["atoms"])
            blocks["mixture"] = from_fields(AttentionMixture, {**record["mixture"], "atoms": atoms})
        if "sweep" in record:
            grid = tuple(map(number, record["sweep"]["grid"]))
            blocks["sweep"] = _check_sweep(from_fields(SweepAxis, {**record["sweep"], "grid": grid}), blocks)
        return Scenario(name=_csv_text(_require(record, "name"), "scenario name"),
                        distribution=from_spec(_require(record, "distribution")), **blocks)
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
    except ValueError as exc:  # a JSONDecodeError, or an integer with too many digits to convert
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return from_dict(record)
