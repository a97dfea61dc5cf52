"""The package's two kinds of record.

Input records are frozen dataclasses: validated when built, read from a scenario block by
``from_fields``, written by ``asdict`` and changed with ``replace``.  Result records are named
tuples: the package returns them and never parses, validates or writes them to a scenario, so
they use ``_asdict``/``_replace``, compare as tuples, and keep the ``Name(field=value, ...)``
repr of a dataclass, which the decision digest hashes."""

import dataclasses
import sys
from pathlib import Path

import pytest

from subtrial import scenario as scenario_mod
from subtrial.consumer import AttentionParams, MonitoringSolution, cost_slope, effective_lambda, trial_terms
from subtrial.distributions import (IfrReport, PiecewiseIsoElastic, PriceWindow, TruncatedWeibull, Uniform,
                                    from_fields)
from subtrial.heterogeneity import AttentionMixture
from subtrial.market import (Contract, MarketOutcome, _utility, cancel_mass, profit, standard_revenue,
                             surplus_integral)
from subtrial.paid import PaidTrialOptimum, SignupModel
from subtrial.policy import BetaCurve, BetaCurvePoint, ComparativeStaticsReport, PolicyShock
from subtrial.scenario import Scenario, SweepAxis
from subtrial.solver import OptimalContract, PriceSolution, SolverConfig, TrialSolution
from subtrial.verify import CheckResult

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded contract draws)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

OUTCOME = MarketOutcome(0.25, 0.0625, 0.3125, 0.1, 0.002, 0.875, 4.0)
OUTCOME_REPR = ("MarketOutcome(standard_revenue=0.25, inattentive_revenue=0.0625, profit=0.3125, utility=0.1, "
                "ir_slack=0.002, q_star=0.875, lambda_eff=4.0)")
OPTIMUM = OptimalContract(Contract(T=3.0, P=0.5), OUTCOME, (1e-12, -2e-11), frozenset({"T_at_zero"}), True)
OPTIMUM_REPR = (f"OptimalContract(contract=Contract(T=3.0, P=0.5, P0=0.0), outcome={OUTCOME_REPR}, "
                "foc_residuals=(1e-12, -2e-11), boundary_flags=frozenset({'T_at_zero'}), participation_satisfied=True)")
POINT = BetaCurvePoint(0.5, 0.3, 2.0, 0.6)
POINT_REPR = "BetaCurvePoint(beta=0.5, profit=0.3, T_star=2.0, P_star=0.6)"

# one fixed instance of each result record, and its repr in the dataclass format
RESULTS = [
    (MonitoringSolution(0.75, 0.1, -0.05, 0.125),
     "MonitoringSolution(q_star=0.75, objective_value=0.1, entropy_cost=-0.05, expected_loss=0.125)"),
    (IfrReport(False, 0.35, 64), "IfrReport(is_ifr=False, first_violation=0.35, grid_n=64)"),
    (OUTCOME, OUTCOME_REPR),
    (PriceSolution(0.5, 1e-12, (0.25, 0.5)), "PriceSolution(price=0.5, residual=1e-12, roots=(0.25, 0.5))"),
    (TrialSolution(0.0, -2e-11, True), "TrialSolution(T=0.0, residual=-2e-11, at_zero=True)"),
    (OPTIMUM, OPTIMUM_REPR),
    (ComparativeStaticsReport(OPTIMUM, OPTIMUM, -1.5, 0.25, None, None, False),
     f"ComparativeStaticsReport(baseline={OPTIMUM_REPR}, shocked={OPTIMUM_REPR}, dT_dGamma=-1.5, "
     "dP_dGamma=0.25, epsilon_used=None, sign_rule_holds=None, baseline_interior=False)"),
    (POINT, POINT_REPR),
    (BetaCurve((POINT,), 0.5, False), f"BetaCurve(points=({POINT_REPR},), argmax_beta=0.5, interior_max=False)"),
    (PaidTrialOptimum(Contract(T=3.0, P=0.5, P0=0.1), 0.3, 0.8, 0.32, "interior"),
     "PaidTrialOptimum(contract=Contract(T=3.0, P=0.5, P0=0.1), p_aug=0.3, signup_rate=0.8, profit=0.32, "
     "corner='interior', capped=False)"),
    (CheckResult("market", "profit_decomposition", True, "|err| 0.00e+00"),
     "CheckResult(module='market', name='profit_decomposition', ok=True, detail='|err| 0.00e+00')"),
]

# one sample of each input record
INPUTS = [
    AttentionParams(20.0, 0.5, 1.5),
    PriceWindow(0.05, 0.95),
    Uniform(0.1, 0.9),
    PiecewiseIsoElastic(0.3, 0.5, 0.6),
    TruncatedWeibull(2.0, 0.5),
    Contract(T=4.0, P=0.5, P0=0.1),
    SolverConfig(price_window=PriceWindow(0.1, 0.9), t_max=100.0, participation_mode="binding_ir"),
    AttentionMixture(((2.0, 0.25), (8.0, 0.75))),
    SignupModel(0.1, 0.5, 1.0),
    PolicyShock(2.0, "click_to_cancel"),
    SweepAxis("lambda0", (1.0, 2.0)),
    scenario_mod.load(SCENARIOS / "paid_trial.json"),
]


def ids(records) -> list[str]:
    return [type(r).__name__ for r in records]


def test_each_record_kind_is_listed_once():
    assert len({type(r) for r, _ in RESULTS}) == len(RESULTS) == 11
    assert len({type(r) for r in INPUTS}) == len(INPUTS) == 12
    assert type(INPUTS[-1]) is Scenario


class TestResultRecords:
    @pytest.mark.parametrize("record,text", RESULTS, ids=ids(r for r, _ in RESULTS))
    def test_a_tuple_not_a_dataclass(self, record, text):
        assert isinstance(record, tuple)
        assert not dataclasses.is_dataclass(record)

    @pytest.mark.parametrize("record,text", RESULTS, ids=ids(r for r, _ in RESULTS))
    def test_fields_cannot_be_assigned(self, record, text):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)

    @pytest.mark.parametrize("record,text", RESULTS, ids=ids(r for r, _ in RESULTS))
    def test_hashable_and_equal_to_its_rebuild(self, record, text):
        rebuilt = type(record)(**record._asdict())
        assert rebuilt == record and hash(rebuilt) == hash(record)

    @pytest.mark.parametrize("record,text", RESULTS, ids=ids(r for r, _ in RESULTS))
    def test_repr_is_the_dataclass_format(self, record, text):
        assert repr(record) == text

    def test_kept_property_and_default(self):
        assert not OPTIMUM.is_interior and OPTIMUM._replace(boundary_flags=frozenset()).is_interior
        assert PaidTrialOptimum(Contract(T=0.0, P=0.5), 0.3, 1.0, 0.3, "p0_zero").capped is False


class TestInputRecords:
    @pytest.mark.parametrize("record", INPUTS, ids=ids(INPUTS))
    def test_from_fields_reads_back_its_fields(self, record):
        # one level deep: asdict would also turn a nested record, such as a solver's window, into a dict
        fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        if not any(dataclasses.is_dataclass(v) for v in fields.values()):
            assert fields == dataclasses.asdict(record)
        assert from_fields(type(record), fields) == record


def test_profit_builds_the_keyword_record():
    """Positional construction in field order, against each field computed on its own and named."""
    draws = workloads.ContractEval().build(3)[:600]
    assert {x.family for x in draws} == {"uniform", "iso_elastic", "trunc_weibull"}
    for x in draws:
        dist, params, contract = x.dist, x.params, x.contract
        P, lam = contract.P, effective_lambda(params, contract.T)
        terms, mass = trial_terms(lam * P), cancel_mass(dist, P)
        expected = MarketOutcome(
            standard_revenue=standard_revenue(dist, contract),
            inattentive_revenue=P * mass * terms[2],
            profit=standard_revenue(dist, contract) + P * mass * terms[2],
            utility=_utility(surplus_integral(dist, P), mass, P, lam, terms),
            ir_slack=cost_slope(params) * terms[1] * mass,
            q_star=terms[0],
            lambda_eff=lam,
        )
        assert profit(dist, params, contract) == expected, x
