"""The package's records and their one protocol.

Every record, input or result, answers the named tuple's three names: ``_fields``, ``_asdict``
and ``_replace``.  Result records are named tuples: the package returns them and never parses,
validates or writes them to a scenario.  Input records are frozen ``Record``s: validated when
built and again by ``_replace``, read from a scenario block by ``from_fields`` and written from
``_asdict``.  Both kinds compare and hash by class and fields, refuse assignment, and keep the
``Name(field=value, ...)`` repr of a dataclass, which the decision digest hashes and error
messages embed."""

import dataclasses
import functools
import sys
from pathlib import Path

import pytest

from subtrial import scenario as scenario_mod
from subtrial.consumer import AttentionParams, MonitoringSolution, cost_slope, effective_lambda, trial_terms
from subtrial.distributions import (IfrReport, PiecewiseIsoElastic, PriceWindow, TruncatedWeibull, Uniform,
                                    check_ifr, from_fields)
from subtrial.exceptions import DomainError
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

# one sample of each input record, its repr, a valid change, and a change that its check refuses (None: it
# has no check)
WINDOW_REPR = "PriceWindow(p_lo=0.1, p_hi=0.9)"
INPUTS = [
    (AttentionParams(20.0, 0.5, 1.5), "AttentionParams(lambda0=20.0, beta=0.5, gamma=1.5)", {"beta": 0.0},
     {"lambda0": -1.0}),
    (PriceWindow(0.1, 0.9), WINDOW_REPR, {"p_hi": 0.8}, {"p_lo": 0.95}),
    (Uniform(0.1, 0.9), "Uniform(a=0.1, b=0.9)", {"a": 0.0}, {"a": 0.95}),
    (PiecewiseIsoElastic(0.3, 0.5, 0.6), "PiecewiseIsoElastic(kappa=0.3, eps=0.5, v0=0.6)", {"kappa": 0.2},
     {"eps": 1.5}),
    (TruncatedWeibull(2.0, 0.5), "TruncatedWeibull(k=2.0, s=0.5)", {"s": 0.3}, {"k": 0.5}),
    (Contract(T=4.0, P=0.5, P0=0.1), "Contract(T=4.0, P=0.5, P0=0.1)", {"T": 0.0}, {"P": 2.0}),
    (SolverConfig(price_window=PriceWindow(0.1, 0.9), t_max=100.0, participation_mode="binding_ir"),
     f"SolverConfig(price_window={WINDOW_REPR}, t_max=100.0, bracket_grid=256, root_tol=1e-10, opt_tol=1e-09, "
     "participation_mode='binding_ir', max_iter=200)", {"participation_mode": "report_only"},
     {"bracket_grid": 0}),
    (AttentionMixture(((2.0, 0.25), (8.0, 0.75))), "AttentionMixture(atoms=((2.0, 0.25), (8.0, 0.75)))",
     {"atoms": ((2.0, 1.0),)}, {"atoms": ((2.0, 0.5),)}),
    (SignupModel(0.1, 0.5, 1.0), "SignupModel(alpha=0.1, theta=0.5, cap=1.0)", {"cap": 0.5}, {"alpha": -1.0}),
    (PolicyShock(2.0, "click_to_cancel"), "PolicyShock(gamma=2.0, label='click_to_cancel')", {"label": ""},
     {"gamma": 0.5}),
    (SweepAxis("lambda0", (1.0, 2.0)), "SweepAxis(param='lambda0', grid=(1.0, 2.0))", {"param": "beta"}, None),
    (scenario_mod.load(SCENARIOS / "paid_trial.json"),
     "Scenario(name='paid_trial', distribution=Uniform(a=0.0, b=1.0), attention=AttentionParams(lambda0=20.0, "
     "beta=0.5, gamma=1.0), solver=SolverConfig(price_window=PriceWindow(p_lo=0.05, p_hi=0.95), t_max=365.0, "
     "bracket_grid=256, root_tol=1e-10, opt_tol=1e-09, participation_mode='report_only', max_iter=200), "
     "contract=Contract(T=4.0, P=0.5, P0=0.1), signup=SignupModel(alpha=0.1, theta=0.5, cap=1.0), mixture=None, "
     "shock=None, sweep=None)", {"name": "paid"}, None),
]
RECORDS = [r for r, *_ in INPUTS]


def ids(records) -> list[str]:
    return [type(r).__name__ for r in records]


def test_each_record_kind_is_listed_once():
    assert len({type(r) for r, _ in RESULTS}) == len(RESULTS) == 11
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 12
    assert type(RECORDS[-1]) is Scenario


@pytest.mark.parametrize("record", [r for r, _ in RESULTS] + RECORDS, ids=ids([r for r, _ in RESULTS] + RECORDS))
def test_every_record_answers_the_named_tuple_protocol(record):
    assert record._fields == type(record)._fields and tuple(record._asdict()) == record._fields
    assert record._replace() == record
    assert not dataclasses.is_dataclass(record)


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
    @pytest.mark.parametrize("record,text,good,bad", INPUTS, ids=ids(RECORDS))
    def test_repr_is_the_dataclass_format(self, record, text, good, bad):
        assert repr(record) == text

    @pytest.mark.parametrize("record,text,good,bad", INPUTS, ids=ids(RECORDS))
    def test_equal_and_hashed_by_class_and_fields(self, record, text, good, bad):
        values = tuple(getattr(record, f) for f in record._fields)
        rebuilt = type(record)(*values)
        assert rebuilt is not record and rebuilt == record and hash(rebuilt) == hash(record) == hash(values)
        assert record != values and record != type("Subclass", (type(record),), {})(*values)
        changed = record._replace(**good)
        assert changed != record and changed == type(record)(**{**record._asdict(), **good})

    @pytest.mark.parametrize("record,text,good,bad", INPUTS, ids=ids(RECORDS))
    def test_fields_cannot_be_assigned_or_deleted(self, record, text, good, bad):
        for name in (record._fields[0], "new_attribute"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, record._fields[0])
        assert repr(record) == text

    @pytest.mark.parametrize("record,text,good,bad", INPUTS, ids=ids(RECORDS))
    def test_replace_builds_and_checks_again(self, record, text, good, bad):
        if bad is not None:
            with pytest.raises((DomainError, ValueError)):
                record._replace(**bad)
        with pytest.raises(TypeError, match="no_such_field"):
            record._replace(no_such_field=1.0)
        assert record._replace(**record._asdict()) == record

    @pytest.mark.parametrize("record,text,good,bad", INPUTS, ids=ids(RECORDS))
    def test_from_fields_reads_back_its_fields(self, record, text, good, bad):
        fields = record._asdict()  # one level deep: a solver's window stays a record
        assert list(fields) == list(record._fields) == list(type(record)._types)
        assert fields == {f: getattr(record, f) for f in record._fields}
        assert from_fields(type(record), fields) == record

    def test_arguments_bind_as_a_dataclass_init_binds_them(self):
        assert Contract(1.0, 0.5) == Contract(T=1.0, P=0.5, P0=0.0) == Contract(1.0, P=0.5)
        for args, kwargs, message in [((0.1,), {}, "missing required argument 'p_hi'"),
                                      ((0.1, 0.9, 0.5), {}, "takes 2 arguments but 3 were given"),
                                      ((0.1, 0.9), {"p_mid": 0.5}, "'p_mid'")]:
            with pytest.raises(TypeError, match=message):
                PriceWindow(*args, **kwargs)

    def test_defaults_are_shared_class_values(self):
        assert SolverConfig().price_window is SolverConfig().price_window == PriceWindow(0.05, 0.95)
        assert SolverConfig.max_iter == SolverConfig().max_iter == 200

    def test_an_equal_distinct_distribution_hits_a_cache(self):
        cached = functools.cache(check_ifr)
        first = cached(Uniform(0.1, 0.9), PriceWindow(0.05, 0.95))
        assert cached(Uniform(0.1, 0.9), PriceWindow(0.05, 0.95)) is first
        assert cached.cache_info().hits == 1 and cached.cache_info().misses == 1


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
