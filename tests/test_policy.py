"""Attention-shock counterfactuals, decay-rate sweeps, reminder limit."""

import numpy as np
import pytest

from subtrial.consumer import AttentionParams, effective_lambda, optimal_q
from subtrial.distributions import PiecewiseIsoElastic, PriceWindow, Uniform
from subtrial.exceptions import DomainError
from subtrial.market import Contract, inattentive_revenue, consumer_utility
from subtrial.policy import (
    PolicyShock,
    apply_shock,
    beta_profit_curve,
    click_to_cancel_statics,
    mandatory_reminder_limit,
)
from subtrial.solver import SolverConfig, joint_optimum

U01 = Uniform()
CFG = SolverConfig()
ISO = PiecewiseIsoElastic(kappa=0.05, eps=0.4, v0=0.2)
ISO_CFG = SolverConfig(price_window=PriceWindow(0.25, 0.9))


class TestApplyShock:
    def test_identity_shock(self):
        params = AttentionParams(2.0, 1.0)
        assert apply_shock(params, PolicyShock(gamma=1.0)) == params

    def test_scales_effective_sensitivity_everywhere(self):
        params = AttentionParams(2.0, 1.0)
        shocked = apply_shock(params, PolicyShock(gamma=2.0))
        for T in [0.0, 1.0, 7.0, 50.0]:
            assert effective_lambda(shocked, T) == pytest.approx(
                2.0 * effective_lambda(params, T), rel=1e-15
            )
        assert effective_lambda(shocked, 1.0) == pytest.approx(2.0)

    def test_monitoring_improves_everywhere(self):
        params = AttentionParams(2.0, 1.0)
        shocked = apply_shock(params, PolicyShock(gamma=10.0))
        for P in [0.2, 0.5, 0.9]:
            for T in [0.0, 3.0, 20.0]:
                q0 = optimal_q(P, effective_lambda(params, T)).q_star
                q1 = optimal_q(P, effective_lambda(shocked, T)).q_star
                assert q1 > q0

    def test_rejects_weakening(self):
        with pytest.raises(DomainError):
            PolicyShock(gamma=0.5)

    def test_shocks_compose(self):
        params = AttentionParams(2.0, 1.0, gamma=1.5)
        shocked = apply_shock(params, PolicyShock(gamma=2.0))
        assert shocked.gamma == pytest.approx(3.0)


class TestClickToCancelStatics:
    def test_unit_shock_changes_nothing(self):
        report = click_to_cancel_statics(U01, AttentionParams(2.0, 0.5), PolicyShock(1.0), CFG)
        assert report.shocked.contract == report.baseline.contract

    def test_uniform_family_has_no_sign_rule(self):
        report = click_to_cancel_statics(U01, AttentionParams(2.0, 0.5), PolicyShock(2.0), CFG)
        assert report.epsilon_used is None
        assert report.sign_rule_holds is None

    def test_corner_baseline_price_falls_with_boost(self):
        # at a zero-trial optimum the boost raises q*, shrinks the
        # inattentive margin, and pulls the best-response price down
        report = click_to_cancel_statics(
            ISO, AttentionParams(3.0, 0.5), PolicyShock(2.0), ISO_CFG
        )
        assert not report.baseline_interior
        assert report.dP_dGamma < 0.0
        assert report.epsilon_used == pytest.approx(0.4)
        assert report.sign_rule_holds is False

    def test_interior_baseline_trial_rises_price_pinned(self):
        # the interior condition pair is invariant to gamma, so the price
        # stays put and the trial stretches by the boost factor
        params = AttentionParams(20.0, 0.5)
        report = click_to_cancel_statics(U01, params, PolicyShock(2.0), CFG)
        assert report.baseline_interior
        assert report.dT_dGamma > 0.0
        assert abs(report.dP_dGamma) < 1e-6
        assert report.shocked.contract.T > report.baseline.contract.T

    def test_static_dominance_through_policy_path(self):
        # fixed-contract directions survive end to end
        params = AttentionParams(2.0, 0.5)
        shocked = apply_shock(params, PolicyShock(2.0))
        for contract in [Contract(T=0.0, P=0.4), Contract(T=10.0, P=0.7)]:
            assert consumer_utility(U01, shocked, contract) >= consumer_utility(
                U01, params, contract
            )
            assert inattentive_revenue(U01, shocked, contract) <= inattentive_revenue(
                U01, params, contract
            )


class TestBetaProfitCurve:
    GRID = list(np.logspace(-2, 2, 13))

    def test_validates_grid(self):
        with pytest.raises(DomainError):
            beta_profit_curve(U01, AttentionParams(2.0, 0.5), [0.1, 1.0, 10.0], CFG)
        with pytest.raises(DomainError):
            beta_profit_curve(U01, AttentionParams(2.0, 0.5), list(np.linspace(0.1, 1, 12)), CFG)

    def test_corner_regime_curve_is_flat(self):
        # with the trial pinned at zero the decay rate never enters
        curve = beta_profit_curve(U01, AttentionParams(2.0, 0.5), self.GRID, CFG)
        profits = [p.profit for p in curve.points]
        assert max(profits) - min(profits) < 1e-12
        assert not curve.interior_max

    def test_interior_regime_curve_is_flat_too(self):
        # the decay rate only rescales the trial axis: T* absorbs it exactly
        curve = beta_profit_curve(U01, AttentionParams(20.0, 0.5), self.GRID, CFG)
        profits = [p.profit for p in curve.points]
        assert max(profits) - min(profits) < 1e-9
        ts = [p.T_star for p in curve.points]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        assert not curve.interior_max


class TestMandatoryReminderLimit:
    def test_uniform_collapses_to_textbook_monopoly(self):
        opt = mandatory_reminder_limit(U01, CFG)
        assert opt.contract.T == 0.0
        assert opt.contract.P == pytest.approx(0.5, abs=1e-6)
        assert opt.outcome.profit == pytest.approx(0.25, abs=1e-9)
        assert opt.outcome.inattentive_revenue == 0.0

    def test_matches_joint_solve_at_huge_sensitivity(self):
        limit = mandatory_reminder_limit(U01, CFG)
        near = joint_optimum(U01, AttentionParams(1e4, 0.0), CFG)
        assert near.contract.P == pytest.approx(limit.contract.P, abs=1e-4)
        assert near.outcome.profit == pytest.approx(limit.outcome.profit, abs=1e-4)

    def test_iso_elastic_rides_to_window_edge(self):
        # inelastic demand from happy subscribers: revenue rises with price
        opt = mandatory_reminder_limit(ISO, ISO_CFG)
        assert opt.contract.P == pytest.approx(ISO_CFG.price_window.p_hi, abs=1e-5)
        assert "P_at_window_edge" in opt.boundary_flags

    def test_edge_flag_means_the_exact_window_end(self):
        assert mandatory_reminder_limit(ISO, ISO_CFG).contract.P == ISO_CFG.price_window.p_hi
        interior = mandatory_reminder_limit(U01, CFG)
        assert CFG.price_window.p_lo < interior.contract.P < CFG.price_window.p_hi
        assert "P_at_window_edge" not in interior.boundary_flags
