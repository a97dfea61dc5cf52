"""Paid-trial extension: sign-up technology, intro-price rule, substitutes."""

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import joint_by_grid
from subtrial.consumer import AttentionParams
from subtrial.distributions import Uniform
from subtrial.exceptions import CappedBranchError, DomainError
from subtrial.market import Contract, profit
from subtrial.paid import (
    SignupModel,
    cross_partial_check,
    intro_price_foc,
    joint_paid_optimum,
    optimal_intro_price,
    p_aug,
    profit_paid,
    signup_rate,
)
from subtrial.solver import SolverConfig, joint_optimum, solve_price

U01 = Uniform()
CFG = SolverConfig()
MODEL = SignupModel(alpha=0.1, theta=0.5)
INTERIOR = AttentionParams(lambda0=20.0, beta=0.5)


class TestSignupRate:
    def test_free_trial_reaches_whole_market(self):
        assert signup_rate(MODEL, 0.0) == 1.0

    def test_uncapped_arithmetic(self):
        assert signup_rate(MODEL, 0.04) == pytest.approx(0.5)

    def test_cap_binds_near_zero(self):
        assert signup_rate(MODEL, 1e-6) == 1.0
        assert MODEL.cap_edge() == pytest.approx(0.01)

    def test_constant_elasticity_on_uncapped_branch(self):
        h = 1e-7
        for P0 in [0.05, 0.2, 0.6]:
            slope = (signup_rate(MODEL, P0 + h) - signup_rate(MODEL, P0 - h)) / (2 * h)
            elasticity = -slope * P0 / signup_rate(MODEL, P0)
            assert elasticity == pytest.approx(MODEL.theta, rel=1e-6)


class TestPAug:
    def test_equals_free_trial_profit(self):
        params = AttentionParams(2.0, 0.5)
        for T, P in [(0.0, 0.5), (4.0, 0.7)]:
            assert p_aug(U01, params, T, P) == pytest.approx(
                profit(U01, params, Contract(T=T, P=P)).profit, abs=1e-15
            )

    def test_increasing_in_trial_length(self):
        params = AttentionParams(2.0, 0.5)
        values = [p_aug(U01, params, t, 0.5) for t in np.linspace(0.0, 30.0, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_full_attention_value(self):
        assert p_aug(U01, AttentionParams(1e6, 0.0), 0.0, 0.5) == pytest.approx(0.25, abs=1e-9)


class TestIntroPriceFoc:
    def test_root_matches_closed_form(self):
        aug = 0.3
        root = brentq(lambda p0: intro_price_foc(MODEL, p0, aug), 0.05, 5.0, xtol=1e-13)
        closed, corner = optimal_intro_price(MODEL, aug)
        assert corner == "interior"
        assert closed == pytest.approx(root, abs=1e-9)

    def test_matches_profit_slope(self):
        params = AttentionParams(2.0, 0.5)
        h = 1e-6
        for P0 in [0.05, 0.2, 0.5]:
            contract = Contract(T=2.0, P=0.5, P0=P0)
            aug = p_aug(U01, params, 2.0, 0.5)
            fd = (
                profit_paid(U01, params, MODEL, Contract(T=2.0, P=0.5, P0=P0 + h)).profit
                - profit_paid(U01, params, MODEL, Contract(T=2.0, P=0.5, P0=P0 - h)).profit
            ) / (2 * h)
            assert intro_price_foc(MODEL, P0, aug) == pytest.approx(fd, rel=1e-5)

    def test_capped_branch_is_rejected(self):
        with pytest.raises(CappedBranchError):
            intro_price_foc(MODEL, 0.005, 0.3)


class TestOptimalIntroPrice:
    @pytest.mark.parametrize(
        "theta,aug,expected", [(0.5, 0.3, 0.3), (0.25, 0.3, 0.1), (0.5, 0.0, 0.0)]
    )
    def test_closed_form_values(self, theta, aug, expected):
        model = SignupModel(alpha=0.1, theta=theta)
        value, corner = optimal_intro_price(model, aug)
        assert value == pytest.approx(expected, abs=1e-15)
        assert corner == "interior"

    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0])
    def test_elastic_signups_force_free_trial(self, theta):
        value, corner = optimal_intro_price(SignupModel(alpha=0.1, theta=theta), 0.3)
        assert value == 0.0
        assert corner == "p0_zero"

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_agrees_with_foc_root_across_elasticities(self, theta):
        model = SignupModel(alpha=0.1, theta=theta)
        aug = 0.26
        closed, _ = optimal_intro_price(model, aug)
        root = brentq(
            lambda p0: intro_price_foc(model, p0, aug), model.cap_edge() * 1.001, 50.0, xtol=1e-13
        )
        assert closed == pytest.approx(root, abs=1e-9)


class TestProfitPaid:
    def test_free_trial_reduces_to_baseline(self):
        params = AttentionParams(2.0, 0.5)
        contract = Contract(T=2.0, P=0.5, P0=0.0)
        result = profit_paid(U01, params, MODEL, contract)
        assert result.profit == pytest.approx(
            MODEL.cap * profit(U01, params, Contract(T=2.0, P=0.5)).profit
        )
        assert result.corner == "p0_zero"

    def test_identity_at_the_optimum(self):
        params = AttentionParams(2.0, 0.5)
        aug = p_aug(U01, params, 2.0, 0.5)
        p0, _ = optimal_intro_price(MODEL, aug)
        result = profit_paid(U01, params, MODEL, Contract(T=2.0, P=0.5, P0=p0))
        # theta = 0.5 puts the intro fee equal to the per-subscriber profit
        assert result.profit == pytest.approx(result.signup_rate * 2.0 * aug, rel=1e-12)

    def test_stationary_point_shape(self):
        # the closed-form fee is the stationary point of the uncapped
        # branch: profit falls into it from the cap edge and rises beyond
        # it without bound (constant sign-up elasticity below one)
        params = AttentionParams(2.0, 0.5)
        aug = p_aug(U01, params, 2.0, 0.5)
        p0, _ = optimal_intro_price(MODEL, aug)

        def pi(x):
            return profit_paid(U01, params, MODEL, Contract(T=2.0, P=0.5, P0=x)).profit

        before = [pi(p0 * k) for k in (0.2, 0.5, 0.8, 1.0)]
        after = [pi(p0 * k) for k in (1.0, 1.4, 2.0, 3.0)]
        assert all(b < a for a, b in zip(before, before[1:]))
        assert all(b > a for a, b in zip(after, after[1:]))

    def test_bookkeeping_identity(self):
        params = AttentionParams(2.0, 0.5)
        result = profit_paid(U01, params, MODEL, Contract(T=3.0, P=0.6, P0=0.2))
        assert result.profit == pytest.approx(
            result.signup_rate * (0.2 + result.p_aug), abs=1e-12
        )


class TestCrossPartial:
    def test_zero_without_decay(self):
        params = AttentionParams(2.0, 0.0)
        assert cross_partial_check(U01, params, MODEL, Contract(T=1.0, P=0.5, P0=0.2)) == 0.0

    def test_zero_on_capped_branch(self):
        params = AttentionParams(2.0, 0.5)
        assert cross_partial_check(U01, params, MODEL, Contract(T=1.0, P=0.5, P0=0.005)) == 0.0

    def test_negative_and_matches_mixed_difference(self):
        params = AttentionParams(2.0, 0.5)
        h = 1e-4
        for T, P, P0 in [(1.0, 0.5, 0.2), (5.0, 0.7, 0.35), (0.5, 0.3, 0.05)]:
            value = cross_partial_check(U01, params, MODEL, Contract(T=T, P=P, P0=P0))
            assert value < 0.0

            def pi(t, p0):
                return profit_paid(U01, params, MODEL, Contract(T=t, P=P, P0=p0)).profit

            mixed = (
                pi(T + h, P0 + h) - pi(T + h, P0 - h) - pi(T - h, P0 + h) + pi(T - h, P0 - h)
            ) / (4 * h * h)
            assert value == pytest.approx(mixed, rel=1e-3)

    def test_negative_where_q_rounds_to_one(self):
        # x = lam P = 50: the slope q* (1 - q*) would round to 0 and give -0.0
        import mpmath

        value = cross_partial_check(U01, AttentionParams(100.0, 0.5), MODEL, Contract(T=0.0, P=0.5, P0=0.2))
        with mpmath.workdps(50):
            P, lam0, beta, P0 = mpmath.mpf("0.5"), mpmath.mpf(100), mpmath.mpf("0.5"), mpmath.mpf("0.2")
            dq_dT = -P / (2 + mpmath.exp(lam0 * P) + mpmath.exp(-lam0 * P)) * beta * lam0  # at T = 0
            signup_slope = -MODEL.alpha * MODEL.theta * P0 ** (-MODEL.theta - 1)
            exact = signup_slope * P * U01.cdf(0.5) * -dq_dT
        assert value < 0.0
        assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)


class TestJointPaidOptimum:
    def test_elastic_signups_recover_free_trial(self):
        model = SignupModel(alpha=0.1, theta=1.5)
        opt = joint_paid_optimum(U01, INTERIOR, model, CFG)
        free = joint_optimum(U01, INTERIOR, CFG)
        assert opt.corner == "p0_zero"
        assert opt.contract.P0 == 0.0
        assert opt.contract.T == pytest.approx(free.contract.T, abs=1e-8)
        assert opt.contract.P == pytest.approx(free.contract.P, abs=1e-10)

    def test_interior_triple_matches_grid_oracle(self):
        # (T, P) against the pure-grid condition solve; the fee against a
        # bisection on the finite-difference slope of the paid profit
        opt = joint_paid_optimum(U01, INTERIOR, MODEL, CFG)
        assert opt.corner == "interior"
        T_or, P_or = joint_by_grid(U01, INTERIOR, CFG)
        aug_or = p_aug(U01, INTERIOR, T_or, P_or)
        h = 1e-7

        def slope(x):
            hi = profit_paid(U01, INTERIOR, MODEL, Contract(T=T_or, P=P_or, P0=x + h)).profit
            lo = profit_paid(U01, INTERIOR, MODEL, Contract(T=T_or, P=P_or, P0=x - h)).profit
            return (hi - lo) / (2 * h)

        p0_or = brentq(slope, MODEL.cap_edge() * 1.05, 5.0, xtol=1e-12)
        oracle_profit = signup_rate(MODEL, p0_or) * (p0_or + aug_or)
        assert opt.contract.T == pytest.approx(T_or, abs=1e-6)
        assert opt.contract.P == pytest.approx(P_or, abs=1e-6)
        assert opt.contract.P0 == pytest.approx(p0_or, abs=1e-6)
        assert opt.profit == pytest.approx(oracle_profit, abs=1e-9)

    def test_trial_is_invariant_to_exogenous_intro_price(self):
        # the sign-up factor multiplies out of the (T, P) conditions, so the
        # re-optimized trial cannot rise with the fee (weak substitutes)
        ts = []
        for P0 in [0.0, 0.05, 0.1, 0.2]:
            free = joint_optimum(U01, INTERIOR, CFG)
            ts.append(free.contract.T)
        assert all(b <= a + 1e-12 for a, b in zip(ts, ts[1:]))

    def test_renewal_price_invariant_to_intro_price(self):
        # the paid-profit slope in P vanishes at the free-trial price root
        # for every intro price level
        T = 4.0
        root = solve_price(U01, INTERIOR, T, CFG).price
        h = 1e-6
        for P0 in [0.0, 0.05, 0.2, 0.6]:
            fd = (
                profit_paid(U01, INTERIOR, MODEL, Contract(T=T, P=root + h, P0=P0)).profit
                - profit_paid(U01, INTERIOR, MODEL, Contract(T=T, P=root - h, P0=P0)).profit
            ) / (2 * h)
            assert abs(fd) < 1e-6

    def test_near_inelastic_signups_charge_small_fee(self):
        # the constant-elasticity rule theta/(1-theta) sends the fee to zero
        # with theta; the trial solve is untouched by the fee
        model = SignupModel(alpha=0.001, theta=0.05)
        opt = joint_paid_optimum(U01, INTERIOR, model, CFG)
        free = joint_optimum(U01, INTERIOR, CFG)
        assert opt.contract.P0 == pytest.approx(opt.p_aug * 0.05 / 0.95, rel=1e-9)
        assert opt.contract.T == pytest.approx(free.contract.T, abs=1e-8)

    def test_capped_closed_form_moves_to_edge(self):
        # alpha large enough that the closed form lands under the cap
        model = SignupModel(alpha=0.9, theta=0.5)
        opt = joint_paid_optimum(U01, INTERIOR, model, CFG)
        assert opt.capped
        assert opt.contract.P0 == pytest.approx(model.cap_edge(), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            SignupModel(alpha=0.0, theta=0.5)

    def test_free_trial_optimum_at_zero_length_keeps_the_fee_as_the_t_zero_corner(self):
        # at lam0 = 2 the free-trial solve sits at T = 0, and inelastic sign-ups still pay a fee
        opt = joint_paid_optimum(U01, AttentionParams(2.0, beta=0.5), MODEL, CFG)
        assert opt.corner == "t_zero"
        assert opt.contract.T == 0.0 and opt.contract.P0 > 0.0
