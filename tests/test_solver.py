"""First-order conditions and the joint contract solver."""

import math

import numpy as np
import pytest
from scipy.optimize import ridder

from oracles import best_price_by_grid, binding_by_grid, joint_by_grid
from subtrial.consumer import AttentionParams, effective_lambda, locus_price, optimal_q
from subtrial.distributions import PiecewiseIsoElastic, PriceWindow, TruncatedWeibull, Uniform, check_ifr, lambda_crit
from subtrial.exceptions import ConvergenceError, MonotonicityError, NoRootError, SingularityError, TrialBoundError
from subtrial.market import Contract, consumer_utility, inattentive_revenue, profit
from subtrial.solver import (
    MAX_BRACKET_GRID,
    P_AT_WINDOW_EDGE,
    SolverConfig,
    T_AT_MAX,
    T_AT_ZERO,
    _polish,
    joint_optimum,
    price_foc,
    price_response_curve,
    solve_price,
    solve_trial,
    trial_foc,
)

U01 = Uniform()
CFG = SolverConfig()
ISO_CURVE = PiecewiseIsoElastic(kappa=0.05, eps=0.4, v0=0.2)
ISO_CFG = SolverConfig(price_window=PriceWindow(0.25, 0.9))

# Smallest baseline sensitivity with an interior trial optimum for uniform
# valuations sits near 5.93; scenarios above and below probe both regimes.
INTERIOR = AttentionParams(lambda0=20.0, beta=0.5)
CORNER = AttentionParams(lambda0=2.0, beta=0.5)


class TestPriceFoc:
    def test_full_attention_reduces_to_monopoly_margin(self):
        params = AttentionParams(1e6, 0.0)
        for P in [0.2, 0.5, 0.8]:
            assert price_foc(U01, params, 0.0, P) == pytest.approx(1.0 - 2.0 * P, abs=1e-6)
        assert abs(price_foc(U01, params, 0.0, 0.5)) < 1e-6

    def test_matches_profit_finite_difference(self):
        h = 1e-6
        for dist in [U01, TruncatedWeibull(k=2.0, s=0.5)]:
            for params in [CORNER, AttentionParams(5.0, 1.0)]:
                for T in [0.0, 3.0]:
                    for P in np.linspace(0.1, 0.9, 9):
                        fd = (
                            profit(dist, params, Contract(T=T, P=P + h)).profit
                            - profit(dist, params, Contract(T=T, P=P - h)).profit
                        ) / (2 * h)
                        assert price_foc(dist, params, T, P) == pytest.approx(fd, rel=1e-5)

    def test_inattentive_terms_vanish_as_q_saturates(self):
        lam_big = AttentionParams(5e3, 0.0)
        residual = price_foc(U01, lam_big, 0.0, 0.3)
        assert residual == pytest.approx(1.0 - 2.0 * 0.3, abs=1e-6)


class TestSolvePrice:
    def test_full_attention_monopoly_price(self):
        params = AttentionParams(50.0, 0.0)
        sol = solve_price(U01, params, 0.0, CFG)
        assert sol.price == pytest.approx(0.5, abs=1e-3)
        assert abs(sol.residual) <= CFG.root_tol * 10

    @pytest.mark.parametrize(
        "dist", [U01, TruncatedWeibull(k=2.0, s=0.5), TruncatedWeibull(k=1.0, s=0.8)]
    )
    def test_unique_sign_change_for_increasing_hazard(self, dist):
        sol = solve_price(dist, CORNER, 0.0, CFG)
        assert check_ifr(dist, CFG.price_window).is_ifr
        assert len(sol.roots) == 1

    def test_profit_max_selected_with_multiple_roots(self):
        # decreasing-hazard tail: pick whichever root earns more
        dist = PiecewiseIsoElastic(kappa=0.1, eps=0.4, v0=0.2)
        params = AttentionParams(5.0, 0.5)
        sol = solve_price(dist, params, 0.0, ISO_CFG)
        assert len(sol.roots) >= 1
        profits = [profit(dist, params, Contract(T=0.0, P=r)).profit for r in sol.roots]
        assert profit(dist, params, Contract(T=0.0, P=sol.price)).profit == pytest.approx(
            max(profits)
        )

    def test_agrees_with_profit_grid_oracle(self):
        sol = solve_price(U01, CORNER, 0.0, CFG)
        oracle = best_price_by_grid(U01, CORNER, 0.0, CFG)
        assert sol.price == pytest.approx(oracle, abs=1e-6)

    def test_no_root_raises(self):
        # strongly inelastic tail: marginal profit stays positive on the window
        dist = PiecewiseIsoElastic(kappa=0.3, eps=0.4, v0=0.2)
        with pytest.raises(NoRootError):
            solve_price(dist, AttentionParams(2.0, 0.5), 0.0, ISO_CFG)

    def test_single_iso_elastic_root_is_window_profit_max(self):
        # small tail weight: one root, and it beats the whole profit grid
        params = AttentionParams(2.5, 0.01)
        sol = solve_price(ISO_CURVE, params, 0.0, ISO_CFG)
        assert len(sol.roots) == 1
        oracle = best_price_by_grid(ISO_CURVE, params, 0.0, ISO_CFG)
        assert sol.price == pytest.approx(oracle, abs=1e-6)


class TestTrialFoc:
    def test_identically_zero_without_decay(self):
        params = AttentionParams(2.0, 0.0)
        for T in [0.0, 5.0, 50.0]:
            assert trial_foc(U01, params, 0.5, T) == 0.0

    def test_large_T_limit_is_negative_slack(self):
        params = AttentionParams(2.0, 0.5)
        limit = -(0.5 / 2.0) * math.log(2.0) * 0.5
        assert trial_foc(U01, params, 0.5, 1e7) == pytest.approx(limit, rel=1e-4)

    def test_terms_match_their_finite_differences(self):
        # first term against d(IR)/dT, second against -dU/dT at frozen q
        params = AttentionParams(3.0, 0.7)
        h = 1e-5
        for T in [0.5, 4.0]:
            for P in [0.3, 0.6]:
                fd_ir = (
                    inattentive_revenue(U01, params, Contract(T=T + h, P=P))
                    - inattentive_revenue(U01, params, Contract(T=T - h, P=P))
                ) / (2 * h)
                q = optimal_q(P, effective_lambda(params, T)).q_star
                fd_slack = -(
                    consumer_utility(U01, params, Contract(T=T + h, P=P), q_override=q)
                    - consumer_utility(U01, params, Contract(T=T - h, P=P), q_override=q)
                ) / (2 * h)
                expected = P * fd_ir - fd_slack
                assert trial_foc(U01, params, P, T) == pytest.approx(expected, rel=1e-4)


class TestSolveTrial:
    def test_no_decay_returns_corner(self):
        sol = solve_trial(U01, AttentionParams(2.0, 0.0), 0.5, CFG)
        assert sol.at_zero and sol.T == 0.0

    def test_weak_attention_returns_corner(self):
        # slack dominates the marginal inattentive gain from the start
        sol = solve_trial(U01, CORNER, 0.5, CFG)
        assert sol.at_zero and sol.T == 0.0
        assert sol.residual < 0.0

    def test_interior_root_is_unique_sign_change(self):
        sol = solve_trial(U01, INTERIOR, 0.49, CFG)
        assert not sol.at_zero
        assert abs(sol.residual) <= 1e-10
        grid = np.linspace(0.0, 40.0, 513)
        signs = [trial_foc(U01, INTERIOR, 0.49, t) > 0 for t in grid]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1
        lo = max(t for t, s in zip(grid, signs) if s)
        assert lo <= sol.T <= lo + grid[1]

    def test_condition_decreasing_across_bracket(self):
        params = AttentionParams(7.0, 0.5)
        sol = solve_trial(U01, params, 0.49, CFG)
        samples = [trial_foc(U01, params, 0.49, t) for t in np.linspace(0.0, 2.0 * sol.T, 9)]
        assert all(b <= a + 1e-12 for a, b in zip(samples, samples[1:]))

    def test_cap_too_small_raises(self):
        # the interior root sits near 4.7 here; a unit cap cannot reach it
        tight = SolverConfig(t_max=1.0)
        with pytest.raises(TrialBoundError):
            solve_trial(U01, INTERIOR, 0.49, tight)


class TestJointOptimum:
    def test_weak_attention_baseline_is_trial_corner(self):
        opt = joint_optimum(U01, CORNER, CFG)
        assert T_AT_ZERO in opt.boundary_flags
        assert opt.contract.T == 0.0
        assert opt.contract.P == pytest.approx(0.577587, abs=1e-5)
        assert abs(opt.foc_residuals[0]) <= CFG.root_tol

    def test_corner_agrees_with_grid_oracle(self):
        opt = joint_optimum(U01, CORNER, CFG)
        T_or, P_or = joint_by_grid(U01, CORNER, CFG)
        assert T_or == 0.0
        assert profit(U01, CORNER, Contract(T=T_or, P=P_or)).profit == pytest.approx(
            opt.outcome.profit, abs=1e-8
        )

    def test_interior_solution_zeroes_both_conditions(self):
        opt = joint_optimum(U01, INTERIOR, CFG)
        assert opt.is_interior
        assert abs(opt.foc_residuals[0]) <= CFG.root_tol
        assert abs(opt.foc_residuals[1]) <= CFG.root_tol
        assert 0.0 < opt.contract.T < CFG.t_max

    def test_interior_matches_grid_refinement_oracle(self):
        opt = joint_optimum(U01, INTERIOR, CFG)
        T_or, P_or = joint_by_grid(U01, INTERIOR, CFG)
        assert opt.contract.T == pytest.approx(T_or, abs=1e-6)
        assert opt.contract.P == pytest.approx(P_or, abs=1e-6)
        assert opt.outcome.profit == pytest.approx(
            profit(U01, INTERIOR, Contract(T=T_or, P=P_or)).profit, abs=1e-8
        )

    def test_effective_sensitivity_pinned_at_interior_optimum(self):
        # the condition pair fixes (lam(T*) P*, P*): lambda0 and beta drop out
        a = joint_optimum(U01, AttentionParams(10.0, 0.5), CFG)
        b = joint_optimum(U01, AttentionParams(20.0, 0.25), CFG)
        assert a.is_interior and b.is_interior
        assert a.contract.P == pytest.approx(b.contract.P, abs=1e-8)
        assert a.outcome.lambda_eff == pytest.approx(b.outcome.lambda_eff, abs=1e-6)

    def test_attention_boost_lengthens_trial_at_interior_optimum(self):
        # cheaper attention shrinks inattentive margins at every T, so the
        # firm restores them by decaying attention further, not less
        base = joint_optimum(U01, INTERIOR, CFG)
        boosted = joint_optimum(U01, AttentionParams(20.0, 0.5, gamma=2.0), CFG)
        assert boosted.contract.T > base.contract.T
        assert boosted.contract.P == pytest.approx(base.contract.P, abs=1e-8)

    def test_report_only_evaluates_participation(self):
        opt = joint_optimum(U01, CORNER, CFG)
        assert opt.participation_satisfied == (opt.outcome.utility >= -1e-12)

    def test_interior_mode_solves_like_report_only(self):
        # both modes run the unconstrained condition solve; only binding_ir
        # changes the problem
        a = joint_optimum(U01, INTERIOR, SolverConfig(participation_mode="interior"))
        b = joint_optimum(U01, INTERIOR, SolverConfig(participation_mode="report_only"))
        assert a.contract == b.contract
        assert a.outcome == b.outcome

    def test_binding_mode_respects_participation(self):
        cfg = SolverConfig(participation_mode="binding_ir")
        opt = joint_optimum(U01, CORNER, cfg)
        assert opt.participation_satisfied
        assert opt.outcome.utility >= -1e-9
        # at the constrained optimum the price is capped by zero utility
        unconstrained = joint_optimum(U01, CORNER, CFG)
        assert opt.contract.P < unconstrained.contract.P

    def test_trial_cap_becomes_boundary_flag(self):
        tight = SolverConfig(t_max=1.0)
        opt = joint_optimum(U01, INTERIOR, tight)
        assert "T_at_max" in opt.boundary_flags
        assert opt.contract.T == 1.0
        assert opt.foc_residuals[1] > 0.0

    def test_competing_root_branches_raise_cycle_error(self):
        # decreasing-hazard tail with two price roots whose profit ranking
        # depends on T: the best-price path jumps between the branches, so g
        # changes sign without a zero and no candidate on the (lambda_eff, P)
        # plane is a fixed point; the solve must say so
        dist = PiecewiseIsoElastic(kappa=0.05, eps=0.4, v0=0.1)
        cfg = SolverConfig(price_window=PriceWindow(0.15, 0.95))
        params = AttentionParams(12.0, 0.5, gamma=1.02)
        with pytest.raises(ConvergenceError):
            joint_optimum(dist, params, cfg)

    def test_no_fixed_point_message_prints_python_floats(self):
        # an iso-elastic benchmark draw whose locus candidates are not best prices at their T;
        # the first candidate's T and P come from polished roots
        dist = PiecewiseIsoElastic(kappa=0.08297784772944099, eps=0.6130647841243463, v0=0.039991350597081726)
        params = AttentionParams(7.249586169418533, 0.07452963681168386, gamma=2.2249785659000656)
        cfg = SolverConfig(price_window=PriceWindow(0.023138806593163492, 0.7613929190492569))
        with pytest.raises(ConvergenceError, match="no fixed point") as err:
            joint_optimum(dist, params, cfg)
        assert "np.float64" not in str(err.value)

    def test_binding_mode_residuals_are_python_floats(self):
        # seed-1 benchmark draw 8: binding_ir's golden-section price is a numpy float
        dist = TruncatedWeibull(k=3.344059072926213, s=0.7158687667737258)
        params = AttentionParams(29.164431722537973, 0.01039908162391296, gamma=2.302832480464871)
        window = PriceWindow(0.17097676744887577, 0.8379235312941549)
        opt = joint_optimum(dist, params, SolverConfig(window, max_iter=40, participation_mode="binding_ir"))
        assert [type(r) for r in opt.foc_residuals] == [float, float]

    def test_binding_mode_rides_profit_to_the_constraint(self):
        # strong attention leaves participation slack at short trials, so the
        # constrained firm extends the trial until utility is exactly spent
        cfg = SolverConfig(participation_mode="binding_ir")
        opt = joint_optimum(U01, INTERIOR, cfg)
        assert opt.contract.T > 0.0
        assert opt.outcome.utility == pytest.approx(0.0, abs=1e-6)
        unconstrained = joint_optimum(U01, INTERIOR, CFG)
        assert opt.outcome.profit >= unconstrained.outcome.profit - 1e-9


BINDING = SolverConfig(participation_mode="binding_ir")
ISO_BINDING = SolverConfig(price_window=PriceWindow(0.25, 0.9), participation_mode="binding_ir")

# Seed-1 reoptimize draws (perfbench.workloads.model_draw) whose prices with
# nonnegative utility at T = 0 do not form an interval starting at p_lo: the
# sign pattern of U(0, P) along the price scan, then the draw.
NON_INTERVAL_DRAWS = [
    (
        "+-+",
        PiecewiseIsoElastic(kappa=0.04737756117818881, eps=0.44637068261543, v0=0.0914217505970818),
        AttentionParams(lambda0=7.790325592857285, beta=0.12043345628667602, gamma=1.0061420008031123),
        PriceWindow(p_lo=0.03845059539607655, p_hi=0.6347165342096067),
    ),
    (
        "+-+",
        PiecewiseIsoElastic(kappa=0.034031675996061814, eps=0.10282549133361313, v0=0.38369695059708187),
        AttentionParams(lambda0=4.228022410341279, beta=0.013709166590433934, gamma=1.9427216771407707),
        PriceWindow(p_lo=0.1076176413678562, p_hi=0.8931713447052335),
    ),
    (
        "-+",
        PiecewiseIsoElastic(kappa=0.03995461320173226, eps=0.602907795860362, v0=0.16417695059708168),
        AttentionParams(lambda0=8.649661058233226, beta=0.01502523459145427, gamma=1.0178055086030833),
        PriceWindow(p_lo=0.18483657627909883, p_hi=0.8156203242970703),
    ),
]


class TestBindingParticipation:
    # binding_ir: at each price the longest trial that leaves utility
    # nonnegative, then the best price; checked against binding_by_grid.

    def test_feasibility_edge_is_returned_exactly_at_t_zero(self):
        opt = joint_optimum(U01, CORNER, BINDING)
        assert opt.contract.T == 0.0
        assert opt.boundary_flags == {T_AT_ZERO}
        assert opt.contract.P == pytest.approx(0.4064688709, abs=1e-7)
        assert opt.outcome.profit == pytest.approx(0.2920172845, abs=1e-9)
        assert abs(opt.outcome.utility) <= 1e-12

    @pytest.mark.parametrize(
        "dist,T,P", [(U01, 13.2408550, 0.4633474200), (TruncatedWeibull(2.0, 0.5), 13.3937346, 0.3504315)]
    )
    def test_interior_point_of_the_zero_utility_locus(self, dist, T, P):
        opt = joint_optimum(dist, INTERIOR, BINDING)
        assert not opt.boundary_flags
        assert opt.contract.T == pytest.approx(T, rel=1e-6)
        assert opt.contract.P == pytest.approx(P, abs=1e-7)
        assert abs(opt.outcome.utility) <= 1e-12
        T_or, P_or, profit_or = binding_by_grid(dist, INTERIOR, BINDING)
        assert opt.outcome.profit >= profit_or - 1e-12
        assert opt.contract.P == pytest.approx(P_or, abs=1e-7)
        assert opt.contract.T == pytest.approx(T_or, rel=1e-6)

    def test_window_edge_beats_the_t_zero_price(self):
        # utility rises with P near p_hi here, so the T = 0 answer at a low
        # price is not the best one; the window edge with a positive trial is
        params = AttentionParams(30.0, 0.5)
        opt = joint_optimum(ISO_CURVE, params, ISO_BINDING)
        assert opt.contract.P == 0.9
        assert opt.boundary_flags == {P_AT_WINDOW_EDGE}
        assert opt.contract.T == pytest.approx(7.16717, rel=1e-6)
        assert opt.outcome.profit >= 0.0492895
        assert opt.outcome.utility >= -1e-12
        assert opt.outcome.profit >= binding_by_grid(ISO_CURVE, params, ISO_BINDING)[2] - 1e-12

    def test_no_feasible_price_raises(self):
        with pytest.raises(ConvergenceError, match=r"\(0\.25, 0\.9\)"):
            joint_optimum(ISO_CURVE, AttentionParams(3.0, 0.5), ISO_BINDING)

    def test_oracle_agrees_where_saturated_attention_leaves_no_price(self):
        # seed-7 reoptimize draw 76: the support lies below the window, so
        # U = -P [sigma(-x) + h(x)/x] < 0 at every price; above P ~ 0.49,
        # x = lam P > 37, where forming 1 - q* would round U up to zero
        dist = Uniform(0.13397429976161268, 0.14442618503985383)
        params = AttentionParams(31.215372406862766, 0.016373536492024547, 2.415361915266385)
        window = PriceWindow(0.2946347910291534, 0.8460715334728932)
        cfg = SolverConfig(price_window=window, participation_mode="binding_ir")
        with pytest.raises(ConvergenceError):
            joint_optimum(dist, params, cfg)
        with pytest.raises(AssertionError, match="no price with nonnegative utility"):
            binding_by_grid(dist, params, cfg)

    def test_trial_length_is_irrelevant_without_decay(self):
        opt = joint_optimum(U01, AttentionParams(20.0, 0.0), BINDING)
        assert opt.contract.T == 0.0
        assert T_AT_ZERO in opt.boundary_flags
        assert opt.outcome.utility >= -1e-12

    def test_trial_cap(self):
        opt = joint_optimum(U01, INTERIOR, SolverConfig(t_max=1.0, participation_mode="binding_ir"))
        assert opt.contract.T == 1.0
        assert opt.boundary_flags == {T_AT_MAX}
        assert opt.outcome.utility >= -1e-12

    @pytest.mark.parametrize("pattern,dist,params,window", NON_INTERVAL_DRAWS)
    def test_feasible_prices_need_not_form_an_interval(self, pattern, dist, params, window):
        cfg = SolverConfig(price_window=window, participation_mode="binding_ir")
        signs = "".join(
            "+" if consumer_utility(dist, params, Contract(T=0.0, P=p)) >= 0.0 else "-"
            for p in window.grid(cfg.bracket_grid + 1)
        )
        assert "".join(c for i, c in enumerate(signs) if i == 0 or c != signs[i - 1]) == pattern
        opt = joint_optimum(dist, params, cfg)
        assert opt.outcome.utility >= -1e-12
        assert opt.outcome.profit >= binding_by_grid(dist, params, cfg)[2] - 1e-7


class TestSaturatedAttention:
    # At lambda0 >= 80 the monitoring probability rounds to one at T = 0, so
    # g(0) must be evaluated without forming 1 - q to keep its sign.

    @pytest.mark.parametrize("lambda0", [80.0, 200.0])
    def test_interior_optimum_where_q_rounds_to_one(self, lambda0):
        opt = joint_optimum(U01, AttentionParams(lambda0, 0.5), CFG)
        assert not opt.boundary_flags
        assert opt.contract.P == pytest.approx(0.490380581548, abs=1e-9)
        assert opt.contract.T == pytest.approx((lambda0 / 5.9327901263 - 1.0) / 0.5, rel=1e-8)

    def test_trial_condition_at_zero_matches_high_precision(self):
        import mpmath

        with mpmath.workdps(50):
            lambda0, beta, P = mpmath.mpf(80), mpmath.mpf("0.5"), mpmath.mpf("0.5")
            q = 1 / (1 + mpmath.exp(-lambda0 * P))
            dq_dT = P * q * (1 - q) * (-beta * lambda0)
            neg_entropy = -(q * mpmath.log(q) + (1 - q) * mpmath.log(1 - q))
            F = P
            exact = float(P * (P * F * -dq_dT) - beta / lambda0 * neg_entropy * F)
        value = trial_foc(U01, AttentionParams(80.0, 0.5), 0.5, 0.0)
        assert value > 0.0
        assert value == pytest.approx(exact, rel=1e-6)


class TestSurvivorBeyondSupport:
    # The window reaches where the survivor is zero, so the hazard is
    # undefined at some scan points; the IFR diagnostic skips them.

    def test_uniform_support_inside_window(self):
        opt = joint_optimum(Uniform(0.0, 0.5), INTERIOR, CFG)
        assert opt.contract.T == pytest.approx(0.017315, abs=1e-6)
        assert opt.contract.P == pytest.approx(0.247390, abs=1e-6)
        assert abs(opt.foc_residuals[0]) <= CFG.root_tol
        assert abs(opt.foc_residuals[1]) <= CFG.root_tol

    def test_weibull_survivor_underflow(self):
        dist = TruncatedWeibull(k=3.0, s=0.2)
        opt = joint_optimum(dist, INTERIOR, CFG)
        T_or, P_or = joint_by_grid(dist, INTERIOR, CFG)
        assert opt.contract.T == T_or == 0.0
        assert abs(opt.foc_residuals[0]) <= CFG.root_tol
        assert opt.foc_residuals[1] < 0.0
        assert opt.contract.P == pytest.approx(P_or, abs=1e-6)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iter": 0}, {"bracket_grid": -3}, {"bracket_grid": 0}, {"t_max": math.inf},
         {"root_tol": math.nan}],
    )
    def test_rejects_degenerate_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("n", [MAX_BRACKET_GRID + 1, 10**8, 10**30])
    def test_rejects_a_grid_above_the_bound(self, n):
        with pytest.raises(ValueError, match=f"bracket_grid must be at most {MAX_BRACKET_GRID}, got {n}"):
            SolverConfig(bracket_grid=n)
        assert SolverConfig(bracket_grid=MAX_BRACKET_GRID).bracket_grid == 2**16

    def test_polish_budget_exhaustion_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError):
            joint_optimum(U01, INTERIOR, SolverConfig(max_iter=1))


def scipy_polish(f, lo, hi, config):
    """The root polish on scipy.optimize.ridder, then the same secant step."""
    tol = config.root_tol
    root = float(ridder(f, lo, hi, xtol=tol, maxiter=config.max_iter))
    a, b = max(lo, root - tol), min(hi, root + tol)
    f_a, f_b = f(a), f(b)
    if f_a * f_b < 0.0:
        secant = a - f_a * (b - a) / (f_b - f_a)
        if abs(f(secant)) < abs(f(root)):
            root = secant
    return root


POLISH_CASES = {
    "uniform-price": (lambda p: price_foc(U01, AttentionParams(5.0), 0.0, p), 0.05, 0.95),
    "iso-price": (lambda p: price_foc(ISO_CURVE, AttentionParams(2.5, 0.01), 0.0, p), 0.25, 0.9),
    "weibull-price": (lambda p: price_foc(TruncatedWeibull(2.0, 0.5), AttentionParams(5.0), 0.0, p), 0.05, 0.95),
    "locus": (lambda x: locus_price(x) - 0.3, 1.0 / 0.3, (1.0 + math.sqrt(4.6)) / 0.6),
    "cubic": (lambda x: x**3 - 2.0, 0.0, 2.0),
    # the price condition jumps across zero at the iso-elastic splice v0 = 0.2
    "iso-kink-jump": (lambda p: price_foc(ISO_CURVE, AttentionParams(30.0), 0.0, p), 0.19, 0.21),
    "uniform-density-step": (lambda v: Uniform(0.2, 0.6).pdf(v) - 1.0, 0.5, 0.7),
}


class TestPolish:
    @pytest.mark.parametrize("max_iter", [200, 40])
    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_bitwise_equal_to_scipy_ridder_and_secant(self, case, max_iter):
        f, lo, hi = POLISH_CASES[case]
        config = SolverConfig(max_iter=max_iter)
        root = _polish(f, lo, hi, config)[0]
        assert root == scipy_polish(f, lo, hi, config)
        assert lo < root < hi

    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_returns_floats_and_the_residual_at_its_root(self, case):
        f, lo, hi = POLISH_CASES[case]
        root, residual = _polish(f, np.float64(lo), np.float64(hi), CFG)
        assert type(root) is float and type(residual) is float
        assert np.array_equal(np.float64(residual).view(np.int64), np.float64(f(root)).view(np.int64))

    def test_jump_is_located_at_the_kink(self):
        f, lo, hi = POLISH_CASES["iso-kink-jump"]
        assert _polish(f, lo, hi, CFG)[0] == pytest.approx(ISO_CURVE.v0, abs=CFG.root_tol)

    def test_bisects_where_the_radicand_underflows(self):
        # values of order 1e-170: fm^2 and fa fb both underflow to 0, where Ridder's step would divide by 0
        root, residual = _polish(lambda x: 1e-170 * (x - 0.3), 0.0, 1.0, CFG)
        assert root == pytest.approx(0.3, abs=CFG.root_tol) and abs(residual) <= 1e-170 * CFG.root_tol

    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_iteration_budget_matches_scipy(self, case):
        # the fewest iterations scipy needs are enough here too, one fewer raises
        f, lo, hi = POLISH_CASES[case]
        need = next(n for n in range(2, 200) if _converges(f, lo, hi, n))
        assert _polish(f, lo, hi, SolverConfig(max_iter=need))[0] == scipy_polish(
            f, lo, hi, SolverConfig(max_iter=need)
        )
        with pytest.raises(ConvergenceError, match=f"in {need - 1} iterations"):
            _polish(f, lo, hi, SolverConfig(max_iter=need - 1))


def _converges(f, lo, hi, max_iter):
    try:
        ridder(f, lo, hi, xtol=CFG.root_tol, maxiter=max_iter)
    except RuntimeError:
        return False
    return True


class TestPriceResponseCurve:
    def test_iso_elastic_curve_strictly_increases(self):
        params = AttentionParams(2.5, 0.01)
        curve = price_response_curve(
            ISO_CURVE, params, [0.0, 5.0, 10.0, 20.0, 40.0], ISO_CFG
        )
        prices = [p for _, p in curve]
        assert all(b > a for a, b in zip(prices, prices[1:]))
        assert all(ISO_CFG.price_window.p_lo < p < ISO_CFG.price_window.p_hi for p in prices)

    def test_flat_without_decay(self):
        params = AttentionParams(2.0, 0.0)
        curve = price_response_curve(U01, params, [0.0, 5.0, 20.0], CFG)
        prices = [p for _, p in curve]
        assert prices[0] == pytest.approx(prices[-1], abs=1e-12)

    def test_implicit_function_sign_identity(self):
        # dP*/dT from re-solving matches -g_T / g_P from condition partials
        params = AttentionParams(2.5, 0.01)
        T, h = 10.0, 1e-4
        sol = solve_price(ISO_CURVE, params, T, ISO_CFG)
        g_T = (
            price_foc(ISO_CURVE, params, T + h, sol.price)
            - price_foc(ISO_CURVE, params, T - h, sol.price)
        ) / (2 * h)
        g_P = (
            price_foc(ISO_CURVE, params, T, sol.price + h)
            - price_foc(ISO_CURVE, params, T, sol.price - h)
        ) / (2 * h)
        fd_slope = (
            solve_price(ISO_CURVE, params, T + 0.5, ISO_CFG).price
            - solve_price(ISO_CURVE, params, T - 0.5, ISO_CFG).price
        ) / 1.0
        assert g_P < 0.0
        assert g_T > 0.0
        assert np.sign(fd_slope) == np.sign(-g_T / g_P)

    def test_no_finite_hazard_supremum_leaves_the_curve_unchecked(self):
        """The survivor vanishes inside the window, so lambda_crit raises and there is no
        supremum for the automatic hypothesis to exceed; a claimed rise is still checked."""
        dist, config = Uniform(0.1, 0.5), SolverConfig(price_window=PriceWindow(0.05, 0.95))
        params = AttentionParams(lambda0=20.0, beta=0.5)
        with pytest.raises(SingularityError):
            lambda_crit(dist, config.price_window)
        curve = price_response_curve(dist, params, [0.0, 1.0, 3.0], config)
        assert [T for T, _ in curve] == [0.0, 1.0, 3.0]
        with pytest.raises(MonotonicityError):
            price_response_curve(dist, params, [0.0, 1.0, 3.0], config, assert_increasing=True)

    def test_violation_raises_when_hypothesis_claimed(self):
        params = AttentionParams(2.0, 0.0)  # flat curve
        with pytest.raises(MonotonicityError):
            price_response_curve(U01, params, [0.0, 5.0], CFG, assert_increasing=True)
