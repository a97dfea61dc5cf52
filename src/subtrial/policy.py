"""Counterfactual engine for attention-policy experiments.

A click-to-cancel style regulation is modeled as a uniform multiplicative
boost gamma to attention sensitivity.  The comparative-statics report
re-optimizes the contract under the shock and differentiates the optimum by
a two-point finite difference in gamma; the model gives directions, not
closed forms, so slopes are always numerical.

A word on what this model actually does at re-optimized contracts (the test
suite documents it too): at any interior optimum the two first-order
conditions pin the pair (lam(T*) * P*, P*) independently of gamma, so the
re-optimized price does not move with the shock at all and the trial length
*rises* to restore the pinned effective sensitivity; at corner (T* = 0)
optima the re-optimized price falls with gamma.  Fixed-contract effects do
behave as expected: a boost raises utility and lowers inattentive revenue.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .consumer import AttentionParams
from .distributions import PiecewiseIsoElastic, Record, ValuationDistribution, argmax, window_max
from .exceptions import DomainError
from .market import Contract, MarketOutcome, standard_revenue, surplus_integral
from .solver import P_AT_WINDOW_EDGE, T_AT_ZERO, OptimalContract, SolverConfig, joint_optimum

GAMMA_FD_STEP = 0.1
BETA_NOISE_TOL = 1e-9  # profit margin a beta-curve maximum needs over both ends to count as interior


class PolicyShock(Record):
    gamma: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise DomainError(f"shock multiplier must be finite and at least 1, got {self.gamma}")


DEFAULT_SHOCK = PolicyShock(gamma=2.0, label="default_boost")  # the shock of a scenario without one


class ComparativeStaticsReport(NamedTuple):
    baseline: OptimalContract
    shocked: OptimalContract
    dT_dGamma: float
    dP_dGamma: float
    epsilon_used: float | None
    sign_rule_holds: bool | None
    baseline_interior: bool


def apply_shock(params: AttentionParams, shock: PolicyShock) -> AttentionParams:
    """Scale the policy multiplier; effective sensitivity scales by shock.gamma at every T."""
    return params._replace(gamma=params.gamma * shock.gamma)


def click_to_cancel_statics(
    dist: ValuationDistribution,
    params: AttentionParams,
    shock: PolicyShock,
    config: SolverConfig | None = None,
) -> ComparativeStaticsReport:
    """Re-optimized contract under the shock plus finite-difference slopes.

    Slopes are two-point differences between the re-optimized optima at the
    baseline gamma and gamma + 0.1, solved with the same configuration.  For
    iso-elastic tails the report compares sign(dP*/dgamma) with
    sign(1 - eps); the comparison is recorded, not enforced.
    """
    config = config or SolverConfig()
    baseline = joint_optimum(dist, params, config)
    shocked = joint_optimum(dist, apply_shock(params, shock), config)
    bumped = joint_optimum(
        dist, params._replace(gamma=params.gamma + GAMMA_FD_STEP), config
    )
    dT = (bumped.contract.T - baseline.contract.T) / GAMMA_FD_STEP
    dP = (bumped.contract.P - baseline.contract.P) / GAMMA_FD_STEP
    eps = dist.eps if isinstance(dist, PiecewiseIsoElastic) else None
    sign = lambda v: (v > 0.0) - (v < 0.0)  # np.sign's, with 0 in place of NaN
    sign_rule = None if eps is None else sign(dP) == sign(1.0 - eps)
    return ComparativeStaticsReport(
        baseline=baseline,
        shocked=shocked,
        dT_dGamma=dT,
        dP_dGamma=dP,
        epsilon_used=eps,
        sign_rule_holds=sign_rule,
        baseline_interior=baseline.is_interior,
    )


class BetaCurvePoint(NamedTuple):
    beta: float
    profit: float
    T_star: float
    P_star: float


class BetaCurve(NamedTuple):
    points: tuple[BetaCurvePoint, ...]
    argmax_beta: float
    interior_max: bool


def beta_profit_curve(
    dist: ValuationDistribution,
    params_base: AttentionParams,
    beta_grid: list[float],
    config: SolverConfig | None = None,
) -> BetaCurve:
    """Re-optimized profit per decay rate with the argmax flagged.

    ``interior_max`` is true only when the maximum beats both endpoints by
    more than ``BETA_NOISE_TOL``, so solver-level jitter on a flat curve cannot
    masquerade as a hump.  Under the hyperbolic decay law the decay rate
    only rescales the trial axis, so re-optimized profit is flat in beta
    whenever the optimum is unconstrained; the flag then honestly reads
    false.
    """
    if len(beta_grid) < 12:
        raise DomainError(f"beta grid needs at least 12 points, got {len(beta_grid)}")
    grid = sorted(float(b) for b in beta_grid)
    if grid[0] <= 0.0:
        raise DomainError("beta grid must be strictly positive")
    if grid[-1] / grid[0] < 1e3:
        raise DomainError("beta grid must span at least three decades")
    config = config or SolverConfig()
    points = []
    for b in grid:
        opt = joint_optimum(dist, params_base._replace(beta=b), config)
        points.append(BetaCurvePoint(b, opt.outcome.profit, T_star=opt.contract.T, P_star=opt.contract.P))
    profits = [p.profit for p in points]
    i = argmax(profits)
    interior = bool(profits[i] > max(profits[0], profits[-1]) + BETA_NOISE_TOL)
    return BetaCurve(points=tuple(points), argmax_beta=points[i].beta, interior_max=interior)


def mandatory_reminder_limit(
    dist: ValuationDistribution, config: SolverConfig | None = None
) -> OptimalContract:
    """Contract when cancellation always succeeds: plain monopoly pricing.

    With q* forced to one the inattentive channel is dead, the trial has no
    revenue role, and the firm solves max_P P (1 - F(P)) over the window.
    """
    config = config or SolverConfig()
    w = config.price_window
    revenue = lambda p: standard_revenue(dist, Contract(T=0.0, P=p))
    P, std = window_max(revenue, w.grid(max(config.bracket_grid, 64) + 1), config.opt_tol)
    outcome = MarketOutcome(
        standard_revenue=std,
        inattentive_revenue=0.0,
        profit=std,
        utility=surplus_integral(dist, P),
        ir_slack=0.0,
        q_star=1.0,
        lambda_eff=float("inf"),
    )
    return OptimalContract(
        contract=Contract(T=0.0, P=P),
        outcome=outcome,
        foc_residuals=(float("nan"), 0.0),
        boundary_flags=frozenset({T_AT_ZERO, P_AT_WINDOW_EDGE} if P in (w.p_lo, w.p_hi) else {T_AT_ZERO}),
        participation_satisfied=outcome.utility >= -1e-12,
    )
