"""Aggregate market quantities at a fixed contract.

Attention enters only through x = lam(T) * P, as sigma(-x) = 1 - q* and
h(x) = -H(q*) from ``consumer.trial_terms``.  Revenue is a standard part
P * (1 - F(P)) from willing subscribers plus IR = P * F(P) * sigma(-x) from
consumers below the price who fail to cancel.  Ex-ante consumer utility
U = S(P) - P * F(P) * sigma(-x) - F(P) * h(x) / lam nets the happy-subscriber
surplus S(P) against the expected loss from forgetting and the cognitive
burden h(x) / lam * F(P) of monitoring, a utility *reduction*, which is the
reading under which the marginal harm of a longer trial,

    ir_slack = (beta / (gamma * lambda0)) * h(x) * F(P),

equals -dU/dT when the finite difference is taken holding q* at its
optimized value.  The burden divides by lam, not x = lam * P, which can
underflow to 0.  S(P) is each family's own ``surplus``.

F(P) here always means the mass of consumers strictly below the price, i.e.
1 - survivor(P); for the iso-elastic family the atom at v = 1 therefore
never counts as a potential canceler, even at P = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .consumer import AttentionParams, cost_slope, effective_lambda, entropy, trial_terms
from .distributions import Record, ValuationDistribution
from .exceptions import DomainError


class Contract(Record):
    """Trial length, renewal price and (optional) introductory price."""

    T: float
    P: float
    P0: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T >= 0.0):
            raise DomainError(f"trial length must be finite and nonnegative, got {self.T}")
        if not (0.0 < self.P <= 1.0):
            raise DomainError(f"renewal price must lie in (0, 1], got {self.P}")
        if not (math.isfinite(self.P0) and self.P0 >= 0.0):
            raise DomainError(f"introductory price must be finite and nonnegative, got {self.P0}")


class MarketOutcome(NamedTuple):
    """All per-contract aggregates in one record."""

    standard_revenue: float
    inattentive_revenue: float
    profit: float
    utility: float
    ir_slack: float
    q_star: float
    lambda_eff: float


def cancel_mass(dist: ValuationDistribution, P: float) -> float:
    """Mass of consumers with v < P (the segment that wants to cancel)."""
    return 1.0 - dist.survivor(P)


def standard_revenue(dist: ValuationDistribution, contract: Contract) -> float:
    return contract.P * dist.survivor(contract.P)


def inattentive_revenue(
    dist: ValuationDistribution, params: AttentionParams, contract: Contract
) -> float:
    """P * F(P) * sigma(-x), x = lam(T) * P at the trial's effective sensitivity."""
    return profit(dist, params, contract).inattentive_revenue


def revenue(dist: ValuationDistribution, lam: float, P: float) -> float:
    """Profit at (lam_eff, P): P (1 - F(P)) + P F(P) sigma(-lam P)."""
    survivor = dist.survivor(P)
    return P * (survivor + (1.0 - survivor) * trial_terms(lam * P)[2])


def surplus_integral(dist: ValuationDistribution, P: float) -> float:
    """Happy-subscriber surplus: integral of (v - P) f(v) dv over [P, 1] plus atoms."""
    return dist.surplus(P)


def _utility(surplus: float, mass: float, P: float, lam: float, terms: tuple) -> float:
    """S(P) - P F(P) sigma(-x) - F(P) h(x) / lam from the trial_terms at x = lam P."""
    return surplus - P * mass * terms[2] - terms[1] / lam * mass


def utility_in_x(dist: ValuationDistribution, P: float) -> Callable[[float], float]:
    """Consumer utility at price P as a function of x = lam_eff P; S(P) is computed once."""
    surplus, mass = surplus_integral(dist, P), cancel_mass(dist, P)
    return lambda x: _utility(surplus, mass, P, x / P, trial_terms(x))


def consumer_utility(
    dist: ValuationDistribution,
    params: AttentionParams,
    contract: Contract,
    q_override: float | None = None,
) -> float:
    """Population-average utility from accepting the contract.

    ``q_override`` evaluates the expression at a fixed monitoring probability
    instead of the optimal one; finite-difference checks of the trial-length
    envelope use it to hold q* at the base point.
    """
    if q_override is None:
        return profit(dist, params, contract).utility
    lam, P, q = effective_lambda(params, contract.T), contract.P, q_override
    return _utility(surplus_integral(dist, P), cancel_mass(dist, P), P, lam, (q, -entropy(q), 1.0 - q))


def ir_slack(
    dist: ValuationDistribution, params: AttentionParams, contract: Contract
) -> float:
    """Marginal utility harm from lengthening the trial; zero when beta = 0.

    The policy multiplier scales sensitivity everywhere (lambda0 ->
    gamma * lambda0), which keeps this expression equal to -dU/dT under a
    uniform attention boost.
    """
    return profit(dist, params, contract).ir_slack


def profit(
    dist: ValuationDistribution, params: AttentionParams, contract: Contract
) -> MarketOutcome:
    """Full outcome record at the contract: revenues, profit, utility, slack."""
    lam = effective_lambda(params, contract.T)
    P, x = contract.P, lam * contract.P
    terms, survivor = trial_terms(x), dist.survivor(P)
    std, mass = P * survivor, 1.0 - survivor
    ir = P * mass * terms[2]
    # positional, in field order: building a named tuple by keywords takes ~70% longer
    return MarketOutcome(std, ir, std + ir, _utility(dist.surplus(P), mass, P, lam, terms),
                         cost_slope(params) * terms[1] * mass, terms[0], lam)
