"""Aggregate market quantities at a fixed contract.

Revenue splits into a standard component P * (1 - F(P)) from willing
subscribers and an inattentive component

    IR(T, P) = P * F(P) * (1 - q*(P, lam(T)))

from consumers below the price who fail to cancel.  Ex-ante consumer utility
nets the happy-subscriber surplus against the expected loss from forgetting
and the cognitive burden of monitoring; the cognitive term enters utility
with magnitude |H(q*)| / lam so that it is a utility *reduction* (the raw
entropy value is negative), which is the reading under which the marginal
harm of a longer trial,

    ir_slack = (beta / (gamma * lambda0)) * (-H(q*)) * F(P),

equals -dU/dT when the finite difference is taken holding q* at its
optimized value.

F(P) here always means the mass of consumers strictly below the price, i.e.
1 - survivor(P); for the iso-elastic family the atom at v = 1 therefore
never counts as a potential canceler, even at P = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .consumer import AttentionParams, effective_lambda, entropy, optimal_q
from .distributions import PiecewiseIsoElastic, Uniform, ValuationDistribution
from .exceptions import DomainError

SURPLUS_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class Contract:
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


@dataclass(frozen=True)
class MarketOutcome:
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
    """P * F(P) * (1 - q*) with q* at the trial's effective sensitivity."""
    lam = effective_lambda(params, contract.T)
    q = optimal_q(contract.P, lam).q_star
    return contract.P * cancel_mass(dist, contract.P) * (1.0 - q)


def surplus_integral(dist: ValuationDistribution, P: float) -> float:
    """Happy-subscriber surplus: integral of (v - P) f(v) dv over [P, 1] plus atoms."""
    atom_part = dist.atom_at_one * (1.0 - P)
    if isinstance(dist, Uniform):
        lo = max(P, dist.a)
        if lo >= dist.b:
            return atom_part
        width = dist.b - dist.a
        return ((dist.b - P) ** 2 - (lo - P) ** 2) / (2.0 * width) + atom_part
    if P >= 1.0:
        return atom_part
    points = None
    if isinstance(dist, PiecewiseIsoElastic) and P < dist.v0:
        points = [dist.v0]
    value, _ = quad(
        lambda v: (v - P) * dist.pdf(v),
        P,
        1.0,
        epsabs=SURPLUS_QUAD_TOL,
        epsrel=SURPLUS_QUAD_TOL,
        points=points,
        limit=200,
    )
    return value + atom_part


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
    lam = effective_lambda(params, contract.T)
    q = optimal_q(contract.P, lam).q_star if q_override is None else q_override
    mass = cancel_mass(dist, contract.P)
    monetary_loss = contract.P * mass * (1.0 - q)
    cognitive = (-entropy(q)) / lam * mass
    return surplus_integral(dist, contract.P) - monetary_loss - cognitive


def ir_slack(
    dist: ValuationDistribution, params: AttentionParams, contract: Contract
) -> float:
    """Marginal utility harm from lengthening the trial; zero when beta = 0.

    The policy multiplier scales sensitivity everywhere (lambda0 ->
    gamma * lambda0), which keeps this expression equal to -dU/dT under a
    uniform attention boost.
    """
    mass = cancel_mass(dist, contract.P)
    if params.beta == 0.0 or mass == 0.0:
        return 0.0
    lam = effective_lambda(params, contract.T)
    q = optimal_q(contract.P, lam).q_star
    return params.beta / (params.gamma * params.lambda0) * (-entropy(q)) * mass


def profit(
    dist: ValuationDistribution, params: AttentionParams, contract: Contract
) -> MarketOutcome:
    """Full outcome record at the contract: revenues, profit, utility, slack."""
    lam = effective_lambda(params, contract.T)
    q = optimal_q(contract.P, lam).q_star
    std = standard_revenue(dist, contract)
    ir = contract.P * cancel_mass(dist, contract.P) * (1.0 - q)
    return MarketOutcome(
        standard_revenue=std,
        inattentive_revenue=ir,
        profit=std + ir,
        utility=consumer_utility(dist, params, contract),
        ir_slack=ir_slack(dist, params, contract),
        q_star=q,
        lambda_eff=lam,
    )
