"""Paid-trial extension: an introductory price with iso-elastic sign-ups.

Sign-ups follow eta(P0) = min(cap, alpha * P0**(-theta)); eta(0) is the cap
by continuity with the free-trial market.  Total profit factorizes as

    Pi(T, P0, P) = eta(P0) * (P0 + P_aug(T, P)),
    P_aug(T, P)  = P (1 - F(P)) + IR(T, P),

so the renewal price and trial length solve the free-trial conditions
unchanged: the intro price never feeds back into (T, P), and the joint
optimum is the free-trial solve followed by the fee rule.  On the uncapped
branch the intro-price condition has the constant-elasticity closed form
P0* = theta / (1 - theta) * P_aug for theta < 1 (zero fee otherwise).  The
sign-up slope is negative while a longer trial raises P_aug, so the profit
cross-partial in (T, P0) is negative: the two instruments are substitutes.

Shape warning: for theta < 1 the uncapped product alpha * (P0**(1-theta)
+ P_aug * P0**(-theta)) rises without bound as P0 grows, so the closed form
is the stationary point of the sign-up trade-off (a local minimum between
the capped segment and the divergent tail), not a global profit maximum;
no global maximum exists under a constant sign-up elasticity below one.
The solvers here work with the stationary point throughout, which is what
the cross-checks in the test suite pin down.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .consumer import AttentionParams, effective_lambda, q_derivatives
from .distributions import Record, ValuationDistribution
from .exceptions import CappedBranchError, DomainError
from .market import Contract, cancel_mass, revenue
from .solver import SolverConfig, joint_optimum


class SignupModel(Record):
    alpha: float
    theta: float
    cap: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0.0 for v in (self.alpha, self.theta, self.cap)):
            raise DomainError(
                f"alpha, theta, cap must be positive and finite, got ({self.alpha}, {self.theta}, {self.cap})"
            )
        try:  # the power raises OverflowError, while alpha / cap alone can round to inf
            edge = self.cap_edge()
        except OverflowError:
            edge = math.inf
        if not math.isfinite(edge):
            raise DomainError(f"the cap edge (alpha / cap)^(1/theta) overflows a float for {self}")

    def cap_edge(self) -> float:
        """Largest P0 at which the sign-up rate is still capped."""
        return (self.alpha / self.cap) ** (1.0 / self.theta)


class PaidTrialOptimum(NamedTuple):
    contract: Contract
    p_aug: float
    signup_rate: float
    profit: float
    corner: str  # "interior" | "p0_zero" | "t_zero"
    capped: bool = False


def signup_rate(model: SignupModel, P0: float) -> float:
    """min(cap, alpha * P0**(-theta)); the cap at P0 = 0 by continuity."""
    if P0 < 0.0:
        raise DomainError(f"introductory price must be nonnegative, got {P0}")
    if P0 == 0.0:
        return model.cap
    return min(model.cap, model.alpha * P0 ** (-model.theta))


def signup_slope(model: SignupModel, P0: float) -> float:
    """d eta / d P0; zero on the capped branch."""
    if P0 <= 0.0 or model.alpha * P0 ** (-model.theta) >= model.cap:
        return 0.0
    return -model.alpha * model.theta * P0 ** (-model.theta - 1.0)


def p_aug(
    dist: ValuationDistribution, params: AttentionParams, T: float, P: float
) -> float:
    """Expected post-trial profit per subscriber: standard plus inattentive."""
    return revenue(dist, effective_lambda(params, T), P)


def intro_price_foc(model: SignupModel, P0: float, p_aug_value: float) -> float:
    """eta'(P0) (P0 + P_aug) + eta(P0); only defined off the cap."""
    if P0 <= 0.0:
        raise DomainError(f"the intro-price condition needs P0 > 0, got {P0}")
    if model.alpha * P0 ** (-model.theta) >= model.cap:
        raise CappedBranchError(
            f"sign-up rate is capped at P0 = {P0}; the condition is degenerate there"
        )
    eta = model.alpha * P0 ** (-model.theta)
    return signup_slope(model, P0) * (P0 + p_aug_value) + eta


def optimal_intro_price(model: SignupModel, p_aug_value: float) -> tuple[float, str]:
    """Closed-form intro price and its corner status.

    theta < 1: P0* = theta / (1 - theta) * P_aug (the root of the intro-price
    condition on the uncapped branch).  theta >= 1: sign-ups are too elastic
    for any positive fee and the corner P0* = 0 is returned.
    """
    if p_aug_value < 0.0:
        raise DomainError(f"per-subscriber profit must be nonnegative, got {p_aug_value}")
    if model.theta >= 1.0:
        return 0.0, "p0_zero"
    return model.theta / (1.0 - model.theta) * p_aug_value, "interior"


def profit_paid(
    dist: ValuationDistribution,
    params: AttentionParams,
    model: SignupModel,
    contract: Contract,
) -> PaidTrialOptimum:
    """Evaluate eta(P0) * (P0 + P_aug) at the given triple."""
    aug = p_aug(dist, params, contract.T, contract.P)
    eta = signup_rate(model, contract.P0)
    corner = "interior"
    if contract.P0 == 0.0:
        corner = "p0_zero"
    elif contract.T == 0.0:
        corner = "t_zero"
    return PaidTrialOptimum(
        contract=contract,
        p_aug=aug,
        signup_rate=eta,
        profit=eta * (contract.P0 + aug),
        corner=corner,
        capped=eta >= model.cap and contract.P0 > 0.0,
    )


def cross_partial_check(
    dist: ValuationDistribution,
    params: AttentionParams,
    model: SignupModel,
    contract: Contract,
) -> float:
    """Closed-form d2 Pi / dT dP0 = eta'(P0) * dP_aug/dT; <= 0, zero when capped or beta = 0."""
    slope = signup_slope(model, contract.P0)
    if slope == 0.0:
        return 0.0
    _, _, dq_dT = q_derivatives(contract.P, params, contract.T)
    dPaug_dT = contract.P * cancel_mass(dist, contract.P) * (-dq_dT)
    return slope * dPaug_dT


def joint_paid_optimum(
    dist: ValuationDistribution,
    params: AttentionParams,
    model: SignupModel,
    config: SolverConfig | None = None,
) -> PaidTrialOptimum:
    """Joint optimum over (T, P, P0): the free-trial solve, then the fee rule.

    The sign-up factor multiplies out of both free-trial conditions, so
    (T, P) is the unconstrained ``joint_optimum`` (report_only mode whatever
    the configuration says), and the intro price is set from the resulting
    per-subscriber profit.  When the closed-form intro price lands on the
    capped branch, profit there is increasing in P0 and the cap edge is
    taken.
    """
    config = config or SolverConfig()
    free = joint_optimum(dist, params, config._replace(participation_mode="report_only"))
    P0, corner = optimal_intro_price(model, free.outcome.profit)
    capped = False
    if corner == "interior" and P0 > 0.0 and signup_rate(model, P0) >= model.cap:
        # closed form sits inside the capped region: profit rises with P0
        # there, so move to the edge where the uncapped branch takes over
        P0 = model.cap_edge()
        capped = True
    # profit_paid labels the corner from the contract: P0 = 0, else T = 0 (t_zero)
    return profit_paid(dist, params, model, free.contract._replace(P0=P0))._replace(capped=capped)
