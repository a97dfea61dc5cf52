"""Consumer monitoring behavior under an entropy cost of attention.

A consumer who wants to cancel before renewal picks a success probability q
to minimize

    (1 - q) * P  +  H(q) / lam,      H(q) = q ln q + (1 - q) ln(1 - q),

where ``lam`` is the effective attention sensitivity.  H is negative on
(0, 1), so the second term is negative with this sign convention; the
objective is implemented literally because the first-order condition it
produces is the logistic

    q*(P, lam) = 1 / (1 + exp(-lam * P)),

which everything downstream relies on.  Reports that need a nonnegative
"cognitive effort" should use ``abs(entropy_cost)``.

Sensitivity decays with trial length T as lam(T) = gamma * lam0 / (1 + beta*T);
beta = 0 recovers a constant-attention consumer and gamma >= 1 models a
uniform policy boost to attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _ARRAY, _NUMPY
from .exceptions import DomainError, InconsistentInputError

LAMBDA_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class AttentionParams:
    """Baseline sensitivity, decay rate and policy multiplier."""

    lambda0: float
    beta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.lambda0, self.beta, self.gamma)):
            raise DomainError(f"attention parameters must be finite, got {self}")
        if self.lambda0 <= 0.0:
            raise DomainError(f"lambda0 must be positive, got {self.lambda0}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be nonnegative, got {self.beta}")
        if self.gamma < 1.0:
            raise DomainError(f"gamma must be at least 1, got {self.gamma}")


@dataclass(frozen=True)
class MonitoringSolution:
    """Minimizer of the monitoring objective and its value decomposition."""

    q_star: float
    objective_value: float
    entropy_cost: float
    expected_loss: float


def entropy(q: float) -> float:
    """H(q) = q ln q + (1-q) ln(1-q), with 0 ln 0 = 0; nonpositive, convex."""
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q}")
    r = 1.0 - q
    return (q * math.log(q) if q > 0.0 else 0.0) + (r * math.log(r) if r > 0.0 else 0.0)


def effective_lambda(params: AttentionParams, T: float) -> float:
    """gamma * lambda0 / (1 + beta * T); weakly decreasing in T."""
    if T < 0.0:
        raise DomainError(f"trial length must be nonnegative, got {T}")
    lam = params.gamma * params.lambda0 / (1.0 + params.beta * T)
    if lam == 0.0:  # beta * T overflowed: utility's attention cost h / lam diverges
        raise DomainError(f"effective sensitivity underflows to 0 at T = {T}")
    return lam


def optimal_q(P: float, lam: float) -> MonitoringSolution:
    """Closed-form minimizer of the monitoring objective.

    P = 0 is accepted and resolves to q* = 1/2 by continuity (logistic at
    argument zero).
    """
    q = logistic_q(P, lam)
    expected_loss = (1.0 - q) * P
    entropy_cost = entropy(q) / lam
    return MonitoringSolution(
        q_star=q,
        objective_value=expected_loss + entropy_cost,
        entropy_cost=entropy_cost,
        expected_loss=expected_loss,
    )


def logistic_q(P, lam):
    """q* = 1 / (1 + exp(-lam P)) for P in [0, 1] and lam > 0, or arrays of them; cannot overflow."""
    P_lo, P_hi = (P.min(initial=0.5), P.max(initial=0.5)) if isinstance(P, _ARRAY) else (P, P)
    if P_lo < 0.0 or P_hi > 1.0:
        raise DomainError(f"price must lie in [0, 1], got {P_lo if P_lo < 0.0 else P_hi}")
    lam_lo = lam.min(initial=0.5) if isinstance(lam, _ARRAY) else lam
    if lam_lo <= 0.0:
        raise DomainError(f"sensitivity must be positive, got {lam_lo}")
    x = lam * P
    return 1.0 / (1.0 + (_NUMPY if isinstance(x, _ARRAY) else math).exp(-x))


def monitoring_objective(q: float, P: float, lam: float) -> float:
    """(1 - q) * P + H(q) / lam, the quantity optimal_q minimizes over q."""
    return (1.0 - q) * P + entropy(q) / lam


def trial_terms(x):
    """The attention terms at x = lam * P > 0, formed nowhere else: q* = sigma(x),
    h(x) = -H(q*) = sigma(x) log1p(e^-x) + sigma(-x) (x + log1p(e^-x)), the
    zero-locus price pi(x) = h(x) / (x^2 q* sigma(-x)) and sigma(-x) = 1 - q*.
    None is formed as 1 - q, so all keep full relative precision where q* rounds
    to one; pi has e^-x divided out, is finite until x^2 underflows (+inf after),
    falls strictly from +inf to 0, and satisfies 1/x < pi(x) < (3 + x)/x^2.  x may be an array."""
    xp = _NUMPY if isinstance(x, _ARRAY) else math
    e = xp.exp(-x)
    log_term = xp.log1p(e)
    q, q_miss = 1.0 / (1.0 + e), e / (1.0 + e)
    neg_entropy = q * log_term + q_miss * (x + log_term)
    if xp is math:
        log_ratio = log_term / e if e > 0.0 else 1.0
        locus_price = (1.0 + e) * (log_ratio + x + log_term) / (x * x) if x * x > 0.0 else math.inf
    else:  # the same limits per element: 0/0 is replaced by 1, and num/0 or an overflow is inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            locus_price = (1.0 + e) * (np.where(e > 0.0, log_term / e, 1.0) + x + log_term) / (x * x)
    return q, neg_entropy, locus_price, q_miss


def q_derivatives(
    P: float, lam: float, params: AttentionParams, T: float
) -> tuple[float, float, float]:
    """Closed-form (dq*/dP, dq*/dlam, dq*/dT) at (P, lam) with lam = lam(T).

    Raises when ``lam`` disagrees with ``effective_lambda(params, T)``: the
    T-derivative is a chain rule through the decay law, so a stale lam would
    silently produce the wrong slope.
    """
    lam_implied = effective_lambda(params, T)
    if abs(lam - lam_implied) > LAMBDA_CONSISTENCY_TOL:
        raise InconsistentInputError(
            f"lam = {lam} but effective_lambda(params, T) = {lam_implied}"
        )
    q = 1.0 / (1.0 + math.exp(-lam * P))
    slope = q * (1.0 - q)
    dq_dP = lam * slope
    dq_dlam = P * slope
    dlam_dT = -params.beta * params.gamma * params.lambda0 / (1.0 + params.beta * T) ** 2
    dq_dT = dq_dlam * dlam_dT
    return dq_dP, dq_dlam, dq_dT
