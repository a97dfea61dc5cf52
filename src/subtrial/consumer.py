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
from typing import NamedTuple

from .distributions import _NUMPY, _SCALAR, Record
from .exceptions import DomainError


class AttentionParams(Record):
    """Baseline sensitivity, decay rate and policy multiplier."""

    lambda0: float
    beta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        # gamma * lambda0 is the sensitivity lam(0), which every lam(T) divides down from
        if not all(math.isfinite(v) for v in (self.lambda0, self.beta, self.gamma, self.gamma * self.lambda0)):
            raise DomainError(f"attention parameters and gamma * lambda0 must be finite, got {self}")
        if self.lambda0 <= 0.0:
            raise DomainError(f"lambda0 must be positive, got {self.lambda0}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be nonnegative, got {self.beta}")
        if self.gamma < 1.0:
            raise DomainError(f"gamma must be at least 1, got {self.gamma}")


class MonitoringSolution(NamedTuple):
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


def trial_length(params: AttentionParams, lam: float) -> float:
    """Inverse of the decay law: the T at which ``effective_lambda(params, T)`` is lam; needs beta > 0."""
    return (params.gamma * params.lambda0 / lam - 1.0) / params.beta


def cost_slope(params: AttentionParams) -> float:
    """beta / (gamma * lambda0): the rate at which each period of trial raises the unit attention
    cost 1 / lam(T) = (1 + beta T) / (gamma lambda0)."""
    return params.beta / (params.gamma * params.lambda0)


def optimal_q(P: float, lam: float) -> MonitoringSolution:
    """Closed-form minimizer of the monitoring objective, from the ``trial_terms`` at x = lam P.

    P = 0 is accepted and resolves to q* = 1/2 by continuity (logistic at
    argument zero).
    """
    if not (0.0 <= P <= 1.0 and 0.0 < lam < math.inf):  # an infinite lam makes h(x) 0 * inf
        raise DomainError(f"need P in [0, 1] and finite lam > 0, got P = {P}, lam = {lam}")
    q, neg_entropy, q_miss = trial_terms(lam * P)
    expected_loss = q_miss * P
    entropy_cost = -neg_entropy / lam
    return MonitoringSolution(q, expected_loss + entropy_cost, entropy_cost, expected_loss)


def monitoring_objective(q: float, P: float, lam: float) -> float:
    """(1 - q) * P + H(q) / lam, the quantity optimal_q minimizes over q."""
    return (1.0 - q) * P + entropy(q) / lam


def trial_terms(x):
    """The attention terms at x = lam * P >= 0, formed nowhere else: q* = sigma(x),
    h(x) = -H(q*) = sigma(x) log1p(e^-x) + sigma(-x) (x + log1p(e^-x)) and
    sigma(-x) = 1 - q*.  None is formed as 1 - q, so all keep full relative
    precision where q* rounds to one.  x may be an array."""
    xp = math if isinstance(x, _SCALAR) else _NUMPY
    e = xp.exp(-x)
    log_term = xp.log1p(e)
    q, q_miss = 1.0 / (1.0 + e), e / (1.0 + e)
    return q, q * log_term + q_miss * (x + log_term), q_miss


def locus_price(x):
    """The zero-locus price pi(x) = h(x) / (x^2 q* sigma(-x)) at x = lam * P >= 0, with e^-x
    divided out of h / sigma(-x) (the ratio log1p(e^-x) / e^-x is 1 where e^-x underflows):
    finite until x^2 underflows (+inf after), falling strictly from +inf to 0, with
    1/x < pi(x) < (3 + x)/x^2.  Where x^2 overflows, (1 + x)/x^2 rounds to 1/x, which is
    returned.  x may be an array."""
    xp = math if isinstance(x, _SCALAR) else _NUMPY
    e = xp.exp(-x)
    log_term = xp.log1p(e)
    if xp is math:
        square = x * x
        if square == math.inf:
            return 1.0 / x
        log_ratio = log_term / e if e > 0.0 else 1.0
        return (1.0 + e) * (log_ratio + x + log_term) / square if square > 0.0 else math.inf
    with _NUMPY.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the limits per element
        square = x * x
        pi = (1.0 + e) * (_NUMPY.where(e > 0.0, log_term / e, 1.0) + x + log_term) / square
        return _NUMPY.where(square == math.inf, 1.0 / x, pi)


def q_derivatives(P: float, params: AttentionParams, T: float) -> tuple[float, float, float]:
    """Closed-form (dq*/dP, dq*/dlam, dq*/dT) at price P and trial length T, lam = lam(T).

    The slope q* (1 - q*) is formed as q* sigma(-x) from ``trial_terms``, so it
    keeps full relative precision where q* rounds to one.
    """
    lam = effective_lambda(params, T)
    q, _, q_miss = trial_terms(lam * P)
    slope = q * q_miss
    dlam_dT = -params.beta * params.gamma * params.lambda0 / (1.0 + params.beta * T) ** 2
    return lam * slope, P * slope, P * slope * dlam_dT
