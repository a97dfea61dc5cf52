"""Independent model formulas that the benchmark checks outputs against.

Everything here is written from the model equations with ``math`` only and
reads distribution parameters as plain attributes, so a check never runs the
code path it checks.
"""

from __future__ import annotations

import math


def logistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def neg_entropy(q: float) -> float:
    """-H(q) = -(q ln q + (1 - q) ln(1 - q)), with 0 ln 0 = 0."""
    total = 0.0
    for x in (q, 1.0 - q):
        if x > 0.0:
            total -= x * math.log(x)
    return total


def survivor(dist, v: float) -> float:
    """P(V >= v), including the iso-elastic atom at v = 1."""
    family = type(dist).__name__
    if family == "Uniform":
        if v <= dist.a:
            return 1.0
        if v >= dist.b:
            return 0.0
        return (dist.b - v) / (dist.b - dist.a)
    if family == "PiecewiseIsoElastic":
        if v >= 1.0:
            return dist.kappa
        if v >= dist.v0:
            return dist.kappa * v ** (-dist.eps)
        return 1.0 - (1.0 - dist.kappa * dist.v0 ** (-dist.eps)) / dist.v0 * v
    if family == "TruncatedWeibull":
        mass = -math.expm1(-((1.0 / dist.s) ** dist.k))
        return 1.0 + math.expm1(-((v / dist.s) ** dist.k)) / mass
    raise TypeError(f"no reference formula for {family}")


def pdf(dist, v: float) -> float:
    family = type(dist).__name__
    if family == "Uniform":
        return 1.0 / (dist.b - dist.a) if dist.a <= v <= dist.b else 0.0
    if family == "PiecewiseIsoElastic":
        if v < dist.v0:
            return (1.0 - dist.kappa * dist.v0 ** (-dist.eps)) / dist.v0
        return dist.kappa * dist.eps * v ** (-dist.eps - 1.0)
    if family == "TruncatedWeibull":
        z = v / dist.s
        mass = -math.expm1(-((1.0 / dist.s) ** dist.k))
        return (dist.k / dist.s) * z ** (dist.k - 1.0) * math.exp(-(z**dist.k)) / mass
    raise TypeError(f"no reference formula for {family}")


def lam_eff(params, T: float) -> float:
    return params.gamma * params.lambda0 / (1.0 + params.beta * T)


def revenues(dist, params, T: float, P: float) -> tuple[float, float, float, float]:
    """(standard revenue, inattentive revenue, q*, lambda_eff) at the contract (T, P)."""
    lam = lam_eff(params, T)
    q = logistic(lam * P)
    surv = survivor(dist, P)
    return P * surv, P * (1.0 - surv) * (1.0 - q), q, lam


def price_foc(dist, params, T: float, P: float) -> float:
    lam = lam_eff(params, T)
    q = logistic(lam * P)
    F = 1.0 - survivor(dist, P)
    f = pdf(dist, P)
    return (1.0 - F - P * f) + (1.0 - q) * (F + P * f) - P * F * lam * q * (1.0 - q)


def trial_foc(dist, params, P: float, T: float) -> float:
    lam = lam_eff(params, T)
    q = logistic(lam * P)
    F = 1.0 - survivor(dist, P)
    dq_dT = P * q * (1.0 - q) * (-params.beta * params.gamma * params.lambda0 / (1.0 + params.beta * T) ** 2)
    slack = 0.0
    if params.beta != 0.0 and F != 0.0:
        slack = params.beta / (params.gamma * params.lambda0) * neg_entropy(q) * F
    return P * (P * F * (-dq_dT)) - slack


def uniform_utility(dist, params, T: float, P: float) -> float:
    """Closed-form ex-ante utility for Uniform(a, b) valuations."""
    lam = lam_eff(params, T)
    q = logistic(lam * P)
    lo = max(P, dist.a)
    surplus = 0.0
    if lo < dist.b:
        surplus = ((dist.b - P) ** 2 - (lo - P) ** 2) / (2.0 * (dist.b - dist.a))
    F = 1.0 - survivor(dist, P)
    return surplus - P * F * (1.0 - q) - neg_entropy(q) / lam * F


def close(actual: float, expected: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(actual - expected) <= abs_tol + rel * abs(expected)
