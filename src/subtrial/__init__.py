"""Subscription-contract design with rationally inattentive consumers.

A monopolist sells a subscription with a trial of length T and renewal price
P (optionally an introductory price P0).  Consumers know their valuation; the
friction is the cognitive cost of remembering to cancel, which decays with
trial length.  The package computes consumer monitoring behavior in closed
form, aggregates market outcomes, solves the firm's first-order conditions,
and runs policy, heterogeneity and paid-trial experiments, each cross-checked
against brute-force oracles in the test suite.
"""

import importlib

__version__ = "0.1.0"

# each public name once, under its defining module, which loads on the name's first use
_EXPORTS = {
    "consumer": ("AttentionParams", "MonitoringSolution", "effective_lambda", "entropy", "optimal_q",
                 "q_derivatives"),
    "distributions": ("PiecewiseIsoElastic", "PriceWindow", "TruncatedWeibull", "Uniform", "ValuationDistribution",
                      "check_ifr", "lambda_crit"),
    "heterogeneity": ("AttentionMixture", "aggregate_loss", "mps_pair", "psi_curvature"),
    "market": ("Contract", "MarketOutcome", "consumer_utility", "inattentive_revenue", "ir_slack", "profit"),
    "paid": ("PaidTrialOptimum", "SignupModel", "cross_partial_check", "intro_price_foc", "joint_paid_optimum",
             "optimal_intro_price", "p_aug", "profit_paid", "signup_rate"),
    "policy": ("BetaCurve", "ComparativeStaticsReport", "PolicyShock", "apply_shock", "beta_profit_curve",
               "click_to_cancel_statics", "mandatory_reminder_limit"),
    "solver": ("OptimalContract", "SolverConfig", "joint_optimum", "price_foc", "price_response_curve",
               "solve_price", "solve_trial", "trial_foc"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "exceptions")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or submodule, imported on first use and kept in the package namespace."""
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
