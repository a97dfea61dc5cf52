"""Scenario-level invariant checks backing the ``verify`` CLI command.

Each check recomputes a quantity by an independent route (finite differences,
direct minimization, quadrature) and compares against the closed forms the
package uses.  These are identities of the implementation, so a failure
means numerical breakage, not a modeling disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .consumer import effective_lambda, entropy, monitoring_objective, optimal_q, q_derivatives
from .distributions import GL_NODES, GL_WEIGHTS, SURVIVOR_FLOOR, PriceWindow, check_ifr, lambda_crit
from .exceptions import SingularityError, UnboundedError
from .heterogeneity import AttentionMixture, aggregate_loss, mps_pair
from .market import Contract, cancel_mass, consumer_utility, inattentive_revenue, ir_slack, profit
from .paid import intro_price_foc, optimal_intro_price, profit_paid, signup_rate
from .policy import PolicyShock, apply_shock
from .scenario import Scenario
from .solver import _golden_max, price_foc


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    ok: bool
    detail: str


def _rel_err(actual: float, expected: float) -> float:
    scale = max(abs(expected), 1e-12)
    return abs(actual - expected) / scale


def run_invariant_checks(scenario: Scenario) -> list[CheckResult]:
    checks: list[CheckResult] = []
    dist = scenario.distribution
    params = scenario.attention
    window = scenario.solver.price_window

    def add(module: str, name: str, ok: bool, detail: str) -> None:
        checks.append(CheckResult(module=module, name=name, ok=bool(ok), detail=detail))

    # --- distributions ---
    grid = window.grid(41)
    cdf_vals = [dist.cdf(v) for v in grid]
    add(
        "distributions",
        "cdf_monotone",
        all(b >= a - 1e-14 for a, b in zip(cdf_vals, cdf_vals[1:])),
        "nondecreasing over the window grid",
    )
    h = 1e-6
    fd_err = max(
        _rel_err((dist.cdf(v + h) - dist.cdf(v - h)) / (2 * h), dist.pdf(v))
        for v in grid
        if _smooth_point(dist, v, h)
    )
    add("distributions", "cdf_pdf_consistency", fd_err <= 1e-4, f"max rel err {fd_err:.2e}")
    defined = grid[dist.survivor(grid) > SURVIVOR_FLOOR]  # the hazard is undefined at the floor
    hz_err = max((_rel_err(dist.hazard(v) * dist.survivor(v), dist.pdf(v)) for v in defined), default=0.0)
    add("distributions", "hazard_times_survivor", hz_err <= 1e-10, f"max rel err {hz_err:.2e}")
    mass = _total_mass(dist)
    add("distributions", "total_mass", abs(mass - 1.0) <= 1e-8, f"mass {mass:.12f}")
    inner = PriceWindow(
        window.p_lo + 0.2 * (window.p_hi - window.p_lo),
        window.p_hi - 0.2 * (window.p_hi - window.p_lo),
    )
    try:
        crit_full, crit_inner = lambda_crit(dist, window), lambda_crit(dist, inner)
        ok, detail = crit_inner <= crit_full + 1e-9, f"inner {crit_inner:.6g} vs full {crit_full:.6g}"
    except (SingularityError, UnboundedError):
        ok, detail = True, "skipped: hazard unbounded on the window"
    add("distributions", "lambda_crit_window_monotone", ok, detail)

    # --- consumer ---
    worst = 0.0
    for P in (0.1, 0.35, 0.7, 1.0):
        for lam in (0.2, 1.0, 4.0):
            numeric = _golden_max(lambda q: -monitoring_objective(q, P, lam), 1e-12, 1 - 1e-12, 1e-12)
            worst = max(worst, abs(optimal_q(P, lam).q_star - numeric))
    add("consumer", "closed_form_vs_direct_min", worst <= 1e-8, f"max |dq| {worst:.2e}")
    qs = np.linspace(0.05, 0.95, 7)
    convex = all(
        entropy(0.5 * (a + b)) < 0.5 * (entropy(a) + entropy(b)) - 1e-12
        for a in qs
        for b in qs
        if abs(a - b) > 1e-9
    )
    add("consumer", "entropy_strictly_convex", convex, "midpoint inequality on a grid")
    worst = 0.0
    hx = 1e-5  # step in lam * P units: keeps truncation and cancellation balanced
    for T in (0.5, 2.0):
        lam = effective_lambda(params, T)
        # keep lam * P moderate: at saturation the central difference itself
        # cancels catastrophically and stops being a usable oracle
        for P in (min(0.6, 3.0 / lam), min(0.2, 1.0 / lam)):
            dq_dP, dq_dlam, dq_dT = q_derivatives(P, lam, params, T)
            s_p = hx / lam
            s_lam = hx / P
            fd_P = (optimal_q(P + s_p, lam).q_star - optimal_q(P - s_p, lam).q_star) / (2 * s_p)
            fd_lam = (optimal_q(P, lam + s_lam).q_star - optimal_q(P, lam - s_lam).q_star) / (2 * s_lam)
            worst = max(worst, _rel_err(dq_dP, fd_P), _rel_err(dq_dlam, fd_lam))
            if params.beta > 0:
                s_t = 1e-6
                fd_T = (
                    optimal_q(P, effective_lambda(params, T + s_t)).q_star
                    - optimal_q(P, effective_lambda(params, T - s_t)).q_star
                ) / (2 * s_t)
                worst = max(worst, _rel_err(dq_dT, fd_T))
    add("consumer", "derivatives_vs_finite_difference", worst <= 1e-6, f"max rel err {worst:.2e}")

    # --- market ---
    mid_p = 0.5 * (window.p_lo + window.p_hi)
    contract = scenario.contract or Contract(T=1.0, P=mid_p)
    out = profit(dist, params, contract)
    ident = abs(out.profit - out.standard_revenue - out.inattentive_revenue)
    add("market", "profit_decomposition", ident <= 1e-12, f"|err| {ident:.2e}")
    if params.beta > 0:
        worst = 0.0
        for T in (0.5, 2.0, 8.0):
            c = Contract(T=T, P=contract.P)
            q_base = profit(dist, params, c).q_star
            h_t = 1e-5
            fd = -(
                consumer_utility(dist, params, Contract(T=T + h_t, P=c.P), q_override=q_base)
                - consumer_utility(dist, params, Contract(T=T - h_t, P=c.P), q_override=q_base)
            ) / (2 * h_t)
            worst = max(worst, _rel_err(ir_slack(dist, params, c), fd))
        add("market", "slack_envelope_identity", worst <= 1e-5, f"max rel err {worst:.2e}")
    boosted = replace(params, gamma=params.gamma * 2.0)
    add(
        "market",
        "attention_boost_statics",
        consumer_utility(dist, boosted, contract) >= consumer_utility(dist, params, contract) - 1e-12
        and inattentive_revenue(dist, boosted, contract)
        <= inattentive_revenue(dist, params, contract) + 1e-12,
        "utility up, inattentive revenue down at the fixed contract",
    )

    # --- solver ---
    worst = 0.0
    step = 1e-6
    for P in np.linspace(window.p_lo + 0.05, window.p_hi - 0.05, 4):
        for T in (0.0, 3.0):
            fd = (
                profit(dist, params, Contract(T=T, P=P + step)).profit
                - profit(dist, params, Contract(T=T, P=P - step)).profit
            ) / (2 * step)
            worst = max(worst, _rel_err(price_foc(dist, params, T, P), fd))
    add("solver", "price_foc_is_profit_slope", worst <= 1e-5, f"max rel err {worst:.2e}")
    ifr = check_ifr(dist, window)
    if ifr.is_ifr:
        grid = window.grid(scenario.solver.bracket_grid + 1)
        vals = [price_foc(dist, params, 0.0, p) for p in grid]
        changes = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
        add("solver", "unique_root_under_ifr", changes == 1, f"{changes} sign changes")
    else:
        add("solver", "unique_root_under_ifr", True, "skipped: hazard not increasing")

    # --- policy ---
    shock = scenario.shock or PolicyShock(gamma=2.0)
    shocked = apply_shock(params, shock)
    scale_err = max(
        abs(effective_lambda(shocked, t) - shock.gamma * effective_lambda(params, t))
        for t in (0.0, 1.0, 10.0, 100.0)
    )
    add("policy", "shock_scales_sensitivity_exactly", scale_err <= 1e-12, f"max |err| {scale_err:.2e}")
    add(
        "policy",
        "shock_dominance_at_fixed_contract",
        consumer_utility(dist, shocked, contract) >= consumer_utility(dist, params, contract) - 1e-12
        and inattentive_revenue(dist, shocked, contract)
        <= inattentive_revenue(dist, params, contract) + 1e-12,
        "utility up, inattentive revenue down under the scenario shock",
    )

    # --- heterogeneity ---
    mixture = scenario.mixture or AttentionMixture.point_mass(params.lambda0)
    one_atom = AttentionMixture.point_mass(effective_lambda(params, contract.T))
    agree = abs(
        aggregate_loss(dist, one_atom, contract) - inattentive_revenue(dist, params, contract)
    )
    add("heterogeneity", "point_mass_matches_market", agree <= 1e-14, f"|err| {agree:.2e}")
    loss = aggregate_loss(dist, mixture, contract)
    add(
        "heterogeneity",
        "loss_within_bounds",
        0.0 <= loss <= contract.P * cancel_mass(dist, contract.P) + 1e-15,
        f"loss {loss:.6g} vs cap {contract.P * cancel_mass(dist, contract.P):.6g}",
    )
    # Jensen consistency: a small spread must move the loss in the direction
    # of the measured curvature of the failure probability at the mean.
    mean_z = mixture.mean_z()
    psi = lambda zz: 1.0 - optimal_q(contract.P, 1.0 / zz).q_star
    hh = 0.05 * mean_z
    fd2 = (psi(mean_z + hh) - 2 * psi(mean_z) + psi(mean_z - hh)) / hh**2
    base, spread = mps_pair(mean_z, hh)
    premium = aggregate_loss(dist, spread, contract) - aggregate_loss(dist, base, contract)
    add(
        "heterogeneity",
        "spread_direction_matches_curvature",
        premium * fd2 >= 0.0 or abs(premium) < 1e-12,
        f"premium {premium:+.3e}, curvature {fd2:+.3e}",
    )

    # --- paid trial ---
    if scenario.signup is not None:
        model = scenario.signup
        aug = 0.3
        p0, corner = optimal_intro_price(model, aug)
        if corner == "interior" and signup_rate(model, p0) < model.cap:
            resid = intro_price_foc(model, p0, aug)
            add("paid", "closed_form_solves_foc", abs(resid) <= 1e-9, f"|residual| {abs(resid):.2e}")
        else:
            add("paid", "closed_form_solves_foc", True, "skipped: corner or capped")
        c = Contract(T=contract.T, P=contract.P, P0=max(p0, model.cap_edge() * 1.5, 0.05))
        if signup_rate(model, c.P0) < model.cap:
            h0 = 1e-6
            fd = (
                profit_paid(dist, params, model, Contract(T=c.T, P=c.P, P0=c.P0 + h0)).profit
                - profit_paid(dist, params, model, Contract(T=c.T, P=c.P, P0=c.P0 - h0)).profit
            ) / (2 * h0)
            resid = intro_price_foc(model, c.P0, profit_paid(dist, params, model, c).p_aug)
            err = abs(resid - fd) / max(abs(fd), 1e-9)
            add("paid", "intro_foc_is_profit_slope", err <= 1e-5, f"rel err {err:.2e}")

    return checks


def _total_mass(dist) -> float:
    """Atom plus density between kinks, each piece as v = lo + (hi - lo) u^3, which smooths a
    Weibull density's v^(k - 1) at v = 0 enough for the Gauss-Legendre rule."""
    edges = [0.0, *(k for k in dist.kinks if 0.0 < k < 1.0), 1.0]
    return dist.atom_at_one + sum(
        3.0 * (hi - lo) * w * u * u * dist.pdf(lo + (hi - lo) * u**3)
        for lo, hi in zip(edges, edges[1:]) for u, w in zip(GL_NODES, GL_WEIGHTS)
    )


def _smooth_point(dist, v: float, h: float) -> bool:
    """Skip finite differences across density kinks and support edges."""
    return 2 * h < v < 1.0 - 2 * h and all(abs(v - k) >= 2 * h for k in dist.kinks)
