"""Scenario-level invariant checks backing the ``verify`` CLI command.

Each check recomputes a quantity by an independent route (finite differences,
direct minimization, quadrature) and compares against the closed forms the
package uses.  These are identities of the implementation, so a failure
means numerical breakage, not a modeling disagreement.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

from .consumer import AttentionParams, effective_lambda, entropy, monitoring_objective, optimal_q, q_derivatives
from .distributions import SURVIVOR_FLOOR, PriceWindow, check_ifr, golden_max, lambda_crit, linear_grid, scan
from .exceptions import DomainError, SingularityError, UnboundedError
from .heterogeneity import AttentionMixture, aggregate_loss, mps_pair
from .market import Contract, cancel_mass, consumer_utility, inattentive_revenue, ir_slack, profit
from .paid import intro_price_foc, optimal_intro_price, profit_paid, signup_rate
from .policy import DEFAULT_SHOCK, apply_shock
from .scenario import Scenario
from .solver import price_foc


# A T difference of q* below this is not compared: a few ulps of q* in (1/2, 1), ~1e-15, exceed
# the check's 1e-6 bound on it.
DQ_RESOLUTION = 1e-9
# The 32-node Gauss-Legendre rule on [-1, 1], numpy's leggauss(32) bitwise: its nodes are
# symmetric and its weights even, so the nonnegative half of each is the rule.
_GL_HALF_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
)
_GL_HALF_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
)


class CheckResult(NamedTuple):
    module: str
    name: str
    ok: bool
    detail: str


def _rel_err(actual: float, expected: float) -> float:
    scale = max(abs(expected), 1e-12)
    return abs(actual - expected) / scale


def run_invariant_checks(scenario: Scenario) -> list[CheckResult]:
    """The checks in a fixed order.  One whose arithmetic leaves the model's domain or the float range
    (at extreme attention lam(T) underflows to 0, or a finite-difference step overflows) passes as
    ``skipped: <reason>``: the diagnostic reports and never aborts."""
    checks: list[CheckResult] = []
    dist, params, window = scenario.distribution, scenario.attention, scenario.solver.price_window

    def check(module: str) -> Callable[[Callable[[], tuple[bool, str]]], None]:
        """Run the decorated function, which returns (ok, detail), now as the check named after it."""
        def run(fn: Callable[[], tuple[bool, str]]) -> None:
            try:
                ok, detail = fn()
            except (ArithmeticError, DomainError) as exc:
                ok, detail = True, f"skipped: {type(exc).__name__}: {exc}"
            checks.append(CheckResult(module, fn.__name__, bool(ok), detail))
        return run

    # --- distributions ---
    grid = window.grid(41)
    @check("distributions")
    def cdf_monotone():
        cdf_vals = [dist.cdf(v) for v in grid]
        return all(b >= a - 1e-14 for a, b in zip(cdf_vals, cdf_vals[1:])), "nondecreasing over the window grid"
    @check("distributions")
    def cdf_pdf_consistency():
        h = 1e-6
        fd_err = max(_rel_err((dist.survivor(v - h) - dist.survivor(v + h)) / (2 * h), dist.pdf(v))
                     for v in grid if _smooth_point(dist, v, h))
        return fd_err <= 1e-4, f"max rel err {fd_err:.2e}"
    @check("distributions")
    def hazard_times_survivor():
        # the hazard is undefined at the floor
        defined = [v for v, s in zip(grid, scan(dist.survivor, grid)) if s > SURVIVOR_FLOOR]
        hz_err = max((_rel_err(dist.hazard(v) * dist.survivor(v), dist.pdf(v)) for v in defined), default=0.0)
        return hz_err <= 1e-10, f"max rel err {hz_err:.2e}"
    @check("distributions")
    def total_mass():
        mass = _total_mass(dist)
        return abs(mass - 1.0) <= 1e-8, f"mass {mass:.12f}"
    @check("distributions")
    def lambda_crit_window_monotone():
        span = window.p_hi - window.p_lo
        inner = PriceWindow(window.p_lo + 0.2 * span, window.p_hi - 0.2 * span)
        try:
            crit_full, crit_inner = lambda_crit(dist, window), lambda_crit(dist, inner)
        except (SingularityError, UnboundedError):
            return True, "skipped: hazard unbounded on the window"
        return crit_inner <= crit_full + 1e-9, f"inner {crit_inner:.6g} vs full {crit_full:.6g}"

    # --- consumer ---
    @check("consumer")
    def closed_form_vs_direct_min():
        worst = 0.0
        for P in (0.1, 0.35, 0.7, 1.0):
            for lam in (0.2, 1.0, 4.0):
                numeric = golden_max(lambda q: -monitoring_objective(q, P, lam), 1e-12, 1 - 1e-12, 1e-12)
                worst = max(worst, abs(optimal_q(P, lam).q_star - numeric))
        return worst <= 1e-8, f"max |dq| {worst:.2e}"
    @check("consumer")
    def entropy_strictly_convex():
        qs = linear_grid(0.05, 0.95, 7)
        convex = all(entropy(0.5 * (a + b)) < 0.5 * (entropy(a) + entropy(b)) - 1e-12
                     for a in qs for b in qs if abs(a - b) > 1e-9)
        return convex, "midpoint inequality on a grid"
    @check("consumer")
    def derivatives_vs_finite_difference():
        worst, unresolved = 0.0, False
        hx = 1e-5  # step in lam * P units: keeps truncation and cancellation balanced
        for T in (0.5, 2.0):
            lam = effective_lambda(params, T)
            # keep lam * P moderate: at saturation the central difference itself
            # cancels catastrophically and stops being a usable oracle
            for P in (min(0.6, 3.0 / lam), min(0.2, 1.0 / lam)):
                dq_dP, dq_dlam, dq_dT = q_derivatives(P, params, T)
                # clipped into the domain, which only a tiny lam or P leaves: P +- s_p in [0, 1], lam - s_lam > 0
                s_p, s_lam = min(hx / lam, P, 1.0 - P), min(hx / P, 0.5 * lam)
                fd_P = (optimal_q(P + s_p, lam).q_star - optimal_q(P - s_p, lam).q_star) / (2 * s_p)
                fd_lam = (optimal_q(P, lam + s_lam).q_star - optimal_q(P, lam - s_lam).q_star) / (2 * s_lam)
                worst = max(worst, _rel_err(dq_dP, fd_P), _rel_err(dq_dlam, fd_lam))
                if params.beta > 0:
                    s_t = 1e-6
                    dq = (optimal_q(P, effective_lambda(params, T + s_t)).q_star
                          - optimal_q(P, effective_lambda(params, T - s_t)).q_star)
                    if abs(dq) < DQ_RESOLUTION:
                        unresolved = True
                    else:
                        worst = max(worst, _rel_err(dq_dT, dq / (2 * s_t)))
        note = f"; dq/dT unresolved: the T difference is below {DQ_RESOLUTION:g}" if unresolved else ""
        return worst <= 1e-6, f"max rel err {worst:.2e}{note}"

    # --- market ---
    contract = scenario.contract or Contract(T=1.0, P=0.5 * (window.p_lo + window.p_hi))
    def dominance(boosted: AttentionParams, where: str) -> tuple[bool, str]:
        """Utility up and inattentive revenue down at the fixed contract under a larger gamma."""
        return (consumer_utility(dist, boosted, contract) >= consumer_utility(dist, params, contract) - 1e-12
                and inattentive_revenue(dist, boosted, contract) <= inattentive_revenue(dist, params, contract) + 1e-12,
                f"utility up, inattentive revenue down {where}")
    @check("market")
    def profit_decomposition():
        out = profit(dist, params, contract)
        ident = abs(out.profit - out.standard_revenue - out.inattentive_revenue)
        return ident <= 1e-12, f"|err| {ident:.2e}"
    if params.beta > 0:
        @check("market")
        def slack_envelope_identity():
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
            return worst <= 1e-5, f"max rel err {worst:.2e}"
    @check("market")
    def attention_boost_statics():
        return dominance(params._replace(gamma=params.gamma * 2.0), "at the fixed contract")

    # --- solver ---
    @check("solver")
    def price_foc_is_profit_slope():
        worst = 0.0
        step = 1e-6
        for P in linear_grid(window.p_lo + 0.05, window.p_hi - 0.05, 4):
            for T in (0.0, 3.0):
                fd = (
                    profit(dist, params, Contract(T=T, P=P + step)).profit
                    - profit(dist, params, Contract(T=T, P=P - step)).profit
                ) / (2 * step)
                worst = max(worst, _rel_err(price_foc(dist, params, T, P), fd))
        return worst <= 1e-5, f"max rel err {worst:.2e}"
    @check("solver")
    def unique_root_under_ifr():
        if not check_ifr(dist, window).is_ifr:
            return True, "skipped: hazard not increasing"
        # IFR: S - P f = S (1 - P h) crosses zero at most once; the inattentive margin may add crossings
        grid = window.grid(scenario.solver.bracket_grid + 1)
        vals = [dist.survivor(p) - p * dist.pdf(p) for p in grid]
        changes = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
        return changes <= 1, f"{changes} sign changes"

    # --- policy ---
    shock = scenario.shock or DEFAULT_SHOCK
    @check("policy")
    def shock_scales_sensitivity_exactly():
        shocked = apply_shock(params, shock)
        scale_err = max(abs(effective_lambda(shocked, t) - shock.gamma * effective_lambda(params, t))
                        for t in (0.0, 1.0, 10.0, 100.0))
        return scale_err <= 1e-12, f"max |err| {scale_err:.2e}"
    @check("policy")
    def shock_dominance_at_fixed_contract():
        return dominance(apply_shock(params, shock), "under the scenario shock")

    # --- heterogeneity ---
    mixture = scenario.mixture or AttentionMixture.point_mass(params.lambda0)
    @check("heterogeneity")
    def point_mass_matches_market():
        one_atom = AttentionMixture.point_mass(effective_lambda(params, contract.T))
        agree = abs(aggregate_loss(dist, one_atom, contract) - inattentive_revenue(dist, params, contract))
        return agree <= 1e-14, f"|err| {agree:.2e}"
    @check("heterogeneity")
    def loss_within_bounds():
        loss = aggregate_loss(dist, mixture, contract)
        cap = contract.P * cancel_mass(dist, contract.P)
        return 0.0 <= loss <= cap + 1e-15, f"loss {loss:.6g} vs cap {cap:.6g}"
    @check("heterogeneity")
    def spread_direction_matches_curvature():
        # Jensen consistency: a small spread must move the loss in the direction
        # of the measured curvature of the failure probability at the mean.
        mean_z = mixture.mean_z()
        psi = lambda zz: 1.0 - optimal_q(contract.P, 1.0 / zz).q_star
        hh = 0.05 * mean_z
        fd2 = (psi(mean_z + hh) - 2 * psi(mean_z) + psi(mean_z - hh)) / hh**2
        base, spread = mps_pair(mean_z, hh)
        premium = aggregate_loss(dist, spread, contract) - aggregate_loss(dist, base, contract)
        return premium * fd2 >= 0.0 or abs(premium) < 1e-12, f"premium {premium:+.3e}, curvature {fd2:+.3e}"

    # --- paid trial ---
    if scenario.signup is not None:
        model, aug = scenario.signup, 0.3
        p0, corner = optimal_intro_price(model, aug)
        @check("paid")
        def closed_form_solves_foc():
            if corner != "interior" or signup_rate(model, p0) >= model.cap:
                return True, "skipped: corner or capped"
            resid = intro_price_foc(model, p0, aug)
            return abs(resid) <= 1e-9, f"|residual| {abs(resid):.2e}"
        P0 = max(p0, model.cap_edge() * 1.5, 0.05)
        if signup_rate(model, P0) < model.cap:
            @check("paid")
            def intro_foc_is_profit_slope():
                c = Contract(T=contract.T, P=contract.P, P0=P0)
                h0 = 1e-6
                fd = (
                    profit_paid(dist, params, model, Contract(T=c.T, P=c.P, P0=c.P0 + h0)).profit
                    - profit_paid(dist, params, model, Contract(T=c.T, P=c.P, P0=c.P0 - h0)).profit
                ) / (2 * h0)
                resid = intro_price_foc(model, c.P0, profit_paid(dist, params, model, c).p_aug)
                err = abs(resid - fd) / max(abs(fd), 1e-9)
                return err <= 1e-5, f"rel err {err:.2e}"

    return checks


@functools.cache
def gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(nodes, weights) of a composite 32-node Gauss-Legendre rule on [0, 1] in three equal
    panels, as float tuples."""
    x = (*(-v for v in reversed(_GL_HALF_NODES)), *_GL_HALF_NODES)
    w = (*reversed(_GL_HALF_WEIGHTS), *_GL_HALF_WEIGHTS)
    return tuple((j + (v + 1.0) / 2.0) / 3.0 for j in range(3) for v in x), tuple(v / 6.0 for v in w) * 3


def _total_mass(dist) -> float:
    """Atom plus density between kinks, each piece as v = lo + (hi - lo) u^3, which smooths a
    Weibull density's v^(k - 1) at v = 0 enough for the Gauss-Legendre rule."""
    edges = [0.0, *(k for k in dist.kinks if 0.0 < k < 1.0), 1.0]
    return dist.atom_at_one + sum(
        3.0 * (hi - lo) * w * u * u * dist.pdf(lo + (hi - lo) * u**3)
        for lo, hi in zip(edges, edges[1:]) for u, w in zip(*gauss_legendre())
    )


def _smooth_point(dist, v: float, h: float) -> bool:
    """Skip finite differences across density kinks and support edges."""
    return 2 * h < v < 1.0 - 2 * h and all(abs(v - k) >= 2 * h for k in dist.kinks)
