"""Brute-force oracles shared by the solver, policy and paid-trial tests.

Everything here goes through grids, golden-section refinement and bisection
on the public evaluation functions only, so agreement with the solvers is a
genuine two-route check.
"""

import math

import numpy as np

from subtrial.consumer import AttentionParams, monitoring_objective
from subtrial.distributions import ValuationDistribution
from subtrial.exceptions import NoRootError
from subtrial.market import Contract, consumer_utility, profit, revenue
from subtrial.solver import SolverConfig, _polish, _price_condition, trial_foc

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def monitoring_argmin(P: float, lam: float) -> float:
    """Direct minimizer of the monitoring objective, good to ~1e-10.

    Golden-section comparisons alone are noise-limited near a flat minimum
    (the objective barely moves over +-1e-8), so the bracket is polished by
    bisecting the sign of a central-difference slope, which stays resolvable
    well below that scale.
    """
    f = lambda q: monitoring_objective(q, P, lam)
    a, b = 1e-12, 1.0 - 1e-12
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-5:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    h = 1e-7
    slope = lambda q: (f(q + h) - f(q - h)) / (2.0 * h)
    lo = max(a - 1e-4, 1e-6)
    hi = min(b + 1e-4, 1.0 - 1e-6)
    if slope(lo) > 0.0 or slope(hi) < 0.0:
        return 0.5 * (a + b)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo, hi, tol=1e-11):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def best_price_by_grid(
    dist: ValuationDistribution,
    params: AttentionParams,
    T: float,
    config: SolverConfig,
    n: int = 256,
) -> float:
    """Profit-maximizing price on the window by scan plus golden refinement."""
    w = config.price_window
    grid = np.linspace(w.p_lo, w.p_hi, n)
    values = [profit(dist, params, Contract(T=T, P=p)).profit for p in grid]
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n - 1)]
    return golden_max(lambda p: profit(dist, params, Contract(T=T, P=p)).profit, lo, hi)


def joint_by_grid(
    dist: ValuationDistribution,
    params: AttentionParams,
    config: SolverConfig,
    n: int = 256,
    t_hi: float = 40.0,
) -> tuple[float, float]:
    """Brute-force solve of the condition pair.

    For every trial length on the grid the price is taken from a pure profit
    scan; the trial length is then located by the sign change of the trial
    condition along that best-price path (bisection with the price
    re-refined at every evaluation).  Returns the corner (0, P(0)) when the
    condition is already negative there.
    """

    def g(T: float) -> float:
        return trial_foc(dist, params, best_price_by_grid(dist, params, T, config, n), T)

    t_grid = np.linspace(0.0, t_hi, n)
    g0 = g(0.0)
    if g0 <= 0.0:
        return 0.0, best_price_by_grid(dist, params, 0.0, config, n)
    lo, hi = 0.0, None
    g_lo = g0
    for t in t_grid[1:]:
        g_t = g(t)
        if g_t <= 0.0:
            hi = t
            break
        lo, g_lo = t, g_t
    if hi is None:
        raise AssertionError(f"oracle found no sign change up to {t_hi}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    T = 0.5 * (lo + hi)
    return T, best_price_by_grid(dist, params, T, config, n)


def binding_by_grid(
    dist: ValuationDistribution,
    params: AttentionParams,
    config: SolverConfig,
    n: int = 128,
) -> tuple[float, float, float]:
    """Brute-force ``binding_ir`` solve, returned as (T, P, profit).

    At each price the trial is the longest one in [0, t_max] that leaves
    utility nonnegative, by bisection on ``consumer_utility`` (utility falls
    with T); a price with negative utility at T = 0 is infeasible.  Profit
    along that trial is then maximized over the window by scan plus golden
    refinement.  Raises AssertionError when no grid price is feasible.
    """

    def longest_trial(P: float) -> float | None:
        utility = lambda T: consumer_utility(dist, params, Contract(T=T, P=P))
        if utility(0.0) < 0.0:
            return None
        if utility(config.t_max) >= 0.0:
            return config.t_max
        lo, hi = 0.0, config.t_max
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if utility(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    def value(P: float) -> float:
        T = longest_trial(P)
        return -math.inf if T is None else profit(dist, params, Contract(T=T, P=P)).profit

    w = config.price_window
    grid = np.linspace(w.p_lo, w.p_hi, n)
    values = [value(p) for p in grid]
    i = int(np.argmax(values))
    if values[i] == -math.inf:
        raise AssertionError("oracle found no price with nonnegative utility at T = 0")
    P = golden_max(value, grid[max(i - 1, 0)], grid[min(i + 1, n - 1)])
    P, best = max([(P, value(P)), (float(grid[i]), values[i])], key=lambda c: c[1])
    return longest_trial(P), float(P), float(best)


def scan_roots_by_points(f, grid, config: SolverConfig) -> tuple[list[float], list[float]]:
    """The bracket scan one grid point at a time: f is called on each point
    alone, a grid value of 0 is a root, and each sign change between
    neighbours is polished by the solver's scalar polish and kept when its
    residual is within ``root_tol`` (a larger one is a jump, not a root)."""
    vals = [f(t) for t in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            root = _polish(f, grid[i], grid[i + 1], config)[0]
            if abs(f(root)) <= config.root_tol:
                roots.append(root)
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots, vals


def best_price_by_points(dist: ValuationDistribution, lam: float, config: SolverConfig):
    """The best-price rule on the point-by-point scan, as (price, roots, vals):
    the revenue-maximizing root, else the window edge the condition's sign
    points to, and the scan's values; NoRootError when it changes sign only by jumps."""
    w = config.price_window
    grid = np.linspace(w.p_lo, w.p_hi, config.bracket_grid + 1)
    roots, vals = scan_roots_by_points(lambda p: _price_condition(dist, lam, p), grid, config)
    if not roots:
        if min(vals) < 0.0 < max(vals):
            raise NoRootError(f"jump-only sign change at lambda_eff={lam}")
        return (w.p_hi if vals[-1] > 0.0 else w.p_lo), (), vals
    return max(roots, key=lambda p: revenue(dist, lam, p)), tuple(roots), vals
