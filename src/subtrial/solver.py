"""Firm-side optimization: one solve on the (lambda_eff, P) plane.

The price condition at a fixed trial length is the derivative of profit in P:

    [1 - F - P f]  +  (1 - q*) {F + P f}  -  P F lam q* (1 - q*) = 0 .

The trial condition g = P * dIR/dT - ir_slack balances the price-weighted
marginal inattentive revenue against the marginal utility harm of a longer
trial.  With x = lam(T) * P and h(x) = -H(sigma(x)) it factors as

    g(T, P) = (beta / (gamma * lambda0)) * F(P) * [P x^2 sigma'(x) - h(x)],

so g > 0 exactly when P > pi(x) = h(x) / (x^2 sigma'(x)).  pi falls strictly
from +inf to 0, so the zero locus has an inverse x_g(P): lam(T) P = x_g(P).

Both conditions depend on attention only through (lam_eff, P), so
``joint_optimum`` solves once on that plane, maps lam_eff to T by the decay
law, and returns the fixed point with the smallest T.  Maximizing profit
over T instead does not work: profit is strictly increasing in T whenever
beta > 0 and F(P) > 0, so it just climbs to the cap.  ``binding_ir`` mode
stops that climb where utility, also a function of (lam_eff, P), is zero.
Scans are array-valued and the polish is scalar: a scan of the price window or
of the locus in x is one numpy call on its grid, and each sign change it finds
gets a Ridder polish on floats.

Quantitative warning baked into the implementation (and verified by the test
suite): g(0) is negative unless baseline sensitivity is large.  For uniform
valuations the interior threshold is lambda0 of roughly 5.93; below it the
trial corner T* = 0 is the genuine optimum of the modeled trade-off.  At
interior solutions the effective sensitivity lam(T*) is invariant to lambda0,
beta and gamma, which pins the optimal price as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .consumer import AttentionParams, effective_lambda, logistic_q, trial_terms
from .distributions import PriceWindow, ValuationDistribution, argmax_bracket, check_ifr, lambda_crit
from .exceptions import ConvergenceError, MonotonicityError, NoRootError, TrialBoundError
from .market import Contract, MarketOutcome, cancel_mass, profit, revenue, utility_in_x

T_AT_ZERO = "T_at_zero"
T_AT_MAX = "T_at_max"
P_AT_WINDOW_EDGE = "P_at_window_edge"

PARTICIPATION_MODES = ("interior", "binding_ir", "report_only")
RIDDER_RTOL = 4.0 * np.finfo(float).eps  # relative part of the polish's bracket test


@dataclass(frozen=True)
class SolverConfig:
    price_window: PriceWindow = field(default_factory=lambda: PriceWindow(0.05, 0.95))
    t_max: float = 365.0
    bracket_grid: int = 256
    root_tol: float = 1e-10
    opt_tol: float = 1e-9
    participation_mode: str = "report_only"
    max_iter: int = 200  # iterations of each bracketed root polish

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if not all(math.isfinite(tol) and tol > 0.0 for tol in (self.root_tol, self.opt_tol)):
            raise ValueError("tolerances must be positive and finite")
        if not all(type(n) is int and n >= 1 for n in (self.bracket_grid, self.max_iter)):
            raise ValueError(f"bracket_grid and max_iter must be integers of at least 1 in {self}")
        if self.participation_mode not in PARTICIPATION_MODES:
            raise ValueError(f"unknown participation mode {self.participation_mode!r}")


@dataclass(frozen=True)
class PriceSolution:
    price: float
    residual: float
    sign_changes: int
    roots: tuple[float, ...]
    ifr_ok: bool


@dataclass(frozen=True)
class TrialSolution:
    T: float
    residual: float
    at_zero: bool


@dataclass(frozen=True)
class OptimalContract:
    contract: Contract
    outcome: MarketOutcome
    foc_residuals: tuple[float, float]
    boundary_flags: frozenset[str]
    participation_satisfied: bool

    @property
    def is_interior(self) -> bool:
        return not self.boundary_flags


def price_foc(dist: ValuationDistribution, params: AttentionParams, T: float, P: float) -> float:
    """Marginal profit in P: standard margin plus the inattentive margin."""
    return _price_condition(dist, effective_lambda(params, T), P)


def _price_condition(dist: ValuationDistribution, lam, P):
    """The price condition at (lam, P); at a scan's grid, one of them or both are arrays."""
    q = logistic_q(P, lam)
    F = cancel_mass(dist, P)
    f = dist.pdf(P)
    standard = 1.0 - F - P * f
    inattentive = (1.0 - q) * (F + P * f) - P * F * lam * q * (1.0 - q)
    return standard + inattentive


def trial_foc(dist: ValuationDistribution, params: AttentionParams, P: float, T: float) -> float:
    """P * dIR/dT minus the marginal utility harm of lengthening the trial.

    Evaluated in the factored form of the module docstring, which keeps its
    sign and relative precision where q* rounds to one.
    """
    mass = cancel_mass(dist, P)
    if params.beta == 0.0 or mass == 0.0:
        return 0.0
    x = effective_lambda(params, T) * P
    q, neg_entropy, _, q_miss = trial_terms(x)
    return params.beta / (params.gamma * params.lambda0) * mass * (P * x * x * (q * q_miss) - neg_entropy)


def _trial_positive(dist: ValuationDistribution, params: AttentionParams, lam: float, P: float) -> bool:
    """Sign of the trial condition at (lam, P): g > 0 exactly when P > pi(lam P)."""
    return params.beta > 0.0 and cancel_mass(dist, P) > 0.0 and P > trial_terms(lam * P)[2]


def _locus_x(P: float, config: SolverConfig) -> float:
    """x_g(P), the x = lam P at which the trial condition vanishes at price P."""
    hi = (1.0 + math.sqrt(1.0 + 12.0 * P)) / (2.0 * P)
    return _polish(lambda x: trial_terms(x)[2] - P, 1.0 / P, hi, config)


def _on_locus(dist: ValuationDistribution, x):
    """The price condition on the g = 0 locus at x = lam P, where P = pi(x); x may be an array."""
    price = trial_terms(x)[2]
    return _price_condition(dist, x / price, price)


def _trial_length(params: AttentionParams, lam: float) -> float:
    """Inverse of the decay law: the T at which lam(T) = lam."""
    return (params.gamma * params.lambda0 / lam - 1.0) / params.beta


def _ridder(f, lo: float, hi: float, xtol: float, max_iter: int) -> float:
    """Ridder's method (Ridders 1979, IEEE Trans. Circuits Syst. 26:979) on a sign-change
    bracket; returns the iterate x at which the bracket is below xtol + RIDDER_RTOL x."""
    xa, xb = float(lo), float(hi)
    fa, fb = f(xa), f(xb)
    if fa == 0.0 or fb == 0.0:
        return xa if fa == 0.0 else xb
    tol = xtol + RIDDER_RTOL * abs(xa)
    for _ in range(max_iter):
        dm = 0.5 * (xb - xa)
        xm = xa + dm
        fm = f(xm)
        dn = (1.0 if fb - fa > 0.0 else -1.0) * fm * dm / math.sqrt(fm * fm - fa * fb)
        xn = xm - (1.0 if dn > 0.0 else -1.0) * min(abs(dn), abs(dm) - 0.5 * tol)
        fn = f(xn)
        if math.copysign(1.0, fn) != math.copysign(1.0, fm):
            xa, fa, xb, fb = xn, fn, xm, fm
        elif math.copysign(1.0, fn) != math.copysign(1.0, fa):
            xb, fb = xn, fn
        else:
            xa, fa = xn, fn
        tol = xtol + RIDDER_RTOL * xn
        if fn == 0.0 or abs(xb - xa) < tol:
            return xn
    raise ConvergenceError(f"root polish on [{lo}, {hi}] did not converge in {max_iter} iterations")


def _polish(f, lo: float, hi: float, config: SolverConfig) -> float:
    """Root of f in a sign-change bracket: Ridder's method to a step of
    ``root_tol``, then one secant step across that last step, which takes a
    smooth f's residual down to rounding.  Ridder's method at least halves
    the bracket every iteration, so a jump of f across zero (at a density
    kink) is located within ``max_iter`` iterations too."""
    tol = config.root_tol
    root = _ridder(f, lo, hi, tol, config.max_iter)
    a, b = max(lo, root - tol), min(hi, root + tol)
    f_a, f_b = f(a), f(b)
    if f_a * f_b < 0.0:
        secant = a - f_a * (b - a) / (f_b - f_a)
        if abs(f(secant)) < abs(f(root)):
            root = secant
    return root


def _scan_roots(f, grid: np.ndarray, config: SolverConfig) -> tuple[list[float], np.ndarray]:
    """Roots of f on the grid and f's values there, from one call of f on the whole
    grid: each grid zero, and each polished sign change whose residual is within
    ``root_tol`` (a larger one is a jump across zero at a density kink)."""
    vals = f(grid)
    roots: list[float] = []
    for i in np.flatnonzero((vals == 0.0) | np.append(vals[:-1] * vals[1:] < 0.0, False)):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        else:
            root = _polish(f, grid[i], grid[i + 1], config)
            if abs(f(root)) <= config.root_tol:
                roots.append(root)
    return roots, vals


def _best_price(
    dist: ValuationDistribution, lam: float, config: SolverConfig, grid: np.ndarray
) -> tuple[float, tuple[float, ...], bool]:
    """Best price at effective sensitivity lam, as (price, roots, at_edge): the
    revenue-maximizing root of the price condition on the window scan ``grid``,
    or, without a sign change, the window edge its sign points to.  Raises
    ``NoRootError`` when the condition changes sign only by jumps."""
    w = config.price_window
    roots, vals = _scan_roots(lambda p: _price_condition(dist, lam, p), grid, config)
    if not roots:
        if vals.min() < 0.0 < vals.max():
            raise NoRootError(
                f"price condition at lambda_eff={lam} crosses zero on ({w.p_lo}, {w.p_hi}) "
                f"only by jumps at density kinks, so no root gives the best price"
            )
        return (w.p_hi if vals[-1] > 0.0 else w.p_lo), (), True
    return max(roots, key=lambda p: revenue(dist, lam, p)), tuple(roots), False


def solve_price(
    dist: ValuationDistribution,
    params: AttentionParams,
    T: float,
    config: SolverConfig,
) -> PriceSolution:
    """Root of the price condition on the window via bracket scan plus polish.

    All sign changes on the `bracket_grid` scan are polished; with several
    roots the profit-maximizing one is selected and the count is reported.
    Uniqueness is only guaranteed for increasing-hazard families, so the
    report carries the IFR diagnostic alongside.
    """
    w = config.price_window
    price, roots, _ = _best_price(dist, effective_lambda(params, T), config, w.grid(config.bracket_grid + 1))
    if not roots:
        raise NoRootError(
            f"price condition has no sign change on ({w.p_lo}, {w.p_hi}) at T={T}; endpoint values "
            f"{price_foc(dist, params, T, w.p_lo):.3e}, {price_foc(dist, params, T, w.p_hi):.3e}"
        )
    return PriceSolution(
        price=price,
        residual=price_foc(dist, params, T, price),
        sign_changes=len(roots),
        roots=roots,
        ifr_ok=check_ifr(dist, w).is_ifr,
    )


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def solve_trial(
    dist: ValuationDistribution,
    params: AttentionParams,
    P: float,
    config: SolverConfig,
) -> TrialSolution:
    """Trial length solving g(T) = 0, or the T = 0 corner when g(0) <= 0.

    The root is closed-form, T = (gamma lambda0 P / x_g(P) - 1) / beta, with
    g positive before it and negative after.  beta = 0 and F(P) = 0 make g
    identically zero (the corner).  Raises ``TrialBoundError`` beyond t_max.
    """
    if not _trial_positive(dist, params, effective_lambda(params, 0.0), P):
        return TrialSolution(T=0.0, residual=trial_foc(dist, params, P, 0.0), at_zero=True)
    T = _trial_length(params, _locus_x(P, config) / P)
    if T > config.t_max:
        raise TrialBoundError(f"trial condition still positive at t_max={config.t_max} for P={P}")
    return TrialSolution(T=T, residual=trial_foc(dist, params, P, T), at_zero=False)


def joint_optimum(
    dist: ValuationDistribution,
    params: AttentionParams,
    config: SolverConfig | None = None,
) -> OptimalContract:
    """Joint contract (T*, P*): the fixed point of the two conditions with the smallest T.

    Candidates on the (lambda_eff, P) plane are tried in T order: the T = 0
    corner at the best price there, valid when g(0) <= 0; the price roots
    along the g = 0 locus (scanned in x on ``bracket_grid`` cells) and the
    locus points on the window edges, valid when the price is the best price
    at that lambda_eff (a root is unique under an increasing hazard, so no
    re-solve then); the T cap, valid when g is still positive there.  With
    no valid candidate ``ConvergenceError`` names them.  ``interior`` and
    ``report_only`` run this unconstrained solve, and participation is
    evaluated and reported, never enforced.  ``binding_ir`` mode instead
    maximizes profit along the zero-utility locus, with the same flags, and
    raises ``ConvergenceError`` when no price in the window is acceptable.
    """
    config = config or SolverConfig()
    if config.participation_mode == "binding_ir":
        return _binding_ir_optimum(dist, params, config)

    w = config.price_window
    grid = w.grid(config.bracket_grid + 1)
    lam_hi = effective_lambda(params, 0.0)
    P, _, at_edge = _best_price(dist, lam_hi, config, grid)
    if not _trial_positive(dist, params, lam_hi, P):
        return _assemble(dist, params, 0.0, P, {T_AT_ZERO}, at_edge)
    lam_lo = effective_lambda(params, config.t_max)
    ifr = check_ifr(dist, w).is_ifr
    x_top, x_bottom = _locus_x(w.p_hi, config), _locus_x(w.p_lo, config)
    roots, _ = _scan_roots(lambda x: _on_locus(dist, x), np.geomspace(x_top, x_bottom, grid.size), config)
    points = [(x, trial_terms(x)[2], False) for x in roots]
    points += [(x_top, w.p_hi, True), (x_bottom, w.p_lo, True)]
    candidates = sorted(
        ((x / p, p, edge) for x, p, edge in points if lam_lo <= x / p <= lam_hi),
        key=lambda c: -c[0],
    )

    def is_best_price(lam: float, price: float, edge: bool) -> bool:
        if ifr and not edge:
            return True
        same_root = 0.0 if edge else (w.p_hi - w.p_lo) / config.bracket_grid
        return abs(_best_price(dist, lam, config, grid)[0] - price) <= same_root

    for lam, price, edge in candidates:
        if is_best_price(lam, price, edge):
            return _assemble(dist, params, _trial_length(params, lam), price, set(), edge)
    P, _, at_edge = _best_price(dist, lam_lo, config, grid)
    if _trial_positive(dist, params, lam_lo, P):
        return _assemble(dist, params, config.t_max, P, {T_AT_MAX}, at_edge)
    tried = [(_trial_length(params, lam), price) for lam, price, _ in candidates]
    raise ConvergenceError(
        f"no fixed point: g(0) > 0 at the best price at T = 0, the locus candidates (T, P) "
        f"{tried} are not best prices at their T, and g <= 0 at t_max"
    )


def _assemble(dist, params, T, P, flags, at_edge) -> OptimalContract:
    contract = Contract(T=float(T), P=float(P))
    outcome = profit(dist, params, contract)
    if at_edge:
        flags = flags | {P_AT_WINDOW_EDGE}
    return OptimalContract(
        contract=contract,
        outcome=outcome,
        foc_residuals=(price_foc(dist, params, T, P), trial_foc(dist, params, P, T)),
        boundary_flags=frozenset(flags),
        participation_satisfied=bool(outcome.utility >= -1e-12),
    )


def _binding_ir_optimum(dist, params, config) -> OptimalContract:
    """Profit maximum along the zero-utility locus on the (lambda_eff, P) plane.

    U = S(P) - P F(P) [sigma(-x) + h(x)/x], x = lam P, rises with lam while
    profit falls, so each price takes the lowest lam in [lam(t_max), gamma
    lambda0] with U >= 0 (gamma lambda0 when F(P) = 0 or beta = 0).  Prices
    with U < 0 even at T = 0 are infeasible and need not form an interval.
    The best scanned price is refined between its neighbours or the
    feasibility edges beside it; those edges (at T = 0) are candidates too.
    """
    w = config.price_window
    lam_lo, lam_hi = effective_lambda(params, config.t_max), effective_lambda(params, 0.0)

    def lowest_lam(P: float) -> float | None:
        if cancel_mass(dist, P) == 0.0:
            return lam_hi
        utility = utility_in_x(dist, P)
        if utility(lam_hi * P) < 0.0:
            return None
        if utility(lam_lo * P) >= 0.0:  # the T cap; with beta = 0, lam_lo == lam_hi
            return lam_lo
        return _polish(utility, lam_lo * P, lam_hi * P, config) / P

    def value(P: float, lam: float | None) -> float:
        return -math.inf if lam is None else revenue(dist, lam, P)

    def bracket_end(p: float) -> tuple[float, float]:
        lam = lowest_lam(p)
        if lam is None:  # the feasibility edge between p and the best price, at T = 0
            return _polish(lambda q: utility_in_x(dist, q)(lam_hi * q), grid[i], p, config), lam_hi
        return float(p), lam

    grid = w.grid(config.bracket_grid + 1)
    i, lo, hi = argmax_bracket(grid, [value(p, lowest_lam(p)) for p in grid])
    best = (float(grid[i]), lowest_lam(grid[i]))
    if best[1] is None:
        raise ConvergenceError(f"no price in ({w.p_lo}, {w.p_hi}) leaves utility nonnegative at T = 0")
    ends = [bracket_end(lo), bracket_end(hi)]
    P = _golden_max(lambda p: value(p, lowest_lam(p)), ends[0][0], ends[1][0], config.opt_tol)
    P, lam = max([*ends, best, (P, lowest_lam(P))], key=lambda c: value(*c))
    T = 0.0 if lam == lam_hi else config.t_max if lam == lam_lo else _trial_length(params, lam)
    flags = {T_AT_ZERO} if lam == lam_hi else {T_AT_MAX} if lam == lam_lo else set()
    return _assemble(dist, params, T, P, flags, P in (w.p_lo, w.p_hi))


def price_response_curve(
    dist: ValuationDistribution,
    params: AttentionParams,
    T_grid: list[float],
    config: SolverConfig | None = None,
    assert_increasing: bool | None = None,
) -> list[tuple[float, float]]:
    """Best-response price per trial length.

    When the baseline sensitivity exceeds the hazard supremum over the window
    the curve is expected to rise strictly with T; in that case a violation
    raises.  Pass ``assert_increasing`` to override the automatic hypothesis
    check.
    """
    config = config or SolverConfig()
    curve = []
    for T in sorted(T_grid):
        sol = solve_price(dist, params, T, config)
        curve.append((float(T), sol.price))
    if assert_increasing is None:
        crit = lambda_crit(dist, config.price_window)
        assert_increasing = params.beta > 0.0 and params.gamma * params.lambda0 > crit
    if assert_increasing:
        for (t0, p0), (t1, p1) in zip(curve, curve[1:]):
            if p1 <= p0:
                raise MonotonicityError(
                    f"price response not strictly increasing: P*({t1}) = {p1} <= P*({t0}) = {p0}"
                )
    return curve
