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
Every evaluation reads F and f from one ``mass_density`` call and pi from
``locus_price``.  Scans run on a grid and the polish is scalar: a locus scan
in x is one numpy call on its grid, and the lambda-free terms on the window
grid, 1 - F - P f, F + P f and P F, are tabulated once per solve, so each
window scan only combines them with q* at its lambda_eff.  On a plain float
grid (the CLI's) each scan point goes through the scalar code.
Each sign change a scan finds gets a Ridder polish on floats, except one that
is the jump of the condition at a declared density kink inside its cell: it
holds no root, and is not polished.

Quantitative warning baked into the implementation (and verified by the test
suite): g(0) is negative unless baseline sensitivity is large.  For uniform
valuations the interior threshold is lambda0 of roughly 5.93; below it the
trial corner T* = 0 is the genuine optimum of the modeled trade-off.  At
interior solutions the effective sensitivity lam(T*) is invariant to lambda0,
beta and gamma, which pins the optimal price as well.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .consumer import AttentionParams, cost_slope, effective_lambda, locus_price, trial_length, trial_terms
from .distributions import (_NUMPY, _SCALAR, PriceWindow, Record, ValuationDistribution, argmax_bracket,
                            geometric_grid, golden_max, lambda_crit, scan)
from .exceptions import (ConvergenceError, MonotonicityError, NoRootError, SingularityError, TrialBoundError,
                         UnboundedError)
from .market import Contract, MarketOutcome, cancel_mass, profit, revenue, utility_in_x

T_AT_ZERO = "T_at_zero"
T_AT_MAX = "T_at_max"
P_AT_WINDOW_EDGE = "P_at_window_edge"

PARTICIPATION_MODES = ("interior", "binding_ir", "report_only")
RIDDER_RTOL = 4.0 * sys.float_info.epsilon  # relative part of the polish's bracket test
# In root_tol: a sign change whose one-sided values at a kink both exceed this is the kink's
# jump.  A polish there lands within ~2e-10 of the kink, so it could only pass the root_tol
# residual test where the condition's slope beside the kink exceeds ~5e4.
JUMP_MARGIN = 1e5
# Each scan holds bracket_grid + 1 points, ~0.3 kB each in a solve's tables: at this bound a CLI
# solve takes ~0.5 s and ~36 MB, and 10**8 would need tens of GB.
MAX_BRACKET_GRID = 2**16


class SolverConfig(Record):
    price_window: PriceWindow = PriceWindow(0.05, 0.95)
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
        if self.bracket_grid > MAX_BRACKET_GRID:
            raise ValueError(f"bracket_grid must be at most {MAX_BRACKET_GRID}, got {self.bracket_grid}")
        if self.participation_mode not in PARTICIPATION_MODES:
            raise ValueError(f"unknown participation mode {self.participation_mode!r}")


class PriceSolution(NamedTuple):
    price: float
    residual: float
    roots: tuple[float, ...]


class TrialSolution(NamedTuple):
    T: float
    residual: float
    at_zero: bool


class OptimalContract(NamedTuple):
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
    """The price condition at (lam, P) from one ``mass_density`` call, in the order of
    ``_lambda_free_terms`` and ``_window_scan``; at a scan's grid, one of them or both are arrays."""
    F, f = dist.mass_density(P)
    Pf = P * f
    x = lam * P
    q = 1.0 / (1.0 + (math if isinstance(x, _SCALAR) else _NUMPY).exp(-x))
    miss = 1.0 - q
    return (1.0 - F - Pf) + (miss * (F + Pf) - P * F * lam * q * miss)


def _lambda_free_terms(P, F, f):
    """The terms of the price condition that P, F = F(P) and f = f(P) fix: the standard
    margin 1 - F - P f, d(P F)/dP = F + P f and P F."""
    Pf = P * f
    return 1.0 - F - Pf, F + Pf, P * F


def _window_table(dist: ValuationDistribution, config: SolverConfig) -> tuple:
    """(grid, 1 - F - P f, F + P f, P F) on the price window's scan grid: the lambda-free
    terms of every window scan, as arrays or, on a plain grid, float tuples."""
    grid = config.price_window.grid(config.bracket_grid + 1)
    if type(grid) is tuple:
        return grid, *zip(*(_lambda_free_terms(P, *dist.mass_density(P)) for P in grid))
    return grid, *_lambda_free_terms(grid, *dist.mass_density(grid))


def _window_scan(table: tuple, lam: float):
    """The price condition at lam on the window table's grid from its lambda-free terms and
    q* = 1 / (1 + e^(-lam P)): bitwise ``_price_condition`` there."""

    def condition(P, standard, dPF, PF):
        x = lam * P
        q = 1.0 / (1.0 + (math if isinstance(x, _SCALAR) else _NUMPY).exp(-x))
        miss = 1.0 - q
        return standard + (miss * dPF - PF * lam * q * miss)

    return scan(condition, *table)


def trial_foc(dist: ValuationDistribution, params: AttentionParams, P: float, T: float) -> float:
    """P * dIR/dT minus the marginal utility harm of lengthening the trial.

    Evaluated in the factored form of the module docstring, which keeps its
    sign and relative precision where q* rounds to one.
    """
    mass = cancel_mass(dist, P)
    if params.beta == 0.0 or mass == 0.0:
        return 0.0
    x = effective_lambda(params, T) * P
    q, neg_entropy, q_miss = trial_terms(x)
    return cost_slope(params) * mass * (P * x * x * (q * q_miss) - neg_entropy)


def _trial_positive(dist: ValuationDistribution, params: AttentionParams, lam: float, P: float) -> bool:
    """Sign of the trial condition at (lam, P): g > 0 exactly when P > pi(lam P)."""
    return params.beta > 0.0 and cancel_mass(dist, P) > 0.0 and P > locus_price(lam * P)


def _locus_x(P: float, config: SolverConfig) -> float:
    """x_g(P), the x = lam P at which the trial condition vanishes at price P."""
    hi = (1.0 + math.sqrt(1.0 + 12.0 * P)) / (2.0 * P)
    return _polish(lambda x: locus_price(x) - P, 1.0 / P, hi, config)[0]


def _on_locus(dist: ValuationDistribution, x):
    """The price condition on the g = 0 locus at x = lam P, where P = pi(x); x may be an array."""
    price = locus_price(x)
    return _price_condition(dist, x / price, price)


def _ridder(f, lo: float, hi: float, xtol: float, max_iter: int) -> tuple[float, float]:
    """Ridder's method (Ridders 1979, IEEE Trans. Circuits Syst. 26:979) on a sign-change
    bracket; returns (x, f(x)) at the iterate x at which the bracket is below xtol + RIDDER_RTOL x."""
    xa, xb = float(lo), float(hi)
    fa, fb = f(xa), f(xb)
    if fa == 0.0 or fb == 0.0:
        return (xa, fa) if fa == 0.0 else (xb, fb)
    tol = xtol + RIDDER_RTOL * abs(xa)
    for _ in range(max_iter):
        dm = 0.5 * (xb - xa)
        xm = xa + dm
        fm = f(xm)
        radicand = fm * fm - fa * fb
        if radicand > 0.0:
            dn = (1.0 if fb - fa > 0.0 else -1.0) * fm * dm / math.sqrt(radicand)
            xn = xm - (1.0 if dn > 0.0 else -1.0) * min(abs(dn), abs(dm) - 0.5 * tol)
            fn = f(xn)
        else:  # fm^2 and fa fb underflowed, as values of the order of a tiny bracket can: bisect
            xn, fn = xm, fm
        if math.copysign(1.0, fn) != math.copysign(1.0, fm):
            xa, fa, xb, fb = xn, fn, xm, fm
        elif math.copysign(1.0, fn) != math.copysign(1.0, fa):
            xb, fb = xn, fn
        else:
            xa, fa = xn, fn
        tol = xtol + RIDDER_RTOL * xn
        if fn == 0.0 or abs(xb - xa) < tol:
            return xn, fn
    raise ConvergenceError(f"root polish on [{lo}, {hi}] did not converge in {max_iter} iterations")


def _polish(f, lo: float, hi: float, config: SolverConfig) -> tuple[float, float]:
    """(root, f(root)) in a sign-change bracket, as Python floats: Ridder's
    method to a step of ``root_tol``, then one secant step across that last
    step, which takes a smooth f's residual down to rounding.  Ridder's method
    at least halves the bracket every iteration, so a jump of f across zero (at
    a density kink) is located within ``max_iter`` iterations too."""
    tol = config.root_tol
    root, residual = _ridder(f, lo, hi, tol, config.max_iter)
    a, b = max(lo, root - tol), min(hi, root + tol)
    f_a, f_b = f(a), f(b)
    if f_a * f_b < 0.0:
        secant = a - f_a * (b - a) / (f_b - f_a)
        f_secant = f(secant)
        if abs(f_secant) < abs(residual):
            root, residual = secant, f_secant
    return float(root), float(residual)


def _is_jump(f, lo: float, hi: float, f_lo: float, f_hi: float, kinks, config: SolverConfig) -> bool:
    """Whether the sign change of f on the cell [lo, hi] is f's jump at the one declared kink
    inside it: the values one ulp either side of the kink have the signs of the cell's ends and
    exceed the jump margin.  A polish would converge onto the kink and find no root there."""
    inside = [k for k in kinks if lo < k < hi]
    if len(inside) != 1:
        return False
    left, right = f(math.nextafter(inside[0], -math.inf)), f(math.nextafter(inside[0], math.inf))
    margin = JUMP_MARGIN * config.root_tol
    return left * f_lo > 0.0 and right * f_hi > 0.0 and min(abs(left), abs(right)) > margin


def _scan_roots(f, grid, vals, config: SolverConfig, kinks=()) -> list[float]:
    """Roots of f on the grid from its values ``vals`` there (arrays, or float tuples): each
    grid zero, and each polished sign change whose residual is within ``root_tol`` (a larger
    one is a jump across zero at a density kink).  A sign change that ``_is_jump`` at one of
    ``kinks`` is not polished."""
    roots: list[float] = []
    # cells whose product is not positive: a sign change (negative), or a zero or NaN product,
    # of which only a zero left end is a root; the last point has no cell of its own
    if type(vals) is tuple:
        products = [a * b for a, b in zip(vals, vals[1:])]
        cells = [i for i, product in enumerate(products) if not product > 0.0]
    else:
        products = vals[:-1] * vals[1:]
        cells = (~(products > 0.0)).nonzero()[0]
    for i in cells:
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif products[i] < 0.0 and not _is_jump(f, grid[i], grid[i + 1], vals[i], vals[i + 1], kinks, config):
            root, residual = _polish(f, grid[i], grid[i + 1], config)
            if abs(residual) <= config.root_tol:
                roots.append(root)
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _best_price(
    dist: ValuationDistribution, lam: float, config: SolverConfig, table: tuple
) -> tuple[float, tuple[float, ...], object]:
    """Best price at effective sensitivity lam, as (price, roots, vals): the
    revenue-maximizing root of the price condition on the scan of the window
    ``table``, or, without a sign change, the window edge its sign points to;
    vals is that scan.  Raises ``NoRootError`` when the condition changes sign
    only by jumps."""
    w = config.price_window
    vals = _window_scan(table, lam)
    roots = _scan_roots(lambda p: _price_condition(dist, lam, p), table[0], vals, config, dist.kinks)
    if not roots:
        if _changes_sign(vals):
            raise NoRootError(
                f"price condition at lambda_eff={lam} crosses zero on ({w.p_lo}, {w.p_hi}) "
                f"only by jumps at density kinks, so no root gives the best price"
            )
        return (w.p_hi if vals[-1] > 0.0 else w.p_lo), (), vals
    best = roots[0] if len(roots) == 1 else max(roots, key=lambda p: revenue(dist, lam, p))
    return best, tuple(roots), vals


def _changes_sign(vals) -> bool:
    """Whether the scan takes both signs, with no NaN: numpy's ``vals.min() < 0 < vals.max()``."""
    if type(vals) is tuple:
        return all(v == v for v in vals) and min(vals) < 0.0 < max(vals)
    return vals.min() < 0.0 < vals.max()


def solve_price(
    dist: ValuationDistribution,
    params: AttentionParams,
    T: float,
    config: SolverConfig,
) -> PriceSolution:
    """Root of the price condition on the window via bracket scan plus polish.

    Every sign change on the `bracket_grid` scan but a density kink's jump is
    polished; with several roots the profit-maximizing one is selected and all
    are reported.  An increasing hazard does not make the root unique: the
    inattentive margin can add roots.
    """
    w = config.price_window
    price, roots, vals = _best_price(dist, effective_lambda(params, T), config, _window_table(dist, config))
    if not roots:
        raise NoRootError(
            f"price condition has no sign change on ({w.p_lo}, {w.p_hi}) at T={T}; endpoint values "
            f"{vals[0]:.3e}, {vals[-1]:.3e}"
        )
    return PriceSolution(
        price=price,
        residual=price_foc(dist, params, T, price),
        roots=roots,
    )


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
    T = trial_length(params, _locus_x(P, config) / P)
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
    at that lambda_eff; the T cap, valid when g is still positive there.  With
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
    table = _window_table(dist, config)
    lam_hi = effective_lambda(params, 0.0)
    P, roots, _ = _best_price(dist, lam_hi, config, table)
    if not _trial_positive(dist, params, lam_hi, P):
        return _assemble(dist, params, 0.0, P, {T_AT_ZERO}, not roots)
    lam_lo = effective_lambda(params, config.t_max)
    x_top, x_bottom = _locus_x(w.p_hi, config), _locus_x(w.p_lo, config)
    x_grid = geometric_grid(x_top, x_bottom, config.bracket_grid + 1)
    on_locus = lambda x: _on_locus(dist, x)
    x_roots = _scan_roots(on_locus, x_grid, scan(on_locus, x_grid), config)
    points = [(x, locus_price(x), False) for x in x_roots]
    points += [(x_top, w.p_hi, True), (x_bottom, w.p_lo, True)]
    candidates = sorted(
        ((x / p, p, edge) for x, p, edge in points if lam_lo <= x / p <= lam_hi),
        key=lambda c: -c[0],
    )
    for lam, price, edge in candidates:
        same_root = 0.0 if edge else (w.p_hi - w.p_lo) / config.bracket_grid
        if abs(_best_price(dist, lam, config, table)[0] - price) <= same_root:
            return _assemble(dist, params, trial_length(params, lam), price, set(), edge)
    P, roots, _ = _best_price(dist, lam_lo, config, table)
    if _trial_positive(dist, params, lam_lo, P):
        return _assemble(dist, params, config.t_max, P, {T_AT_MAX}, not roots)
    tried = [(trial_length(params, lam), price) for lam, price, _ in candidates]
    raise ConvergenceError(
        f"no fixed point: g(0) > 0 at the best price at T = 0, the locus candidates (T, P) "
        f"{tried} are not best prices at their T, and g <= 0 at t_max"
    )


def _assemble(dist, params, T, P, flags, at_edge) -> OptimalContract:
    contract = Contract(float(T), float(P), 0.0)  # a free trial, bound positionally: the cheapest record call
    T, P = contract.T, contract.P
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
        return _polish(utility, lam_lo * P, lam_hi * P, config)[0] / P

    def value(P: float, lam: float | None) -> float:
        return -math.inf if lam is None else revenue(dist, lam, P)

    def bracket_end(p: float) -> tuple[float, float]:
        lam = lowest_lam(p)
        if lam is None:  # the feasibility edge between p and the best price, at T = 0
            return _polish(lambda q: utility_in_x(dist, q)(lam_hi * q), grid[i], p, config)[0], lam_hi
        return float(p), lam

    grid = w.grid(config.bracket_grid + 1)
    i, lo, hi = argmax_bracket(grid, [value(p, lowest_lam(p)) for p in grid])
    best = (float(grid[i]), lowest_lam(grid[i]))
    if best[1] is None:
        raise ConvergenceError(f"no price in ({w.p_lo}, {w.p_hi}) leaves utility nonnegative at T = 0")
    ends = [bracket_end(lo), bracket_end(hi)]
    P = golden_max(lambda p: value(p, lowest_lam(p)), ends[0][0], ends[1][0], config.opt_tol)
    P, lam = max([*ends, best, (P, lowest_lam(P))], key=lambda c: value(*c))
    T = 0.0 if lam == lam_hi else config.t_max if lam == lam_lo else trial_length(params, lam)
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
    the curve is expected to rise strictly with T, and a violation raises.  A
    window without a finite supremum expects no rise.  Pass
    ``assert_increasing`` to override the automatic hypothesis check.
    """
    config = config or SolverConfig()
    curve = [(float(T), solve_price(dist, params, T, config).price) for T in sorted(T_grid)]
    if assert_increasing is None:
        try:
            crit = lambda_crit(dist, config.price_window)
            assert_increasing = params.beta > 0.0 and params.gamma * params.lambda0 > crit
        except (SingularityError, UnboundedError):
            assert_increasing = False
    if assert_increasing:
        for (t0, p0), (t1, p1) in zip(curve, curve[1:]):
            if p1 <= p0:
                raise MonotonicityError(
                    f"price response not strictly increasing: P*({t1}) = {p1} <= P*({t0}) = {p0}"
                )
    return curve
