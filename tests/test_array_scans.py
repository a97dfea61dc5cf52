"""Array-valued scans: the numpy kernels against their scalar routes, and the
solver's one-call grid scans against the point-by-point scan oracle."""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import best_price_by_points, scan_roots_by_points
from subtrial import solver
from subtrial.consumer import effective_lambda, locus_price, trial_terms
from subtrial.distributions import (GAMMA_SPLIT, PiecewiseIsoElastic, PriceWindow, TruncatedWeibull, Uniform,
                                    _gamma_fraction, _gamma_series, geometric_grid, linear_grid)
from subtrial.exceptions import DomainError, NoRootError
from subtrial.market import cancel_mass
from subtrial.solver import (SolverConfig, _best_price, _locus_x, _on_locus, _price_condition, _scan_roots,
                             _window_scan, _window_table)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded model draws)

ULPS = 4
CFG = SolverConfig()


def kernel_draws(seed: int, n: int) -> list:
    """Each family over its declared domain, plus Weibull shapes k = 1 and 4."""
    rng = random.Random(seed)
    draws = [TruncatedWeibull(1.0, 0.2), TruncatedWeibull(4.0, 0.2), TruncatedWeibull(1.0, 2.0)]
    for _ in range(n):
        a, b = sorted((rng.random(), rng.random()))
        eps, v0 = 0.01 + 0.98 * rng.random(), 0.01 + 0.98 * rng.random()
        draws += [
            Uniform(a, b),
            PiecewiseIsoElastic((1.0 - rng.random()) * v0**eps * (1.0 - 1e-12), eps, v0),
            TruncatedWeibull(rng.choice((1.0, 4.0, 1.0 + 3.0 * rng.random())), 0.2 * 10.0 ** rng.random()),
        ]
    return draws


def kernel_grid(dist, rng: random.Random, closed: bool) -> np.ndarray:
    """Random valuations plus the kinks themselves, points below a and above
    b (or either side of v0), and the ends 0 and 1 when ``closed``."""
    points = [rng.random() for _ in range(120)] + [k for k in dist.kinks if 0.0 < k < 1.0 or closed]
    for k in dist.kinks:
        points += [k * rng.random(), k + (1.0 - k) * rng.random()]
    points += [0.0, 1.0] if closed else [1e-300, 1.0 - 2.0**-53]
    return np.array(points)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_within_ulps(array, scalars, exact=None):
    """Elementwise within ULPS of the scalar route; bitwise where ``exact`` and
    wherever the scalar route gives 0.0, 1.0 or an infinity."""
    want = np.array(scalars, dtype=float)
    assert isinstance(array, np.ndarray) and array.shape == want.shape
    exact = (want == 0.0) | (want == 1.0) | np.isinf(want) | (False if exact is None else exact)
    assert np.array_equal(bits(array[exact]), bits(want[exact]))
    gap = np.abs(array[~exact] - want[~exact])
    assert np.all(gap <= ULPS * np.spacing(np.abs(want[~exact]))), float(gap.max(initial=0.0))


def branch_values(dist, v: np.ndarray, method: str) -> np.ndarray:
    """Where a family's scalar method returns a branch constant or uses no transcendental."""
    if isinstance(dist, Uniform):
        return np.ones_like(v, dtype=bool) if method == "pdf" else (v <= dist.a) | (v >= dist.b)
    if isinstance(dist, PiecewiseIsoElastic):
        return (v < dist.v0) | (v >= 1.0)
    return np.zeros_like(v, dtype=bool)


KERNEL_DRAWS = kernel_draws(seed=9, n=10)


class TestDistributionKernels:
    @pytest.mark.parametrize("dist", KERNEL_DRAWS, ids=repr)
    def test_survivor_matches_scalar(self, dist):
        v = kernel_grid(dist, random.Random(repr(dist)), closed=True)
        assert_within_ulps(dist.survivor(v), [dist.survivor(float(t)) for t in v], branch_values(dist, v, "survivor"))

    @pytest.mark.parametrize("dist", KERNEL_DRAWS, ids=repr)
    def test_pdf_matches_scalar(self, dist):
        v = kernel_grid(dist, random.Random(repr(dist)), closed=False)
        assert_within_ulps(dist.pdf(v), [dist.pdf(float(t)) for t in v], branch_values(dist, v, "pdf"))

    def test_uniform_cdf_is_bitwise_the_scalar_branches(self):
        dist = Uniform(0.2975, 0.8)
        v = kernel_grid(dist, random.Random(3), closed=True)
        assert np.array_equal(bits(dist.cdf(v)), bits([dist.cdf(float(t)) for t in v]))

    @pytest.mark.parametrize("dist", [Uniform(0.1, 0.6), PiecewiseIsoElastic(0.3, 0.4, 0.2), TruncatedWeibull(2.0, 0.5)])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_out_of_domain_element_raises(self, dist, bad):
        v = np.array([0.3, bad, 0.5])
        for method in (dist.survivor, dist.pdf):
            with pytest.raises(DomainError):
                method(v)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_density_rejects_closed_ends(self, end):
        for dist in (Uniform(), PiecewiseIsoElastic(0.3, 0.4, 0.2), TruncatedWeibull(2.0, 0.5)):
            with pytest.raises(DomainError):
                dist.pdf(np.array([0.5, end]))


def parent_locus_price(x):
    """pi(x) as ``trial_terms`` formed it before ``locus_price`` had a home of its own."""
    xp = math if isinstance(x, float) else np
    e = xp.exp(-x)
    log_term = xp.log1p(e)
    if xp is math:
        log_ratio = log_term / e if e > 0.0 else 1.0
        return (1.0 + e) * (log_ratio + x + log_term) / (x * x) if x * x > 0.0 else math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (1.0 + e) * (np.where(e > 0.0, log_term / e, 1.0) + x + log_term) / (x * x)


class TestConsumerKernels:
    X = np.concatenate([[1e-170, 1e-160, 1e-150], np.geomspace(1e-4, 700.0, 300), [745.2, 800.0, 1e3, 1e5]])

    def test_locus_price_is_bitwise_the_parent_formula(self):
        # x^2 underflows below ~1.5e-162 (pi is +inf) and e^-x below ~745.1 (the ratio's limit 1)
        assert np.isinf(locus_price(self.X[:2])).all() and np.isfinite(locus_price(self.X[2:])).all()
        assert np.array_equal(bits(locus_price(self.X)), bits(parent_locus_price(self.X)))
        assert [bits(locus_price(float(x))) for x in self.X] == [bits(parent_locus_price(float(x))) for x in self.X]

    def test_locus_price_matches_scalar(self):
        assert_within_ulps(locus_price(self.X), [locus_price(float(x)) for x in self.X])

    def test_locus_price_is_1_over_x_where_x_squared_overflows(self):
        # above x ~1.34e154 the parent formula divided by an infinite x^2 and returned 0
        x = np.array([1e150, 1e154, 1.4e154, 1e160, 1e300])
        for pi in (locus_price(x), np.array([locus_price(float(v)) for v in x])):
            assert np.allclose(pi * x, 1.0, rtol=1e-12, atol=0.0)
        assert locus_price(1e160) == 1e-160 and parent_locus_price(1e160) == 0.0

    def test_other_terms_match_scalar(self):
        scalar = [trial_terms(float(x)) for x in self.X]
        for j in (0, 1, 2):
            assert_within_ulps(trial_terms(self.X)[j], [t[j] for t in scalar])


def pair_or_error(fn):
    """fn()'s pair as bits and types, or the type and message of the error it raises."""
    try:
        F, f = fn()
    except DomainError as exc:
        return type(exc), str(exc)
    return bits(F).tolist(), bits(f).tolist(), type(F), type(f)


def assert_mass_density_is_the_pair(dist, v):
    assert pair_or_error(lambda: dist.mass_density(v)) == pair_or_error(lambda: (cancel_mass(dist, v), dist.pdf(v)))


class TestMassDensity:
    """``mass_density`` is bitwise the pair (``cancel_mass``, ``pdf``), and raises what the pair raises."""

    @pytest.mark.parametrize("dist", KERNEL_DRAWS, ids=repr)
    def test_points_and_arrays(self, dist):
        v = kernel_grid(dist, random.Random(repr(dist)), closed=False)
        kinks = [p for k in dist.kinks for p in (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf))]
        near_ends = [5e-324, 1e-300, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53]
        for point in [*map(float, v), *kinks, *near_ends]:
            assert_mass_density_is_the_pair(dist, point)
        assert_mass_density_is_the_pair(dist, v)
        assert_mass_density_is_the_pair(dist, np.array([]))

    @pytest.mark.parametrize("dist", KERNEL_DRAWS[:6] + [PiecewiseIsoElastic(0.3, 0.4, 0.2)], ids=repr)
    @pytest.mark.parametrize("bad", [-0.1, 0.0, 1.0, 1.5, math.nan])
    def test_errors_are_the_pairs(self, dist, bad):
        assert pair_or_error(lambda: dist.mass_density(bad))[0] is DomainError
        assert_mass_density_is_the_pair(dist, bad)
        for where in range(3):
            assert_mass_density_is_the_pair(dist, np.insert(np.array([0.3, 0.6]), where, bad))
        assert_mass_density_is_the_pair(dist, np.array([0.3, math.nan, 1.5, -0.1, 0.0, 1.0]))

    def test_scalar_price_condition_makes_one_kernel_call(self, monkeypatch):
        for dist in (Uniform(0.1, 0.8), PiecewiseIsoElastic(0.3, 0.4, 0.2), TruncatedWeibull(2.0, 0.5)):
            calls = []
            for method in ("mass_density", "survivor", "pdf", "cdf"):
                original = getattr(type(dist), method)
                wrapped = lambda self, v, method=method, original=original: calls.append(method) or original(self, v)
                monkeypatch.setattr(type(dist), method, wrapped)
            _price_condition(dist, 10.0, 0.43)
            assert calls == ["mass_density"], dist


def model_draws(seed: int, n: int) -> list:
    """Seeded benchmark draws in equal family shares."""
    rng = random.Random(seed)
    return [workloads.model_draw([(f + rng.random()) / 3.0] + [rng.random() for _ in range(8)])
            for _ in range(n // 3) for f in range(3)]


SCAN_DRAWS = model_draws(seed=5, n=60)


def scan_lambdas(draw) -> list[float]:
    return [effective_lambda(draw.params, 0.0), effective_lambda(draw.params, draw.config.t_max)]


def outcome(fn):
    try:
        return fn()
    except NoRootError:
        return NoRootError


class TestMassDensityOnScanGrids:
    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_window_and_locus_grids(self, draw):
        """Bitwise the pair on the window grid and on the locus scan's prices, as arrays and at each point."""
        w, config = draw.config.price_window, draw.config
        x_grid = geometric_grid(_locus_x(w.p_hi, config), _locus_x(w.p_lo, config), config.bracket_grid + 1)
        for grid in (w.grid(config.bracket_grid + 1), locus_price(x_grid)):
            assert_mass_density_is_the_pair(draw.dist, grid)
            for P in map(float, grid):
                assert_mass_density_is_the_pair(draw.dist, P)


class TestPriceConditionArray:
    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_same_sign_and_zeros_as_scalar(self, draw):
        w = draw.config.price_window
        grid = w.grid(draw.config.bracket_grid + 1)
        for lam in scan_lambdas(draw):
            array = _price_condition(draw.dist, lam, grid)
            scalar = np.array([_price_condition(draw.dist, lam, p) for p in grid])
            assert np.array_equal(np.sign(array), np.sign(scalar))
            assert np.array_equal(array == 0.0, scalar == 0.0)

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_table_scan_is_bitwise_the_array_condition(self, draw):
        table = _window_table(draw.dist, draw.config)
        grid, F, f = table[0], cancel_mass(draw.dist, table[0]), draw.dist.pdf(table[0])
        for column, want in zip(table[1:], (1.0 - F - grid * f, F + grid * f, grid * F)):
            assert np.array_equal(bits(column), bits(want))
        for lam in scan_lambdas(draw):
            assert np.array_equal(_window_scan(table, lam), _price_condition(draw.dist, lam, table[0]))

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_condition_is_bitwise_its_formula(self, draw):
        """The standard margin plus the inattentive one, each in the written order, on the
        grid and at single prices."""
        def formula(lam, P, F, f):
            q = 1.0 / (1.0 + (math if isinstance(P, float) else np).exp(-(lam * P)))
            return (1.0 - F - P * f) + ((1.0 - q) * (F + P * f) - P * F * lam * q * (1.0 - q))

        dist, grid = draw.dist, draw.config.price_window.grid(draw.config.bracket_grid + 1)
        for lam in scan_lambdas(draw):
            want = formula(lam, grid, cancel_mass(dist, grid), dist.pdf(grid))
            assert np.array_equal(bits(_price_condition(dist, lam, grid)), bits(want))
            for P in map(float, grid[::16]):
                want = formula(lam, P, cancel_mass(dist, P), dist.pdf(P))
                assert bits(_price_condition(dist, lam, P)) == bits(want)

    def test_out_of_domain_element_raises(self):
        dist = Uniform()
        with pytest.raises(DomainError):
            _price_condition(dist, 2.0, np.array([0.5, 1.5]))


class TestScanOracle:
    def test_draws_cover_jumps_and_saturated_zeros(self):
        """The draws reach the jump-only NoRootError of a uniform support inside
        the window and the exact zeros above b once lam P > 37."""
        jump_only, saturated = False, False
        for draw in SCAN_DRAWS:
            if not isinstance(draw.dist, Uniform):
                continue
            for lam in scan_lambdas(draw):
                jump_only |= outcome(lambda: best_price_by_points(draw.dist, lam, draw.config)) is NoRootError
                saturated |= draw.dist.b < draw.config.price_window.p_hi and lam * draw.dist.b > 37.0
        assert jump_only and saturated

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_best_price_matches_point_scan(self, draw):
        def decided(result):  # (price, roots, the scan's signs), or NoRootError
            return result if result is NoRootError else (*result[:2], tuple(np.sign(result[2])))

        table = _window_table(draw.dist, draw.config)
        for lam in scan_lambdas(draw):
            got = outcome(lambda: _best_price(draw.dist, lam, draw.config, table))
            want = outcome(lambda: best_price_by_points(draw.dist, lam, draw.config))
            assert decided(got) == decided(want)

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_locus_roots_match_point_scan(self, draw):
        w, config = draw.config.price_window, draw.config
        grid = np.geomspace(_locus_x(w.p_hi, config), _locus_x(w.p_lo, config), config.bracket_grid + 1)
        f = lambda x: _on_locus(draw.dist, x)
        vals = f(grid)
        roots = _scan_roots(f, grid, vals, config)
        want_roots, want_vals = scan_roots_by_points(f, grid, config)
        assert roots == want_roots
        assert all(type(root) is float for root in roots)
        assert np.array_equal(np.sign(vals), np.sign(want_vals))


def counting_polish(monkeypatch) -> list:
    """Route the solver's polish through a counter; returns the list of polished cells."""
    cells, polish = [], solver._polish

    def counted(f, lo, hi, config):
        cells.append((lo, hi))
        return polish(f, lo, hi, config)

    monkeypatch.setattr(solver, "_polish", counted)
    return cells


class TestDensityJumps:
    # Uniform(0.52, 0.62) at lam = 20: the condition is 1 below a, 1 - q a / (b - a) ~ -4.2
    # just above it, and negative on to the window's top, so it changes sign only by the jump at a.
    JUMP_ONLY = (Uniform(0.52, 0.62), 20.0)

    def test_jump_only_cell_is_not_polished(self, monkeypatch):
        dist, lam = self.JUMP_ONLY
        want = outcome(lambda: best_price_by_points(dist, lam, CFG))
        cells = counting_polish(monkeypatch)
        assert outcome(lambda: _best_price(dist, lam, CFG, _window_table(dist, CFG))) is want is NoRootError
        assert cells == []

    def test_kink_cell_within_the_margin_is_polished(self, monkeypatch):
        # b is set so that just above a the condition 1 - q a / (b - a) is -1e-7,
        # beyond root_tol but inside the jump margin
        a, lam = 0.42, 20.0
        q = 1.0 / (1.0 + math.exp(-(lam * a)))
        dist = Uniform(a, a + q * a / (1.0 + 1e-7))
        above = _price_condition(dist, lam, math.nextafter(a, math.inf))
        assert CFG.root_tol < -above < solver.JUMP_MARGIN * CFG.root_tol
        cells = counting_polish(monkeypatch)
        assert outcome(lambda: _best_price(dist, lam, CFG, _window_table(dist, CFG))) is NoRootError
        assert len(cells) == 1 and cells[0][0] < a < cells[0][1]

    def test_jump_needs_no_polish_budget(self):
        # a polish of the jump cell would raise ConvergenceError within 2 iterations
        dist, lam = self.JUMP_ONLY
        config = SolverConfig(max_iter=2)
        with pytest.raises(NoRootError):
            _best_price(dist, lam, config, _window_table(dist, config))


def libm_geomspace(lo: float, hi: float, n: int) -> np.ndarray:
    """libm's powers of ten of ``np.linspace(math.log10(lo), math.log10(hi), n)``, exact ends."""
    grid = np.array([10.0 ** float(x) for x in np.linspace(math.log10(lo), math.log10(hi), n)])
    grid[0], grid[-1] = lo, hi
    return grid


class TestPlainGrids:
    """The scan grids are numpy's linspace, and libm's powers of ten of it, bitwise; a numpy
    whose functions change their arithmetic fails here."""

    SIZES = (2, 17, 65, 257, 513)

    def test_linear_grid_is_linspace(self):
        rng = random.Random(11)
        for i in range(10_000):
            if i % 2:  # a price window
                lo = rng.random() * 10.0 ** -rng.randrange(4)
                hi = lo + (1.0 - lo) * rng.random() * 10.0 ** -rng.randrange(12)
            else:  # the log10 ends of a locus grid, either way round
                lo, hi = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            n = self.SIZES[i % len(self.SIZES)]
            assert np.array_equal(linear_grid(lo, hi, n), np.linspace(lo, hi, n)), (lo, hi, n)

    def test_geometric_grid_is_libm_geomspace(self):
        rng = random.Random(12)
        for i in range(10_000):
            lo = 10.0 ** rng.uniform(-2.0, 3.0)
            hi = lo * 10.0 ** (rng.choice((1.0, -1.0)) * rng.uniform(1e-9, 4.0))
            n = self.SIZES[i % len(self.SIZES)]
            assert np.array_equal(bits(geometric_grid(lo, hi, n)), bits(libm_geomspace(lo, hi, n))), (lo, hi, n)

    @pytest.mark.parametrize("draw", SCAN_DRAWS[:6], ids=lambda d: repr(d.dist))
    def test_solver_grids_are_numpys(self, draw):
        w, config = draw.config.price_window, draw.config
        n = config.bracket_grid + 1
        assert np.array_equal(_window_table(draw.dist, config)[0], np.linspace(w.p_lo, w.p_hi, n))
        x_top, x_bottom = _locus_x(w.p_hi, config), _locus_x(w.p_lo, config)
        assert np.array_equal(bits(geometric_grid(x_top, x_bottom, n)), bits(libm_geomspace(x_top, x_bottom, n)))


def weibull_per_call(dist, method: str, v):
    """The truncated Weibull's methods with b = (1/s)^k, the mass 1 - e^-b and the surplus's
    incomplete gamma values at b formed at every call: the reference for the constants the
    instance stores."""
    mass = 1.0 - math.exp(-((1.0 / dist.s) ** dist.k))
    xp = np if isinstance(v, np.ndarray) else math
    pow_ = np.float_power if xp is np else math.pow
    if method == "cdf":
        return (1.0 - math.exp(-((v / dist.s) ** dist.k))) / mass
    if method == "survivor":
        a, b = pow_(v / dist.s, dist.k), (1.0 / dist.s) ** dist.k
        return xp.exp(-a) * -xp.expm1(a - b) / mass
    if method == "pdf":
        z = v / dist.s
        return (dist.k / dist.s) * pow_(z, dist.k - 1.0) * xp.exp(-pow_(z, dist.k)) / mass
    p, b = 1.0 + 1.0 / dist.k, (1.0 / dist.s) ** dist.k
    whole = dist.s * math.gamma(p)
    if b < p + GAMMA_SPLIT:
        lower = b * math.exp(-b) * _gamma_series(p, b)
        upper = whole - lower
    else:
        upper = b * math.exp(-b) * _gamma_fraction(p, b)
        lower = whole - upper
    a = (v / dist.s) ** dist.k
    e = math.exp(-a)
    if a < p + GAMMA_SPLIT:
        mean = lower - v * a * e * _gamma_series(p, a)
    else:
        mean = v * a * e * _gamma_fraction(p, a) - upper
    return max(0.0, min((mean - v * e * -math.expm1(a - b)) / mass, 1.0 - v))


def iso_per_call(dist, method: str, v):
    """The iso-elastic methods below v0, where the head slope enters, with the slope formed at
    every call; at and above v0 the method itself."""
    head = (1.0 - dist.kappa * dist.v0 ** (-dist.eps)) / dist.v0
    if method == "surplus":
        below = (dist.v0 - v) * (1.0 - head * (dist.v0 + v) / 2.0) if v < dist.v0 else 0.0
        return dist.kappa * -math.expm1((1.0 - dist.eps) * math.log(max(v, dist.v0))) / (1.0 - dist.eps) + below
    below = {"cdf": head * v, "survivor": 1.0 - head * v, "pdf": head + 0.0 * v}[method]
    return np.where(v < dist.v0, below, getattr(dist, method)(v))


class TestFamilyConstants:
    """Constants stored once per instance leave every method bitwise as it was."""

    @pytest.mark.parametrize("draw", [d for d in SCAN_DRAWS if not isinstance(d.dist, Uniform)],
                             ids=lambda d: repr(d.dist))
    def test_methods_bitwise_as_before(self, draw):
        dist = draw.dist
        old = weibull_per_call if isinstance(dist, TruncatedWeibull) else iso_per_call
        grid = draw.config.price_window.grid(draw.config.bracket_grid + 1)
        points = [float(p) for p in grid[::16]] + list(dist.kinks)
        for method in ("survivor", "pdf"):
            assert np.array_equal(bits(getattr(dist, method)(grid)), bits(old(dist, method, grid))), method
        for method in ("cdf", "survivor", "pdf", "surplus"):
            for p in points:
                assert bits(getattr(dist, method)(p)) == bits(old(dist, method, p)), (method, p)

    def test_replace_recomputes_the_constants(self):
        weibull, iso = TruncatedWeibull(2.0, 0.5), PiecewiseIsoElastic(0.3, 0.4, 0.2)
        for dist, change in ((weibull, {"s": 0.3}), (weibull, {"k": 3.0}), (iso, {"kappa": 0.2}), (iso, {"v0": 0.5})):
            new = dist._replace(**change)
            fresh = type(dist)(**{**dist._asdict(), **change})
            for method in ("survivor", "pdf", "surplus"):
                assert getattr(new, method)(0.3) == getattr(fresh, method)(0.3) != getattr(dist, method)(0.3)
            assert new == fresh and hash(new) == hash(fresh) and repr(new) == repr(fresh)
            assert new._fields == dist._fields


def hits_by_two_masks(vals: np.ndarray) -> np.ndarray:
    """The sign-change scan's hits from a mask of grid zeros and one of negative products."""
    with np.errstate(invalid="ignore"):  # 0 * inf
        return np.flatnonzero((vals == 0.0) | np.append(vals[:-1] * vals[1:] < 0.0, False))


class TestSignChangeMask:
    CRAFTED = [
        [0.0, 1.0, -1.0, 2.0, 0.0],  # zeros at both ends
        [-0.0, 1.0, -0.0, -1.0, 1.0, -0.0],
        [1e-200, -1e-200, 1e-200, 1e-300, -1e-170, 2.0],  # products that underflow to -0.0 and 0.0
        [1.0, math.nan, -1.0, 0.0, math.nan, 0.0, -1.0],
        [0.0, math.inf, -math.inf, 0.0, math.nan],
        [1.0, 2.0],
        [0.0, 0.0],
        [-1.0, 1.0],
    ]

    @staticmethod
    def scan_cells(monkeypatch, vals) -> list[float]:
        """_scan_roots with each polished cell reported as its midpoint."""
        monkeypatch.setattr(solver, "_polish", lambda f, lo, hi, config: (0.5 * (lo + hi), 0.0))
        grid = np.arange(len(vals), dtype=float)
        with np.errstate(invalid="ignore"):
            return _scan_roots(lambda x: 1.0, grid, np.array(vals), CFG)

    def test_crafted_arrays(self, monkeypatch):
        for vals in self.CRAFTED:
            want = [i if vals[i] == 0.0 else i + 0.5 for i in hits_by_two_masks(np.array(vals))]
            assert self.scan_cells(monkeypatch, vals) == want, vals

    def test_random_arrays(self, monkeypatch):
        rng = random.Random(13)
        pool = [0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e-170, math.nan, math.inf, -math.inf]
        for _ in range(500):
            vals = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
                    for _ in range(rng.randrange(2, 12))]
            want = [i if vals[i] == 0.0 else i + 0.5 for i in hits_by_two_masks(np.array(vals))]
            assert self.scan_cells(monkeypatch, vals) == want, vals

    def test_plain_tuples(self, monkeypatch):
        """The plain route's float tuples give the hits of the arrays."""
        monkeypatch.setattr(solver, "_polish", lambda f, lo, hi, config: (0.5 * (lo + hi), 0.0))
        rng = random.Random(14)
        pool = [0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, 1e-170, math.nan, math.inf, -math.inf]
        randoms = [[rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
                    for _ in range(rng.randrange(2, 12))] for _ in range(500)]
        for vals in self.CRAFTED + randoms:
            want = [i if vals[i] == 0.0 else i + 0.5 for i in hits_by_two_masks(np.array(vals))]
            grid = tuple(float(i) for i in range(len(vals)))
            assert _scan_roots(lambda x: 1.0, grid, tuple(vals), CFG) == want, vals


def test_best_price_of_one_root_reads_no_revenue(monkeypatch):
    calls, revenue = [], solver.revenue
    monkeypatch.setattr(solver, "revenue", lambda *args: calls.append(args) or revenue(*args))
    one = Uniform()
    assert len(_best_price(one, 2.0, CFG, _window_table(one, CFG))[1]) == 1
    assert calls == []
    # two roots: the revenue comparison runs (a decreasing-hazard tail)
    two, config = PiecewiseIsoElastic(kappa=0.1, eps=0.4, v0=0.2), SolverConfig(price_window=PriceWindow(0.25, 0.9))
    assert len(_best_price(two, 5.0, config, _window_table(two, config))[1]) == 2
    assert len(calls) == 2
