"""Array-valued scans: the numpy kernels against their scalar routes, and the
solver's one-call grid scans against the point-by-point scan oracle."""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import best_price_by_points, scan_roots_by_points
from subtrial.consumer import effective_lambda, logistic_q, trial_terms
from subtrial.distributions import PiecewiseIsoElastic, TruncatedWeibull, Uniform
from subtrial.exceptions import DomainError, NoRootError
from subtrial.solver import _best_price, _locus_x, _on_locus, _price_condition, _scan_roots

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench's seeded model draws)

ULPS = 4


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


class TestConsumerKernels:
    X = np.concatenate([[1e-170, 1e-160, 1e-150], np.geomspace(1e-4, 700.0, 300), [745.2, 800.0, 1e3, 1e5]])

    def test_locus_price_matches_scalar(self):
        assert_within_ulps(trial_terms(self.X)[2], [trial_terms(float(x))[2] for x in self.X])

    def test_other_terms_match_scalar(self):
        scalar = [trial_terms(float(x)) for x in self.X]
        for j in (0, 1, 3):
            assert_within_ulps(trial_terms(self.X)[j], [t[j] for t in scalar])

    def test_logistic_q_matches_scalar(self):
        rng = np.random.default_rng(4)
        P, lam = rng.uniform(0.0, 1.0, 200), rng.uniform(0.01, 200.0, 200)
        assert_within_ulps(logistic_q(P, lam), [logistic_q(float(p), float(l)) for p, l in zip(P, lam)])
        assert_within_ulps(logistic_q(P, 3.0), [logistic_q(float(p), 3.0) for p in P])

    @pytest.mark.parametrize("P, lam", [([0.2, 1.2], 1.0), ([0.2, -0.1], 1.0), (0.5, [1.0, 0.0]), (0.5, [2.0, -1.0])])
    def test_out_of_domain_element_raises(self, P, lam):
        with pytest.raises(DomainError):
            logistic_q(np.asarray(P), np.asarray(lam))


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

    def test_out_of_domain_element_raises(self):
        dist = Uniform()
        with pytest.raises(DomainError):
            _price_condition(dist, 2.0, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            _price_condition(dist, np.array([2.0, 0.0]), np.array([0.5, 0.6]))


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
        grid = draw.config.price_window.grid(draw.config.bracket_grid + 1)
        for lam in scan_lambdas(draw):
            got = outcome(lambda: _best_price(draw.dist, lam, draw.config, grid))
            want = outcome(lambda: best_price_by_points(draw.dist, lam, draw.config))
            assert got == want

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_locus_roots_match_point_scan(self, draw):
        w, config = draw.config.price_window, draw.config
        grid = np.geomspace(_locus_x(w.p_hi, config), _locus_x(w.p_lo, config), config.bracket_grid + 1)
        f = lambda x: _on_locus(draw.dist, x)
        roots, vals = _scan_roots(f, grid, config)
        want_roots, want_vals = scan_roots_by_points(f, grid, config)
        assert roots == want_roots
        assert np.array_equal(np.sign(vals), np.sign(want_vals))
