"""Valuation-distribution families: closed forms vs numerical oracles."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subtrial.distributions import (
    GAMMA_TERMS,
    PiecewiseIsoElastic,
    PriceWindow,
    TruncatedWeibull,
    Uniform,
    _gamma_fraction,
    _gamma_series,
    check_ifr,
    from_spec,
    lambda_crit,
    window_max,
)
from subtrial.exceptions import ConvergenceError, DomainError, SingularityError
from subtrial.verify import _total_mass

ISO = PiecewiseIsoElastic(kappa=0.3, eps=0.4, v0=0.2)
WEIBULL = TruncatedWeibull(k=2.0, s=0.5)
FAMILIES = [Uniform(), ISO, WEIBULL]


class TestCdf:
    def test_uniform_midpoint(self):
        assert Uniform().cdf(0.5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_zero_at_lower_bound(self, dist):
        assert dist.cdf(0.0) == 0.0

    def test_iso_elastic_closed_form(self):
        # survivor is exactly kappa * v**(-eps) on the pricing region
        assert ISO.cdf(0.5) == pytest.approx(1.0 - 0.3 * 0.5 ** (-0.4), abs=1e-14)

    def test_iso_elastic_matches_density_integral(self):
        for v in [0.1, 0.3, 0.5, 0.8, 0.99]:
            mass, _ = quad(ISO.pdf, 0.0, v, points=[ISO.v0], epsabs=1e-12, limit=200)
            assert mass == pytest.approx(ISO.cdf(v), abs=1e-9)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_monotone_on_grid(self, dist):
        grid = np.linspace(0.0, 1.0, 201)
        vals = [dist.cdf(v) for v in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_rejects_out_of_range(self, dist):
        with pytest.raises(DomainError):
            dist.cdf(-0.1)
        with pytest.raises(DomainError):
            dist.cdf(1.1)


class TestPdf:
    def test_uniform_is_flat(self):
        for v in [0.1, 0.5, 0.9]:
            assert Uniform().pdf(v) == 1.0

    def test_iso_elastic_closed_form(self):
        assert ISO.pdf(0.5) == pytest.approx(0.3 * 0.4 * 0.5 ** (-1.4), rel=1e-14)

    def test_weibull_renormalization(self):
        # oracle: renormalize the raw Weibull density by its mass on [0, 1]
        raw = lambda v: (2.0 / 0.5) * (v / 0.5) * math.exp(-((v / 0.5) ** 2))
        mass, _ = quad(raw, 0.0, 1.0, epsabs=1e-12)
        for v in [0.2, 0.5, 0.8]:
            assert WEIBULL.pdf(v) == pytest.approx(raw(v) / mass, rel=1e-10)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_total_mass_is_one(self, dist):
        points = [ISO.v0] if isinstance(dist, PiecewiseIsoElastic) else None
        mass, _ = quad(dist.pdf, 0.0, 1.0, points=points, epsabs=1e-12, limit=200)
        assert mass + dist.atom_at_one == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_matches_cdf_finite_difference(self, dist):
        h = 1e-6
        for v in np.linspace(0.05, 0.95, 19):
            if isinstance(dist, PiecewiseIsoElastic) and abs(v - dist.v0) < 2 * h:
                continue
            fd = (dist.cdf(v + h) - dist.cdf(v - h)) / (2 * h)
            assert fd == pytest.approx(dist.pdf(v), rel=1e-4)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_positive_on_support(self, dist):
        for v in np.linspace(0.05, 0.95, 19):
            assert dist.pdf(v) >= 1e-12


class TestHazard:
    def test_uniform_value(self):
        assert Uniform().hazard(0.5) == pytest.approx(2.0, rel=1e-14)

    def test_iso_elastic_is_eps_over_v(self):
        for v in [0.3, 0.5, 0.8]:
            assert ISO.hazard(v) == pytest.approx(0.4 / v, rel=1e-12)

    def test_diverges_at_upper_support(self):
        with pytest.raises(SingularityError):
            Uniform().hazard(1.0 - 1e-13)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_hazard_times_survivor_is_pdf(self, dist):
        for v in np.linspace(0.1, 0.9, 17):
            assert dist.hazard(v) * dist.survivor(v) == pytest.approx(dist.pdf(v), rel=1e-10)


class TestSurvivorIdentity:
    @pytest.mark.parametrize("dist", FAMILIES)
    def test_complement_away_from_atom(self, dist):
        for v in np.linspace(0.0, 0.999, 21):
            assert dist.cdf(v) + dist.survivor(v) == pytest.approx(1.0, abs=1e-12)

    def test_weibull_survivor_keeps_its_tail(self):
        import mpmath

        with mpmath.workdps(40):
            k, s, v = 3, mpmath.mpf("0.2"), mpmath.mpf("0.7")
            exact = (mpmath.exp(-((v / s) ** k)) - mpmath.exp(-((1 / s) ** k))) / (
                1 - mpmath.exp(-((1 / s) ** k))
            )
        value = TruncatedWeibull(k=3.0, s=0.2).survivor(0.7)
        assert value == pytest.approx(float(exact), rel=1e-12)
        assert 2e-19 < value < 3e-19

    def test_iso_elastic_atom_at_one(self):
        assert ISO.atom_at_one == pytest.approx(0.3)
        assert ISO.survivor(1.0) == pytest.approx(0.3)
        assert ISO.cdf(1.0) == 1.0


class TestIfrCheck:
    def test_uniform_is_ifr(self):
        assert check_ifr(Uniform(), PriceWindow(0.05, 0.95)).is_ifr

    def test_iso_elastic_tail_is_not(self):
        report = check_ifr(ISO, PriceWindow(0.25, 0.9))
        assert not report.is_ifr
        assert report.first_violation is not None

    def test_weibull_is_ifr(self):
        assert check_ifr(WEIBULL, PriceWindow(0.05, 0.95)).is_ifr

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            check_ifr(Uniform(), PriceWindow(0.1, 0.9), grid_n=8)

    @pytest.mark.parametrize("dist", [Uniform(0.0, 0.5), TruncatedWeibull(k=3.0, s=0.2)])
    def test_skips_points_with_zero_survivor(self, dist):
        # the hazard is undefined where the survivor vanishes; the diagnostic
        # reports on the remaining points instead of raising
        report = check_ifr(dist, PriceWindow(0.05, 0.95))
        assert report.is_ifr
        assert report.first_violation is None


class TestLambdaCrit:
    @pytest.mark.parametrize(
        "window,expected", [(PriceWindow(0.05, 0.9), 10.0), (PriceWindow(0.05, 0.95), 20.0)]
    )
    def test_uniform_hazard_sup(self, window, expected):
        assert lambda_crit(Uniform(), window) == pytest.approx(expected, rel=1e-9)

    def test_iso_elastic_sup_at_left_edge(self):
        assert lambda_crit(ISO, PriceWindow(0.25, 0.9)) == pytest.approx(1.6, rel=1e-9)

    def test_shrinks_with_window(self):
        full = lambda_crit(Uniform(), PriceWindow(0.05, 0.95))
        inner = lambda_crit(Uniform(), PriceWindow(0.1, 0.8))
        assert inner <= full

    def test_iso_elastic_sup_at_the_splice(self):
        # the head hazard s / (1 - s v) rises to its left limit at v0, above the tail's eps / v0
        s = (1.0 - 0.3 * 0.2**-0.4) / 0.2
        assert lambda_crit(ISO, PriceWindow(0.05, 0.9)) == pytest.approx(s / (1.0 - s * 0.2), rel=1e-9)


class TestWindowMax:
    def test_interior_maximum_is_refined(self):
        v, value = window_max(lambda v: -((v - 0.3141) ** 2), np.linspace(0.0, 1.0, 11), 1e-12)
        assert v == pytest.approx(0.3141, abs=1e-9)
        assert value == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_maximum_at_an_end_is_that_end_exactly(self, sign):
        grid = np.linspace(0.2, 0.7, 9)
        v, value = window_max(lambda v: sign * v, grid, 1e-12)
        assert v == (0.7 if sign > 0 else 0.2)
        assert value == sign * v


class TestSubIntervalUniform:
    def test_cdf_clamps_outside_support(self):
        dist = Uniform(a=0.3, b=0.8)
        assert dist.cdf(0.1) == 0.0
        assert dist.cdf(0.9) == 1.0
        assert dist.cdf(0.55) == pytest.approx(0.5)

    def test_density_zero_off_support(self):
        dist = Uniform(a=0.3, b=0.8)
        assert dist.pdf(0.1) == 0.0
        assert dist.pdf(0.9) == 0.0
        assert dist.pdf(0.5) == pytest.approx(2.0)


class TestWeibullHazardShape:
    def test_strictly_increasing_for_shape_above_one(self):
        grid = np.linspace(0.05, 0.95, 40)
        rates = [WEIBULL.hazard(v) for v in grid]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_exceeds_untruncated_hazard(self):
        # right truncation removes upper mass, raising the conditional rate
        for v in [0.3, 0.6, 0.9]:
            raw = (2.0 / 0.5) * (v / 0.5)
            assert WEIBULL.hazard(v) > raw


class TestConstruction:
    def test_iso_elastic_rejects_unit_overflow(self):
        # survivor would exceed one at the splice point
        with pytest.raises(DomainError):
            PiecewiseIsoElastic(kappa=0.9, eps=0.4, v0=0.2)

    def test_weibull_rejects_decreasing_hazard_shape(self):
        with pytest.raises(DomainError):
            TruncatedWeibull(k=0.5, s=0.5)

    @pytest.mark.parametrize("k,s", [(4.0, 1e-90), (1.0, 1e-320), (400.0, 0.1)])
    def test_weibull_rejects_a_scale_whose_power_overflows(self, k, s):
        # (1/s)^k beyond the float range: a raised OverflowError, or an infinite 1/s
        with pytest.raises(DomainError, match="overflows"):
            TruncatedWeibull(k=k, s=s)

    @pytest.mark.parametrize("k,s", [(1.0, 1e17), (4.0, 1e80)])
    def test_weibull_rejects_a_scale_whose_mass_rounds_to_zero(self, k, s):
        # b = (1/s)^k is 1e-17, or the subnormal 1e-320: below ~1.1e-16, where 1 - e^-b rounds to 0
        with pytest.raises(DomainError, match="rounds to 0"):
            TruncatedWeibull(k=k, s=s)

    def test_from_spec_round_trip(self):
        for dist in FAMILIES:
            rebuilt = from_spec(dist.to_spec())
            assert rebuilt == dist

    def test_from_spec_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            from_spec({"family": "lognormal"})

    def test_window_ordering(self):
        with pytest.raises(DomainError):
            PriceWindow(0.9, 0.2)


def seeded_draws(seed: int, n: int) -> list:
    """Draws over the benchmark's declared domains: Uniform 0 <= a < b <= 1;
    iso-elastic eps, v0 in [0.01, 0.99], kappa in (0, v0**eps); Weibull k in
    [1, 4], s log-uniform in [0.2, 2]; plus the Weibull edges k = 1, 1.001
    and (k, s) = (4, 0.2)."""
    rng = random.Random(seed)
    draws = [TruncatedWeibull(1.0, 0.2), TruncatedWeibull(1.001, 0.2), TruncatedWeibull(4.0, 0.2)]
    for _ in range(n):
        a, b = sorted((rng.random(), rng.random()))
        eps, v0 = 0.01 + 0.98 * rng.random(), 0.01 + 0.98 * rng.random()
        draws += [
            Uniform(a, b),
            PiecewiseIsoElastic((1.0 - rng.random()) * v0**eps * (1.0 - 1e-12), eps, v0),
            TruncatedWeibull(1.0 + 3.0 * rng.random(), 0.2 * 10.0 ** rng.random()),
        ]
    return draws


DRAWS = seeded_draws(seed=20, n=8)


def mp_surplus(dist, P: float):
    """Integral of P(V >= t) over [P, 1] in mpmath, from each family's definition."""
    breaks = [*dist.kinks]
    if isinstance(dist, Uniform):
        a, b = mp.mpf(dist.a), mp.mpf(dist.b)
        survivor = lambda t: 1 if t <= a else 0 if t >= b else (b - t) / (b - a)
    elif isinstance(dist, PiecewiseIsoElastic):
        kappa, eps, v0 = mp.mpf(dist.kappa), mp.mpf(dist.eps), mp.mpf(dist.v0)
        slope = (1 - kappa * v0**-eps) / v0
        survivor = lambda t: kappa * t**-eps if t >= v0 else 1 - slope * t
    else:
        k, s = mp.mpf(dist.k), mp.mpf(dist.s)
        top = mp.exp(-((1 / s) ** k))
        survivor = lambda t: (mp.exp(-((t / s) ** k)) - top) / (1 - top)
        breaks += [dist.s / 2, dist.s, 2 * dist.s]
    points = sorted({mp.mpf(P), mp.mpf(1), *(mp.mpf(x) for x in breaks if P < x < 1)})
    return mp.quad(survivor, points) if len(points) > 1 else mp.mpf(0)


def surplus_prices(dist, rng: random.Random) -> list[float]:
    prices = [0.01, 1.0, 0.01 + 0.99 * rng.random(), 0.01 + 0.99 * rng.random()]
    if isinstance(dist, Uniform) and dist.b < 1.0:
        prices.append(dist.b + (1.0 - dist.b) * rng.random())  # P >= b: no surplus left
    if isinstance(dist, PiecewiseIsoElastic) and dist.v0 > 0.01:
        prices.append(0.01 + (dist.v0 - 0.01) * rng.random())  # P < v0: head and tail
    return prices


class TestSurplus:
    def test_kinks_are_the_density_jumps(self):
        assert Uniform(0.2, 0.7).kinks == (0.2, 0.7)
        assert ISO.kinks == (ISO.v0,)
        assert WEIBULL.kinks == ()

    @pytest.mark.parametrize("dist", DRAWS, ids=repr)
    def test_within_1e13_of_mpmath(self, dist):
        rng = random.Random(repr(dist))
        with mp.workdps(30):
            for P in surplus_prices(dist, rng):
                assert abs(dist.surplus(P) - float(mp_surplus(dist, P))) <= 1e-13, P

    def test_nothing_left_at_the_top(self):
        for dist in FAMILIES:
            assert dist.surplus(1.0) == 0.0
        assert Uniform(0.2, 0.6).surplus(0.6) == Uniform(0.2, 0.6).surplus(0.8) == 0.0

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_rejects_out_of_range(self, dist):
        with pytest.raises(DomainError):
            dist.surplus(1.5)


def weibull_grid(seed: int, n: int) -> list:
    """n seeded Weibull draws over the benchmark's domain (k in [1, 4], s log-uniform in [0.2, 2]),
    each with the prices 0, 1e-4, 1e-3, 0.01, a random one, 1 - 1e-4 and 1."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        dist = TruncatedWeibull(1.0 + 3.0 * rng.random(), 0.2 * 10.0 ** rng.random())
        draws.append((dist, (0.0, 1e-4, 1e-3, 0.01, rng.random(), 1.0 - 1e-4, 1.0)))
    return draws


@st.composite
def weibull_and_prices(draw):
    """A truncated Weibull anywhere in its domain, k >= 1 and s > 0 with b = (1/s)^k finite and
    the mass 1 - e^-b above 0, and two prices in [0, 1], the lower first.  k is drawn up to the
    largest value those bounds allow at s: ln b = k ln(1/s) stays below 709 (b finite) and above
    -36 (b above ~1e-16, where 1 - e^-b rounds to 0)."""
    s = draw(st.floats(min_value=1e-300, max_value=1e15))
    k_top = 1e300 if s == 1.0 else min(1e300, (709.0 if s < 1.0 else 36.0) / abs(math.log(s)))
    k = 1.0 + draw(st.floats(min_value=0.0, max_value=1.0)) * (k_top - 1.0)
    prices = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2)))
    return TruncatedWeibull(k, s), *prices


class TestWeibullSurplus:
    """The closed form in the incomplete gamma function against mpmath's integral, and the bounds
    and monotonicity of S over the whole domain."""

    GRID = weibull_grid(seed=31, n=20)

    @pytest.mark.parametrize("dist,prices", GRID, ids=[repr(dist) for dist, _ in GRID])
    def test_within_1e14_of_mpmath(self, dist, prices):
        with mp.workdps(30):
            for P in prices:
                assert abs(dist.surplus(P) - float(mp_surplus(dist, P))) <= 1e-14, P

    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(weibull_and_prices())
    def test_bounded_and_nonincreasing(self, case):
        dist, lo, hi = case
        S = dist.surplus(lo)
        assert math.isfinite(S) and 0.0 <= S <= 1.0 - lo
        assert S >= dist.surplus(hi) - 1e-15

    @pytest.mark.parametrize("loop", [_gamma_series, _gamma_fraction])
    def test_gamma_loops_raise_at_their_cap(self, loop):
        with pytest.raises(ConvergenceError, match=f"in {GAMMA_TERMS} terms"):
            loop(1.5, math.nan)


class TestVerifyMassRoute:
    @pytest.mark.parametrize("dist", DRAWS, ids=repr)
    def test_within_1e8_of_one(self, dist):
        assert abs(_total_mass(dist) - 1.0) <= 1e-8


class TestSpecs:
    """A family's spec is its tag plus its fields, and from_spec reads it back."""

    @pytest.mark.parametrize(
        "dist,spec",
        [
            (Uniform(0.1, 0.9), {"family": "uniform", "a": 0.1, "b": 0.9}),
            (ISO, {"family": "iso_elastic", "kappa": 0.3, "eps": 0.4, "v0": 0.2}),
            (WEIBULL, {"family": "trunc_weibull", "k": 2.0, "s": 0.5}),
        ],
        ids=["uniform", "iso_elastic", "trunc_weibull"],
    )
    def test_to_spec_is_the_tagged_record(self, dist, spec):
        assert dist.to_spec() == spec
        assert list(dist.to_spec()) == list(spec)  # the tag first, then the fields in order

    def test_uniform_spec_defaults_to_the_unit_interval(self):
        assert from_spec({"family": "uniform"}) == Uniform()

    def test_missing_required_field_raises(self):
        with pytest.raises(TypeError, match="kappa"):
            from_spec({"family": "iso_elastic", "eps": 0.4, "v0": 0.2})
