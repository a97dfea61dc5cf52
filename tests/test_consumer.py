"""Monitoring behavior: entropy cost, decay law, logistic optimum, derivatives."""

import math
import sys

import numpy as np
import pytest
from scipy.special import expit, xlogy

from subtrial.consumer import (
    AttentionParams,
    cost_slope,
    effective_lambda,
    entropy,
    monitoring_objective,
    optimal_q,
    q_derivatives,
    trial_length,
)
from subtrial.exceptions import DomainError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-13):
    """Independent scalar minimizer used as the oracle for the closed form."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


class TestEntropy:
    def test_symmetric_point(self):
        assert entropy(0.5) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_endpoints_are_zero(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_direct_evaluation(self):
        expected = 0.9 * math.log(0.9) + 0.1 * math.log(0.1)
        assert entropy(0.9) == pytest.approx(expected, rel=1e-14)
        # convexity at the midpoint of 0.8 and 1.0: below the chord
        assert entropy(0.9) < (entropy(0.8) + entropy(1.0)) / 2.0

    def test_strictly_convex(self):
        qs = np.linspace(0.02, 0.98, 25)
        for a in qs:
            for b in qs:
                if abs(a - b) > 1e-9:
                    mid = entropy(0.5 * (a + b))
                    assert mid < 0.5 * (entropy(a) + entropy(b)) - 1e-12

    def test_bitwise_equal_to_scipy_xlogy(self):
        rng = np.random.default_rng(11)
        qs = np.concatenate([[0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53], rng.random(20_000)])
        oracle = xlogy(qs, qs) + xlogy(1.0 - qs, 1.0 - qs)
        assert all(entropy(float(q)) == float(h) for q, h in zip(qs, oracle))

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy(-0.01)
        with pytest.raises(DomainError):
            entropy(1.01)


class TestEffectiveLambda:
    def test_arithmetic(self):
        assert effective_lambda(AttentionParams(2.0, 1.0), 1.0) == pytest.approx(1.0)
        assert effective_lambda(AttentionParams(1.0, 0.5, gamma=2.0), 2.0) == pytest.approx(1.0)

    def test_no_decay_recovers_baseline(self):
        params = AttentionParams(3.0, 0.0, gamma=1.5)
        for T in [0.0, 10.0, 365.0]:
            assert effective_lambda(params, T) == pytest.approx(4.5)

    def test_weakly_decreasing_in_T(self):
        params = AttentionParams(2.0, 0.7)
        lams = [effective_lambda(params, t) for t in np.linspace(0.0, 50.0, 40)]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_underflow_to_zero_is_a_domain_error(self):
        # beta * T overflows to inf, so lam(T) would be exactly 0
        with pytest.raises(DomainError, match="underflows"):
            effective_lambda(AttentionParams(1.0, 10.0), 1e308)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            AttentionParams(lambda0=0.0)
        with pytest.raises(DomainError):
            AttentionParams(lambda0=1.0, beta=-0.1)
        with pytest.raises(DomainError):
            AttentionParams(lambda0=1.0, gamma=0.5)


class TestOptimalQ:
    def test_free_price_limit(self):
        assert optimal_q(0.0, 2.0).q_star == pytest.approx(0.5)
        assert optimal_q(1e-12, 2.0).q_star == pytest.approx(0.5, abs=1e-11)

    def test_bitwise_equal_to_scipy_expit(self):
        rng = np.random.default_rng(7)
        P = np.concatenate([[0.0, 1.0, 0.0], rng.random(20_000)])
        lam = np.concatenate([[1.0, 1e4, 1e-3], 10.0 ** rng.uniform(-3.0, 3.0, 20_000)])
        oracle = expit(lam * P)
        assert all(
            optimal_q(float(p), float(l)).q_star == float(q) for p, l, q in zip(P, lam, oracle)
        )

    def test_exact_logistic_point(self):
        assert optimal_q(1.0, math.log(3.0)).q_star == pytest.approx(0.75, abs=1e-15)

    def test_against_direct_minimization(self):
        sol = optimal_q(0.5, 2.0)
        assert sol.q_star == pytest.approx(0.731059, abs=1e-6)
        oracle = golden_min(lambda q: monitoring_objective(q, 0.5, 2.0), 1e-12, 1.0 - 1e-12)
        assert sol.q_star == pytest.approx(oracle, abs=1e-8)

    def test_value_decomposition(self):
        for P, lam in [(0.3, 1.0), (0.8, 5.0), (1.0, 0.2)]:
            sol = optimal_q(P, lam)
            assert sol.objective_value == pytest.approx(
                sol.expected_loss + sol.entropy_cost, abs=1e-12
            )
            assert sol.expected_loss >= 0.0
            assert sol.entropy_cost <= 0.0

    def test_interior_and_dominates_corners(self):
        # the corner payoffs are P (never monitor) and 0 (monitor surely);
        # the interior optimum must beat both
        for P in np.linspace(0.05, 1.0, 8):
            for lam in np.linspace(0.1, 10.0, 8):
                sol = optimal_q(P, lam)
                assert 0.0 < sol.q_star < 1.0
                assert sol.objective_value < min(P, 0.0)

    @pytest.mark.parametrize("P, lam", [(-0.1, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, math.inf), (0.5, math.nan)])
    def test_domain(self, P, lam):
        with pytest.raises(DomainError):
            optimal_q(P, lam)

    def test_saturation_is_finite(self):
        sol = optimal_q(1.0, 1e6)
        assert sol.q_star <= 1.0
        assert math.isfinite(sol.objective_value)


class TestQDerivatives:
    def test_no_decay_kills_T_slope(self):
        params = AttentionParams(2.0, 0.0)
        _, _, dq_dT = q_derivatives(0.5, params, 3.0)
        assert dq_dT == 0.0

    def test_price_slope_value(self):
        params = AttentionParams(2.0, 0.0)
        dq_dP, _, _ = q_derivatives(0.5, params, 0.0)
        assert dq_dP == pytest.approx(0.393224, abs=1e-6)

    def test_trial_slope_value(self):
        params = AttentionParams(2.0, 1.0)
        lam = effective_lambda(params, 1.0)
        _, _, dq_dT = q_derivatives(0.5, params, 1.0)
        q = optimal_q(0.5, lam).q_star
        assert dq_dT == pytest.approx(-(1.0 * 2.0 * 0.5) * q * (1.0 - q) / 4.0, rel=1e-12)

    def test_signs(self):
        params = AttentionParams(1.5, 0.8)
        dq_dP, dq_dlam, dq_dT = q_derivatives(0.4, params, 2.0)
        assert dq_dP > 0.0
        assert dq_dlam > 0.0
        assert dq_dT < 0.0

    def test_matches_finite_differences(self):
        params = AttentionParams(2.0, 0.5)
        h = 1e-6
        for P in [0.2, 0.5, 0.9]:
            for T in [0.5, 2.0, 10.0]:
                lam = effective_lambda(params, T)
                dq_dP, dq_dlam, dq_dT = q_derivatives(P, params, T)
                fd_P = (optimal_q(P + h, lam).q_star - optimal_q(P - h, lam).q_star) / (2 * h)
                fd_lam = (optimal_q(P, lam + h).q_star - optimal_q(P, lam - h).q_star) / (2 * h)
                fd_T = (
                    optimal_q(P, effective_lambda(params, T + h)).q_star
                    - optimal_q(P, effective_lambda(params, T - h)).q_star
                ) / (2 * h)
                assert dq_dP == pytest.approx(fd_P, rel=1e-6)
                assert dq_dlam == pytest.approx(fd_lam, rel=1e-6)
                assert dq_dT == pytest.approx(fd_T, rel=1e-6)


class TestSaturatedMonitoring:
    # x = lam P = 50: q* rounds to one, so a slope or loss formed from 1 - q*
    # would be exactly 0; trial_terms keeps each to full relative precision.
    PARAMS = AttentionParams(100.0, 0.5)
    P = 0.5

    @staticmethod
    def exact() -> dict:
        import mpmath

        with mpmath.workdps(50):
            P, lam, beta = mpmath.mpf("0.5"), mpmath.mpf(100), mpmath.mpf("0.5")
            q, miss = 1 / (1 + mpmath.exp(-lam * P)), 1 / (1 + mpmath.exp(lam * P))
            return {
                "dq_dP": float(lam * q * miss),
                "dq_dlam": float(P * q * miss),
                "dq_dT": float(-P * q * miss * beta * lam),  # dlam/dT = -beta lam0 at T = 0
                "expected_loss": float(P * miss),
                "entropy_cost": float((q * mpmath.log(q) + miss * mpmath.log(miss)) / lam),
            }

    def test_derivatives_match_mpmath(self):
        exact = self.exact()
        got = dict(zip(("dq_dP", "dq_dlam", "dq_dT"), q_derivatives(self.P, self.PARAMS, 0.0)))
        assert got["dq_dP"] == pytest.approx(1.9287e-20, rel=1e-4, abs=0.0)
        for name, value in got.items():
            assert value == pytest.approx(exact[name], rel=1e-12, abs=0.0)

    def test_value_decomposition_matches_mpmath(self):
        exact = self.exact()
        sol = optimal_q(self.P, 100.0)
        assert sol.expected_loss == pytest.approx(9.6437e-23, rel=1e-4, abs=0.0)
        assert sol.entropy_cost == pytest.approx(-9.8366e-23, rel=1e-4, abs=0.0)
        assert sol.expected_loss == pytest.approx(exact["expected_loss"], rel=1e-12, abs=0.0)
        assert sol.entropy_cost == pytest.approx(exact["entropy_cost"], rel=1e-12, abs=0.0)


class TestMonitoringMonotonicity:
    def test_q_strictly_decreasing_in_trial_length(self):
        params = AttentionParams(2.0, 0.5)
        qs = [
            optimal_q(0.5, effective_lambda(params, t)).q_star for t in np.linspace(0.0, 40.0, 30)
        ]
        assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_flat_without_decay(self):
        params = AttentionParams(2.0, 0.0)
        qs = [optimal_q(0.5, effective_lambda(params, t)).q_star for t in [0.0, 5.0, 50.0]]
        assert qs[0] == qs[1] == qs[2]


class TestDecayLaw:
    """trial_length inverts lam(T), and cost_slope is the slope of 1 / lam(T) in T."""

    PARAMS = [
        AttentionParams(20.0, 0.5),
        AttentionParams(3.0, 1e-6, 1.5),
        AttentionParams(0.7, 1e-3, 2.0),
        AttentionParams(50.0, 7.0, 1.02),
    ]

    @pytest.mark.parametrize("params", PARAMS, ids=repr)
    @pytest.mark.parametrize("T", [0.0, 1e-3, 0.5, 4.0, 30.0, 365.0])
    def test_trial_length_inverts_the_decay_law(self, params, T):
        # lam(T) carries a rounding of relative size eps, which moves 1 + beta T by ~eps, so the
        # inverse is exact to ~eps (1 + beta T) / beta: rel 1e-12 once beta T exceeds ~1e-3
        rounding = 4.0 * sys.float_info.epsilon * (1.0 + params.beta * T) / params.beta
        assert trial_length(params, effective_lambda(params, T)) == pytest.approx(T, rel=1e-12, abs=rounding)

    @pytest.mark.parametrize("params", PARAMS, ids=repr)
    @pytest.mark.parametrize("T", [0.5, 10.0, 200.0])
    def test_cost_slope_is_the_slope_of_the_unit_cost(self, params, T):
        h = 1e-3 * T
        cost = lambda t: 1.0 / effective_lambda(params, t)
        assert cost_slope(params) == pytest.approx((cost(T + h) - cost(T - h)) / (2.0 * h), rel=1e-6)
