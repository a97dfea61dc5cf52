"""Market aggregates: revenue split, utility, and the trial-harm envelope."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from subtrial.consumer import AttentionParams, effective_lambda, entropy, optimal_q
from subtrial.distributions import PiecewiseIsoElastic, TruncatedWeibull, Uniform
from subtrial.exceptions import DomainError
from subtrial.market import (
    Contract,
    consumer_utility,
    inattentive_revenue,
    ir_slack,
    profit,
    surplus_integral,
)

U01 = Uniform()
ISO = PiecewiseIsoElastic(kappa=0.3, eps=0.4, v0=0.2)


class TestInattentiveRevenue:
    def test_zero_below_support(self):
        dist = Uniform(a=0.3, b=1.0)
        params = AttentionParams(2.0, 0.5)
        assert inattentive_revenue(dist, params, Contract(T=1.0, P=0.2)) == 0.0

    def test_uniform_closed_form(self):
        params = AttentionParams(2.0, 0.0)
        value = inattentive_revenue(U01, params, Contract(T=7.0, P=0.5))
        assert value == pytest.approx(0.25 * (1.0 - expit(1.0)), rel=1e-12)
        assert value == pytest.approx(0.067235, abs=1e-6)

    def test_matches_integral_over_valuations(self):
        # oracle: integrate the failure mass over v < P instead of using F(P)
        params = AttentionParams(2.0, 0.5)
        contract = Contract(T=3.0, P=0.6)
        q = optimal_q(contract.P, effective_lambda(params, contract.T)).q_star
        integral, _ = quad(lambda v: (1.0 - q) * U01.pdf(v), 0.0, contract.P, epsabs=1e-12)
        assert inattentive_revenue(U01, params, contract) == pytest.approx(
            contract.P * integral, rel=1e-10
        )

    def test_vanishes_under_full_attention(self):
        params = AttentionParams(1e8, 0.0)
        assert inattentive_revenue(U01, params, Contract(T=0.0, P=0.5)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_strictly_increasing_in_trial_length(self):
        params = AttentionParams(2.0, 0.5)
        values = [
            inattentive_revenue(U01, params, Contract(T=t, P=0.5))
            for t in np.linspace(0.0, 40.0, 25)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_flat_when_no_cancel_segment(self):
        dist = Uniform(a=0.3, b=1.0)
        params = AttentionParams(2.0, 0.5)
        values = [inattentive_revenue(dist, params, Contract(T=t, P=0.25)) for t in [0, 5, 20]]
        assert values == [0.0, 0.0, 0.0]


class TestProfit:
    def test_full_attention_monopoly(self):
        params = AttentionParams(1e6, 0.0)
        out = profit(U01, params, Contract(T=0.0, P=0.5))
        assert out.profit == pytest.approx(0.25, abs=1e-9)

    def test_decomposition(self):
        params = AttentionParams(2.0, 0.5)
        out = profit(U01, params, Contract(T=2.0, P=0.5))
        assert out.profit == pytest.approx(
            out.standard_revenue + out.inattentive_revenue, abs=1e-12
        )

    def test_components_at_reference_point(self):
        params = AttentionParams(2.0, 0.0)
        out = profit(U01, params, Contract(T=0.0, P=0.5))
        assert out.standard_revenue == pytest.approx(0.25, abs=1e-14)
        assert out.profit == pytest.approx(0.317235, abs=1e-6)

    def test_unit_price_leaves_only_inattentive_revenue(self):
        params = AttentionParams(2.0, 0.0)
        out = profit(U01, params, Contract(T=0.0, P=1.0))
        assert out.standard_revenue == 0.0
        assert out.profit == pytest.approx(out.inattentive_revenue)

    def test_iso_elastic_atom_buys_at_unit_price(self):
        # the mass at v = 1 renews willingly even at P = 1
        params = AttentionParams(2.0, 0.0)
        out = profit(ISO, params, Contract(T=0.0, P=1.0))
        assert out.standard_revenue == pytest.approx(ISO.kappa, rel=1e-12)

    def test_reads_the_survivor_once(self):
        dist = CountingWeibull(2.0, 0.5)
        out = profit(dist, AttentionParams(2.0, 0.5), Contract(T=1.0, P=0.5))
        assert dist.survivor_calls == [0.5]
        assert out.standard_revenue == 0.5 * TruncatedWeibull(2.0, 0.5).survivor(0.5)


class CountingWeibull(TruncatedWeibull):
    """A TruncatedWeibull that records the valuations its survivor is called at."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "survivor_calls", [])

    def survivor(self, v):
        self.survivor_calls.append(v)
        return super().survivor(v)


class TestSurplusIntegral:
    def test_uniform_closed_form(self):
        assert surplus_integral(U01, 0.5) == pytest.approx(0.125, abs=1e-12)

    def test_iso_elastic_against_closed_form(self):
        # direct antiderivative on [P, 1] plus the atom's surplus
        kappa, eps = ISO.kappa, ISO.eps
        for P in [0.3, 0.5, 0.8]:
            tail = kappa * eps * (1.0 - P ** (1.0 - eps)) / (1.0 - eps)
            tail -= kappa * (P ** (-eps) - 1.0) * P
            expected = tail + kappa * (1.0 - P)
            assert surplus_integral(ISO, P) == pytest.approx(expected, abs=1e-10)


class TestConsumerUtility:
    def test_full_attention_is_pure_surplus(self):
        params = AttentionParams(1e9, 0.0)
        u = consumer_utility(U01, params, Contract(T=0.0, P=0.5))
        assert u == pytest.approx(0.125, abs=1e-7)

    def test_no_cancel_segment_is_pure_surplus(self):
        dist = Uniform(a=0.3, b=1.0)
        params = AttentionParams(2.0, 0.5)
        u = consumer_utility(dist, params, Contract(T=5.0, P=0.25))
        assert u == pytest.approx(surplus_integral(dist, 0.25), abs=1e-12)

    def test_reference_value_recomputed_from_parts(self):
        params = AttentionParams(2.0, 0.0)
        contract = Contract(T=0.0, P=0.5)
        q = expit(1.0)
        expected = 0.125 - 0.25 * (1.0 - q) - 0.5 * (-entropy(q)) / 2.0
        assert consumer_utility(U01, params, contract) == pytest.approx(expected, abs=1e-12)

    def test_decreasing_in_trial_length(self):
        params = AttentionParams(2.0, 0.5)
        us = [consumer_utility(U01, params, Contract(T=t, P=0.5)) for t in [0.0, 2.0, 10.0]]
        assert us[0] > us[1] > us[2]

    def test_iso_elastic_value_from_quadrature(self):
        # independent reassembly: surplus by quadrature over both density
        # pieces plus the atom, losses recomputed from the logistic
        params = AttentionParams(2.0, 0.0)
        P = 0.5
        q = expit(2.0 * P)
        surplus, _ = quad(lambda v: (v - P) * ISO.pdf(v), P, 1.0, epsabs=1e-12)
        surplus += ISO.kappa * (1.0 - P)
        mass = 1.0 - ISO.survivor(P)
        expected = surplus - P * mass * (1.0 - q) - 0.5 * (-entropy(q)) * mass
        assert consumer_utility(ISO, params, Contract(T=0.0, P=P)) == pytest.approx(
            expected, abs=1e-10
        )


class TestIrSlack:
    def test_zero_without_decay(self):
        assert ir_slack(U01, AttentionParams(2.0, 0.0), Contract(T=1.0, P=0.5)) == 0.0

    def test_zero_without_cancel_segment(self):
        dist = Uniform(a=0.3, b=1.0)
        assert ir_slack(dist, AttentionParams(2.0, 0.5), Contract(T=1.0, P=0.2)) == 0.0

    def test_reference_value(self):
        params = AttentionParams(2.0, 1.0)
        q = optimal_q(0.5, effective_lambda(params, 1.0)).q_star
        assert q == pytest.approx(0.622459, abs=1e-6)
        expected = 0.5 * (-entropy(q)) * 0.5
        assert ir_slack(U01, params, Contract(T=1.0, P=0.5)) == pytest.approx(expected, rel=1e-12)

    def test_envelope_identity_on_grid(self):
        # -dU/dT with the monitoring probability held at its optimized value
        h = 1e-5
        for T in [0.5, 2.0, 8.0, 20.0, 60.0]:
            for P in [0.2, 0.35, 0.5, 0.7, 0.9]:
                for beta in [0.05, 0.2, 0.5, 1.0, 3.0]:
                    params = AttentionParams(2.0, beta)
                    q = optimal_q(P, effective_lambda(params, T)).q_star
                    fd = -(
                        consumer_utility(U01, params, Contract(T=T + h, P=P), q_override=q)
                        - consumer_utility(U01, params, Contract(T=T - h, P=P), q_override=q)
                    ) / (2 * h)
                    assert ir_slack(U01, params, Contract(T=T, P=P)) == pytest.approx(
                        fd, rel=1e-5
                    )

    def test_envelope_holds_under_boost(self):
        h = 1e-5
        params = AttentionParams(2.0, 0.5, gamma=2.0)
        T, P = 3.0, 0.5
        q = optimal_q(P, effective_lambda(params, T)).q_star
        fd = -(
            consumer_utility(U01, params, Contract(T=T + h, P=P), q_override=q)
            - consumer_utility(U01, params, Contract(T=T - h, P=P), q_override=q)
        ) / (2 * h)
        assert ir_slack(U01, params, Contract(T=T, P=P)) == pytest.approx(fd, rel=1e-5)


class TestSaturatedAttention:
    # x = lam P = 60: q* rounds to one, so forming 1 - q* would give 0 for
    # every attention term; the price lies above the support, so F = 1, S = 0.
    DIST = Uniform(0.1, 0.2)
    PARAMS = AttentionParams(200.0, 0.5)
    CONTRACT = Contract(T=0.0, P=0.3)

    @staticmethod
    def exact() -> dict:
        import mpmath

        with mpmath.workdps(50):
            P, lam, beta = mpmath.mpf("0.3"), mpmath.mpf(200), mpmath.mpf("0.5")
            q, miss = 1 / (1 + mpmath.exp(-lam * P)), 1 / (1 + mpmath.exp(lam * P))
            neg_entropy = -(q * mpmath.log(q) + miss * mpmath.log(miss))
            return {
                "utility": float(-P * miss - neg_entropy / lam),
                "inattentive_revenue": float(P * miss),
                "ir_slack": float(beta / lam * neg_entropy),
            }

    @pytest.mark.parametrize(
        "name,function,value",
        [
            ("utility", consumer_utility, -5.2976890114314e-27),
            ("inattentive_revenue", inattentive_revenue, 2.626953228809e-27),
            ("ir_slack", ir_slack, 1.335367891311e-27),
        ],
    )
    def test_terms_keep_relative_precision(self, name, function, value):
        got = function(self.DIST, self.PARAMS, self.CONTRACT)
        # approx's default abs tolerance of 1e-12 would accept 0.0 here
        assert got == pytest.approx(self.exact()[name], rel=1e-12, abs=0.0)
        assert got == pytest.approx(value, rel=1e-12, abs=0.0)
        assert getattr(profit(self.DIST, self.PARAMS, self.CONTRACT), name) == got

    def test_far_decayed_attention(self):
        # lam = 1e-170, so (lam P)^2 underflows; q* is 1/2, the surplus 1/8
        # cancels the forgetting loss P F / 2, and F log(2) / lam is left
        out = profit(U01, AttentionParams(1.0, 1.0), Contract(T=1e170, P=0.5))
        assert out.q_star == 0.5
        assert out.inattentive_revenue == 0.125
        assert out.utility == pytest.approx(-0.5 * np.log(2.0) / 1e-170, rel=1e-12)
        with pytest.raises(DomainError, match="underflows"):
            profit(U01, AttentionParams(1.0, 10.0), Contract(T=1e308, P=0.5))

    @pytest.mark.parametrize("lambda0,P", [(1e-200, 1e-200), (5e-324, 0.4)])
    def test_underflowing_x_matches_literal_route(self, lambda0, P):
        # x = lam P underflows to 0 with both factors positive; the cognitive
        # cost divides by lam, never by x
        params, contract = AttentionParams(lambda0), Contract(T=0.0, P=P)
        literal = consumer_utility(U01, params, contract, q_override=0.5)
        assert profit(U01, params, contract).utility == literal
        assert consumer_utility(U01, params, contract) == literal


class TestAttentionBoostStatics:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    def test_fixed_contract_directions(self, gamma):
        base = AttentionParams(2.0, 0.5)
        boosted = AttentionParams(2.0, 0.5, gamma=gamma)
        for contract in [Contract(T=0.0, P=0.3), Contract(T=5.0, P=0.5), Contract(T=20.0, P=0.9)]:
            q = profit(U01, base, contract).q_star
            du = consumer_utility(U01, boosted, contract) - consumer_utility(U01, base, contract)
            dir_ = inattentive_revenue(U01, boosted, contract) - inattentive_revenue(
                U01, base, contract
            )
            assert du >= 0.0
            if q < 1.0 - 1e-9:
                assert du > 0.0
                assert dir_ < 0.0
            else:
                assert dir_ <= 0.0
