"""Attention mixtures, mean-preserving spreads, failure-probability curvature."""

import math

import pytest
from scipy.optimize import brentq

from subtrial.consumer import AttentionParams, optimal_q
from subtrial.distributions import Uniform
from subtrial.exceptions import DomainError
from subtrial.heterogeneity import AttentionMixture, aggregate_loss, mps_pair, psi_curvature
from subtrial.market import Contract, inattentive_revenue

U01 = Uniform()
# root of u tanh(u/2) = 2: psi'' > 0 exactly where P/z exceeds it
U_FLIP = brentq(lambda u: u * math.tanh(u / 2.0) - 2.0, 1.0, 4.0, xtol=1e-14)


def failure_prob(P: float, z: float) -> float:
    return 1.0 - optimal_q(P, 1.0 / z).q_star


class TestAggregateLoss:
    def test_point_mass_reproduces_market_loss(self):
        params = AttentionParams(2.0, 0.0)
        contract = Contract(T=0.0, P=0.5)
        mixture = AttentionMixture.point_mass(2.0)
        assert aggregate_loss(U01, mixture, contract) == pytest.approx(
            inattentive_revenue(U01, params, contract), abs=1e-15
        )
        assert aggregate_loss(U01, mixture, contract) == pytest.approx(0.067235, abs=1e-6)

    def test_attentive_population_loses_nothing(self):
        mixture = AttentionMixture(atoms=((1e8, 0.5), (1e9, 0.5)))
        assert aggregate_loss(U01, mixture, Contract(T=0.0, P=0.5)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_saturated_atoms_still_lose(self):
        # lambda P = 60 and 75: 1 - q* rounds to 0, sigma(-lambda P) does not
        mixture = AttentionMixture(atoms=((200.0, 0.5), (250.0, 0.5)))
        contract = Contract(T=0.0, P=0.3)
        loss = aggregate_loss(Uniform(0.1, 0.2), mixture, contract)
        assert loss > 0.0
        assert loss == pytest.approx(0.3 * 0.5 * (math.exp(-60.0) + math.exp(-75.0)), rel=1e-12, abs=0.0)

    def test_weights_average_the_tails(self):
        mixture = AttentionMixture(atoms=((4.0, 0.25), (1.0, 0.75)))
        contract = Contract(T=0.0, P=0.5)
        expected = 0.25 * (
            0.25 * failure_prob(0.5, 0.25) + 0.75 * failure_prob(0.5, 1.0)
        )
        assert aggregate_loss(U01, mixture, contract) == pytest.approx(expected, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            AttentionMixture(atoms=((2.0, 0.6), (3.0, 0.6)))
        with pytest.raises(DomainError):
            AttentionMixture(atoms=((-1.0, 1.0),))


class TestMpsPair:
    def test_symmetric_spread_arithmetic(self):
        base, spread = mps_pair(0.5, 0.25)
        assert base.atoms == ((2.0, 1.0),)
        zs = sorted(1.0 / lam for lam, _ in spread.atoms)
        assert zs == pytest.approx([0.25, 0.75])
        assert spread.mean_z() == pytest.approx(0.5, abs=1e-15)

    def test_zero_spread_is_identity(self):
        base, spread = mps_pair(0.5, 0.0)
        assert base == spread

    def test_asymmetric_weights_preserve_mean(self):
        _, spread = mps_pair(0.5, 0.25, weights=(0.8, 0.2))
        zs = {round(1.0 / lam, 10) for lam, _ in spread.atoms}
        assert zs == {0.4375, 0.75}
        assert spread.mean_z() == pytest.approx(0.5, abs=1e-15)

    def test_infeasible_spread_raises(self):
        with pytest.raises(DomainError):
            mps_pair(0.2, 0.5)


class TestSpreadDirection:
    def test_spread_raises_loss_in_the_convex_region(self):
        # failure probability is convex in z only where (P/z) tanh(P/2z) > 2,
        # i.e. for strongly attentive populations (z well below P / 2.4)
        contract = Contract(T=0.0, P=0.8)
        base, spread = mps_pair(0.05, 0.02)
        assert aggregate_loss(U01, spread, contract) > aggregate_loss(U01, base, contract) + 1e-12

    def test_spread_lowers_loss_in_the_concave_region(self):
        # at moderate attention the same construction moves the other way
        contract = Contract(T=0.0, P=0.5)
        base, spread = mps_pair(0.5, 0.25)
        assert aggregate_loss(U01, spread, contract) < aggregate_loss(U01, base, contract) - 1e-12

    def test_larger_spreads_amplify_the_local_direction(self):
        contract = Contract(T=0.0, P=0.8)
        losses = []
        for delta in [0.0, 0.01, 0.02, 0.03]:
            _, spread = mps_pair(0.05, delta)
            losses.append(aggregate_loss(U01, spread, contract))
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_jensen_consistency_against_measured_curvature(self):
        # the sign of the spread premium must match the finite-difference
        # curvature of the failure probability at the mean, whatever it is
        for P in [0.2, 0.5, 0.8]:
            for mean_z in [0.05, 0.25, 0.5, 1.0]:
                delta = 0.3 * mean_z
                base, spread = mps_pair(mean_z, delta)
                premium = aggregate_loss(U01, spread, Contract(T=0.0, P=P)) - aggregate_loss(
                    U01, base, Contract(T=0.0, P=P)
                )
                h = 1e-3 * mean_z
                fd2 = (
                    failure_prob(P, mean_z + h)
                    - 2.0 * failure_prob(P, mean_z)
                    + failure_prob(P, mean_z - h)
                ) / h**2
                if abs(premium) > 1e-10:
                    assert premium * fd2 > 0.0


class TestPsiCurvature:
    def test_positive_everywhere(self):
        # positive throughout the convex side z < P / U_FLIP
        for P in [0.2, 0.5, 1.0]:
            for frac in [0.01, 0.1, 0.5, 0.9, 0.999]:
                assert psi_curvature(P, frac * P / U_FLIP) > 0.0

    def test_vanishes_for_flat_tails(self):
        # z -> inf: u tanh(u/2) -> 0 and sigma' -> 1/4, so psi'' ~ -P / (2 z^3)
        assert psi_curvature(0.5, 1e6) == pytest.approx(-0.5 / (2.0 * 1e18), rel=1e-6)
        # z -> 0: the logistic tail exp(-P/z) kills every power of z
        assert psi_curvature(0.5, 1e-3) == pytest.approx(0.0, abs=1e-20)
        assert psi_curvature(0.5, 1e-200) == 0.0

    def test_closed_form_value(self):
        # sigma'(u) (P/z^3) [u tanh(u/2) - 2] at u = P/z = 1
        P, z = 0.5, 0.5
        u = P / z
        sigma = 1.0 / (1.0 + math.exp(-u))
        expected = sigma * (1.0 - sigma) * (P / z**3) * (u * math.tanh(u / 2.0) - 2.0)
        assert psi_curvature(P, z) == pytest.approx(expected, rel=1e-12)
        assert psi_curvature(P, z) == pytest.approx(-1.2094645, rel=1e-7)

    def test_true_second_derivative_changes_sign(self):
        # the curvature of 1 - q*(P, 1/z) flips sign where (P/z) tanh(P/(2z))
        # crosses 2; the closed form must follow the finite difference in
        # both regimes
        P = 0.5
        h = 1e-4

        def fd2(z):
            return (
                failure_prob(P, z + h) - 2.0 * failure_prob(P, z) + failure_prob(P, z - h)
            ) / h**2

        assert fd2(0.05) > 0.0  # strongly attentive: convex
        assert fd2(0.5) < 0.0  # moderate attention: concave
        assert psi_curvature(P, 0.05) > 0.0
        assert psi_curvature(P, 0.5) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_curvature(0.0, 0.5)
        with pytest.raises(DomainError):
            psi_curvature(0.5, 0.0)
