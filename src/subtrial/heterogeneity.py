"""Aggregate inattentive loss under heterogeneous attention.

The per-consumer failure probability psi(z) = 1 - q*(P, 1/z) in the unit
attention cost z = 1/lam is convex only where u tanh(u/2) > 2 with u = P/z,
that is for z below P/2.3994 (strongly attentive consumers), and concave
above.  Spreading attention costs around a fixed mean therefore raises the
aggregate monetary loss where the spread's support lies on the convex side
and lowers it where the support lies on the concave side.  Mixtures are
discrete: the spread comparison is then exact arithmetic over atoms instead
of quadrature.  Spreads are constructed in z-space; spreading in lam-space is
not covered by this curvature result and is deliberately not offered.
"""

from __future__ import annotations

import math

from .consumer import trial_terms
from .distributions import Record, ValuationDistribution
from .exceptions import DomainError
from .market import Contract, cancel_mass

WEIGHT_TOL = 1e-12


class AttentionMixture(Record):
    """Discrete distribution over attention sensitivities."""

    atoms: tuple[tuple[float, float], ...]  # (lambda_i, weight_i)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise DomainError("mixture needs at least one atom")
        total = 0.0
        for lam, w in self.atoms:
            if not (math.isfinite(lam) and lam > 0.0):
                raise DomainError(f"sensitivities must be positive and finite, got {lam}")
            if not (math.isfinite(w) and w >= 0.0):
                raise DomainError(f"weights must be nonnegative and finite, got {w}")
            total += w
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"weights must sum to 1, got {total}")

    @staticmethod
    def point_mass(lam: float) -> "AttentionMixture":
        return AttentionMixture(atoms=((lam, 1.0),))

    def mean_z(self) -> float:
        """Mean unit attention cost, E[1/lambda]."""
        return sum(w / lam for lam, w in self.atoms)


def aggregate_loss(
    dist: ValuationDistribution, mixture: AttentionMixture, contract: Contract
) -> float:
    """P * F(P) * sum_i w_i sigma(-lambda_i P), sigma(-x) = 1 - q*(P, lambda_i)."""
    mass = cancel_mass(dist, contract.P)
    fail = sum(w * trial_terms(lam * contract.P)[2] for lam, w in mixture.atoms)
    return contract.P * mass * fail


def mps_pair(
    mean_z: float, delta: float, weights: tuple[float, float] = (0.5, 0.5)
) -> tuple[AttentionMixture, AttentionMixture]:
    """A point mass and its mean-preserving spread in z = 1/lambda space.

    The second mixture moves the minority atom up by the full ``delta`` and
    shifts the majority atom down so the z-mean is preserved exactly:
    z_low = mean_z - delta * (1 - w) / w with weight w, z_high = mean_z +
    delta with weight 1 - w.
    """
    w, w2 = weights
    if abs(w + w2 - 1.0) > WEIGHT_TOL or w <= 0.0 or w2 <= 0.0:
        raise DomainError(f"weights must be positive and sum to 1, got {weights}")
    if delta < 0.0 or mean_z <= 0.0:
        raise DomainError(f"need mean_z > 0 and delta >= 0, got ({mean_z}, {delta})")
    z_high = mean_z + delta
    z_low = mean_z - delta * w2 / w
    if z_low <= 0.0:
        raise DomainError(f"infeasible spread: z_low = {z_low} <= 0")
    base = AttentionMixture.point_mass(1.0 / mean_z)
    if delta == 0.0:
        return base, base
    spread = AttentionMixture(atoms=((1.0 / z_low, w), (1.0 / z_high, w2)))
    return base, spread


def psi_curvature(P: float, z: float) -> float:
    """Closed-form second derivative of the failure probability in z.

    psi(z) = 1 - q*(P, 1/z);  with u = P/z,
    psi''(z) = sigma'(u) (P/z^3) [u tanh(u/2) - 2],  sigma'(u) = e^-u / (1 + e^-u)^2.
    The sign changes once, from positive (convex, z < P/2.3994) to negative
    (concave).  sigma' is written with the decaying exponential and tanh
    saturates, so neither tail of z overflows.
    """
    if P <= 0.0 or z <= 0.0:
        raise DomainError(f"need P > 0 and z > 0, got ({P}, {z})")
    u = P / z
    e = math.exp(-u)
    if e == 0.0:  # psi'' is below double range here, and z**3 may underflow to 0
        return 0.0
    return e / (1.0 + e) ** 2 * (P / z**3) * (u * math.tanh(0.5 * u) - 2.0)
