"""Valuation distributions on [0, 1].

Three families are supported:

* ``Uniform(a, b)`` with ``[a, b]`` inside the unit interval.
* ``PiecewiseIsoElastic(kappa, eps, v0)``: the survivor function is exactly
  ``kappa * v**(-eps)`` on ``[v0, 1]``, which is the region where pricing
  happens.  A raw iso-elastic survivor exceeds 1 near zero, so below ``v0``
  the CDF is closed with a linear segment from (0, 0) to (v0, F(v0)), and an
  atom of mass ``kappa`` sits at v = 1 so the total mass is one.  The atom
  never enters F(P) or f(P) for P < 1.
* ``TruncatedWeibull(k, s)``: a Weibull(k, s) right-truncated to [0, 1],
  increasing hazard for k >= 1.

All quantities are deterministic pure functions; there is no sampling here.
``survivor`` and ``pdf`` also take an array of valuations: a scan's whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .exceptions import DomainError, SingularityError, UnboundedError

SURVIVOR_FLOOR = 1e-12
IFR_STEP_TOL = 1e-9
HAZARD_CAP = 1e12


# composite 32-node Gauss-Legendre rule on [0, 1] in three equal panels
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
GL_NODES, GL_WEIGHTS = ((np.arange(3)[:, None] + (_GL_X + 1.0) / 2.0) / 3.0).ravel(), np.tile(_GL_W / 6.0, 3)


# numpy's kernels, named as math's; pow is libm's per element (numpy's own is an ulp off)
_NUMPY = SimpleNamespace(exp=np.exp, expm1=np.expm1, log1p=np.log1p, pow=np.float_power)
_ARRAY = np.ndarray  # an alias: looking up np.ndarray costs as much as a float kernel


def _check_each(v, check) -> None:
    """``check`` of v, or of an array's smallest and largest element (a NaN reaches both, and
    an empty array passes)."""
    if isinstance(v, _ARRAY):
        check(v.min(initial=0.5))
        v = v.max(initial=0.5)
    check(v)


@dataclass(frozen=True)
class PriceWindow:
    """Open price interval (p_lo, p_hi) on which pricing results are evaluated."""

    p_lo: float
    p_hi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_lo < self.p_hi < 1.0):
            raise DomainError(
                f"price window must satisfy 0 < p_lo < p_hi < 1, got ({self.p_lo}, {self.p_hi})"
            )

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.p_lo, self.p_hi, n)


class ValuationDistribution:
    """Base interface: CDF, density, survivor and hazard on [0, 1], and the surplus
    ``surplus(P)``, the survivor integrated over [P, 1] with the atom at 1."""

    #: probability mass concentrated at v = 1 (zero for continuous families)
    atom_at_one: float = 0.0
    kinks: tuple[float, ...] = ()  #: valuations where the density jumps

    def cdf(self, v: float) -> float:
        raise NotImplementedError

    def pdf(self, v: float) -> float:
        raise NotImplementedError

    def survivor(self, v: float) -> float:
        """P(V >= v); equals 1 - cdf(v), which checks v, except at a declared atom."""
        return 1.0 - self.cdf(v) + self.atom_at_one * (v >= 1.0)

    def hazard(self, v: float) -> float:
        """f(v) / survivor(v); raises when the survivor is numerically zero."""
        if not (0.0 < v < 1.0):
            raise DomainError(f"hazard requires v in (0, 1), got {v}")
        surv = self.survivor(v)
        if surv <= SURVIVOR_FLOOR:
            raise SingularityError(f"survivor({v}) = {surv:.3e} is below tolerance")
        return self.pdf(v) / surv

    def to_spec(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def _check_closed(v: float) -> None:
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"valuation must lie in [0, 1], got {v}")

    @staticmethod
    def _check_open(v: float) -> None:
        if not (0.0 < v < 1.0):
            raise DomainError(f"density is defined on (0, 1), got {v}")


@dataclass(frozen=True)
class Uniform(ValuationDistribution):
    """Uniform valuations on [a, b] with 0 <= a < b <= 1."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < self.b <= 1.0):
            raise DomainError(f"uniform support must satisfy 0 <= a < b <= 1, got [{self.a}, {self.b}]")
        object.__setattr__(self, "kinks", (self.a, self.b))

    def cdf(self, v: float) -> float:
        if isinstance(v, _ARRAY):  # the clip is the branches below, bitwise
            _check_each(v, self._check_closed)
            return np.clip((v - self.a) / (self.b - self.a), 0.0, 1.0)
        self._check_closed(v)
        if v <= self.a:
            return 0.0
        if v >= self.b:
            return 1.0
        return (v - self.a) / (self.b - self.a)

    def pdf(self, v: float) -> float:
        _check_each(v, self._check_open)
        return 1.0 / (self.b - self.a) * ((self.a <= v) & (v <= self.b))

    def surplus(self, P: float) -> float:
        self._check_closed(P)
        lo = max(P, self.a)
        return ((self.b - P) ** 2 - (lo - P) ** 2) / (2.0 * (self.b - self.a)) if lo < self.b else 0.0

    def to_spec(self) -> dict:
        return {"family": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class PiecewiseIsoElastic(ValuationDistribution):
    """Linear CDF head on [0, v0], survivor kappa * v**(-eps) on [v0, 1], atom at 1."""

    kappa: float
    eps: float
    v0: float

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and 0.0 < self.eps < 1.0 and 0.0 < self.v0 < 1.0):
            raise DomainError(
                f"need kappa > 0, eps in (0,1), v0 in (0,1); got ({self.kappa}, {self.eps}, {self.v0})"
            )
        if self.kappa * self.v0 ** (-self.eps) > 1.0:
            raise DomainError(
                "survivor kappa * v0**(-eps) exceeds 1 at the splice point; shrink kappa or raise v0"
            )
        object.__setattr__(self, "atom_at_one", self.kappa)
        object.__setattr__(self, "kinks", (self.v0,))

    def _head_slope(self) -> float:
        return (1.0 - self.kappa * self.v0 ** (-self.eps)) / self.v0

    def cdf(self, v: float) -> float:
        self._check_closed(v)
        if v >= 1.0:
            return 1.0
        if v < self.v0:
            return self._head_slope() * v
        return 1.0 - self.kappa * v ** (-self.eps)

    def pdf(self, v: float) -> float:
        if isinstance(v, _ARRAY):
            _check_each(v, self._check_open)
            tail = self.kappa * self.eps * np.float_power(np.maximum(v, self.v0), -self.eps - 1.0)
            return np.where(v < self.v0, self._head_slope(), tail)
        self._check_open(v)
        if v < self.v0:
            return self._head_slope()
        return self.kappa * self.eps * v ** (-self.eps - 1.0)

    def survivor(self, v: float) -> float:
        if isinstance(v, _ARRAY):  # 1 ** -eps is exactly 1, so the tail is kappa at v = 1
            _check_each(v, self._check_closed)
            tail = self.kappa * np.float_power(np.maximum(v, self.v0), -self.eps)
            return np.where(v >= self.v0, tail, 1.0 - self._head_slope() * v)
        self._check_closed(v)
        if v >= self.v0:
            # exact on the pricing region, including the atom value kappa at v = 1
            return self.kappa * v ** (-self.eps) if v < 1.0 else self.kappa
        return 1.0 - self._head_slope() * v

    def surplus(self, P: float) -> float:
        """kappa (1 - m^(1-eps)) / (1 - eps), m = max(P, v0), plus the linear head below v0."""
        self._check_closed(P)
        m = max(P, self.v0)
        head = (self.v0 - P) * (1.0 - self._head_slope() * (self.v0 + P) / 2.0) if P < self.v0 else 0.0
        return self.kappa * -math.expm1((1.0 - self.eps) * math.log(m)) / (1.0 - self.eps) + head

    def to_spec(self) -> dict:
        return {"family": "iso_elastic", "kappa": self.kappa, "eps": self.eps, "v0": self.v0}


@dataclass(frozen=True)
class TruncatedWeibull(ValuationDistribution):
    """Weibull(shape k >= 1, scale s > 0) right-truncated to [0, 1]."""

    k: float
    s: float

    def __post_init__(self) -> None:
        if not (self.k >= 1.0 and self.s > 0.0):
            raise DomainError(f"need shape k >= 1 and scale s > 0, got ({self.k}, {self.s})")

    def _mass(self) -> float:
        return 1.0 - math.exp(-((1.0 / self.s) ** self.k))

    def cdf(self, v: float) -> float:
        self._check_closed(v)
        return (1.0 - math.exp(-((v / self.s) ** self.k))) / self._mass()

    def survivor(self, v: float) -> float:
        """(e^-a - e^-b) / mass, a = (v/s)^k, b = (1/s)^k: precise in the tail."""
        _check_each(v, self._check_closed)
        xp = _NUMPY if isinstance(v, _ARRAY) else math
        a, b = xp.pow(v / self.s, self.k), (1.0 / self.s) ** self.k
        return xp.exp(-a) * -xp.expm1(a - b) / self._mass()

    def pdf(self, v: float) -> float:
        _check_each(v, self._check_open)
        z, xp = v / self.s, _NUMPY if isinstance(v, _ARRAY) else math
        return (self.k / self.s) * xp.pow(z, self.k - 1.0) * xp.exp(-xp.pow(z, self.k)) / self._mass()

    def surplus(self, P: float) -> float:
        """The survivor formula above integrated by a fixed Gauss-Legendre rule."""
        self._check_closed(P)
        a, b = ((P + (1.0 - P) * GL_NODES) / self.s) ** self.k, (1.0 / self.s) ** self.k
        return (1.0 - P) * float(GL_WEIGHTS @ (np.exp(-a) * -np.expm1(a - b))) / self._mass()

    def to_spec(self) -> dict:
        return {"family": "trunc_weibull", "k": self.k, "s": self.s}


def from_spec(spec: dict) -> ValuationDistribution:
    """Build a distribution from its tagged-record form used in scenario files."""
    family = spec.get("family")
    if family == "uniform":
        return Uniform(a=float(spec.get("a", 0.0)), b=float(spec.get("b", 1.0)))
    if family == "iso_elastic":
        return PiecewiseIsoElastic(
            kappa=float(spec["kappa"]), eps=float(spec["eps"]), v0=float(spec["v0"])
        )
    if family == "trunc_weibull":
        return TruncatedWeibull(k=float(spec["k"]), s=float(spec["s"]))
    raise DomainError(f"unknown distribution family: {family!r}")


@dataclass(frozen=True)
class IfrReport:
    """Outcome of the increasing-hazard diagnostic over a window."""

    is_ifr: bool
    first_violation: float | None
    grid_n: int


def check_ifr(dist: ValuationDistribution, window: PriceWindow, grid_n: int = 64) -> IfrReport:
    """Check that the hazard is weakly increasing across the window.

    Returns a report and never raises on the distribution: callers use this
    as a diagnostic on whether price first-order conditions are guaranteed a
    unique root.  Grid points whose survivor is at or below
    ``SURVIVOR_FLOOR``, where the hazard is undefined, are skipped.
    """
    if grid_n < 16:
        raise DomainError(f"grid_n must be at least 16, got {grid_n}")
    v = window.grid(grid_n)
    surv = dist.survivor(v)
    v, surv = v[surv > SURVIVOR_FLOOR], surv[surv > SURVIVOR_FLOOR]
    rate = dist.pdf(v) / surv
    drops = np.flatnonzero(rate[1:] < rate[:-1] - IFR_STEP_TOL)
    first = float(v[drops[0] + 1]) if drops.size else None
    return IfrReport(is_ifr=first is None, first_violation=first, grid_n=grid_n)


def argmax_bracket(grid, values) -> tuple[int, float, float]:
    """Index of the largest value and the grid points either side (an end stays put)."""
    i = int(np.argmax(values))
    return i, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]


def lambda_crit(
    dist: ValuationDistribution,
    window: PriceWindow,
    grid_n: int = 512,
    cap: float = HAZARD_CAP,
) -> float:
    """Supremum of the hazard over the window, with refinement near the maximizer.

    The supremum is always taken over an explicit window: for full-support
    families the hazard diverges as the survivor vanishes at v = 1, so a
    global supremum would be infinite and useless as a threshold.
    """
    grid = window.grid(grid_n)
    rates = [dist.hazard(v) for v in grid]
    i, lo, hi = argmax_bracket(grid, rates)
    # local refinement: three rounds of 3x zoom around the running maximizer
    best = float(rates[i])
    for _ in range(3):
        sub = np.linspace(lo, hi, 65)
        sub_rates = [dist.hazard(v) for v in sub]
        j, lo, hi = argmax_bracket(sub, sub_rates)
        best = max(best, float(sub_rates[j]))
    if best > cap:
        raise UnboundedError(f"hazard supremum {best:.3e} exceeds cap {cap:.3e}")
    return best
