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
``survivor``, ``pdf`` and ``mass_density``, the pair (1 - survivor, pdf) in one
call, also take an array of valuations: a scan's whole grid.

Grids come in two kinds, one per scan route.  Library calls build numpy arrays
and scan each in one array call; the CLI builds float tuples and scans them
point by point through the scalar code, so that a command loads no numpy.  The
grid builders here are the one place the route is chosen.  ``surplus`` is a
scalar closed form in every family (the truncated Weibull's in the incomplete
gamma function), so it needs no numpy either.

``Record``, the frozen base of every input record (the families here among
them), lives here too, beside ``from_fields``, which builds one from a
scenario block.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exceptions import ConvergenceError, DomainError, SingularityError, UnboundedError

SURVIVOR_FLOOR = 1e-12
IFR_STEP_TOL = 1e-9
HAZARD_CAP = 1e12
HAZARD_GRID, HAZARD_TOL = 512, 1e-12  # lambda_crit's scan and the bracket its argmax is refined to
# The incomplete gamma function of shape p in (1, 2]: its series below x = p + GAMMA_SPLIT, its
# continued fraction above.  There the series takes ~38 terms and the fraction ~15, whose steps
# cost twice as much; over the whole domain they take at most 39 and 17, well inside GAMMA_TERMS.
GAMMA_SPLIT, GAMMA_TERMS = 6.0, 100


class _Numpy:
    """numpy's functions by name, and pow for float_power (libm's pow per element; numpy's
    own power can be an ulp off), each bound on first use: numpy loads with the first array."""

    def __getattr__(self, name: str):
        import numpy

        value = numpy.float_power if name == "pow" else getattr(numpy, name)
        setattr(self, name, value)
        return value


_NUMPY = _Numpy()
_SCALAR = (float, int)  # a point, not an array: the scalar branch of every family method
_plain = False  # the scan route: numpy arrays (False) or float tuples (True, the CLI's)


def _use_plain_grids(plain: bool) -> bool:
    """Build float-tuple grids from now on, or numpy ones; returns the previous choice."""
    global _plain
    previous, _plain = _plain, plain
    return previous


def _gamma_series(p: float, x: float) -> float:
    """e^x x^-p gamma(p, x), the lower incomplete gamma function scaled: the sum over n >= 0 of
    x^n / (p (p+1) ... (p+n)), to the last term that moves it."""
    term = total = 1.0 / p
    pn = p
    for _ in range(GAMMA_TERMS):
        pn += 1.0
        term *= x / pn
        total += term
        if term <= total * 2.0**-53:
            return total
    raise ConvergenceError(f"incomplete gamma series at p = {p}, x = {x} did not converge in {GAMMA_TERMS} terms")


def _gamma_fraction(p: float, x: float) -> float:
    """e^x x^-p Gamma(p, x), the upper incomplete gamma function scaled, for x > p: Legendre's
    continued fraction 1/(x+1-p - 1(1-p)/(x+3-p - 2(2-p)/(x+5-p - ...))) by Lentz's method."""
    b = x + 1.0 - p
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, GAMMA_TERMS + 1):
        a = i * (p - i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = d * c
        h *= step
        if abs(step - 1.0) <= 2.0**-52:  # a step within an ulp of 1
            return h
    raise ConvergenceError(f"incomplete gamma fraction at p = {p}, x = {x} did not converge in {GAMMA_TERMS} terms")


def linear_grid(lo: float, hi: float, n: int):
    """``np.linspace(lo, hi, n)`` for floats lo != hi and n >= 2, bitwise, without numpy's generic
    wrapper; a float tuple on the plain route."""
    step = (hi - lo) / (n - 1)
    if _plain:
        return (*(i * step + lo for i in range(n - 1)), hi)
    grid = _NUMPY.arange(n, dtype=float)
    grid *= step
    grid += lo
    grid[-1] = hi
    return grid


def geometric_grid(lo: float, hi: float, n: int):
    """n points from lo to hi, positive and unequal, evenly spaced in log10, with exact ends: libm's
    powers of ten of ``linear_grid(math.log10(lo), math.log10(hi), n)`` on both routes, so their
    grids are bitwise equal (numpy's SIMD log10 and power can be an ulp off libm's)."""
    exponents = linear_grid(math.log10(lo), math.log10(hi), n)
    grid = [10.0**x for x in exponents] if _plain else _NUMPY.pow(10.0, exponents)
    grid[0], grid[-1] = lo, hi
    return tuple(grid) if _plain else grid


def scan(f, grid, *aligned):
    """f at every point of a grid and the same points of aligned grids: one call on numpy grids,
    a tuple of point calls on plain ones."""
    return tuple(map(f, grid, *aligned)) if type(grid) is tuple else f(grid, *aligned)


def _check_each(v, check) -> None:
    """``check`` of v, or of an array's smallest and largest element (a NaN reaches both, and
    an empty array passes)."""
    if not isinstance(v, _SCALAR):
        check(v.min(initial=0.5))
        v = v.max(initial=0.5)
    check(v)


def number(value: object) -> float:
    """A JSON number as a float: an int or a float, but not a bool, a string or an int beyond the float range."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("an integer beyond the float range") from None


def _field(kind: str, value: object) -> object:
    """A scenario value for a field declared ``kind``; a field neither float nor str is its record's to check."""
    if kind == "str" and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return number(value) if kind == "float" else value


def from_fields(cls, record: dict):
    """A record built from a scenario block, each field the block holds read by its declared type
    (``_field``); a missing field takes its default, or raises TypeError without one."""
    if not isinstance(record, dict):
        raise TypeError(f"the {cls.__name__} block must be a JSON object, got {record!r}")
    return cls(**{name: _field(kind, record[name]) for name, kind in cls._types.items() if name in record})


_setattr = object.__setattr__  # binds a record's field past its own __setattr__, which refuses


class Record:
    """A frozen record with the named tuple's protocol: the base of the input records.

    Its fields are the class's annotations, after those of a record base class, each with its
    class-level default if it has one; ``_types`` maps each field to its annotation's text.  The
    one ``__init__`` binds the fields and runs the class's ``__post_init__`` check.  As a frozen
    dataclass does, a record compares and hashes by class and field values, shows as
    ``Name(field=value, ...)`` and refuses assignment; ``_fields``, ``_asdict`` (shallow) and
    ``_replace`` (which checks again) are the named tuple's."""

    _fields: tuple[str, ...] = ()
    _types: dict[str, str] = {}
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._types = {**cls._types, **own}
        cls._fields = tuple(cls._types)
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs) -> None:
        """Bind each field to its positional value, then to its keyword value or default.  One
        setattr per field: reading self.__dict__ would build a dict for the instance, which
        slows every later attribute read."""
        names, n = self._fields, len(args)
        if n > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments but {n} were given")
        for field, value in zip(names, args):
            _setattr(self, field, value)
        if n < len(names):
            defaults = self._defaults
            try:
                for field in names[n:]:
                    _setattr(self, field, kwargs.pop(field) if field in kwargs else defaults[field])
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing required argument {exc.args[0]!r}") from None
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        """The field values in order, built when asked: a tuple kept per record would cost memory."""
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class PriceWindow(Record):
    """Open price interval (p_lo, p_hi) on which pricing results are evaluated."""

    p_lo: float
    p_hi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_lo < self.p_hi < 1.0):
            raise DomainError(
                f"price window must satisfy 0 < p_lo < p_hi < 1, got ({self.p_lo}, {self.p_hi})"
            )
        if 1.0 / self.p_lo == math.inf:
            raise DomainError(f"p_lo = {self.p_lo} is below ~5.6e-309, where 1/p_lo overflows a float")

    def grid(self, n: int):
        return linear_grid(self.p_lo, self.p_hi, n)


class ValuationDistribution:
    """Base interface: CDF, density, survivor and hazard on [0, 1], and the surplus
    ``surplus(P)``, the survivor integrated over [P, 1] with the atom at 1."""

    #: probability mass concentrated at v = 1 (zero for continuous families)
    atom_at_one: float = 0.0
    kinks: tuple[float, ...] = ()  #: valuations where the density jumps
    family = ""  #: the family's tag in scenario files

    def cdf(self, v: float) -> float:
        raise NotImplementedError

    def pdf(self, v: float) -> float:
        raise NotImplementedError

    def survivor(self, v: float) -> float:
        """P(V >= v); equals 1 - cdf(v), which checks v, except at a declared atom."""
        tail = 1.0 - self.cdf(v)
        return tail + self.atom_at_one * (v >= 1.0) if self.atom_at_one else tail

    def mass_density(self, v):
        """(F, f) = (1 - survivor(v), pdf(v)) at a point or an array, bitwise, raising what the pair raises;
        a family's own kernel checks the domain once (``_check_density``) and shares intermediates."""
        return 1.0 - self.survivor(v), self.pdf(v)

    def hazard(self, v: float) -> float:
        """f(v) / survivor(v); raises when the survivor is numerically zero."""
        if not (0.0 < v < 1.0):
            raise DomainError(f"hazard requires v in (0, 1), got {v}")
        surv = self.survivor(v)
        if surv <= SURVIVOR_FLOOR:
            raise SingularityError(f"survivor({v}) = {surv:.3e} is below tolerance")
        return self.pdf(v) / surv

    def to_spec(self) -> dict:
        """The tagged record of scenario files: the family's tag, then its fields."""
        return {"family": self.family, **self._asdict()}

    @staticmethod
    def _check_closed(v: float) -> None:
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"valuation must lie in [0, 1], got {v}")

    @staticmethod
    def _check_open(v: float) -> None:
        if not (0.0 < v < 1.0):
            raise DomainError(f"density is defined on (0, 1), got {v}")

    @classmethod
    def _check_density(cls, v) -> None:
        """The checks of survivor and then pdf (``_check_each``), past one test of an array's min/max pair."""
        lo, hi = (v, v) if isinstance(v, _SCALAR) else (v.min(initial=0.5), v.max(initial=0.5))
        if not (0.0 < lo and hi < 1.0):  # a NaN fails here too
            _check_each(v, cls._check_closed)
            _check_each(v, cls._check_open)


class Uniform(ValuationDistribution, Record):
    """Uniform valuations on [a, b] with 0 <= a < b <= 1."""

    family = "uniform"
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < self.b <= 1.0):
            raise DomainError(f"uniform support must satisfy 0 <= a < b <= 1, got [{self.a}, {self.b}]")
        object.__setattr__(self, "kinks", (self.a, self.b))

    def cdf(self, v: float) -> float:
        _check_each(v, self._check_closed)
        return self._clip(v)

    def _clip(self, v):
        """The cdf of a checked v."""
        if not isinstance(v, _SCALAR):  # the clip is the branches below, bitwise
            return _NUMPY.minimum(_NUMPY.maximum((v - self.a) / (self.b - self.a), 0.0), 1.0)
        if v <= self.a:
            return 0.0
        if v >= self.b:
            return 1.0
        return (v - self.a) / (self.b - self.a)

    def pdf(self, v: float) -> float:
        _check_each(v, self._check_open)
        return 1.0 / (self.b - self.a) * ((self.a <= v) & (v <= self.b))

    def mass_density(self, v):
        self._check_density(v)
        return 1.0 - (1.0 - self._clip(v)), 1.0 / (self.b - self.a) * ((self.a <= v) & (v <= self.b))

    def surplus(self, P: float) -> float:
        self._check_closed(P)
        lo = max(P, self.a)
        return ((self.b - P) ** 2 - (lo - P) ** 2) / (2.0 * (self.b - self.a)) if lo < self.b else 0.0


class PiecewiseIsoElastic(ValuationDistribution, Record):
    """Linear CDF head on [0, v0], survivor kappa * v**(-eps) on [v0, 1], atom at 1."""

    family = "iso_elastic"
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
        object.__setattr__(self, "_head_slope", (1.0 - self.kappa * self.v0 ** (-self.eps)) / self.v0)

    def cdf(self, v: float) -> float:
        self._check_closed(v)
        if v >= 1.0:
            return 1.0
        if v < self.v0:
            return self._head_slope * v
        return 1.0 - self.kappa * v ** (-self.eps)

    def pdf(self, v: float) -> float:
        if not isinstance(v, _SCALAR):
            _check_each(v, self._check_open)
            tail = self.kappa * self.eps * _NUMPY.pow(_NUMPY.maximum(v, self.v0), -self.eps - 1.0)
            return _NUMPY.where(v < self.v0, self._head_slope, tail)
        self._check_open(v)
        if v < self.v0:
            return self._head_slope
        return self.kappa * self.eps * v ** (-self.eps - 1.0)

    def survivor(self, v: float) -> float:
        if not isinstance(v, _SCALAR):  # 1 ** -eps is exactly 1, so the tail is kappa at v = 1
            _check_each(v, self._check_closed)
            tail = self.kappa * _NUMPY.pow(_NUMPY.maximum(v, self.v0), -self.eps)
            return _NUMPY.where(v >= self.v0, tail, 1.0 - self._head_slope * v)
        self._check_closed(v)
        if v >= self.v0:
            # exact on the pricing region, including the atom value kappa at v = 1
            return self.kappa * v ** (-self.eps) if v < 1.0 else self.kappa
        return 1.0 - self._head_slope * v

    def mass_density(self, v):
        self._check_density(v)
        if isinstance(v, _SCALAR):
            if v < self.v0:
                return 1.0 - (1.0 - self._head_slope * v), self._head_slope
            return 1.0 - self.kappa * v ** (-self.eps), self.kappa * self.eps * v ** (-self.eps - 1.0)
        m = _NUMPY.maximum(v, self.v0)
        survivor = _NUMPY.where(v >= self.v0, self.kappa * _NUMPY.pow(m, -self.eps), 1.0 - self._head_slope * v)
        tail = self.kappa * self.eps * _NUMPY.pow(m, -self.eps - 1.0)
        return 1.0 - survivor, _NUMPY.where(v < self.v0, self._head_slope, tail)

    def surplus(self, P: float) -> float:
        """kappa (1 - m^(1-eps)) / (1 - eps), m = max(P, v0), plus the linear head below v0."""
        self._check_closed(P)
        m = max(P, self.v0)
        head = (self.v0 - P) * (1.0 - self._head_slope * (self.v0 + P) / 2.0) if P < self.v0 else 0.0
        return self.kappa * -math.expm1((1.0 - self.eps) * math.log(m)) / (1.0 - self.eps) + head


class TruncatedWeibull(ValuationDistribution, Record):
    """Weibull(shape k >= 1, scale s > 0) right-truncated to [0, 1]."""

    family = "trunc_weibull"
    k: float
    s: float

    def __post_init__(self) -> None:
        if not (self.k >= 1.0 and self.s > 0.0):
            raise DomainError(f"need shape k >= 1 and scale s > 0, got ({self.k}, {self.s})")
        try:  # the survivor's b, and the truncated mass 1 - e^-b
            b = (1.0 / self.s) ** self.k
        except OverflowError:
            b = math.inf
        if not math.isfinite(b):
            raise DomainError(f"(1/s)^k overflows a float for k = {self.k}, s = {self.s}")
        mass = 1.0 - math.exp(-b)
        if mass == 0.0:
            raise DomainError(f"the truncated mass 1 - e^-b rounds to 0 for k = {self.k}, s = {self.s}")
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_mass", mass)
        # the surplus's b side: s gamma(p, b) and s Gamma(p, b), shape p = 1 + 1/k, where s b^(1/k) = 1
        p = 1.0 + 1.0 / self.k
        whole = self.s * math.gamma(p)
        if b < p + GAMMA_SPLIT:
            lower = b * math.exp(-b) * _gamma_series(p, b)
            upper = whole - lower
        else:
            upper = b * math.exp(-b) * _gamma_fraction(p, b)
            lower = whole - upper
        object.__setattr__(self, "_shape", p)
        object.__setattr__(self, "_b_lower", lower)
        object.__setattr__(self, "_b_upper", upper)

    def cdf(self, v: float) -> float:
        self._check_closed(v)
        return (1.0 - math.exp(-((v / self.s) ** self.k))) / self._mass

    def survivor(self, v: float) -> float:
        """(e^-a - e^-b) / mass, a = (v/s)^k, b = (1/s)^k: precise in the tail."""
        _check_each(v, self._check_closed)
        xp = math if isinstance(v, _SCALAR) else _NUMPY
        a = xp.pow(v / self.s, self.k)
        return xp.exp(-a) * -xp.expm1(a - self._b) / self._mass

    def pdf(self, v: float) -> float:
        _check_each(v, self._check_open)
        z, xp = v / self.s, math if isinstance(v, _SCALAR) else _NUMPY
        return (self.k / self.s) * xp.pow(z, self.k - 1.0) * xp.exp(-xp.pow(z, self.k)) / self._mass

    def mass_density(self, v):
        self._check_density(v)
        z, xp = v / self.s, math if isinstance(v, _SCALAR) else _NUMPY
        a = xp.pow(z, self.k)
        e = xp.exp(-a)
        density = (self.k / self.s) * xp.pow(z, self.k - 1.0) * e / self._mass
        return 1.0 - e * -xp.expm1(a - self._b) / self._mass, density

    def surplus(self, P: float) -> float:
        """The survivor integrated over [P, 1], by parts: (int_P^1 v w(v) dv - P (e^-a - e^-b)) / mass,
        with w the untruncated Weibull density and a = (P/s)^k.  Under u = (v/s)^k the integral is
        s (gamma(p, b) - gamma(p, a)) in the lower incomplete gamma function of shape p = 1 + 1/k,
        and s a^(1/k) = P.  Unlike (s/k) (gamma(1/k, b) - gamma(1/k, a)) - (1 - P) e^-b, this form
        keeps its precision when b is small.  Near P = 1 its two terms nearly cancel; their
        rounding is clipped into [0, 1 - P], so S(1) = 0."""
        self._check_closed(P)
        a = (P / self.s) ** self.k
        e = math.exp(-a)
        if a < self._shape + GAMMA_SPLIT:
            mean = self._b_lower - P * a * e * _gamma_series(self._shape, a)
        else:
            mean = P * a * e * _gamma_fraction(self._shape, a) - self._b_upper
        return max(0.0, min((mean - P * e * -math.expm1(a - self._b)) / self._mass, 1.0 - P))


_FAMILIES = {cls.family: cls for cls in (Uniform, PiecewiseIsoElastic, TruncatedWeibull)}


def from_spec(spec: dict) -> ValuationDistribution:
    """Build a distribution from its tagged-record form used in scenario files: the family's
    tag, then its fields as ``from_fields`` reads them."""
    if not isinstance(spec, dict):
        raise TypeError(f"the distribution block must be a JSON object, got {spec!r}")
    family = spec.get("family")
    cls = _FAMILIES.get(family)
    if cls is None:
        raise DomainError(f"unknown distribution family: {family!r}")
    return from_fields(cls, spec)


class IfrReport(NamedTuple):
    """Outcome of the increasing-hazard diagnostic over a window."""

    is_ifr: bool
    first_violation: float | None
    grid_n: int


def check_ifr(dist: ValuationDistribution, window: PriceWindow, grid_n: int = 64) -> IfrReport:
    """Check that the hazard is weakly increasing across the window.

    Returns a report and never raises on the distribution.  A diagnostic of
    the hazard alone: with the inattentive margin in the price condition, an
    increasing hazard does not make its root unique.  Grid points whose
    survivor is at or below ``SURVIVOR_FLOOR``, where the hazard is undefined,
    are skipped.
    """
    if grid_n < 16:
        raise DomainError(f"grid_n must be at least 16, got {grid_n}")
    v = [p for p in map(float, window.grid(grid_n)) if dist.survivor(p) > SURVIVOR_FLOOR]
    rate = [dist.hazard(p) for p in v]
    drops = [i for i in range(len(rate) - 1) if rate[i + 1] < rate[i] - IFR_STEP_TOL]
    first = v[drops[0] + 1] if drops else None
    return IfrReport(is_ifr=first is None, first_violation=first, grid_n=grid_n)


def argmax(values) -> int:
    """``np.argmax`` of a sequence of floats: the first NaN, else the first largest value."""
    best = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v > values[best]:
            best = i
    return best


def argmax_bracket(grid, values) -> tuple[int, float, float]:
    """Index of the largest value and the grid points either side (an end stays put)."""
    i = argmax(values)
    return i, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]


def golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for a maximum of f on [lo, hi]: the midpoint of a bracket below tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
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


def window_max(f, grid, tol: float) -> tuple[float, float]:
    """(v, f(v)) at the largest f seen while refining the grid argmax by golden section
    between its neighbours.  Every evaluated point is a candidate, so a maximum at an end of
    the grid is that end exactly, and one beside a jump is not lost to the final midpoint."""
    seen = []

    def tracked(v):
        seen.append((float(v), f(v)))
        return seen[-1][1]

    _, lo, hi = argmax_bracket(grid, [tracked(v) for v in grid])
    tracked(golden_max(tracked, lo, hi, tol))
    return max(seen, key=lambda c: c[1])


def lambda_crit(dist: ValuationDistribution, window: PriceWindow) -> float:
    """Supremum of the hazard over the window: its ``window_max`` on a HAZARD_GRID-point scan.

    The supremum is always taken over an explicit window: for full-support
    families the hazard diverges as the survivor vanishes at v = 1, so a
    global supremum would be infinite and useless as a threshold.  Raises
    ``UnboundedError`` above HAZARD_CAP.
    """
    best = float(window_max(dist.hazard, window.grid(HAZARD_GRID), HAZARD_TOL)[1])
    if best > HAZARD_CAP:
        raise UnboundedError(f"hazard supremum {best:.3e} exceeds cap {HAZARD_CAP:.3e}")
    return best
