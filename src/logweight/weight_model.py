"""Radial weight functions on [0, 1) and their log-log reparametrization.

A weight is a positive, non-decreasing, continuous, unbounded function
omega on [0, 1), extended radially to the unit disk by omega(|z|).  All
growth analysis happens through

    F(x) = log omega(e^x),   x < 0,

because omega is comparable to a sum of two holomorphic moduli exactly
when F is (equivalent to) a convex function.  Every family is one row of
_FAMILIES, its F, its pair (F, F') and, for the six analytic families,
its F'', and omega is evaluated only through F: log omega(t) = F(log t)
and log omega(1 - s) = F(log1p(-s)).  F' is in closed form for the
analytic families, the segment slope for tabulated, and a central
difference for perturbed_*.  F'' is in closed form for the analytic
families and absent (None) for the others; the tangent construction
takes Newton steps with it and bisects without it.  F, F' and F'' read
+inf where their values overflow.  log(1 - e^x) is taken as
log(-expm1(x)) right of x = -log 2 and log1p(-e^x) left of it, which
keeps it accurate to a few ulps on both sides.  Everything stays in the
log domain: omega itself overflows float64 long before the fast
families stop being tractable.

Families
--------
ramey_ullrich   omega(t) = 1/(1-t)
power           omega(t) = (1-t)^(-a),            params (a,), a > 0
exp_power       omega(t) = exp((1-t)^(-alpha)),   params (alpha,), alpha > 0
double_exp      omega(t) = exp(exp(1/(1-t)))
log_power       omega(t) = (1 + log(1/(1-t)))^b,  params (b,), b > 0
inv_log         omega(t) = exp(-1/log t), i.e. F(x) = -1/x (closed-form
                tangent oracle family)
tabulated       piecewise-linear F through given (t, omega) knots, plus an
                optional strictify * e^x, params () or (strictify,)
perturbed_*     diagnostic families: a convex base plus a bump or sawtooth,
                used to exercise the convexity / envelope decision paths.
                These model *invalid* weights and may be non-monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import LOG_MAX

# Slope gap below which F' is not considered strictly increasing.
STRICTNESS_TOL = 1e-10

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)

# The four analytic families fast enough to drive the tangent construction
# at desk scale.  log_power grows too slowly (log omega(1 - 1e-6) is below
# 10, and it exhausts float resolution within a few tangent steps) and
# inv_log is kept as a closed-form oracle.
CONSTRUCTIBLE_FAMILIES = ("ramey_ullrich", "power", "exp_power", "double_exp")


_MINUS_LOG_2 = -math.log(2.0)


def _u(x: float) -> float:
    """1 - e^x computed accurately for x near 0-."""
    return -math.expm1(x)


def _log_u(x: float) -> float:
    """log(1 - e^x) to a few ulps on both sides of x = -log 2 (Maechler,
    "Accurately computing log(1 - exp(-|a|))", 2012): log(-expm1(x)) loses
    its relative accuracy as x -> -inf, log1p(-e^x) as x -> 0-."""
    return math.log(-math.expm1(x)) if x > _MINUS_LOG_2 else math.log1p(-math.exp(x))


@dataclass(frozen=True)
class _Family:
    n_params: int  # a tabulated weight may also take none
    defaults: tuple
    big_f: Callable  # (x, args) -> F, may return +inf for fast weights
    # (x, args) -> (F, F'); its F has the bits of big_f
    big_f_and_prime: Callable
    analytic: bool  # closed-form F', positive params, omega(0) = exp(F(-inf))
    # (params, table) -> the args of the two above; only tabulated takes a table
    args: Callable = lambda params, table: params
    divisor: str = ""  # the name of a last parameter that x is divided by
    big_f_second: Optional[Callable] = None  # (x, args) -> F'', analytic rows only


def _ramey_f(x, p):
    return -_log_u(x)


def _ramey_fp(x, p):
    return -_log_u(x), math.exp(x) / _u(x)


def _ramey_fpp(x, p):
    # F'' = e^x / u^2, divided twice so that u^2 never underflows to 0
    u = _u(x)
    return math.exp(x) / u / u


def _power_f(x, p):
    return -p[0] * _log_u(x)


def _power_fp(x, p):
    return -p[0] * _log_u(x), p[0] * math.exp(x) / _u(x)


def _power_fpp(x, p):
    return p[0] * _ramey_fpp(x, p)


def _pow_or_inf(u, a):
    """u ** a for u > 0; +inf where float ** overflows (a < 0, u -> 0)."""
    try:
        return u ** a
    except OverflowError:
        return math.inf


def _exp_power_f(x, p):
    return _pow_or_inf(_u(x), -p[0])


def _exp_power_fp(x, p):
    u = _u(x)
    return _pow_or_inf(u, -p[0]), p[0] * _pow_or_inf(u, -p[0] - 1.0) * math.exp(x)


def _exp_power_fpp(x, p):
    # F'' = alpha e^x u^(-alpha-2) (u + (alpha+1) e^x).  u^(-alpha) / u / u
    # keeps the exponent exact where -alpha - 2 would round, and as the last
    # factor is 1 + alpha e^x >= 1, no partial product exceeds F''
    u, e = _u(x), math.exp(x)
    return p[0] * e * _pow_or_inf(u, -p[0]) / u / u * (u + (p[0] + 1.0) * e)


def _double_exp_f(x, p):
    inner = 1.0 / _u(x)
    return math.exp(inner) if inner <= LOG_MAX else math.inf


def _double_exp_fp(x, p):
    u = _u(x)
    inner = 1.0 / u
    return (math.exp(inner) if inner <= LOG_MAX else math.inf,
            math.exp(inner + x) / u ** 2
            if inner + x - 2.0 * math.log(u) <= LOG_MAX else math.inf)


def _double_exp_fpp(x, p):
    # F'' = F q (q + 1 + 2 e^x / u) with q = e^x / u^2
    u, e = _u(x), math.exp(x)
    q = e / u / u
    return _double_exp_f(x, p) * q * (q + 1.0 + 2.0 * e / u)


def _log_power_f(x, p):
    return p[0] * math.log1p(-_log_u(x))


def _log_power_fp(x, p):
    log_u = _log_u(x)
    return p[0] * math.log1p(-log_u), p[0] * math.exp(x) / (_u(x) * (1.0 - log_u))


def _log_power_fpp(x, p):
    # F'' = b e^x (u - log u) / (u^2 (1 - log u)^2)
    u, log_u = _u(x), _log_u(x)
    return p[0] * (math.exp(x) / u / u) * (u - log_u) / (1.0 - log_u) ** 2


def _inv_log_f(x, p):
    return -1.0 / x


def _inv_log_fp(x, p):
    xx = x * x
    return -1.0 / x, 1.0 / xx if xx else math.inf  # x * x underflows to 0 below ~1e-162


def _inv_log_fpp(x, p):
    return -2.0 / x / x / x  # F'' = -2/x^3, divided so that x^3 never underflows to 0


def _central_difference(big_f):
    """(F, F') from big_f alone, F' by a central difference with step
    max(eps^(1/3) |x|, 1e-8), capped at |x|/2 so both points stay negative.
    There is no F' at x = -inf (t = 0): the step would be inf and x + h NaN."""
    def big_f_and_prime(x, p):
        if x == -math.inf:
            raise ValueError("F' by central difference needs x > -inf (t > 0)")
        h = min(max(_EPS_CBRT * abs(x), 1e-8), abs(x) / 2.0)
        return big_f(x, p), (big_f(x + h, p) - big_f(x - h, p)) / (2.0 * h)
    return big_f_and_prime


# Diagnostic perturbations on top of the ramey_ullrich profile.  They are
# intentionally not monotone: the point is to feed the convexity checks and
# the envelope decision with controlled counterexamples.

def _bump_f(x, p):
    height, x_star, width = p
    return _ramey_f(x, ()) + height * max(0.0, 1.0 - abs(x - x_star) / width)


def _bump_args(params, table):
    """The bump's args: 1 - |x - x*| / width is a bump only for width > 0,
    and an unbounded tent for width < 0 (width 0 fails the divisor check)."""
    if params[-1] < 0.0:
        raise ValueError(f"family 'perturbed_bump' needs a positive width, got {params[-1]}")
    return params


def _triangle_wave(s: float) -> float:
    """Triangle in [0, 1], zero at integers; s % 1.0 rounds as s - floor(s)."""
    return 1.0 - 2.0 * abs(s % 1.0 - 0.5)


def _sawtooth_f(x, p):
    amp, period = p
    return _ramey_f(x, ()) + amp * _triangle_wave(x / period)


def _unbounded_sawtooth_f(x, p):
    scale, log_period = p
    return _ramey_f(x, ()) + (scale / abs(x)) * _triangle_wave(
        math.log(1.0 / abs(x)) / log_period)


def _knot_args(params, table):
    """The tabulated family's args (xs, Fs, params) from its (x, F) knots."""
    if not table or len(table) < 2:
        raise ValueError("tabulated weight needs at least 2 knots")
    for x, f in table:
        if not (math.isfinite(x) and math.isfinite(f)):
            raise ValueError(f"tabulated knot (x={x}, F={f}) is not finite")
    xs, fs = zip(*table)
    if any(b <= a for a, b in zip(xs, xs[1:])) or xs[-1] >= 0.0:
        raise ValueError("tabulated knots must be strictly increasing and negative")
    if any(b < a for a, b in zip(fs, fs[1:])):
        raise ValueError("tabulated omega must be non-decreasing")
    return np.array(xs), np.array(fs), params


def _tabulated_fp(x, a):
    xs, fs, p = a
    # end segments extrapolate linearly, which keeps the profile convex
    i = int(np.clip(np.searchsorted(xs, x), 1, len(xs) - 1))
    x0, x1, f0, f1 = xs[i - 1], xs[i], fs[i - 1], fs[i]
    f = float(f0 + (f1 - f0) * (x - x0) / (x1 - x0))
    slope = float((f1 - f0) / (x1 - x0))
    if p:  # optional strict-convexity regularizer
        f += p[0] * math.exp(x)
        slope += p[0] * math.exp(x)
    return f, slope


_FAMILIES = {
    "ramey_ullrich": _Family(0, (), _ramey_f, _ramey_fp, True, big_f_second=_ramey_fpp),
    "power": _Family(1, (2.0,), _power_f, _power_fp, True, big_f_second=_power_fpp),
    "exp_power": _Family(1, (1.0,), _exp_power_f, _exp_power_fp, True,
                         big_f_second=_exp_power_fpp),
    "double_exp": _Family(0, (), _double_exp_f, _double_exp_fp, True,
                          big_f_second=_double_exp_fpp),
    "log_power": _Family(1, (2.0,), _log_power_f, _log_power_fp, True,
                         big_f_second=_log_power_fpp),
    "inv_log": _Family(0, (), _inv_log_f, _inv_log_fp, True, big_f_second=_inv_log_fpp),
    "tabulated": _Family(1, (), lambda x, a: _tabulated_fp(x, a)[0], _tabulated_fp, False,
                         _knot_args),
    "perturbed_bump": _Family(3, (3.0, -1.0, 0.02), _bump_f,
                              _central_difference(_bump_f), False, _bump_args,
                              divisor="width"),
    "perturbed_sawtooth": _Family(2, (0.5, 0.25), _sawtooth_f,
                                  _central_difference(_sawtooth_f), False, divisor="period"),
    "perturbed_unbounded_sawtooth": _Family(2, (2.0, 0.5), _unbounded_sawtooth_f,
                                            _central_difference(_unbounded_sawtooth_f), False,
                                            divisor="log-period"),
}

_FAMILY_ALIASES = {"perturbed": "perturbed_bump"}


@dataclass(frozen=True)
class WeightFunction:
    """A radial weight, evaluated only through F = log omega(e^x), F' and F''.

    Immutable and side-effect free; instances are safe to share across
    threads.  `params` are family-specific (see module docstring);
    `table` holds (x, F) knots for the tabulated family.  Each method reads
    the family's row of _FAMILIES: F' is closed-form for the analytic
    families, the segment slope for tabulated, and a central difference
    for the perturbed ones; F'' is closed-form for the analytic families
    and None for the others.
    """

    family: str
    params: tuple = ()
    table: Optional[tuple] = None  # ((x_0, F_0), ...), x strictly increasing
    _row: _Family = field(init=False, repr=False, compare=False)
    _args: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown weight family {self.family!r}")
        params = self.params or row.defaults
        if params and len(params) != row.n_params:
            raise ValueError(f"family {self.family!r} takes {row.n_params} "
                             f"parameter(s), got {len(params)}")
        if not all(map(math.isfinite, params)):
            raise ValueError(f"family {self.family!r} needs finite parameters, got {params}")
        if row.analytic and any(p <= 0 for p in params):
            raise ValueError(f"family {self.family!r} parameters must be positive")
        if row.divisor and params[-1] == 0.0:
            raise ValueError(f"family {self.family!r} needs a nonzero {row.divisor}")
        if self.table is not None and self.family != "tabulated":
            raise ValueError(f"family {self.family!r} takes no table")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_args", row.args(params, self.table))

    def __reduce__(self):  # rebuild from the fields; the row's closures do not pickle
        return WeightFunction, (self.family, self.params, self.table)

    # -- core evaluations ------------------------------------------------

    def log_omega(self, t: float) -> float:
        """log omega(t) = F(log t) for t in [0, 1); may be +inf for fast
        families.  omega(0) = exp(F(-inf)) exists for analytic families only."""
        if not 0.0 <= t < 1.0:
            raise ValueError(f"t={t} outside the weight domain [0, 1)")
        if t > 0.0:
            return self.big_f(math.log(t))
        if not self._row.analytic:
            raise ValueError(f"{self.family} weight needs t > 0")
        return self.big_f(-math.inf)

    def log_omega_one_minus(self, s: float) -> float:
        """log omega(1 - s) = F(log1p(-s)), computed from s directly (never
        through 1 - s), so ratios like omega(1-s/2)/omega(1-s) stay accurate
        as s -> 0."""
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s={s} outside (0, 1]")
        return self.log_omega(0.0) if s == 1.0 else self.big_f(math.log1p(-s))

    def big_f(self, x: float) -> float:
        """F(x) = log omega(e^x) for x < 0; +inf where exp overflows."""
        if x >= 0.0:
            raise ValueError(f"x={x} must be negative")
        return self._row.big_f(x, self._args)

    def big_f_prime(self, x: float) -> float:
        """F'(x), the second value of big_f_and_prime."""
        return self.big_f_and_prime(x)[1]

    def big_f_and_prime(self, x: float) -> tuple:
        """(F(x), F'(x)), F bit for bit what big_f gives."""
        if x >= 0.0:
            raise ValueError(f"x={x} must be negative")
        return self._row.big_f_and_prime(x, self._args)

    def big_f_second(self, x: float) -> Optional[float]:
        """F''(x) for an analytic family, +inf where it overflows; None for
        a family without a closed form (tabulated, perturbed_*)."""
        if x >= 0.0:
            raise ValueError(f"x={x} must be negative")
        second = self._row.big_f_second
        return None if second is None else second(x, self._args)


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the discrete strict-convexity test on F."""

    is_strictly_convex: bool
    min_slope_gap: float
    violation_points: tuple


# -- public operations ----------------------------------------------------


def make_weight(family: str, params: Sequence[float] = (), table=None) -> WeightFunction:
    """Build a WeightFunction, resolving family aliases.  A table, for the
    tabulated family only, holds (t, omega) pairs, read as (x, F) knots."""
    family = _FAMILY_ALIASES.get(family, family)
    try:
        params = tuple(float(p) for p in params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"params must be a list of numbers ({exc})") from exc
    tab = None
    if table is not None:
        try:
            tab = tuple((float(t), float(v)) for t, v in table)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"table must be a list of [t, omega] pairs ({exc})") from exc
        for t, v in tab:
            if not 0.0 < t < 1.0:
                raise ValueError(f"table abscissa t={t} outside (0, 1)")
            if not 0.0 < v < math.inf:
                raise ValueError(f"table value omega={v} at t={t} must be positive and finite")
        tab = tuple((math.log(t), math.log(v)) for t, v in tab)
    return WeightFunction(family=family, params=params, table=tab)


def weight_from_knots(knots, strictify: float = 0.0) -> WeightFunction:
    """Tabulated weight directly from (x, F) knots, optionally adding
    strictify * e^x to make F strictly convex (the term is convex,
    increasing, and bounded by strictify on x < 0)."""
    params = (float(strictify),) if strictify else ()
    return WeightFunction(family="tabulated", params=params,
                          table=tuple((float(x), float(f)) for x, f in knots))


def weight_from_spec(spec: dict) -> WeightFunction:
    """Parse the JSON weight spec {"family":, "params":, "table":}."""
    if not (isinstance(spec, dict) and isinstance(spec.get("family"), str)):
        raise ValueError('weight spec needs a "family" field naming a family')
    return make_weight(spec["family"], spec.get("params") or (),
                       table=spec.get("table"))


def weight_to_spec(w: WeightFunction) -> dict:
    spec = {"family": w.family, "params": list(w.params)}
    if w.table is not None:
        spec["table"] = [[math.exp(x), math.exp(f)] for x, f in w.table]
    return spec


def _x_grid(x_grid, name: str) -> np.ndarray:
    """x_grid as a float array; ValueError, naming the grid, unless it has
    at least 3 points, strictly increasing and negative."""
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 3:
        raise ValueError(f"{name} needs at least 3 points")
    if not (np.all(xs < 0.0) and np.all(np.diff(xs) > 0.0)):
        raise ValueError(f"{name} must be strictly increasing and negative")
    return xs


def check_log_convexity(w: WeightFunction, x_grid) -> ConvexityReport:
    """Strict convexity of F on a grid: F' must increase between every pair
    of consecutive grid points by more than STRICTNESS_TOL."""
    xs = _x_grid(x_grid, "convexity grid")
    slopes = np.array([w.big_f_prime(float(x)) for x in xs])
    if not np.all(np.isfinite(slopes)):
        raise OverflowError("F' is not finite on the whole grid")
    return _slope_report(xs, slopes)


def _slope_report(xs: np.ndarray, slopes: np.ndarray) -> ConvexityReport:
    """check_log_convexity's report from the finite slopes F'(xs) on an
    increasing grid of at least 3 points."""
    gaps = np.diff(slopes)
    bad = np.nonzero(gaps <= STRICTNESS_TOL)[0]
    return ConvexityReport(
        is_strictly_convex=bool(bad.size == 0),
        min_slope_gap=float(gaps.min()),
        violation_points=tuple(float(xs[i]) for i in bad),
    )


def is_known_convex(w) -> bool:
    """Whether F is convex by construction, not merely on samples: an
    analytic constructible family, or a tabulated profile whose knot slopes
    increase strictly (compared exactly, in rational arithmetic) with a
    non-negative regularizer."""
    family = getattr(w, "family", None)
    if family != "tabulated":
        return family in CONSTRUCTIBLE_FAMILIES
    from fractions import Fraction
    knots = [(Fraction(x), Fraction(f)) for x, f in w.table]
    slopes = [(f1 - f0) / (x1 - x0) for (x0, f0), (x1, f1) in zip(knots, knots[1:])]
    return (all(b > a for a, b in zip(slopes, slopes[1:]))
            and all(p >= 0.0 for p in w.params))

