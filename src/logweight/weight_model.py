"""Radial weight functions on [0, 1) and their log-log reparametrization.

A weight is a positive, non-decreasing, continuous, unbounded function
omega on [0, 1), extended radially to the unit disk by omega(|z|).  All
growth analysis happens through

    F(x) = log omega(e^x),   x < 0,

because omega is comparable to a sum of two holomorphic moduli exactly
when F is (equivalent to) a convex function.  Each family is defined by
F and the pair (F, F') alone, and omega is evaluated only through F:
log omega(t) = F(log t) and log omega(1 - s) = F(log1p(-s)).  Everything
stays in the log domain: omega itself overflows float64 long before the
fast families stop being tractable.

Families
--------
ramey_ullrich   omega(t) = 1/(1-t)
power           omega(t) = (1-t)^(-a),            params (a,), a > 0
exp_power       omega(t) = exp((1-t)^(-alpha)),   params (alpha,), alpha > 0
double_exp      omega(t) = exp(exp(1/(1-t)))
log_power       omega(t) = (1 + log(1/(1-t)))^b,  params (b,), b > 0
inv_log         omega(t) = exp(-1/log t), i.e. F(x) = -1/x (closed-form
                tangent oracle family)
tabulated       piecewise-linear F through given (t, omega) knots
perturbed_*     diagnostic families: a convex base plus a bump or sawtooth,
                used to exercise the convexity / envelope decision paths.
                These model *invalid* weights and may be non-monotone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .numerics import LOG_MAX, exp_or_inf

# Slope gap below which F' is not considered strictly increasing.
STRICTNESS_TOL = 1e-10
# Doubling constant cap: larger estimates count as "not doubling".
DOUBLING_CAP = 1e6
# Unboundedness heuristic: require log omega(1 - 1e-6) > this.
UNBOUNDED_LOG_THRESHOLD = 10.0
UNBOUNDED_PROBE_S = 1e-6

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)

# The four analytic families fast enough to drive the tangent construction
# at desk scale.  log_power grows too slowly (it fails the unboundedness
# heuristic and exhausts float resolution within a few tangent steps) and
# inv_log is kept as a closed-form oracle.
CONSTRUCTIBLE_FAMILIES = ("ramey_ullrich", "power", "exp_power", "double_exp")


def _u(x: float) -> float:
    """1 - e^x computed accurately for x near 0-."""
    return -math.expm1(x)


@dataclass(frozen=True)
class _Family:
    name: str
    n_params: int
    defaults: tuple
    big_f: Callable  # (x, params) -> F, may return +inf for fast weights
    # (x, params) -> (F, F'), u = 1 - e^x computed once; its arithmetic is
    # that of big_f and of the analytic F', so both values match bit for bit
    big_f_and_prime: Callable


def _ramey_f(x, p):
    return -math.log(_u(x))


def _ramey_fp(x, p):
    u = _u(x)
    return -math.log(u), math.exp(x) / u


def _power_f(x, p):
    return -p[0] * math.log(_u(x))


def _power_fp(x, p):
    u = _u(x)
    return -p[0] * math.log(u), p[0] * math.exp(x) / u


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


def _double_exp_f(x, p):
    inner = 1.0 / _u(x)
    return math.exp(inner) if inner <= LOG_MAX else math.inf


def _double_exp_fp(x, p):
    u = _u(x)
    inner = 1.0 / u
    return (math.exp(inner) if inner <= LOG_MAX else math.inf,
            math.exp(inner + x) / u ** 2
            if inner + x - 2.0 * math.log(u) <= LOG_MAX else math.inf)


def _log_power_f(x, p):
    return p[0] * math.log1p(-math.log(_u(x)))


def _log_power_fp(x, p):
    u = _u(x)
    log_u = math.log(u)
    return p[0] * math.log1p(-log_u), p[0] * math.exp(x) / (u * (1.0 - log_u))


def _inv_log_f(x, p):
    return -1.0 / x


def _inv_log_fp(x, p):
    return -1.0 / x, 1.0 / (x * x)


_FAMILIES = {
    "ramey_ullrich": _Family("ramey_ullrich", 0, (), _ramey_f, _ramey_fp),
    "power": _Family("power", 1, (2.0,), _power_f, _power_fp),
    "exp_power": _Family("exp_power", 1, (1.0,), _exp_power_f, _exp_power_fp),
    "double_exp": _Family("double_exp", 0, (), _double_exp_f, _double_exp_fp),
    "log_power": _Family("log_power", 1, (2.0,), _log_power_f, _log_power_fp),
    "inv_log": _Family("inv_log", 0, (), _inv_log_f, _inv_log_fp),
}

# Diagnostic perturbations on top of the ramey_ullrich profile.  They are
# intentionally not monotone: the point is to feed the convexity checks and
# the envelope decision with controlled counterexamples.

def _bump(x, p):
    height, x_star, width = p
    return height * max(0.0, 1.0 - abs(x - x_star) / width)


def _triangle_wave(s: float) -> float:
    """Triangle in [0, 1], zero at integers; s % 1.0 rounds as s - floor(s)."""
    return 1.0 - 2.0 * abs(s % 1.0 - 0.5)


def _sawtooth(x, p):
    amp, period = p
    return amp * _triangle_wave(x / period)


def _unbounded_sawtooth(x, p):
    scale, log_period = p
    return (scale / abs(x)) * _triangle_wave(math.log(1.0 / abs(x)) / log_period)


_PERTURBATIONS = {
    "perturbed_bump": (_bump, (3.0, -1.0, 0.02)),
    "perturbed_sawtooth": (_sawtooth, (0.5, 0.25)),
    "perturbed_unbounded_sawtooth": (_unbounded_sawtooth, (2.0, 0.5)),
}

_FAMILY_ALIASES = {"perturbed": "perturbed_bump"}


@dataclass(frozen=True)
class WeightFunction:
    """A radial weight, evaluated only through F = log omega(e^x) and F'.

    Immutable and side-effect free; instances are safe to share across
    threads.  `params` are family-specific (see module docstring);
    `table` holds (x, F) knots for the tabulated family; `deriv_mode`
    selects the analytic derivative when the family has one, otherwise a
    central finite difference with step max(eps^(1/3) |x|, 1e-8).
    """

    family: str
    params: tuple = ()
    table: Optional[tuple] = None  # ((x_0, F_0), ...), x strictly increasing
    deriv_mode: str = "analytic"  # "analytic" | "fd"

    def __post_init__(self):
        if self.family == "tabulated":
            if not self.table or len(self.table) < 2:
                raise ValueError("tabulated weight needs at least 2 knots")
            xs = [k[0] for k in self.table]
            fs = [k[1] for k in self.table]
            if any(b <= a for a, b in zip(xs, xs[1:])) or xs[-1] >= 0.0:
                raise ValueError("tabulated knots must be strictly increasing and negative")
            if any(b < a for a, b in zip(fs, fs[1:])):
                raise ValueError("tabulated omega must be non-decreasing")
        elif self.family in _PERTURBATIONS:
            pert, defaults = _PERTURBATIONS[self.family]
            if not self.params:
                object.__setattr__(self, "params", defaults)
            object.__setattr__(self, "deriv_mode", "fd")
        else:
            fam = _FAMILIES.get(self.family)
            if fam is None:
                raise ValueError(f"unknown weight family {self.family!r}")
            if not self.params:
                object.__setattr__(self, "params", fam.defaults)
            if len(self.params) != fam.n_params:
                raise ValueError(
                    f"family {self.family!r} takes {fam.n_params} parameter(s), "
                    f"got {len(self.params)}")
            if any(p <= 0 for p in self.params):
                raise ValueError(f"family {self.family!r} parameters must be positive")

    # -- core evaluations ------------------------------------------------

    def log_omega(self, t: float) -> float:
        """log omega(t) = F(log t) for t in [0, 1); may be +inf for fast
        families.  omega(0) = exp(F(-inf)) exists for analytic families only."""
        if not 0.0 <= t < 1.0:
            raise ValueError(f"t={t} outside the weight domain [0, 1)")
        if t > 0.0:
            return self.big_f(math.log(t))
        if self.family not in _FAMILIES:
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
        if self.family == "tabulated":
            base = self._table_interp(x)
            if self.params:  # optional strict-convexity regularizer
                base += self.params[0] * math.exp(x)
            return base
        if self.family in _PERTURBATIONS:
            pert, _ = _PERTURBATIONS[self.family]
            return _ramey_f(x, ()) + pert(x, self.params)
        return _FAMILIES[self.family].big_f(x, self.params)

    def big_f_prime(self, x: float) -> float:
        """F'(x), analytic when available and deriv_mode permits."""
        if x >= 0.0:
            raise ValueError(f"x={x} must be negative")
        if self.family == "tabulated":
            slope = self._table_slope(x)
            if self.params:
                slope += self.params[0] * math.exp(x)
            return slope
        fam = _FAMILIES.get(self.family)
        if self.deriv_mode == "analytic" and fam is not None:
            return fam.big_f_and_prime(x, self.params)[1]
        return self._fd_prime(x)

    def big_f_and_prime(self, x: float) -> tuple:
        """(F(x), F'(x)), each bit for bit what big_f and big_f_prime give;
        an analytic family evaluates both in one call."""
        fam = _FAMILIES.get(self.family)
        if self.deriv_mode == "analytic" and fam is not None:
            if x >= 0.0:
                raise ValueError(f"x={x} must be negative")
            return fam.big_f_and_prime(x, self.params)
        return self.big_f(x), self.big_f_prime(x)

    def _fd_prime(self, x: float) -> float:
        h = max(_EPS_CBRT * abs(x), 1e-8)
        h = min(h, abs(x) / 2.0)  # keep both stencil points negative
        return (self.big_f(x + h) - self.big_f(x - h)) / (2.0 * h)

    # -- tabulated interpolation ------------------------------------------

    def _knot_arrays(self):
        cached = self.__dict__.get("_knots")
        if cached is None:
            cached = (np.array([k[0] for k in self.table]),
                      np.array([k[1] for k in self.table]))
            object.__setattr__(self, "_knots", cached)
        return cached

    def _table_interp(self, x: float) -> float:
        xs, fs = self._knot_arrays()
        # end segments extrapolate linearly, which keeps the profile convex
        i = int(np.clip(np.searchsorted(xs, x), 1, len(xs) - 1))
        x0, x1 = xs[i - 1], xs[i]
        f0, f1 = fs[i - 1], fs[i]
        return float(f0 + (f1 - f0) * (x - x0) / (x1 - x0))

    def _table_slope(self, x: float) -> float:
        xs, fs = self._knot_arrays()
        i = int(np.clip(np.searchsorted(xs, x), 1, len(xs) - 1))
        return float((fs[i] - fs[i - 1]) / (xs[i] - xs[i - 1]))


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the discrete strict-convexity test on F."""

    is_strictly_convex: bool
    min_slope_gap: float
    violation_points: tuple
    tol: float = STRICTNESS_TOL


class DoublingResult(NamedTuple):
    is_doubling: bool
    a_estimate: float
    log_a_estimate: float


# -- public operations ----------------------------------------------------


def make_weight(family: str, params: Sequence[float] = (), table=None,
                deriv_mode: str = "analytic") -> WeightFunction:
    """Build a WeightFunction, resolving family aliases."""
    family = _FAMILY_ALIASES.get(family, family)
    tab = None
    if table is not None:
        tab = tuple((float(t), float(v)) for t, v in table)
        # JSON tables come as (t, omega) pairs; convert to (x, F) knots.
        if family == "tabulated" and tab and tab[0][0] > 0.0:
            for t, v in tab:
                if not 0.0 < t < 1.0:
                    raise ValueError(f"table abscissa t={t} outside (0, 1)")
                if v <= 0.0:
                    raise ValueError(f"table value omega={v} must be positive")
            tab = tuple((math.log(t), math.log(v)) for t, v in tab)
    return WeightFunction(family=family, params=tuple(float(p) for p in params),
                          table=tab, deriv_mode=deriv_mode)


def weight_from_knots(knots, strictify: float = 0.0) -> WeightFunction:
    """Tabulated weight directly from (x, F) knots, optionally adding
    strictify * e^x to make F strictly convex (the term is convex,
    increasing, and bounded by strictify on x < 0)."""
    params = (float(strictify),) if strictify else ()
    return WeightFunction(family="tabulated", params=params,
                          table=tuple((float(x), float(f)) for x, f in knots))


def weight_from_spec(spec: dict) -> WeightFunction:
    """Parse the JSON weight spec {"family":, "params":, "table":}."""
    if "family" not in spec:
        raise ValueError('weight spec needs a "family" field')
    return make_weight(spec["family"], spec.get("params") or (),
                       table=spec.get("table"))


def weight_to_spec(w: WeightFunction) -> dict:
    spec = {"family": w.family, "params": list(w.params)}
    if w.table is not None:
        spec["table"] = [[math.exp(x), math.exp(f)] for x, f in w.table]
    return spec


def check_log_convexity(w: WeightFunction, x_grid, tol: float = STRICTNESS_TOL) -> ConvexityReport:
    """Strict convexity of F on a grid: F' must increase between every pair
    of consecutive grid points by more than `tol`."""
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 3:
        raise ValueError("convexity grid needs at least 3 points")
    if np.any(xs >= 0.0) or np.any(np.diff(xs) <= 0.0):
        raise ValueError("convexity grid must be strictly increasing and negative")
    slopes = np.array([w.big_f_prime(float(x)) for x in xs])
    if not np.all(np.isfinite(slopes)):
        raise OverflowError("F' is not finite on the whole grid")
    return _slope_report(xs, slopes, tol)


def _slope_report(xs: np.ndarray, slopes: np.ndarray, tol: float) -> ConvexityReport:
    """check_log_convexity's report from the finite slopes F'(xs) on an
    increasing grid of at least 3 points."""
    gaps = np.diff(slopes)
    bad = np.nonzero(gaps <= tol)[0]
    return ConvexityReport(
        is_strictly_convex=bool(bad.size == 0),
        min_slope_gap=float(gaps.min()),
        violation_points=tuple(float(xs[i]) for i in bad),
        tol=tol,
    )


def is_known_convex(w) -> bool:
    """Whether F is convex by construction, not merely on samples: an
    analytic constructible family with its analytic F', or a tabulated
    profile whose knot slopes increase strictly (compared exactly, in
    rational arithmetic) with a non-negative regularizer."""
    family = getattr(w, "family", None)
    if family in CONSTRUCTIBLE_FAMILIES:
        return w.deriv_mode == "analytic"
    if family != "tabulated":
        return False
    from fractions import Fraction
    knots = [(Fraction(x), Fraction(f)) for x, f in w.table]
    slopes = [(f1 - f0) / (x1 - x0) for (x0, f0), (x1, f1) in zip(knots, knots[1:])]
    return (all(b > a for a, b in zip(slopes, slopes[1:]))
            and all(p >= 0.0 for p in w.params))


def check_doubling(w: WeightFunction, s_grid, cap: float = DOUBLING_CAP) -> DoublingResult:
    """Estimate the doubling constant sup_s omega(1-s/2)/omega(1-s).

    Computed in the log domain from s directly (never through 1 - s), so
    families with an exact ratio report it to full precision.
    """
    log_cap = math.log(cap)
    worst = -math.inf
    for s in np.asarray(s_grid, dtype=float):
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s={s} outside (0, 1]")
        ratio = w.log_omega_one_minus(s / 2.0) - w.log_omega_one_minus(s)
        worst = max(worst, ratio)
    is_doubling = math.isfinite(worst) and worst < log_cap
    return DoublingResult(is_doubling, exp_or_inf(worst), worst)


def check_unbounded(w: WeightFunction, threshold: float = UNBOUNDED_LOG_THRESHOLD):
    """Heuristic unboundedness gate: log omega(1 - 1e-6) > threshold.

    Returns None (with a warning) for tabulated weights, where
    unboundedness cannot be decided from finite data.
    """
    if w.family == "tabulated":
        warnings.warn("unboundedness is not verifiable for tabulated weights",
                      stacklevel=2)
        return None
    return w.log_omega_one_minus(UNBOUNDED_PROBE_S) > threshold
