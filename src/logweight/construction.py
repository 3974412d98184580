"""Tangent-line induction on the log-log profile of a radial weight.

Write F(x) = log omega(e^x) on x < 0 and fix a vertical gap h >= 2 and a
start abscissa x_0 < 0.  Step k produces the unique line

    l_k(x) = log_a_k + delta_k * x

that is tangent to the graph of F and meets the graph of F - h at the
previous abscissa x_{k-1}; the second crossing defines x_k > x_{k-1}.
Exponentiating, l_k describes the monomial bound a_k t^{delta_k}, which

  * never exceeds omega on [t_0, 1)            (tangency from below),
  * matches omega within e^{-h} on [t_k-1, t_k] (the chord conditions),
  * dominates the other monomials geometrically away from its own
    interval (successive lines separate by h per index step).

next_tangent solves both stages of a step in one loop, by safeguarded
Newton stopped at the rounding error that the weight's rounding_shift
bounds; a weight without F'' bisects, as does the lemma verifier's
search for the tangency of a line loaded without its xi.

A weight is duck-typed: this module calls only `big_f(x)`,
`big_f_and_prime(x)` (which returns the pair (F(x), F'(x)) with the bits
of the two separate calls), an optional `big_f_second(x)` (F'', or None)
and an optional `rounding_shift(x)` (the abscissa error of F, F' and F'',
or None) at x < 0, and reads an optional `family` to name the lemma
basis.  next_tangent evaluates a WeightFunction itself through its
family's row functions instead, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .numerics import MARGIN_SLACK, NEG_INF, logsumexp, normalized_margins
from .weight_model import (ROUNDING, ConvexityReport, WeightFunction,
                           _rounding_shift, _slope_report, is_known_convex)

# Threshold t_0 above which the integer-exponent estimates keep the 9/10
# and 5/9 constants used by the verifier (they need 1/t < 10/9).
T0_INTEGER_ESTIMATES = 0.9

_TAIL_WINDOW = 8  # lines summed on each side of k in the lemma tail sums
_TAIL_BLOCK = 1 << 14  # float64 tail terms per block of intervals (128 kB)
_XI_BRACKET = 1e-12  # half-width, relative to |xi|, tried around a stored xi
_X_FLOOR = -2.0 ** -53  # x halves toward 0 no further: exp(x) is the last float < 1
_ROOT_TOL = 1e-13  # relative bracket width or Newton step at which root searches stop

_FLOOR_DIVISOR = 1024  # a line's log_a may have an ulp of at most h / this
_GATE_POINTS = 200
_GATE_SHRINK = 1e-6
_MAX_RESTARTS = 8


class ConstructionError(RuntimeError):
    """Base class for failures of the tangent induction."""


class NotStrictlyConvexError(ConstructionError):
    pass


class SlowGrowthError(ConstructionError):
    pass


class ExponentCollisionError(ConstructionError):
    pass


class FloatFloorError(ConstructionError):
    pass


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs of the induction.  h >= 2 is required by the separation
    estimates; exp(x0) > 9/10 is recommended so the integer-exponent
    estimates keep their stated constants."""

    x0: float
    h: float = 2.0
    k_max: int = 500
    t_stop: float = 0.9999
    auto_restart: bool = False

    def __post_init__(self):
        for name in ("h", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if not self.h >= 2.0:
            raise ValueError(f"h={self.h} must be >= 2")
        if not self.x0 < 0.0:
            raise ValueError(f"x0={self.x0} must be negative")
        if not 0.0 < self.t_stop < 1.0:
            raise ValueError(f"t_stop={self.t_stop} must lie in (0, 1)")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


@dataclass(frozen=True)
class TangentLine:
    """A line log_a + delta*x tangent to F at xi (xi is None for lines
    loaded from JSON, where only the coefficients are stored)."""

    delta: float
    log_a: float
    xi: Optional[float] = None

    def value(self, x):
        return self.log_a + self.delta * x


@dataclass(frozen=True)
class ConstructionState:
    """The full output of a run: abscissas (xs includes x0), lines
    l_1..l_K and integer exponents e_k = floor(delta_k)+1; ts = exp(xs)."""

    params: ConstructionParams
    xs: tuple
    lines: tuple
    es: tuple

    @cached_property
    def ts(self) -> tuple:
        return tuple(math.exp(x) for x in self.xs)

    @property
    def deltas(self) -> tuple:
        return tuple(l.delta for l in self.lines)

    @property
    def log_as(self) -> tuple:
        return tuple(l.log_a for l in self.lines)

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t_last(self) -> float:
        return self.ts[-1]

    def to_json_dict(self) -> dict:
        return {
            "h": self.params.h,
            "x0": self.params.x0,
            "xs": list(self.xs),
            "deltas": list(self.deltas),
            "log_as": list(self.log_as),
            "es": list(self.es),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ConstructionState":
        """The state of to_json_dict; ValueError names a field that does not
        hold a number (h, x0), a list of numbers (xs, deltas, log_as) or a
        list of integers (es), where a number is a JSON int or float (not a
        string or a boolean) and an integer a JSON int (not 1.5 or true), a
        list whose length disagrees with the K exponents es, a non-finite
        entry of xs, deltas or log_as, an x0 other than xs[0], or an es[k]
        other than floor(deltas[k]) + 1."""
        if not isinstance(d, dict):
            raise ValueError("a state is a JSON object")

        def read(key, convert=float, each=True):
            values = d[key] if each else [d[key]]
            kinds, kind = ({int}, "an integer") if convert is int else ({int, float}, "a number")
            try:  # by exact type, so a bool is no int
                if not set(map(type, values)) <= kinds:
                    bad = next(v for v in values if type(v) not in kinds)
                    raise TypeError(f"{bad!r} is not {kind}")
                values = tuple(map(convert, values))
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"state field {key!r} is malformed ({exc})") from exc
            return values if each else values[0]

        params = ConstructionParams(x0=read("x0", each=False), h=read("h", each=False))
        xs, deltas, log_as = read("xs"), read("deltas"), read("log_as")
        es = read("es", int)
        for key, values, size in (("xs", xs, len(es) + 1), ("deltas", deltas, len(es)),
                                  ("log_as", log_as, len(es))):
            if len(values) != size:
                raise ValueError(f"state field {key!r} has {len(values)} entries, not {size} "
                                 f"for K = {len(es)} exponents")
            for i, v in enumerate(values):
                if not math.isfinite(v):
                    raise ValueError(f"state field {key!r} entry {i} is not finite ({v})")
        if params.x0 != xs[0]:
            raise ValueError(f"state field 'x0' = {params.x0!r} is not xs[0] = {xs[0]!r}")
        check_exponents(es, deltas)
        lines = tuple(TangentLine(delta=dd, log_a=la) for dd, la in zip(deltas, log_as))
        return ConstructionState(params=params, xs=xs, lines=lines, es=es)


def check_exponents(es, deltas) -> None:
    """Raise ValueError naming the first entry es[k] other than
    floor(deltas[k]) + 1: the lemma checks take e_k > delta_k for granted.
    An int64 es passes on arrays where |delta| and |e| < 2^52 make
    np.floor(delta) + 1 and e exact floats; math.floor decides the rest."""
    e, d = np.asarray(es), np.asarray(deltas, dtype=float)
    suspects = range(min(len(es), len(deltas)))
    if e.dtype.kind == "i" and e.shape == d.shape:
        suspects = np.flatnonzero((e != np.floor(d) + 1.0) | (np.abs(d) >= 2.0 ** 52)
                                  | (np.abs(e) >= 2.0 ** 52)).tolist()
    for i in suspects:
        if es[i] != math.floor(deltas[i]) + 1:
            raise ValueError(f"state field 'es' entry {i} is {es[i]}, not floor(deltas[{i}]) + 1 "
                             f"= {math.floor(deltas[i]) + 1}")


def _first_probe(x, f_second, h):
    """A stage's first bracket probe right of its residual's extremum x:
    the quadratic start x + sqrt(2h / F''(x)), where a residual with
    curvature F''(x) at x gains h, if it is a float in (x, _X_FLOOR]; else,
    as without a positive F''(x), x / 2."""
    if f_second is not None and f_second > 0.0:
        start = x + math.sqrt(2.0 * h / f_second)
        if x < start <= _X_FLOOR:
            return start
    return x / 2.0


def _as_row(method):
    """A bound method as a row function (x, args); None stays None."""
    return None if method is None else lambda x, _: method(x)


def next_tangent(w: WeightFunction, x_prev: float, h: float):
    """One induction step: the tangent line through (x_prev, F(x_prev) - h)
    and the next crossing abscissa.

    Returns (TangentLine, x_next).  Solved in two stages:

    (a) the tangency abscissa xi is the root of
        G(xi) = F(xi) + F'(xi)(x_prev - xi) - F(x_prev) + h,
        which equals h at xi = x_prev and is strictly decreasing in xi
        (G' = F''(xi)(x_prev - xi) < 0 under strict convexity);
    (b) x_next > xi is the root of H(x) = F(x) - h - l(x), which equals
        -h at xi and is strictly increasing there (H' = F'(x) - delta).

    Both stages run one loop, which differs between them only in the
    residual it evaluates: G, with its convexity and growth checks, then H.
    It probes toward 0, halving the abscissa no further than the float
    floor _X_FLOOR, until the residual's sign closes a bracket (G <= 0,
    H >= 0), and from that probe on takes safeguarded Newton steps
    (rtsafe): each evaluation moves the bracket end on its side (lo where
    G > 0, and where H is not, an exact 0 included), and the next is at
    its Newton step if that lands strictly inside, else at the midpoint.
    The first probe is where F'' (s - extremum)^2 / 2 reaches h, xi ~
    x_prev + sqrt(2h / F''(x_prev)) and x_next ~ xi + sqrt(2h / F''(xi)):
    right of the roots when F'' increases, so the iterates fall onto them.

    The root is the first evaluation within its rounding error err: with R
    = ROUNDING and s(x) the weight's rounding_shift, F and F' as computed
    are within err_F(x) = R |F| + s(x) |F'| and err_F'(x) = R |F'| + s(x)
    |F''| of the exact values, so (err_F(x_prev) at F'(xi) >= F'(x_prev))

        err_G = err_F(xi) + err_F(x_prev) + |x_prev - xi| err_F'(xi)
                + R (|F(xi)| + |F'(xi)(x_prev - xi)| + |F(x_prev)| + h),
        err_H = err_F(x) + R (|F(x)| + |log_a| + |delta x| + h).

    Without a finite err it is a Newton step of at most _ROOT_TOL |x| into
    the bracket, or the midpoint of a bracket _ROOT_TOL |hi| wide (or after
    200 steps): relative, as near 0 the slopes of F blow up like 1/|x| or
    faster.  The tangent at xi keeps F, F' and F'' of the last evaluation
    when xi is its abscissa, and calls them afresh otherwise.  A weight
    whose F''(x_prev) is None (or missing) gets no start, slope, rounding
    stop or further F'' call: both stages bisect from x_prev / 2 and
    xi / 2, with a fused (F, F') call per G and an F call per H.  A
    WeightFunction is evaluated through its family's row functions, read
    once per step, any other weight through its methods.
    """
    if x_prev >= 0.0:
        raise ValueError("x_prev must be negative")
    if type(w) is WeightFunction:
        row, args = w._row, w._args
        big_f, fused, second = row.big_f, row.big_f_and_prime, row.big_f_second
        shift = _rounding_shift if row.analytic else None
    else:
        args, big_f, fused = None, _as_row(w.big_f), _as_row(w.big_f_and_prime)
        second = _as_row(getattr(w, "big_f_second", None))
        shift = getattr(w, "rounding_shift", None)
    f_prev = big_f(x_prev, args)
    if not math.isfinite(f_prev):
        raise OverflowError(f"F({x_prev}) is not finite; start farther from 0")
    fpp = None if second is None else second(x_prev, args)
    newton = fpp is not None
    s_prev = shift(x_prev) if newton and shift is not None else None
    a_prev, r_prev = abs(f_prev), ROUNDING * abs(f_prev)

    # The convexity and growth checks compare G - h, not G: next to a huge h
    # every change of G rounds away.
    x, d_lo, decreased, slope, err = x_prev, 0.0, False, 0.0, math.inf
    for stage_a in (True, False):  # the root of G from x_prev, then of H from xi
        lo, hi, x, n = x, None, _first_probe(x, fpp, h), 0
        while True:
            if hi is not None:
                if n == 200 or hi - lo <= _ROOT_TOL * abs(hi):
                    x = 0.5 * (lo + hi)
                    break
            elif x > _X_FLOOR:
                if stage_a and not decreased:
                    raise NotStrictlyConvexError("weight profile is not strictly convex: the "
                                                 "tangent never separates from the chord")
                raise SlowGrowthError(
                    "weight grows too slowly (or is not unbounded): "
                    + (f"no tangent line drops {h} below F" if stage_a else
                       "F - h never crosses the tangent line again")
                    + f" left of the float floor x = {_X_FLOOR}")
            at = x
            if stage_a:
                f, fp = fused(x, args)
                if math.isfinite(f) and math.isfinite(fp):
                    gap = x_prev - x
                    arm = fp * gap
                    d = f + arm - f_prev  # G - h
                    if newton:
                        fpp = second(x, args)
                        slope = fpp * gap
                        if s_prev is not None:  # err_G
                            s_x, a_f, a_fp = shift(x), abs(f), abs(fp)
                            err = ((ROUNDING * a_f + s_x * a_fp) + (r_prev + s_prev * a_fp)
                                   + abs(gap) * (ROUNDING * a_fp + s_x * abs(fpp))
                                   + ROUNDING * (a_f + abs(arm) + a_prev + h))
                else:  # G - h = -inf; a slope of 0 is none
                    d, slope, err = NEG_INF, 0.0, math.inf
                value = d + h
                if hi is None:
                    if d > d_lo + 1e-9 * max(1.0, abs(d_lo)):
                        raise NotStrictlyConvexError(
                            f"weight profile is not strictly convex near x = {x}")
                    decreased = decreased or d < d_lo - 1e-12 * max(1.0, abs(d_lo))
                    d_lo = d
            else:
                f, fp = fused(x, args) if newton else (big_f(x, args), None)
                if math.isfinite(f):
                    arm = delta * x
                    value = f - h - (log_a + arm)  # H
                    if newton:
                        slope = fp - delta
                        if s_prev is not None:  # err_H
                            a_f = abs(f)
                            err = ((ROUNDING * a_f + shift(x) * abs(fp))
                                   + ROUNDING * (a_f + a_log_a + abs(arm) + h))
                else:  # H = +inf
                    value, slope, err = math.inf, 0.0, math.inf
            if hi is None:
                if not (value <= 0.0 if stage_a else value >= 0.0):  # the probe closes no bracket
                    lo, x = x, x / 2.0
                    continue
                hi = x
                if not newton or hi - lo <= _ROOT_TOL * abs(hi):  # bisect from the midpoint
                    x = 0.5 * (lo + hi)
                    continue
            if value > 0.0 if stage_a else not value > 0.0:  # lo's side, an exact 0 of H too
                lo = x
            else:
                hi = x
            if abs(value) <= err < math.inf:
                break
            step = value / slope if slope and math.isfinite(slope) else math.nan
            x -= step  # NaN without a finite nonzero slope: it lands nowhere
            if abs(step) <= _ROOT_TOL * abs(x) and lo <= x <= hi:
                break
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            n += 1
        if stage_a:
            if x != at:  # else xi keeps the last evaluation's F, F' and F''
                (f, fp), fpp = fused(x, args), second(x, args) if newton else None
            delta, log_a = fp, f - fp * x
            a_log_a = abs(log_a)
            if not (delta > 0.0 and math.isfinite(log_a)):
                raise ConstructionError(f"degenerate tangent at xi={x}")
            line = TangentLine(delta=delta, log_a=log_a, xi=x)
    return line, x


def _gate_grid(x0: float):
    mags = np.geomspace(abs(x0), abs(x0) * _GATE_SHRINK, _GATE_POINTS)
    return -mags  # increasing toward 0


def _convexity_gate(w: WeightFunction, x0: float) -> ConvexityReport:
    """check_log_convexity on the finite prefix of the gate grid, from the
    slopes of one fused (F, F') call per point; raises unless strict."""
    # Fast families overflow near 0; keep the finite prefix of the grid.
    finite, slopes = [], []
    for x in _gate_grid(x0):
        x = float(x)
        f, fp = w.big_f_and_prime(x)
        if not (math.isfinite(f) and math.isfinite(fp)):
            break
        finite.append(x)
        slopes.append(fp)
    if len(finite) < 3:
        raise OverflowError("F is not finite on enough of the gate grid")
    report = _slope_report(np.array(finite), np.array(slopes))
    if not report.is_strictly_convex:
        raise NotStrictlyConvexError(
            "weight is not strictly convex on the gate grid "
            f"(min slope gap {report.min_slope_gap:.3g}, first violation near "
            f"x = {report.violation_points[0]:.6g})")
    return report


def run_construction(w: WeightFunction, params: ConstructionParams) -> ConstructionState:
    """Run the induction until t_k > t_stop or k_max lines are placed.

    Preconditions: F strictly convex on the gate grid over [x0, x0*1e-6].
    Raises FloatFloorError at the first line whose log_a has an ulp above
    h/1024, where float64 no longer resolves the gap h between lines.
    Raises ExponentCollisionError when floor(delta_k)+1 fails to increase
    strictly, advising a start closer to 0 (with auto_restart the run
    retries with x0/2, up to 8 times).
    """
    attempts = 1 + (_MAX_RESTARTS if params.auto_restart else 0)
    x0 = params.x0
    last_err: Optional[ExponentCollisionError] = None
    for _ in range(attempts):
        try:
            return _run_once(w, replace(params, x0=x0))
        except ExponentCollisionError as err:
            last_err = err
            x0 = x0 / 2.0
    raise last_err


def _run_once(w: WeightFunction, params: ConstructionParams) -> ConstructionState:
    _convexity_gate(w, params.x0)
    xs = [params.x0]
    lines = []
    es = []
    x_prev = params.x0
    for _ in range(params.k_max):
        line, x_next = next_tangent(w, x_prev, params.h)
        if math.ulp(line.log_a) > params.h / _FLOOR_DIVISOR:
            raise FloatFloorError(
                f"line {len(lines) + 1} is past the float floor: one ulp of log_a = "
                f"{line.log_a:.6g} is {math.ulp(line.log_a):.3g}, more than h/{_FLOOR_DIVISOR}; "
                "start farther from 0, or lower t_stop or k_max")
        e = math.floor(line.delta) + 1
        if es and e <= es[-1]:
            raise ExponentCollisionError(
                f"integer exponents collide at k={len(es) + 1} "
                f"(floor(delta)+1 = {e} after {es[-1]}); restart with x0 "
                f"closer to 0, e.g. x0/2 = {params.x0 / 2.0}, or enable "
                "auto_restart")
        lines.append(line)
        es.append(e)
        xs.append(x_next)
        x_prev = x_next
        if math.exp(x_next) > params.t_stop:
            break
    return ConstructionState(
        params=params,
        xs=tuple(xs),
        lines=tuple(lines),
        es=tuple(es),
    )


def h_for_delta(delta: float) -> float:
    """Smallest gap h that makes both geometric tails of the off-interval
    monomial sum total at most delta/2: each tail is bounded by
    e^{-h}/(1-e^{-h}), so 2 e^{-h}/(1-e^{-h}) <= delta/2 iff
    h >= log(1 + 4/delta); clamped below at 2."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta={delta} outside (0, 1]")
    return max(2.0, math.log(1.0 + 4.0 / delta))


def check_gap(h: float, delta: float) -> None:
    """Raise ValueError unless a gap h may claim delta: h >= h_for_delta(delta)."""
    need = h_for_delta(delta)
    if h < need - 1e-12:
        raise ValueError(f"state was built with h={h} < h_for_delta({delta}) = {need}")


# -- lemma verification -----------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    worst_margin: float  # normalized: (lhs - rhs) / max(1, |lhs|, |rhs|)
    witness_x: Optional[float]
    witness_k: Optional[int]
    n_points: int
    passed: bool


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple
    passed: bool
    samples_per_interval: int
    delta: Optional[float] = None
    basis: str = "sampled"  # "convexity": a proof up to MARGIN_SLACK

    def check(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "basis": self.basis,
            "samples_per_interval": self.samples_per_interval,
            "delta": self.delta,
            "checks": [asdict(c) for c in self.checks],
        }


def _worst(name, margins, xs, ks, points_each=1) -> LemmaCheck:
    """Worst margin and witness (xs, ks broadcast to the margins, each for
    `points_each` points); the first wins ties, a NaN margin fails."""
    margins = np.asarray(margins, dtype=float)
    if margins.size == 0:
        return LemmaCheck(name, math.inf, None, None, 0, True)
    i = int(np.argmin(margins))
    worst = float(margins.flat[i])
    return LemmaCheck(name, worst, float(np.broadcast_to(xs, margins.shape).flat[i]),
                      int(np.broadcast_to(ks, margins.shape).flat[i]),
                      margins.size * points_each, worst >= -MARGIN_SLACK)


def _tangency_bracket(w, line, x_lo, x_hi, x0):
    """(p, c, q, F(p), F(c), F(q)): a bracket [p, q] of the minimum of the
    convex g = F - l over [x0, 0), where F' = slope, and its midpoint c:
    xi (1 +- _XI_BRACKET) when the F' signs confirm the stored xi, else
    bisected from [x_lo, x_hi] (widened to [x0, x_lo], or halved toward 0
    down to _X_FLOOR) to the relative tolerance _ROOT_TOL.  F at p and q
    comes from the sign tests' fused calls: a stored xi costs three calls."""
    xi, delta, fused = line.xi, line.delta, {}
    if xi is not None:
        p, q = xi * (1.0 + _XI_BRACKET), xi * (1.0 - _XI_BRACKET)
        f_p, d_p = fused[p] = w.big_f_and_prime(p)
        if d_p - delta <= 0.0:
            f_q, d_q = fused[q] = w.big_f_and_prime(q)
            if 0.0 <= d_q - delta:
                return p, 0.5 * (p + q), q, f_p, w.big_f(0.5 * (p + q)), f_q

    def psi(x):  # F' - delta
        if x not in fused:
            fused[x] = w.big_f_and_prime(x)
        return fused[x][1] - delta

    lo, hi = x_lo, x_hi
    if psi(lo) > 0.0:
        lo, hi = x0, lo
    while psi(hi) < 0.0 and hi < _X_FLOOR:
        lo, hi = hi, hi / 2.0
    if psi(lo) >= 0.0:  # F - l increases from x0 on
        hi = lo
    elif psi(hi) < 0.0:  # F - l still decreases at the floor of |x|
        lo = hi
    else:  # bisect to a width of _ROOT_TOL |hi|
        for _ in range(200):
            if hi - lo <= _ROOT_TOL * abs(hi):
                break
            c = 0.5 * (lo + hi)
            lo, hi = (lo, c) if psi(c) > 0.0 else (c, hi)
    c = 0.5 * (lo + hi)
    return (lo, c, hi, *(fused[x][0] if x in fused else w.big_f(x) for x in (lo, c, hi)))


def _tangency_bounds(log_as, deltas, brackets):
    """Certified lower bounds of g = F - l_k over [x0, 0) from the rows of
    _tangency_bracket by the secant bounds, min(g(p), g(q), 2 g(c) - max
    g(p, c, q)) per line, with the bits of Python's min and max."""
    p, c, q, f_p, f_c, f_q = brackets
    with np.errstate(all="ignore"):  # inf and NaN pass silently, as in scalar floats
        g_p, g_c, g_q = (f - (log_as + deltas * x) for f, x in ((f_p, p), (f_c, c), (f_q, q)))
        top = np.where(g_c > g_p, g_c, g_p)
        mid = 2.0 * g_c - np.where(g_q > top, g_q, top)
    low = np.where(g_q < g_p, g_q, g_p)
    return np.where(mid < low, mid, low)


def _tail_log_bound(k, pts, log_as, slopes, gap):
    """Log upper bound of sum_{|m-k|>=2} exp(log_a_m + slope_m x) at `pts`
    on I_{k+1} (0-based k per row): lines within _TAIL_WINDOW of k are
    summed; past each window edge every line lies `gap` below its
    neighbour (the separation checks), so the rest is at most the edge
    line times e^{-gap} / (1 - e^{-gap}).  -inf: empty; +inf: gap <= 0.

    The table is window-first, (window, rows, points): the sum runs over
    its leading axis, one contiguous rows x points slab per window line,
    adding the lines one after another."""
    K, W = log_as.size, _TAIL_WINDOW
    idx = np.r_[-W:-1, 2:W + 1, -W, W][:, None] + k  # the window, then its edges
    valid = (idx >= 0) & (idx < K)
    valid[-2], valid[-1] = k - W >= 1, k + W <= K - 2
    idx = np.clip(idx, 0, K - 1)
    terms = log_as[idx][:, :, None] + slopes[idx][:, :, None] * pts
    terms[-2:] += -gap - math.log(-math.expm1(-gap)) if gap > 0.0 else math.inf
    terms[~valid] = -np.inf
    return logsumexp(terms, axis=0)


def check_state_matches(state: ConstructionState, w: WeightFunction) -> None:
    """Raise ValueError unless the state was built for this weight: the
    chord identities l_k(x_{k-1}) = F(x_{k-1}) - h must hold, to 1e-6
    relative, at the first and the last line (two evaluations of F)."""
    if not state.lines:
        raise ValueError("state has no lines")
    h = state.params.h
    K = len(state.lines)
    for k in (1, K):
        x = float(state.xs[k - 1])
        lhs = state.lines[k - 1].value(x)
        rhs = w.big_f(x) - h
        if not abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)):
            raise ValueError(
                "state does not match this weight (chord residual "
                f"{abs(lhs - rhs):.3g} at k={k})")


def verify_tangent_lemmas(state: ConstructionState, w: WeightFunction,
                          samples_per_interval: int = 50,
                          delta: Optional[float] = None) -> LemmaReport:
    """Check every separation and sandwich estimate the induction promises.

    All quantities are compared in the log domain; margins are (lhs-rhs)
    normalized by the magnitude of the sides, and a check passes when its
    worst margin is >= -1e-9.  With `delta` given, the run must have used
    h >= h_for_delta(delta) and the delta-weighted tail bounds are checked
    as well.

    Checks (K = number of lines, I_k = [x_{k-1}, x_k]):
      lines_later_below    l_m >= l_{m+1} + h on [x_0, x_{m-1}]
      lines_earlier_below  l_m >= l_{m-1} + h on [x_m, 0)
      segment_upper        l_k <= F on [x_0, 0) (tangency from below)
      segment_lower        F - h <= l_k on I_k (chord conditions)
      segment_tail_half    sum_{|m-k|>=2} a_m t^{delta_m} < 1/2 a_k t^{delta_k} on I_k
      segment_upper_int    integer-exponent form of segment_upper
      segment_lower_int    a_k t^{e_k} >= (9/10) e^{-h} omega on I_k
      segment_tail_int     integer tail < (5/9) a_k t^{e_k} on I_k
      segment_tail_delta   tail < (delta/2) a_k t^{delta_k} on I_k
      segment_tail_delta_int  integer tail < (5 delta / 9) a_k t^{e_k} on I_k

    Each check is decided where it is extreme: line pairs at the ends of
    their ranges (x -> 0 as a limit, witness_x = 0), segment_upper at one
    tangency bracket per line (its integer form follows as e_k > delta_k:
    a state whose es[k] is not floor(delta_k) + 1 raises ValueError),
    the rest at the interval endpoints; only segment_upper's weight calls
    go line by line (_tangency_bracket).  basis "convexity" (F convex by
    construction) makes a pass a proof up to the slack: F - l_k and every
    log-sum-exp of lines are convex, so the raw margins of segment_lower*,
    segment_tail_* and segment_tail_delta* are concave in x and these
    checks use the two endpoints alone, in O(K) work, whatever
    `samples_per_interval` says.  Under basis "sampled" they take
    `samples_per_interval` points per interval, endpoints included, in
    O(K * samples) work, and so does segment_upper*, against the lines
    l_{k-1}, l_k, l_{k+1} on I_k (the line-pair checks put the others
    below them), and at x_K / 2^j, j = 1..8, against l_K; its margin is the
    smaller of these and the bracket bound.  The report records the count
    used.
    """
    if samples_per_interval < 2:
        raise ValueError("samples_per_interval must be at least 2")
    check_state_matches(state, w)
    check_exponents(state.es, state.deltas)
    if delta is not None:
        check_gap(state.params.h, delta)

    h = state.params.h
    xs = np.asarray(state.xs)
    K = len(state.lines)
    basis = "convexity" if is_known_convex(w) else "sampled"
    n = 2 if basis == "convexity" else samples_per_interval
    deltas = np.asarray(state.deltas)
    log_as = np.asarray(state.log_as)
    es = np.asarray(state.es, dtype=float)
    ks = np.arange(1, K + 1)

    brackets = np.fromiter(chain.from_iterable(
        _tangency_bracket(w, line, x_lo, x_hi, state.xs[0])
        for line, x_lo, x_hi in zip(state.lines, state.xs, state.xs[1:])),
        float, 6 * K).reshape(K, 6).T
    lb, c, f_c = _tangency_bounds(log_as, deltas, brackets), brackets[1], brackets[4]

    # line pairs (l_i, l_{i+1}) in row i, at the two ends of each range
    i = np.arange(K - 1)
    later_x = np.stack([np.full(K - 1, xs[0]), xs[:K - 1]], axis=1)
    earlier_x = np.stack([xs[2:], np.zeros(K - 1)], axis=1)

    def pairs(slopes):
        def at(j, x):
            return log_as[j, None] + slopes[j, None] * x
        return ((at(i, later_x), at(i + 1, later_x)),
                (at(i + 1, earlier_x), at(i, earlier_x)))

    later, earlier = pairs(deltas)
    checks = [
        _worst("lines_later_below", normalized_margins(later[0], later[1] + h),
               later_x, i[:, None] + 1),
        _worst("lines_earlier_below", normalized_margins(earlier[0], earlier[1] + h),
               earlier_x, i[:, None] + 2)]
    # per exponent form: slopes, name suffix, tail name, lower shift, tail
    # factor; the smallest separation gap of each form bounds its tails
    forms = [(deltas, "", "segment_tail_half", -h, 0.5),
             (es, "_int", "segment_tail_int", math.log(T0_INTEGER_ESTIMATES) - h, 5.0 / 9.0)]
    gaps = [min(np.min(hi - lo, initial=math.inf) for hi, lo in pairs(s)) for s in (deltas, es)]

    # Sampled checks, in blocks of intervals (row k-1 is I_k), keep each
    # interval's minimum; F is evaluated once per distinct point.
    row_min, row_x = {}, {}

    def record(name, margins):
        row_min.setdefault(name, np.empty(K))[k] = margins.min(axis=1)
        row_x.setdefault(name, np.empty(K))[k] = pts[np.arange(k.size), margins.argmin(axis=1)]

    f_start = w.big_f(float(xs[0]))
    rows = max(1, _TAIL_BLOCK // (2 * _TAIL_WINDOW * n))
    for start in range(0, K, rows):
        k = np.arange(start, min(start + rows, K))
        pts = np.linspace(xs[k], xs[k + 1], n, axis=1)
        f_rest = np.fromiter((w.big_f(float(x)) for x in pts[:, 1:].ravel()), float,
                             k.size * (n - 1)).reshape(k.size, n - 1)
        f_pts = np.column_stack([np.r_[f_start, f_rest[:-1, -1]], f_rest])
        f_start = f_rest[-1, -1]
        for (slopes, suffix, tail_name, lower_c, tail_c), gap in zip(forms, gaps):
            lk = log_as[k, None] + slopes[k, None] * pts
            lse = _tail_log_bound(k, pts, log_as, slopes, gap)
            record("segment_lower" + suffix, normalized_margins(lk, f_pts + lower_c))
            if basis == "sampled":  # the lines that can top F on I_k
                near = [log_as[j, None] + slopes[j, None] * pts
                        for j in (np.maximum(k - 1, 0), np.minimum(k + 1, K - 1))]
                record("segment_upper" + suffix,
                       normalized_margins(f_pts, np.maximum(lk, np.maximum(*near))))
            record(tail_name, normalized_margins(math.log(tail_c) + lk, lse))
            if delta is not None:
                record("segment_tail_delta" + suffix,
                       normalized_margins(math.log(tail_c * delta) + lk, lse))

    def sampled(name, mask=slice(None)):
        return _worst(name, row_min[name][mask], row_x[name][mask], ks[mask], n)

    has_tail = (ks >= 3) | (ks <= K - 2)  # a line two or more indices away
    if basis == "sampled":  # toward 0 past x_K, where l_K tops the other lines
        ext_x = xs[-1] / 2.0 ** np.arange(1, 9)
        ext_f = np.array([w.big_f(float(x)) for x in ext_x])
    for slopes, suffix, tail_name, _, _ in forms:
        name = "segment_upper" + suffix
        upper = lb / np.maximum(1.0, np.maximum(np.abs(f_c), np.abs(log_as + slopes * c)))
        upper_check = _worst(name, upper, c, ks)
        if basis == "sampled":  # without convexity the samples may undercut the brackets
            ext = normalized_margins(ext_f, log_as[-1] + slopes[-1] * ext_x)
            upper_check = replace(
                _worst(name, np.r_[upper, row_min[name], ext], np.r_[c, row_x[name], ext_x],
                       np.r_[ks, ks, np.full(ext_x.size, K)]),
                n_points=K * (n + 1) + ext_x.size)
        checks += [upper_check, sampled("segment_lower" + suffix), sampled(tail_name, has_tail)]
    if delta is not None:
        checks += [sampled("segment_tail_delta", has_tail),
                   sampled("segment_tail_delta_int", has_tail)]
    checks = tuple(checks)
    return LemmaReport(
        checks=checks,
        passed=all(c.passed for c in checks),
        samples_per_interval=n,
        delta=delta,
        basis=basis,
    )
