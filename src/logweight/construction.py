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

Both solves are bisection on residual functions that are strictly
monotone whenever F is strictly convex, so every step is deterministic
and costs O(log(1/root_tol)) evaluations of F and F'.

A weight is duck-typed: this module calls only `big_f(x)`,
`big_f_prime(x)` and `big_f_and_prime(x)` (which returns the pair
(F(x), F'(x)) with the bits of the two separate calls) at x < 0, and
reads an optional `family` to name the lemma basis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .numerics import MARGIN_SLACK, NEG_INF, logsumexp, normalized_margins
from .weight_model import (STRICTNESS_TOL, ConvexityReport, WeightFunction,
                           _slope_report, is_known_convex)

# Threshold t_0 above which the integer-exponent estimates keep the 9/10
# and 5/9 constants used by the verifier (they need 1/t < 10/9).
T0_INTEGER_ESTIMATES = 0.9

_TAIL_WINDOW = 8  # lines summed on each side of k in the lemma tail sums
_TAIL_BLOCK = 1 << 14  # float64 tail terms per block of intervals (128 kB)
_XI_BRACKET = 1e-12  # half-width, relative to |xi|, tried around a stored xi
_X_FLOOR = -2.0 ** -53  # x halves toward 0 no further: exp(x) is the last float < 1

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


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs of the induction.  h >= 2 is required by the separation
    estimates; exp(x0) > 9/10 is recommended so the integer-exponent
    estimates keep their stated constants."""

    x0: float
    h: float = 2.0
    k_max: int = 500
    t_stop: float = 0.9999
    root_tol: float = 1e-13
    auto_restart: bool = False

    def __post_init__(self):
        if not self.h >= 2.0:
            raise ValueError(f"h={self.h} must be >= 2")
        if not self.x0 < 0.0:
            raise ValueError(f"x0={self.x0} must be negative")
        if not 0.0 < self.t_stop < 1.0:
            raise ValueError(f"t_stop={self.t_stop} must lie in (0, 1)")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if not 0.0 < self.root_tol < 1e-3:
            raise ValueError("root_tol must lie in (0, 1e-3)")


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
    """The full output of a run: abscissas (xs includes x0), radii
    ts = exp(xs), lines l_1..l_K and integer exponents e_k = floor(delta_k)+1."""

    params: ConstructionParams
    xs: tuple
    ts: tuple
    lines: tuple
    es: tuple

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
        xs = tuple(float(x) for x in d["xs"])
        params = ConstructionParams(x0=float(d["x0"]), h=float(d["h"]))
        lines = tuple(TangentLine(delta=float(dd), log_a=float(la))
                      for dd, la in zip(d["deltas"], d["log_as"]))
        return ConstructionState(
            params=params,
            xs=xs,
            ts=tuple(math.exp(x) for x in xs),
            lines=lines,
            es=tuple(int(e) for e in d["es"]),
        )


def _bisect(fn, lo, hi, positive_at_lo, tol):
    # The tolerance is relative to the abscissa magnitude: near 0 the
    # slopes of F blow up like 1/|x| or faster, so an absolute-in-x stop
    # would leave function residuals that grow without bound.  Both the
    # bracket width and the tolerance scale with |x|, so the iteration
    # count stays near log2(1/tol) regardless of scale; returns the bracket.
    for _ in range(200):
        if hi - lo <= tol * abs(hi):
            break
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def next_tangent(w: WeightFunction, x_prev: float, h: float,
                 root_tol: float = 1e-13):
    """One induction step: the tangent line through (x_prev, F(x_prev) - h)
    and the next crossing abscissa.

    Returns (TangentLine, x_next).  Solved in two stages:

    (a) the tangency abscissa xi is the root of
        G(xi) = F(xi) + F'(xi)(x_prev - xi) - F(x_prev) + h,
        which equals h at xi = x_prev and is strictly decreasing in xi
        (G' = F''(xi)(x_prev - xi) < 0 under strict convexity);
    (b) x_next > xi is the root of H(x) = F(x) - h - l(x), which equals
        -h at xi and is strictly increasing there.

    Both roots are bracketed by geometrically halving the abscissa toward
    0, no further than the float floor _X_FLOOR, and then bisected to the
    relative tolerance root_tol.
    """
    if x_prev >= 0.0:
        raise ValueError("x_prev must be negative")
    f_prev = w.big_f(x_prev)
    if not math.isfinite(f_prev):
        raise OverflowError(f"F({x_prev}) is not finite; start farther from 0")

    def big_g(xi):
        f, fp = w.big_f_and_prime(xi)
        if not (math.isfinite(f) and math.isfinite(fp)):
            return NEG_INF
        return f + fp * (x_prev - xi) - f_prev + h

    # Stage (a): bracket the tangency.
    lo, g_lo = x_prev, h
    hi = x_prev / 2.0
    decreased = False
    while True:
        if hi > _X_FLOOR:
            if decreased:
                raise SlowGrowthError(
                    "weight grows too slowly (or is not unbounded): no tangent "
                    f"line drops {h} below F left of the float floor x = {_X_FLOOR}")
            raise NotStrictlyConvexError(
                "weight profile is not strictly convex: the tangent never "
                "separates from the chord")
        g_hi = big_g(hi)
        if g_hi > g_lo + 1e-9 * max(1.0, abs(g_lo)):
            raise NotStrictlyConvexError(
                f"weight profile is not strictly convex near x = {hi}")
        if g_hi < g_lo - 1e-12 * max(1.0, abs(g_lo)):
            decreased = True
        if g_hi <= 0.0:
            break
        lo, g_lo = hi, g_hi
        hi = hi / 2.0
    xi = 0.5 * sum(_bisect(big_g, lo, hi, positive_at_lo=True, tol=root_tol))
    f_xi, delta = w.big_f_and_prime(xi)
    log_a = f_xi - delta * xi
    if not (delta > 0.0 and math.isfinite(log_a)):
        raise ConstructionError(f"degenerate tangent at xi={xi}")

    def big_h(x):
        f = w.big_f(x)
        if not math.isfinite(f):
            return math.inf
        return f - h - (log_a + delta * x)

    # Stage (b): bracket the next crossing.
    lo2 = xi
    hi2 = xi / 2.0
    while True:
        if hi2 > _X_FLOOR:
            raise SlowGrowthError(
                "weight grows too slowly (or is not unbounded): F - h never "
                f"crosses the tangent line again left of the float floor x = {_X_FLOOR}")
        if big_h(hi2) >= 0.0:
            break
        lo2 = hi2
        hi2 = hi2 / 2.0
    x_next = 0.5 * sum(_bisect(big_h, lo2, hi2, positive_at_lo=False, tol=root_tol))
    return TangentLine(delta=delta, log_a=log_a, xi=xi), x_next


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
    report = _slope_report(np.array(finite), np.array(slopes), STRICTNESS_TOL)
    if not report.is_strictly_convex:
        raise NotStrictlyConvexError(
            "weight is not strictly convex on the gate grid "
            f"(min slope gap {report.min_slope_gap:.3g}, first violation near "
            f"x = {report.violation_points[0]:.6g})")
    return report


def run_construction(w: WeightFunction, params: ConstructionParams) -> ConstructionState:
    """Run the induction until t_k > t_stop or k_max lines are placed.

    Preconditions: F strictly convex on the gate grid over [x0, x0*1e-6].
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
        line, x_next = next_tangent(w, x_prev, params.h, params.root_tol)
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
        ts=tuple(math.exp(x) for x in xs),
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


def _min_above_line(w, line, x_lo, x_hi, x0, tol):
    """Certified lower bound of g = F - l over [x0, 0), the point c it is
    attached to, and F(c).  g is convex with its minimum where F' = slope,
    bracketed around the stored xi when the F' signs confirm it, else
    bisected from [x_lo, x_hi] (widened to [x0, x_lo], or halved toward 0
    down to _X_FLOOR as in next_tangent) to the relative tolerance tol.
    On the bracket [p, q] with midpoint c the secant bounds give
    g >= 2 g(c) - max g(p, c, q), outside it min(g(p), g(q)).  F at p and
    q comes from the fused (F, F') calls of the sign tests, so the stored
    xi costs three evaluations of the weight."""
    fused = {}

    def psi(x):
        fused[x] = w.big_f_and_prime(x)
        return fused[x][1] - line.delta

    xi = line.xi
    if xi is not None and psi(xi * (1.0 + _XI_BRACKET)) <= 0.0 <= psi(xi * (1.0 - _XI_BRACKET)):
        lo, hi = xi * (1.0 + _XI_BRACKET), xi * (1.0 - _XI_BRACKET)
    else:
        lo, hi = x_lo, x_hi
        if psi(lo) > 0.0:
            lo, hi = x0, lo
        while psi(hi) < 0.0 and hi < _X_FLOOR:
            lo, hi = hi, hi / 2.0
        if psi(lo) >= 0.0:  # F - l increases from x0 on
            hi = lo
        elif psi(hi) < 0.0:  # F - l still decreases at the floor of |x|
            lo = hi
        else:
            lo, hi = _bisect(psi, lo, hi, positive_at_lo=False, tol=tol)
    c = 0.5 * (lo + hi)
    f_lo, f_c, f_hi = (fused[x][0] if x in fused else w.big_f(x) for x in (lo, c, hi))
    g_lo, g_c, g_hi = f_lo - line.value(lo), f_c - line.value(c), f_hi - line.value(hi)
    return min(g_lo, g_hi, 2.0 * g_c - max(g_lo, g_c, g_hi)), c, f_c


def _tail_log_bound(k, pts, log_as, slopes, gap):
    """Log upper bound of sum_{|m-k|>=2} exp(log_a_m + slope_m x) at `pts`
    on I_{k+1} (0-based k per row): lines within _TAIL_WINDOW of k are
    summed; past each window edge every line lies `gap` below its
    neighbour (the separation checks), so the rest is at most the edge
    line times e^{-gap} / (1 - e^{-gap}).  -inf: empty; +inf: gap <= 0."""
    K, W = log_as.size, _TAIL_WINDOW
    idx = k[:, None] + np.r_[-W:-1, 2:W + 1, -W, W]  # the window, then its edges
    valid = (idx >= 0) & (idx < K)
    valid[:, -2], valid[:, -1] = k - W >= 1, k + W <= K - 2
    idx = np.clip(idx, 0, K - 1)
    terms = log_as[idx][:, :, None] + slopes[idx][:, :, None] * pts[:, None, :]
    terms[:, -2:] += -gap - math.log(-math.expm1(-gap)) if gap > 0.0 else math.inf
    terms[~valid] = -np.inf
    return logsumexp(terms, axis=1)


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
        if abs(lhs - rhs) > 1e-6 * max(1.0, abs(rhs)):
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
    tangency bracket per line (its integer form follows as e_k > delta_k),
    the rest at the interval endpoints.  basis "convexity" (F convex by
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
    if not state.lines:
        raise ValueError("state has no lines")
    if delta is not None:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta={delta} outside (0, 1]")
        need = h_for_delta(delta)
        if state.params.h < need - 1e-12:
            raise ValueError(
                f"state was built with h={state.params.h} < h_for_delta({delta})"
                f" = {need}")

    h = state.params.h
    xs = np.asarray(state.xs)
    K = len(state.lines)
    basis = "convexity" if is_known_convex(w) else "sampled"
    n = 2 if basis == "convexity" else samples_per_interval
    deltas = np.asarray(state.deltas)
    log_as = np.asarray(state.log_as)
    es = np.asarray(state.es, dtype=float)
    ks = np.arange(1, K + 1)

    check_state_matches(state, w)
    lb, c, f_c = np.array([
        _min_above_line(w, line, xs[k], xs[k + 1], xs[0], state.params.root_tol)
        for k, line in enumerate(state.lines)]).T

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
