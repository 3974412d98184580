"""Converse direction: maximum-modulus profiles, three-circles convexity,
and the lower convex envelope decision for "equivalent to a log-convex
weight".

By Hadamard's three-circles theorem, log max_{|z|=r} |f(r e^{i.})| is a
convex function of log r for holomorphic f, and sums of log-convex
functions stay log-convex.  So if a radial weight is comparable to a sum
of holomorphic moduli, its profile F(x) = log omega(e^x) stays within a
bounded band of a convex function.  The decision procedure computes the
lower convex hull of sampled F and measures that band: a bounded gap g
certifies equivalence with constant e^g, and the hull itself is a valid
log-convex surrogate to feed back into the construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import exp_or_inf, logsumexp
from .weight_model import WeightFunction, weight_from_knots

# Discrete convexity tolerance for sampled three-circles checks; absorbs
# the angle-grid error of the sampled maximum.
HADAMARD_TOL = 1e-7

# Default cap on the envelope gap: equivalence constants up to e^50.
GAP_BOUND = 50.0

_ADAPTIVE_START = 64
_ADAPTIVE_CAP = 1 << 16
_ADAPTIVE_TOL = 1e-9


def _log_abs_values(f: Callable, zs: np.ndarray) -> np.ndarray:
    """log|f| on an array of points.  f takes the whole array and returns
    an array of its shape, of complex values or of ScaledComplex.  A NaN
    value raises: it is neither zero nor a modulus to maximize."""
    arr = np.asarray(f(zs))
    if arr.shape != zs.shape:
        raise ValueError(f"callable returned shape {arr.shape} for points of shape {zs.shape}")
    if arr.dtype == object:
        logs = np.array([v.log_abs for v in arr.ravel()], dtype=float).reshape(zs.shape)
    else:
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(arr))
    if np.isnan(logs).any():
        raise ValueError("callable returned NaN")
    return logs


@functools.lru_cache(maxsize=32)
def _unit_circle(n: int) -> np.ndarray:
    """The n-th roots of unity e^{2 pi i j / n}, built once per n and read
    only.  Index 2j of the 2n-circle is index j of the n-circle bit for
    bit: 2 pi (2j) / (2n) rounds as 2 pi j / n, since doubling is exact."""
    circle = np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
    circle.flags.writeable = False
    return circle


def _sampled_maxima(f: Callable, rs: np.ndarray, circle: np.ndarray) -> np.ndarray:
    """log max_j |f(r circle[j])| for every r in rs, with the radii split so
    that no call of f gets more than _ADAPTIVE_CAP points (a single circle
    may have more).  circle is a set of unit points: a whole circle, or
    the new midpoints of a doubled one."""
    step = max(1, _ADAPTIVE_CAP // circle.size)
    return np.concatenate(
        [np.max(_log_abs_values(f, rs[i:i + step, None] * circle), axis=1)
         for i in range(0, rs.size, step)])


def _log_max_moduli(f: Callable, rs, theta_count: int):
    """log max |f| on the circle |z| = r for every radius, and the largest
    angle count used.

    theta_count > 0 samples every circle at that many angles.  theta_count
    0 refines: from _ADAPTIVE_START angles, doubling, each radius stops once
    two successive maxima agree within _ADAPTIVE_TOL, and every radius stops
    at _ADAPTIVE_CAP.  The n-angle grid is the even half of the 2n-angle
    grid, so each doubling calls f only on the n new midpoints (odd
    indices) of the radii still refining, together, and takes the larger
    of the old maximum and the midpoints' maximum: every angle is
    evaluated once, with the values of sampling all 2n afresh.
    """
    rs = np.asarray(rs, dtype=float)
    if theta_count and theta_count < 16:
        raise ValueError("theta_count must be at least 16")
    outside = rs[~((rs >= 0.0) & (rs < 1.0))]
    if outside.size:
        raise ValueError(f"r={outside[0]} outside [0, 1)")
    n = theta_count or _ADAPTIVE_START
    values = _sampled_maxima(f, rs, _unit_circle(n))
    active = np.arange(0 if theta_count else rs.size)
    while active.size and n < _ADAPTIVE_CAP:
        n *= 2
        cur = np.maximum(values[active],
                         _sampled_maxima(f, rs[active], _unit_circle(n)[1::2]))
        with np.errstate(invalid="ignore"):  # -inf - -inf: never settled
            settled = np.abs(cur - values[active]) < _ADAPTIVE_TOL
        values[active] = cur
        active = active[~settled]
    return values, n


def max_modulus(f: Callable, r: float, theta_count: int) -> float:
    """log max_j |f(r e^{2 pi i j / theta_count})|."""
    if theta_count < 16:
        raise ValueError("theta_count must be at least 16")
    return float(_log_max_moduli(f, [r], theta_count)[0][0])


def max_modulus_adaptive(f: Callable, r: float):
    """Double the angle count from 64 until two successive values of log M
    agree within 1e-9, or up to 2^16 angles.  Returns (log M,
    theta_count_used)."""
    values, n = _log_max_moduli(f, [r], 0)
    return float(values[0]), n


@dataclass(frozen=True)
class HadamardReport:
    passed: bool
    min_second_diff: float
    witness_r: Optional[float]
    n_functions: int
    r_count: int
    theta_count: int
    tol: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def hadamard_check(fs: Sequence[Callable], r_grid, theta_count: int = 0,
                   tol: float = HADAMARD_TOL) -> HadamardReport:
    """Discrete three-circles check of S(r) = sum_m M_{|f_m|}(r).

    Requires f_m(0) != 0 for every function (the standard normalization:
    a modulus sum that vanishes at the origin cannot match a positive
    radial weight there, and zero adjustment removes such zeros) and a
    log-uniform radius grid with at least 3 points; verifies every raw
    second difference of log S against log r is >= -tol.  theta_count 0
    selects adaptive angle refinement.
    """
    rs = np.asarray(r_grid, dtype=float)
    if not fs:
        raise ValueError("need at least one function")
    if rs.size < 3:
        raise ValueError("r_grid needs at least 3 points")
    if np.any(rs <= 0) or np.any(rs >= 1) or np.any(np.diff(rs) <= 0):
        raise ValueError("r_grid must be strictly increasing inside (0, 1)")
    us = np.log(rs)
    du = np.diff(us)
    if np.max(du) - np.min(du) > 1e-9 * np.max(du):
        raise ValueError("r_grid must be uniform in log r")
    for m, f in enumerate(fs):
        if _log_abs_values(f, np.zeros(1, dtype=complex))[0] == -math.inf:
            raise ValueError(f"function {m} vanishes at 0")

    profiles = [_log_max_moduli(f, rs, theta_count) for f in fs]
    log_s = logsumexp(np.array([values for values, _ in profiles]), axis=0)
    d2 = log_s[2:] - 2.0 * log_s[1:-1] + log_s[:-2]
    i = int(np.argmin(d2))
    return HadamardReport(
        passed=bool(d2[i] >= -tol),
        min_second_diff=float(d2[i]),
        witness_r=float(rs[i + 1]),
        n_functions=len(fs),
        r_count=int(rs.size),
        theta_count=max(n for _, n in profiles),
        tol=tol,
    )


def random_polynomials(count: int, max_degree: int, seed: int):
    """Seeded random polynomials with coefficients in the complex unit box
    and constant term 1, as ascending coefficient arrays."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        d = int(rng.integers(1, max_degree + 1))
        c = rng.uniform(-1.0, 1.0, size=d + 1) + 1j * rng.uniform(-1.0, 1.0, size=d + 1)
        c[0] = 1.0
        polys.append(c)
    return polys


class PolynomialCallable:
    """z -> sum_k coeffs[k] z^k on a scalar or an array, by Horner's rule
    in place.  It starts and steps as numpy.polynomial.polynomial.polyval
    does (c[-1] + z*0, then c[k] + acc*z), so the values agree bit for
    bit, without a new array per step."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.array(coeffs, ndmin=1)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("need a non-empty 1-d coefficient array")
        self.coeffs = c + 0.0 if c.dtype.kind in "biu" else c

    def __call__(self, z):
        c = self.coeffs
        acc = c[-1] + z * 0
        for k in range(c.size - 2, -1, -1):
            acc *= z
            acc += c[k]
        return acc


def polynomial_callable(coeffs) -> PolynomialCallable:
    """The polynomial with ascending coefficients coeffs, as a callable
    that takes the arrays of the max-modulus sampler and keeps its
    coefficients in `.coeffs`."""
    return PolynomialCallable(coeffs)


# -- lower convex envelope ----------------------------------------------------


@dataclass(frozen=True)
class EnvelopeResult:
    """Lower convex hull of sampled F, the worst gap F - hull, and the
    bounded-gap equivalence verdict."""

    hull_knots: tuple  # ((x, F_hull(x)), ...)
    gap: float
    gap_witness: Optional[float]
    equivalent: bool
    gap_bound: float

    def hull_value(self, x):
        xs = np.array([k[0] for k in self.hull_knots])
        ys = np.array([k[1] for k in self.hull_knots])
        x = np.asarray(x, dtype=float)
        # np.interp clamps; extend the end segments linearly instead.
        y = np.interp(x, xs, ys)
        left = x < xs[0]
        right = x > xs[-1]
        if xs.size >= 2:
            s0 = (ys[1] - ys[0]) / (xs[1] - xs[0])
            s1 = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            y = np.where(left, ys[0] + s0 * (x - xs[0]), y)
            y = np.where(right, ys[-1] + s1 * (x - xs[-1]), y)
        return y if y.shape else float(y)

    def to_json_dict(self) -> dict:
        return {
            "gap": self.gap,
            "gap_witness": self.gap_witness,
            "equivalent": self.equivalent,
            "gap_bound": self.gap_bound,
            "hull_knots": [[x, y] for x, y in self.hull_knots],
        }


def _lower_hull(xs: np.ndarray, ys: np.ndarray):
    """Monotone-chain lower hull of points already sorted by x.
    Collinear middle points are dropped, so re-hulling the hull is exact."""
    hull = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep (x1, y1) only if it lies strictly below the chord
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0:
                break
            hull.pop()
        hull.append((float(x), float(y)))
    return hull


def log_convex_envelope(w: WeightFunction, x_grid,
                        gap_bound: float = GAP_BOUND) -> EnvelopeResult:
    """Lower convex hull of {(x, F(x))} over the grid and the decision
    gap = max(F - hull) <= gap_bound."""
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 3:
        raise ValueError("x_grid needs at least 3 points")
    if np.any(xs >= 0.0) or np.any(np.diff(xs) <= 0.0):
        raise ValueError("x_grid must be strictly increasing and negative")
    ys = np.array([w.big_f(float(x)) for x in xs])
    if not np.all(np.isfinite(ys)):
        raise OverflowError("F is not finite on the whole grid")
    knots = _lower_hull(xs, ys)
    hx = np.array([k[0] for k in knots])
    hy = np.array([k[1] for k in knots])
    hull_at = np.interp(xs, hx, hy)
    gaps = ys - hull_at
    i = int(np.argmax(gaps))
    gap = max(float(gaps[i]), 0.0)
    return EnvelopeResult(
        hull_knots=tuple(knots),
        gap=gap,
        gap_witness=float(xs[i]),
        equivalent=bool(gap <= gap_bound),
        gap_bound=gap_bound,
    )


def hull_weight(result: EnvelopeResult, strictify: float = 0.0) -> WeightFunction:
    """The hull as a weight: a log-convex surrogate for the weight that
    produced it, optionally strictified (adds strictify * e^x to F) so the
    tangent construction can run on it."""
    return weight_from_knots(result.hull_knots, strictify=strictify)


# -- equivalence constants ----------------------------------------------------


@dataclass(frozen=True)
class EquivalenceConstants:
    c1: float
    c2: float
    log_c1: float
    log_c2: float
    unbounded: bool


def equivalence_constants(u, v, log_inputs: bool = False,
                          cap_log: float = GAP_BOUND) -> EquivalenceConstants:
    """Two-sided constants C1 <= v/u <= C2 over shared samples, computed in
    the log domain; flagged unbounded when the log-ratio spread exceeds
    cap_log."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.size == 0:
        raise ValueError("u and v must be non-empty samples on a shared grid")
    if log_inputs:
        lu, lv = u, v
    else:
        if np.any(u <= 0.0) or np.any(v <= 0.0):
            raise ValueError("samples must be positive")
        lu, lv = np.log(u), np.log(v)
    ratios = lv - lu
    lo = float(ratios.min())
    hi = float(ratios.max())
    return EquivalenceConstants(
        c1=exp_or_inf(lo),
        c2=exp_or_inf(hi),
        log_c1=lo,
        log_c2=hi,
        unbounded=bool(hi - lo > cap_log),
    )
