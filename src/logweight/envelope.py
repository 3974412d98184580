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

The three-circles check reads max |f| on each circle by one of two rules,
and its report names the basis.  A polynomial (PolynomialCallable, or a
wrapper that returns its output unchanged) is bracketed: its maximum lies
between a value attained at a point and a Bernstein upper bound (basis
"bracket").  Any other callable is sampled on refined angle grids, a
lower estimate with no error bound: a sampling claim (basis "sampled").
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .numerics import logsumexp
from .series import ScaledArray
from .weight_model import WeightFunction

# Discrete convexity tolerance of the three-circles check.  Under basis
# "sampled" it absorbs the angle-grid error of sampled maxima, which
# nothing bounds; under basis "bracket" the maxima are refined to rounding
# and the report bounds their error by log_bracket_width.
HADAMARD_TOL = 1e-7

# Default cap on the envelope gap: F within 50 of its hull, so omega
# within a factor e^50 of the log-convex hull weight.
GAP_BOUND = 50.0

_ADAPTIVE_START = 64
_ADAPTIVE_CAP = 1 << 16
_ADAPTIVE_TOL = 1e-9

_NEWTON_STEPS = 8
_NEWTON_BLOCK = 1 << 14  # points per Newton array; a run holds about four
_NEWTON_TOL = 1e-9  # in cells of the polynomial's sample grid
_EPS = float(np.finfo(float).eps)

# (PolynomialCallable, output) of each polynomial evaluated during
# hadamard_check's call of a function at 0; None outside that call.
_POLYNOMIAL_CALLS: ContextVar[Optional[list]] = ContextVar("_POLYNOMIAL_CALLS",
                                                           default=None)


class _MaxModuli(NamedTuple):
    values: np.ndarray  # log max |f| per radius
    theta_count: int  # the largest angle count sampled
    upper: Optional[np.ndarray]  # log upper bracket per radius; None: sampled
    converged: bool  # no refinement stopped at a cap or a step limit


def _log_abs_values(values, zs: np.ndarray) -> np.ndarray:
    """log|f| from values = f(zs).  f takes the whole array of points and
    returns values of its shape, complex or a ScaledArray (as ball slices
    do).  A NaN value raises: it is neither zero nor a modulus to maximize."""
    with np.errstate(divide="ignore"):
        logs = values.log_abs if isinstance(values, ScaledArray) else np.log(np.abs(values))
    if logs.shape != zs.shape:
        raise ValueError(f"callable returned shape {logs.shape} for points of shape {zs.shape}")
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
    blocks = (rs[i:i + step, None] * circle for i in range(0, rs.size, step))
    return np.concatenate([np.max(_log_abs_values(f(zs), zs), axis=1) for zs in blocks])


def _log_max_moduli(f: Callable, rs, theta_count: int) -> _MaxModuli:
    """log max |f| on the circle |z| = r for every radius, by the sampled
    rule, for any callable: a sampling claim, with no upper bound.  The
    bracket of polynomials is _polynomial_maxima, and hadamard_check is the
    one place that chooses between the two.

    theta_count > 0 samples every circle at that many angles.  theta_count
    0 refines: from _ADAPTIVE_START angles, doubling, each radius stops once
    two successive maxima agree within _ADAPTIVE_TOL, and every radius stops
    at _ADAPTIVE_CAP; `converged` says whether every radius stopped by
    agreement.  The n-angle grid is the even half of the 2n-angle grid, so
    each doubling calls f only on the n new midpoints (odd indices) of the
    radii still refining, together, and takes the larger of the old maximum
    and the midpoints' maximum: every angle is evaluated once, with the
    values of sampling all 2n afresh.  Agreement of nested grids is no
    bound: the new midpoints can miss a peak the old grid missed too.
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
    return _MaxModuli(values, n, None, not active.size)


def _polynomial_maxima(polys: Sequence[np.ndarray], rs: np.ndarray) -> list[_MaxModuli]:
    """Bracketed log max |p| on |z| = r, for each coefficient array c in
    polys: p(z) = sum_k c[k] z^k of degree n, the index of its last
    nonzero coefficient.

    Samples.  On the circle, P(theta) = p(r e^{i theta}) = sum_k b_k
    e^{ik theta} with b_k = c_k r^k, a trigonometric polynomial of degree
    n.  One inverse FFT of b, zero-padded to the power of two
    N >= max(64, 8(n+1)), gives P at the angles 2 pi j / N on a whole
    block of circles.

    Upper bracket.  Let M = max |P|, attained at theta*, and g = |P|^2.
    Bernstein's inequality gives |P''| <= n^2 M, so
    g'' = 2 (|P'|^2 + Re(conj(P) P'')) >= -2 n^2 M^2, while g'(theta*) = 0.
    The sample nearest theta* lies within pi/N of it, so there
    g >= M^2 (1 - (pi n/N)^2), and M <= max_sample / sqrt(1 - (pi n/N)^2).
    At n = 30, N = 256 that is 0.073 wide in log; the first-order bound
    max_sample / (1 - pi n/N) would be 0.46 wide.

    Value.  The same argument puts the sample nearest every maximiser at
    or above the floor |P|^2 >= max_sample^2 (1 - (pi n/N)^2).  Every
    discrete local maximum of the samples on that floor (the first sample
    of a run of equal ones) brackets a local maximum of g within its two
    neighbouring cells, and is refined there by Newton's method on g' = 0
    (_newton_maxima).  Equal samples all round mean |P| is constant:
    |P|^2, a trigonometric polynomial of degree n, takes one value at
    N > 2n equispaced points only if it is constant.  The value is the
    largest |P| computed, attained at a point, so it is a lower bound:
    M lies in [value, upper], up to rounding.

    The Newton starts of all polynomials are refined together, their
    coefficient rows padded with zeros to the highest degree, in blocks of
    _NEWTON_BLOCK points.  The samples are taken in blocks of radii of at
    most _ADAPTIVE_CAP points (one circle may have more).
    """
    degrees = [int(np.flatnonzero(c)[-1]) if np.any(c) else 0 for c in polys]
    k = np.arange(max(degrees, default=0) + 1)
    padded = np.zeros((len(polys), k.size), dtype=complex)
    powers = rs[:, None] ** k
    tops = np.empty((len(polys), rs.size))
    # Newton starts per block of radii: flat (polynomial, radius) index,
    # angle and cell width; empty first entries let no starts concatenate
    grids, starts = [], [(np.empty(0, dtype=int), np.empty(0), np.empty(0))]
    for m, (c, n) in enumerate(zip(polys, degrees)):
        padded[m, :n + 1] = c[:n + 1]
        big_n = 1 << max(6, (8 * (n + 1) - 1).bit_length())
        shrink, cell = math.sqrt(1.0 - (math.pi * n / big_n) ** 2), 2.0 * math.pi / big_n
        grids.append((big_n, shrink))
        rows = max(1, _ADAPTIVE_CAP // big_n)
        for i in range(0, rs.size, rows):
            b = c[:n + 1] * powers[i:i + rows, :n + 1]
            mags = np.abs(np.fft.ifft(b, n=big_n, axis=1, norm="forward"))
            top = tops[m, i:i + rows] = mags.max(axis=1)
            row, col = np.nonzero((mags > np.roll(mags, 1, axis=1))
                                  & (mags >= np.roll(mags, -1, axis=1))
                                  & (mags >= shrink * top[:, None]))
            starts.append((m * rs.size + i + row, col * cell, np.full(row.size, cell)))
    index, theta, cells = (np.concatenate(part) for part in zip(*starts))
    values = tops.flatten()
    converged = np.ones(len(polys), dtype=bool)
    block = max(1, _NEWTON_BLOCK // k.size)
    for j in range(0, index.size, block):
        poly, radius = np.divmod(index[j:j + block], rs.size)
        b = (padded[poly] * powers[radius]).T
        best, rested = _newton_maxima(b, k, theta[j:j + block], cells[j:j + block])
        np.maximum.at(values, index[j:j + block], best)
        np.logical_and.at(converged, poly, rested)
    with np.errstate(divide="ignore"):
        return [_MaxModuli(np.log(value), big_n, np.log(top / shrink), bool(ok))
                for value, top, (big_n, shrink), ok
                in zip(values.reshape(tops.shape), tops, grids, converged)]


def _newton_maxima(b: np.ndarray, k: np.ndarray, theta: np.ndarray,
                   cell: np.ndarray):
    """Newton's method on g'(theta) = 0 for g = |P|^2, P(theta) =
    sum_k b[k, j] e^{ik theta}, from theta[j], vectorized over the columns j:
    g' = 2 Re(conj(P) P') and g'' = 2 (|P'|^2 + Re(conj(P) P'')), with P,
    P' and P'' the sums of b e^{ik theta} weighted by 1, ik and -k^2.  Run
    j stays within cell[j] of its start.  Where g'' >= 0 it steps a cell
    uphill; where g' is below its rounding error it stops.  Returns the
    largest |P| computed per run, and per run whether it came to rest
    (moved less than _NEWTON_TOL cells) within _NEWTON_STEPS evaluations:
    at a stationary point, or at the edge of its window with g still
    rising outward, which a start on a discrete local maximum allows only
    where neighbouring samples tie."""
    lo, hi = theta - cell, theta + cell
    weights = np.stack([np.ones(k.size), 1j * k, -(k * k)])
    abs_b = np.abs(b)
    slack = 2.0 * _EPS * abs_b.sum(axis=0) * (k @ abs_b)  # bounds g'/2's rounding
    best = np.zeros(theta.size)
    for _ in range(_NEWTON_STEPS):
        p, p1, p2 = weights @ (b * _unit_powers(theta, k.size))
        np.maximum(best, np.abs(p), out=best)
        conj_p = p.conj()
        half_g1 = (conj_p * p1).real
        half_g2 = (p1.conj() * p1 + conj_p * p2).real
        step = np.divide(-half_g1, half_g2, out=np.copysign(cell, half_g1),
                         where=half_g2 < 0.0)
        step[np.abs(half_g1) <= slack] = 0.0
        moved = np.minimum(np.maximum(theta + step, lo), hi)
        rested = np.abs(moved - theta) <= _NEWTON_TOL * cell
        if rested.all():
            break
        theta = moved
    return best, rested


def _unit_powers(theta: np.ndarray, count: int) -> np.ndarray:
    """e^{ik theta} for k < count, one row per k: the first `j` rows times
    e^{ij theta} give the next `j`, with e^{ij theta} squared in turn, so
    that only e^{i theta} needs an exponential."""
    powers = np.empty((count, theta.size), dtype=complex)
    powers[0] = 1.0
    unit, j = np.exp(1j * theta), 1
    while j < count:
        powers[j:2 * j] = powers[:min(j, count - j)] * unit
        unit, j = unit * unit, 2 * j
    return powers


@dataclass(frozen=True)
class HadamardReport:
    passed: bool
    min_second_diff: float
    witness_r: Optional[float]
    n_functions: int
    r_count: int
    theta_count: int
    tol: float
    basis: str  # "bracket": every maximum bracketed; "sampled": a sampling claim
    converged: bool
    log_bracket_width: Optional[float]  # widest log upper - log S; None if sampled

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

    `passed` is decided on the values of S either way; the basis says
    what they are.  Under basis "bracket" every function is a
    PolynomialCallable (or returns one's output, see _polynomial_behind)
    refined at theta_count 0, and each S(r) lies in
    [value, value * e^{log_bracket_width}], with `converged` saying every
    Newton run converged.  Under basis "sampled" some maximum is the
    largest of sampled values, a lower estimate with no bound on its
    error, and `converged` says every doubling stopped by agreement
    before 2^16 angles.
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
    fs = [_polynomial_behind(f, m) for m, f in enumerate(fs)]
    # the polynomials are bracketed in one batch, the rest one by one
    polys = {id(f): f.coeffs for f in fs
             if not theta_count and isinstance(f, PolynomialCallable)}
    bracketed = dict(zip(polys, _polynomial_maxima(list(polys.values()), rs)))
    profiles = [bracketed[id(f)] if id(f) in bracketed
                else _log_max_moduli(f, rs, theta_count) for f in fs]
    log_s = logsumexp(np.array([p.values for p in profiles]), axis=0)
    d2 = log_s[2:] - 2.0 * log_s[1:-1] + log_s[:-2]
    i = int(np.argmin(d2))
    bracketed = all(p.upper is not None for p in profiles)
    width = None
    if bracketed:
        log_upper = logsumexp(np.array([p.upper for p in profiles]), axis=0)
        width = float(np.max(log_upper - log_s))
    return HadamardReport(
        passed=bool(d2[i] >= -tol),
        min_second_diff=float(d2[i]),
        witness_r=float(rs[i + 1]),
        n_functions=len(fs),
        r_count=int(rs.size),
        theta_count=max(p.theta_count for p in profiles),
        tol=tol,
        basis="bracket" if bracketed else "sampled",
        converged=all(p.converged for p in profiles),
        log_bracket_width=width,
    )


def _polynomial_behind(f: Callable, m: int) -> Callable:
    """f, or the PolynomialCallable that f forwards to, once f(0) != 0 is
    checked.  A bare polynomial with finite coefficients is not called:
    Horner's rule gives coeffs[0] at 0.  A callable that returns a
    PolynomialCallable's own output array, unchanged, when called at 0 (a
    wrapper that counts or traces calls, say) is taken to be that
    polynomial, so that it gets the bracket too; the rest stay opaque."""
    zero = np.zeros(1, dtype=complex)
    calls = []
    token = _POLYNOMIAL_CALLS.set(calls)
    try:
        bare = isinstance(f, PolynomialCallable) and np.isfinite(f.coeffs).all()
        values = f.coeffs[:1] if bare else f(zero)
    finally:
        _POLYNOMIAL_CALLS.reset(token)
    if _log_abs_values(values, zero)[0] == -math.inf:
        raise ValueError(f"function {m} vanishes at 0")
    return next((p for p, out in calls if out is values), f)


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
    bit, without a new array per step.  Inside hadamard_check's call at 0
    it also records its output, so that a wrapper returning that output
    is known to be this polynomial."""

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
        calls = _POLYNOMIAL_CALLS.get()
        if calls is not None:
            calls.append((self, acc))
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
    bounded-gap equivalence verdict.  The hull is its knots, piecewise
    linear between them; weight_from_knots(hull_knots) is the hull weight."""

    hull_knots: tuple  # ((x, F_hull(x)), ...)
    gap: float
    gap_witness: Optional[float]
    equivalent: bool
    gap_bound: float

    def to_json_dict(self) -> dict:
        return {
            "gap": self.gap,
            "gap_witness": self.gap_witness,
            "equivalent": self.equivalent,
            "gap_bound": self.gap_bound,
            "hull_knots": [[x, y] for x, y in self.hull_knots],
        }


def _lower_hull(xs: list, ys: list):
    """Monotone-chain lower hull of points already sorted by x, given as
    lists of floats (plain floats keep the cross products off numpy
    scalars).  Collinear middle points are dropped, so re-hulling the hull
    is exact."""
    hull = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep (x1, y1) only if it lies strictly below the chord
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0:
                break
            hull.pop()
        hull.append((x, y))
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
    x_list = xs.tolist()
    f_list = list(map(w.big_f, x_list))
    ys = np.array(f_list)
    if not np.all(np.isfinite(ys)):
        raise OverflowError("F is not finite on the whole grid")
    knots = _lower_hull(x_list, f_list)
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
