"""Lacunary series assembly, stable evaluation, and certified growth bounds.

The tangent induction hands over positive coefficients in log form with
strictly increasing integer exponents.  Splitting by parity of the step
index gives two series G1 (odd steps) and G2 (even steps); on each radius
interval of the construction one of the two is dominated by a single term,
which yields the two-sided bound

    (2/5) e^{-h} omega(t) < |G1(z)| + |G2(z)| < 4 omega(t),   t0 < |z| < 1.

Coefficients reach exp(1e5) and beyond for fast weights, so every
evaluation factors out the largest term magnitude in the log domain and
sums mantissas of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .construction import ConstructionState
from .numerics import MARGIN_SLACK, NEG_INF, exp_or_inf, logsumexp, normalized_margins
from .weight_model import WeightFunction

# Terms this far (log scale) below the leading one cannot move a float64
# sum at 1e-12 relative accuracy even in million-term sums; they are dropped.
DROP_THRESHOLD = 200.0

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)

# Zero adjustment needs the tail of f1 to sum to at most this fraction of
# the leading term on |z| <= t0: then |f1| >= a_1/2 there, with a wide
# margin over rounding in the log-domain sum.
DOMINANCE_BOUND = 0.5

# Radii of a grid, or points of a batch, that share one kernel call.
_BLOCK = 256

# Term rows of one grid kernel call over a run of radii, unless a single
# radius needs more.  A construction has about 5 live terms per radius;
# on the deep 2000 x 256 sandwich grids 32 rows ran fastest of 8 to 256.
_RUN_ROWS = 32

# A term stays a grid candidate at a radius while its log is within
# _REACH of the largest there: 1 past DROP_THRESHOLD, far above the
# rounding of logs below _LOG_RANGE in magnitude (|log coeff| + e_0 |x|).
_REACH = DROP_THRESHOLD + 1.0
_LOG_RANGE = 2.0 ** 46

# Relative widening of the per-radius brackets of log(|G1| + |G2|) and of
# the margin ranges drawn from them: 2^9 units of rounding (2^-53), where
# the kernel's logs, sums and margins lose a few (see _log_sum_bounds).
_WIDEN = 2.0 ** -44


@dataclass(frozen=True)
class ScaledArray:
    """Complex values mantissa * exp(log_scale), elementwise over mantissa
    and log_scale arrays of one shape (0-d for a single value), with
    |mantissa| in [1, 2).

    Zero is represented by mantissa 0 and log_scale -inf.  Normalizing to
    a power-of-two window keeps the representation unique, so equality and
    serialization are stable.
    """

    mantissa: np.ndarray
    log_scale: np.ndarray

    @staticmethod
    def normalize(values: np.ndarray, log_scale: np.ndarray) -> "ScaledArray":
        """values * exp(log_scale) in the window.  |v| is np.hypot, the libm
        hypot behind Python's abs(complex), with its bits (inf past overflow,
        where abs raises; kernel sums stay below the live term count); log|m|
        in log_abs is math.log per value, as numpy's differs in the last bit."""
        k = np.frexp(np.hypot(values.real, values.imag))[1] - 1
        mantissa = np.empty_like(values)
        mantissa.real, mantissa.imag = np.ldexp(values.real, -k), np.ldexp(values.imag, -k)
        mantissa[values == 0] = 0.0
        return ScaledArray(mantissa, np.where(mantissa == 0, NEG_INF, log_scale + k * _LN2))

    @property
    def log_abs(self) -> np.ndarray:
        m = self.mantissa
        logs = [math.log(a) if a else NEG_INF for a in np.hypot(m.real, m.imag).ravel().tolist()]
        return np.add(logs, self.log_scale.ravel()).reshape(m.shape)


def _canonical(terms) -> bool:
    """A tuple of (float, int) pairs, exponents increasing from 0 on."""
    last = -1
    for te in terms:
        if not (type(te) is tuple and len(te) == 2 and type(te[0]) is float
                and type(te[1]) is int and te[1] > last):
            return False
        last = te[1]
    return type(terms) is tuple


@dataclass(frozen=True)
class LacunarySeries:
    """Finite list of terms exp(log_coeff) z^exponent, exponents strictly
    increasing non-negative integers.  Construction sorts the terms (unless
    _canonical), so the summation order never depends on input order."""

    terms: tuple  # ((log_coeff, exponent), ...)

    def __post_init__(self):
        if not _canonical(self.terms):  # else kept as given: no K new tuples
            terms = tuple(sorted(((float(lc), int(e)) for lc, e in self.terms),
                                 key=lambda te: te[1]))
            if not _canonical(terms):  # sorted: a negative first exponent or a tie
                raise ValueError("exponents must be non-negative" if terms[0][1] < 0
                                 else "exponents must be strictly increasing")
            object.__setattr__(self, "terms", terms)

    @property
    def exponents(self) -> tuple:
        return tuple(e for _, e in self.terms)

    @property
    def log_coeffs(self) -> tuple:
        return tuple(lc for lc, _ in self.terms)

    @cached_property
    def log_coeff_array(self) -> np.ndarray:
        """log_coeffs as a float array, read only, as every caller shares it."""
        values = np.array(self.log_coeffs, dtype=float)
        values.flags.writeable = False
        return values

    @cached_property
    def exponent_array(self) -> np.ndarray:
        """exponents as a float array, read only, as every caller shares it."""
        values = np.array(self.exponents, dtype=float)
        values.flags.writeable = False
        return values

    @cached_property
    def windows(self):
        """(first, last, room, e_0) for _candidates: _term_windows,
        or every row a candidate (one call per block) for at most _RUN_ROWS
        terms and where _term_windows could fail: on a coefficient
        non-finite or past _LOG_RANGE, or an exponent past 2^53."""
        log_coeffs, exponents = self.log_coeff_array, self.exponent_array
        room = _LOG_RANGE - float(np.max(np.abs(log_coeffs), initial=0.0))
        if log_coeffs.size > _RUN_ROWS and room > 0.0 and exponents[-1] <= 2.0 ** 53:
            return (*_term_windows(log_coeffs, exponents), room, exponents[0])
        return np.full(log_coeffs.size, NEG_INF), np.full(log_coeffs.size, -NEG_INF), -NEG_INF, 0.0

    def shifted(self, shift: int) -> "LacunarySeries":
        """Divide by z^shift termwise (exponents must stay non-negative)."""
        return LacunarySeries(tuple((lc, e - shift) for lc, e in self.terms))


@dataclass(frozen=True)
class SeriesPair:
    """The odd/even split of a construction, plus the radii bracketing the
    range on which the sandwich bound is certified."""

    g1: LacunarySeries
    g2: LacunarySeries
    t0: float
    h: float
    t_last: float


def split_parity(state: ConstructionState) -> SeriesPair:
    """Odd-index lines (k = 1, 3, ...) feed g1, even-index lines feed g2."""
    if not state.lines:
        raise ValueError("state has no lines")
    terms = [(l.log_a, e) for l, e in zip(state.lines, state.es)]
    return SeriesPair(
        g1=LacunarySeries(tuple(terms[0::2])),
        g2=LacunarySeries(tuple(terms[1::2])),
        t0=state.t0,
        h=state.params.h,
        t_last=state.t_last,
    )


def _term_logs(log_mods, exponents, log_radii):
    """(L - l, l), L = log_mods + exponents * log_radii, l = max L per radius."""
    with np.errstate(invalid="ignore"):  # 0 * -inf at z = 0; all terms -inf
        logs = log_mods + exponents * log_radii
        np.copyto(logs, log_mods, where=np.isnan(logs))  # z^0 = 1
        l_max = logs.max(axis=0, initial=NEG_INF)
        logs -= l_max
    return logs, l_max


def _scaled_terms(log_mods, exponents, log_radii):
    """The kernel behind every series evaluation: the term magnitudes
    exp(log_mods_k + exponents_k x_r) at log-radii x_r, with the largest
    per radius factored out.

    Returns (mant, live, log_scales): live masks the terms within
    DROP_THRESHOLD of the largest at some radius, mant (live terms, radii)
    holds their scaled magnitudes, 0 where a term is dropped at that
    radius, and log_scales (radii,) the factored-out logs.  Callers sum
    mant against the phases or factors of the live terms alone; the value
    at radius r is that sum times exp(log_scales[r]).  x = -inf (radius 0)
    keeps only the exponent-0 terms; a radius with no nonzero term gives
    an all-zero column and scale -inf.  The grid path hands over the
    candidate rows of a run of radii alone (see _grid_kernel)."""
    logs, l_max = _term_logs(log_mods[:, None], exponents[:, None], log_radii)
    keep = logs >= -DROP_THRESHOLD
    live = keep.any(axis=1)
    return np.where(keep[live], np.exp(logs[live]), 0.0), live, l_max


def _eval_points(log_mods, units, exponents, zs) -> ScaledArray:
    """sum_k exp(log_mods_k) units_k z^exponents_k at the points zs, as a
    ScaledArray of their shape, phases e^{i fmod(e arg z, 2 pi)}; units None
    means every unit is 1.  Points go through the kernel in blocks of
    _BLOCK, each at its own radius: a circle of _BLOCK angles is one call."""
    flat = zs.ravel()
    # math.log: numpy's vectorized log differs in the last bit on some inputs.
    log_rs = np.array([math.log(r) if r > 0.0 else NEG_INF for r in np.abs(flat).tolist()])
    sums, scales = np.empty(flat.shape, dtype=complex), np.empty(flat.shape)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        mant, live, scales[block] = _scaled_terms(log_mods, exponents, log_rs[block])
        angles = np.fmod(np.multiply.outer(exponents[live], np.angle(flat[block])), _TWO_PI)
        phases = np.exp(1j * angles)
        if units is not None:
            phases = phases * units[live, None]
        sums[block] = np.einsum("kp,kp->p", mant, phases)
    return ScaledArray.normalize(sums.reshape(zs.shape), scales.reshape(zs.shape))


def eval_series(s: LacunarySeries, z: complex) -> ScaledArray:
    """Evaluate the series at |z| < 1, stably at any coefficient scale:
    a one-point call of the kernel with phases e^{i e theta}, as a 0-d
    ScaledArray.  A NaN point is outside the disk."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"|z| = {abs(z)} is outside the open unit disk")
    return _eval_points(s.log_coeff_array, None, s.exponent_array, np.array(z))


# -- grid evaluation --------------------------------------------------------


def _term_windows(log_coeffs: np.ndarray, exponents: np.ndarray):
    """(first, last): nondecreasing bounds over the terms such that every
    term within _REACH of the largest at log-radius x has an index in
    range(searchsorted(last, x), searchsorted(first, x, "right")).

    Term k's log is the line L_k = log_coeffs_k + exponents_k x, and its
    gap below the upper envelope U of all the lines is concave in x, so
    the term is within _REACH of U on one interval [a_k, b_k].  U comes
    from a stack over the slopes.  a_k is where L_k + _REACH meets the
    line of U active there, found for all k at once by a binary search
    over U's take-over points, and b_k likewise; O(K log K) in all.  Any
    line of U with a smaller (larger) slope than L_k bounds a_k from
    below (b_k from above), so the interval holds wherever the search
    lands.  first is the suffix minimum of the a_k and last the prefix
    maximum of the b_k, an empty interval counting as none.  Only term 0
    has a_0 = -inf, so at x = -inf term 0 is the one candidate.
    """
    lc, es = log_coeffs.tolist(), exponents.tolist()
    hull, take = [0], [NEG_INF]  # lines of U by slope, and where each takes over
    for k in range(1, len(lc)):
        while True:
            x = (lc[hull[-1]] - lc[k]) / (es[k] - es[hull[-1]])
            if x > take[-1]:
                break
            hull.pop()
            take.pop()
        hull.append(k)
        take.append(x)
    c, s, xb = log_coeffs[hull], exponents[hull], np.array(take)
    del lc, es, hull, take  # K-long lists of Python floats, freed before the search
    with np.errstate(invalid="ignore"):
        u = c + s * xb  # U at each take-over point (NaN at -inf, never read)

    # A binary search for each end of every term, one end at a time so
    # that the search holds K-long arrays, not 2K.  For a_k: the last
    # line i in [0, below_k) of U whose take-over point has U - L_k >
    # _REACH, i.e. lies left of a_k (line 0 always counts).  For b_k: the
    # last i in [above_k, H) whose take-over point has U - L_k < _REACH
    # (line above_k always counts).  Slopes below (above) e_k make
    # U - L_k fall (rise), so each test flips once along its range.
    size = s.size
    level = log_coeffs + _REACH
    below = np.searchsorted(s, exponents, "left")
    above = np.searchsorted(s, exponents, "right")

    def cross(pos, end, sign):
        """Where L_k + _REACH meets the line of U that the search from
        pos, bounded by end, stops at."""
        step = 1 << (size.bit_length() - 1)
        while step:
            cand = pos + step
            at = np.minimum(cand, size - 1)
            move = (cand < end) & (sign * (u[at] - exponents * xb[at] - level) > 0.0)
            pos = np.where(move, cand, pos)
            step >>= 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return (c[pos] - level) / (exponents - s[pos])

    a = np.where(below > 0, cross(np.zeros_like(below), below, 1.0), NEG_INF)
    b = np.where(above < size, cross(np.minimum(above, size - 1), np.full_like(above, size),
                                     -1.0), -NEG_INF)
    empty = ~(a <= b)
    a[empty], b[empty] = -NEG_INF, NEG_INF
    return np.minimum.accumulate(a[::-1])[::-1], np.maximum.accumulate(b)


def _candidates(windows, xs):
    """(lo, hi, wide) per log-radius of xs: each term that can be kept there
    is in range(lo, hi), every row at a wide radius, where rounding might
    pass _REACH (e_0 |x| past the room left by the coefficients)."""
    first, last, room, e0 = windows
    lo, hi = np.searchsorted(last, xs, "left"), np.searchsorted(first, xs, "right")
    with np.errstate(invalid="ignore"):  # 0 * inf at x = -inf
        wide = ~(e0 * -xs <= room) & (xs != NEG_INF)
    lo[wide], hi[wide] = 0, first.size
    return lo, hi, wide


def _runs(windows, xs) -> list:
    """The kernel calls of one block of log-radii xs: (rows, at) pairs,
    rows a slice holding every candidate (_candidates) of the radii xs[at].
    Radii go by increasing x, and a run grows while its rows stay within
    _RUN_ROWS, or within those of its first radius where it needs more, so
    windows making every row a candidate give one run; wide radii one more."""
    lo, hi, wide = _candidates(windows, xs)
    runs = [(slice(0, windows[0].size), np.flatnonzero(wide))] if wide.any() else []
    order = np.flatnonzero(~wide)
    order = order[np.argsort(xs[order], kind="stable")]
    lo, hi = lo[order], hi[order]  # both nondecreasing now
    start = 0
    while start < order.size:
        rows = max(_RUN_ROWS, hi[start] - lo[start])
        stop = int(np.searchsorted(hi, lo[start] + rows, "right"))
        runs.append((slice(lo[start], hi[stop - 1]), order[start:stop]))
        start = stop
    return runs


def _grid_kernel(s: LacunarySeries, factors):
    """The block evaluator of the product grid sum_k c_k t^{e_k} F_kj over
    the series s: log-radii of at most _BLOCK radii -> log|sum|, rows by
    radius, contracted run by run (_runs).  factors(k) gives F_kj for the
    live term rows k of a call (an index array): angle phases
    (_phase_kernel) or a ball family's values W_q[e_k](zeta_j).  A radius
    keeps the live set, maximum and mantissas of one call over all terms,
    bit for bit; only rows zero at every radius of a call leave its table."""
    log_coeffs, exponents = s.log_coeff_array, s.exponent_array

    def run(rows, xs):
        mant, live, scales = _scaled_terms(log_coeffs[rows], exponents[rows], xs)
        sums = mant.T @ factors(rows.start + np.flatnonzero(live))
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(sums))
        return np.add(logs, scales[:, None], out=logs)

    def kernel(xs):
        runs = _runs(s.windows, xs)
        if len(runs) == 1:
            return run(runs[0][0], xs)
        out = None
        for rows, at in runs:
            part = run(rows, xs[at])
            out = np.empty((xs.size, part.shape[1])) if out is None else out
            out[at] = part
        return out

    return kernel


def _phase_kernel(s: LacunarySeries, theta_count: int):
    """_grid_kernel of s on the angles 2 pi j / theta_count, j <
    theta_count, phases from the exact residues e mod theta_count."""
    if theta_count < 1:
        raise ValueError(f"theta_count must be at least 1, got {theta_count}")
    residues = np.array([e % theta_count for e in s.exponents], dtype=np.int64)
    j = np.arange(theta_count)
    base = np.exp(2j * math.pi * j / theta_count)
    return _grid_kernel(s, lambda k: base[residues[k, None] * j % theta_count])


def _log_radii(t_values):
    """(radii, log radii) as arrays; radii must lie in [0, 1), so NaN is
    rejected too (min and max pass NaN on)."""
    ts = np.asarray(t_values, dtype=float)
    if ts.size and not (ts.min() >= 0.0 and ts.max() < 1.0):
        raise ValueError("radii must lie in [0, 1)")
    with np.errstate(divide="ignore"):
        return ts, np.log(ts)


def _row_blocks(count: int, size: int = _BLOCK) -> list:
    """Consecutive slices of at most `size` rows covering range(count)."""
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def eval_series_grid(s: LacunarySeries, t_values, theta_count: int) -> np.ndarray:
    """log|series(t e^{i theta_j})| on the (t, theta) product grid.

    Angles are theta_j = 2 pi j / theta_count, j < theta_count.  Returns
    shape (len(t_values), theta_count), filled _BLOCK radii at a time by
    the evaluator of _phase_kernel.
    """
    kernel = _phase_kernel(s, theta_count)
    ts, xs = _log_radii(t_values)
    out = np.empty((ts.size, theta_count))
    for rows in _row_blocks(ts.size):
        out[rows] = kernel(xs[rows])
    return out


def _log_modulus_bounds(s: LacunarySeries, xs):
    """(lo, hi) per log-radius of xs for a series with positive
    coefficients: bounds on every log|s(e^x e^{i theta})| that the phase
    kernel computes, as l + log (2 - sigma')_+ and l + log sigma', l the
    log of the largest term and sigma' the widened sum of the kept
    mantissas, each end widened once more (see _log_sum_bounds).  The
    radii's candidate rows (_candidates) go through _term_logs as in a
    kernel call, gathered into (rows, radii) tables of at most _RUN_ROWS *
    _BLOCK cells (or one radius' rows), padded with -inf; sigma sums each
    column in row order, the kernel's kept mantissas with its bits."""
    log_coeffs, exponents = s.log_coeff_array, s.exponent_array
    sigma, ell = np.zeros(xs.size), np.full(xs.size, NEG_INF)
    if log_coeffs.size:  # an empty series is 0 at every radius
        lo, hi, _ = _candidates(s.windows, xs)
        rows = np.arange(np.max(hi - lo, initial=1))[:, None]
        for at in _row_blocks(xs.size, max(1, _RUN_ROWS * _BLOCK // rows.size)):
            index = lo[at] + rows
            lc = np.where(index < hi[at], np.take(log_coeffs, index, mode="clip"), NEG_INF)
            logs, ell[at] = _term_logs(lc, np.take(exponents, index, mode="clip"), xs[at])
            sigma[at] = np.where(logs >= -DROP_THRESHOLD, np.exp(logs), 0.0).sum(axis=0)
    sigma *= 1.0 + (2.0 ** 20 + len(s.terms)) * 2.0 ** -50
    slack = _WIDEN * (64.0 + np.where(np.isfinite(ell), np.abs(ell), 0.0))
    with np.errstate(divide="ignore"):
        return (ell + np.log(np.maximum(2.0 - sigma, 0.0)) - slack,
                ell + np.log(sigma) + slack)


def _log_sum_bounds(f1: LacunarySeries, f2: LacunarySeries, xs):
    """(lo, hi) per log-radius of xs: every sample of log(|f1| + |f2|) at
    that radius that the phase kernels and np.logaddexp compute, at any
    angle, lies in [lo, hi].  Both series have positive coefficients.

    Per series the kernel sums n kept mantissas m_k (n at most the term
    count), the largest exactly 1, sigma = sum m_k, against unit phases,
    and the triangle inequality puts the exact sum in [(2 - sigma)_+,
    sigma] in modulus.  In floating point (u = 2^-53) a computed phase has
    modulus within 2u of 1, each product m_k p_k rounds by u per component,
    any summation order over the nonzero terms adds gamma_{n-1} sigma per
    component, and hypot and sigma, the same m_k gathered per radius and
    summed in row order, round too: the computed modulus lies within
    (3n + 6) u sigma of the bracket.  Widening sigma by (2^20 + n) 2^-50
    = (2^20 + n) 4u covers that with 2^22 u sigma to spare, which also
    absorbs the rounding of 2 - sigma next to 0.  So the lower end, where
    positive, is at least 2^-52, and the log of a computed modulus lies
    in (-40, 40) or below the upper end.  The log and the added scale l
    round by a few u times 40 + |l|, inside the widening of each end by
    _WIDEN (64 + |l|).  np.logaddexp is monotone in both arguments and
    rounds by a few u times 1 + |result|, inside the last widening by
    _WIDEN (64 + |lo| + |hi|); finite terms alone.  A series' error
    enters the sum only through its own bracket, so a negligible series
    with a large |l| widens nothing."""
    (lo1, hi1), (lo2, hi2) = _log_modulus_bounds(f1, xs), _log_modulus_bounds(f2, xs)
    lo, hi = np.logaddexp(lo1, lo2), np.logaddexp(hi1, hi2)
    ends = np.abs(np.stack([lo, hi]))
    slack = _WIDEN * (64.0 + np.where(np.isfinite(ends), ends, 0.0).sum(axis=0))
    return lo - slack, hi + slack


def _rows_reaching_min(lo, hi) -> np.ndarray:
    """Mask of the rows of a grid that can hold its smallest value, row r
    lying in [lo_r, hi_r]: those with not lo_r > T, T = min(hi).  A
    skipped row lies above T and so above the smallest value, which it
    can neither hold nor tie; a NaN bound makes T NaN and keeps them all."""
    return ~(lo > hi.min())


def _log_omegas(w: WeightFunction, radii) -> np.ndarray:
    """log omega at each radius, one scalar call per radius."""
    return np.array([w.log_omega(float(t)) for t in radii])


def _check_radii(t_grid, t0: float, t_last: float) -> np.ndarray:
    """The radius grid as an array, non-empty and within (t0, t_last];
    NaN is rejected too (min and max pass NaN on)."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0:
        raise ValueError("empty radius grid")
    if not (ts.min() > t0 and ts.max() <= t_last):
        raise ValueError(f"radius grid must lie in (t0, t_last] = ({t0}, {t_last}]")
    return ts


# -- sandwich certification --------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Worst normalized margins of the two-sided bound over a grid."""

    passed: bool
    lower_margin: float
    lower_witness: tuple  # (t, theta)
    upper_margin: float
    upper_witness: tuple
    t_count: int
    theta_count: int
    h: float

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "lower_margin": self.lower_margin,
            "lower_witness": {"t": self.lower_witness[0], "theta": self.lower_witness[1]},
            "upper_margin": self.upper_margin,
            "upper_witness": {"t": self.upper_witness[0], "theta": self.upper_witness[1]},
            "t_count": self.t_count,
            "theta_count": self.theta_count,
            "h": self.h,
        }


def _sandwich_blocks(pair: SeriesPair, w: WeightFunction, t_grid, theta_count: int):
    """The sandwich (2/5)e^{-h} omega < |G1|+|G2| < 4 omega sampled at
    z = t e^{i theta_j}, theta_j = 2 pi j / theta_count, j < theta_count,
    streamed: (thetas, log_omega, log_lower, log_upper, blocks), per
    radius log omega and the bounds log(2/5) - h + log omega and log 4 +
    log omega.  blocks(at) yields (rows, log|G1|, log|G2|), rows indexed
    by t, for consecutive runs rows of at most _BLOCK of the rows `at`,
    an increasing index array; by default every row, in slices.
    sandwich_check asks for the rows that can hold a witness, emit for
    every row.  Every input error is raised here, before the first block
    is evaluated."""
    g1, g2 = (_phase_kernel(s, theta_count) for s in (pair.g1, pair.g2))
    log_w = _log_omegas(w, t_grid)
    ts, xs = _log_radii(t_grid)
    thetas = _TWO_PI * np.arange(theta_count) / theta_count

    def blocks(at=None):
        for rows in (_row_blocks(ts.size) if at is None
                     else [at[run] for run in _row_blocks(at.size)]):
            yield rows, g1(xs[rows]), g2(xs[rows])

    return thetas, log_w, math.log(0.4) - pair.h + log_w, math.log(4.0) + log_w, blocks


def _first_worst(worst, margins: np.ndarray, row0: int):
    """np.argmin over a row-major grid that arrives in row blocks: worst
    is the (margin, row, column) kept so far, or None, and margins the
    block starting at row row0.  An earlier cell keeps a tie, and NaN
    counts as smallest."""
    r, c = np.unravel_index(np.argmin(margins), margins.shape)
    m = float(margins[r, c])
    if worst is None or m < worst[0] or (math.isnan(m) and not math.isnan(worst[0])):
        return m, row0 + int(r), int(c)
    return worst


def sandwich_check(pair: SeriesPair, w: WeightFunction, t_grid,
                   theta_count: int = 256) -> SandwichReport:
    """Sample (2/5)e^{-h} omega < |G1|+|G2| < 4 omega on the grid (a
    sampling claim, not a bound proved between samples).

    Every t must lie in (t0, t_last], the range the construction covered;
    other radii (or NaN) are an input error, not a bound failure.  Margins
    are log-domain differences normalized by the magnitudes of the sides,
    and the check passes when every margin is >= -1e-9.

    The check samples every angle theta_j = 2 pi j / theta_count, _BLOCK
    radii at a time, and never holds the grid.  Each witness is the first
    (t, theta) cell in row-major order, rows indexed by t, whose margin
    is the worst, a NaN margin counting as worst: the cell np.argmin
    picks over the whole grid.

    Only the rows that can hold a worst cell are sampled.  Every sample
    of a row lies in its bracket [lo, hi] of log(|G1|+|G2|) from
    _log_sum_bounds, gathered without phases.  A margin is monotone in
    log_s between its kinks at -c and c, c = max(1, |bound|), so over the
    bracket its extremes lie among its values at lo, hi and the kinks
    inside.  A computed margin is the exact one up to two relative
    roundings, of the difference and of the quotient (the scale is at
    least 1 and at least the larger side, so nothing underflows), so
    widening that range by _WIDEN relative covers every sample of the row;
    a row with a non-finite bracket end gets (-inf, inf).  A row is
    sampled when it can hold the worst margin of either side
    (_rows_reaching_min), so a skipped row can neither hold nor tie a
    witness and the report keeps its bytes.  On the benchmark states 2
    of 2000 rows are sampled; a NaN bound, or every row tying, samples
    every row.
    """
    ts = _check_radii(t_grid, pair.t0, pair.t_last)
    thetas, _, lo_bound, hi_bound, blocks = _sandwich_blocks(pair, w, ts, theta_count)
    lo_bound, hi_bound = lo_bound[:, None], hi_bound[:, None]
    # max(1, |bound|) once per radius; a cell's scale is its max with |log_s|
    lo_scale = np.maximum(1.0, np.abs(lo_bound))
    hi_scale = np.maximum(1.0, np.abs(hi_bound))

    def margins(log_s, rows):
        """The lower and upper margins of log_s, its rows the radii rows."""
        abs_s = np.abs(log_s)
        return (normalized_margins(log_s, lo_bound[rows], np.maximum(abs_s, lo_scale[rows])),
                normalized_margins(hi_bound[rows], log_s, np.maximum(abs_s, hi_scale[rows])))

    x_lo, x_hi = (x[:, None] for x in _log_sum_bounds(pair.g1, pair.g2, _log_radii(ts)[1]))
    kinks = np.concatenate([-lo_scale, lo_scale, -hi_scale, hi_scale], axis=1)
    probes = np.concatenate([x_lo, x_hi, np.clip(kinks, x_lo, x_hi)], axis=1)
    bounded = (np.isfinite(x_lo) & np.isfinite(x_hi))[:, 0]
    shrink, grow = 1.0 - _WIDEN, 1.0 + _WIDEN
    keep = np.zeros(ts.size, dtype=bool)
    for m in margins(probes, slice(None)):
        lo, hi = m.min(axis=1), m.max(axis=1)
        keep |= _rows_reaching_min(
            np.where(bounded, np.minimum(lo * shrink, lo * grow), -math.inf),
            np.where(bounded, np.maximum(hi * shrink, hi * grow), math.inf))

    at = np.flatnonzero(keep)
    lower = upper = None
    for run, (rows, log_s, log_g2) in zip(_row_blocks(at.size), blocks(at)):
        np.logaddexp(log_s, log_g2, out=log_s)
        del log_g2
        lower_m, upper_m = margins(log_s, rows)
        lower = _first_worst(lower, lower_m, run.start)
        upper = _first_worst(upper, upper_m, run.start)
        del log_s, lower_m, upper_m  # freed before the next block is evaluated
    return SandwichReport(
        passed=bool(lower[0] >= -MARGIN_SLACK and upper[0] >= -MARGIN_SLACK),
        lower_margin=lower[0],
        lower_witness=(float(ts[at[lower[1]]]), float(thetas[lower[2]])),
        upper_margin=upper[0],
        upper_witness=(float(ts[at[upper[1]]]), float(thetas[upper[2]])),
        t_count=int(ts.size),
        theta_count=theta_count,
        h=pair.h,
    )


# -- zero adjustment ---------------------------------------------------------


@dataclass(frozen=True)
class AdjustedPair:
    """The final pair (f1, f2) with f1 = G1/z^{e1} and f2 = G2.

    Dividing out the leading exponent makes f1(0) = a_1 != 0 and can only
    increase the modulus inside the closed unit disk, so the lower bound
    survives.  zero_adjust admits only pairs whose f1 is dominated by its
    leading term on |z| <= t0 (log_dominance = log rho <= log 1/2), so f1
    has no zero there and is never rotated: theta_star, theta_index and
    rotation_basis are constants, and theta_candidates only records the
    theta_count asked for.  c_low and c_high are the measured two-sided
    constants of (|f1|+|f2|)/omega over the sample set; the *_inner and
    *_annulus logs are the same extremes over the inner disk and over the
    outer ring (None without one), and log_inner_floor = log omega(t0) -
    log omega(0) is the spread the inner constants must have wherever
    |f1|+|f2| is nearly constant there.
    """

    theta_star = 0.0
    theta_index = 0
    rotation_basis = "dominance"

    f1: LacunarySeries
    f2: LacunarySeries
    theta_candidates: int
    e1: int
    c_low: float
    c_high: float
    log_c_low: float
    log_c_high: float
    log_dominance: float
    log_c_low_inner: float
    log_c_high_inner: float
    log_c_low_annulus: float | None
    log_c_high_annulus: float | None
    log_inner_floor: float

    def to_json_dict(self) -> dict:
        return {
            "theta_star": self.theta_star,
            "theta_index": self.theta_index,
            "theta_candidates": self.theta_candidates,
            "e1": self.e1,
            "c_low": self.c_low,
            "c_high": self.c_high,
            "log_c_low": self.log_c_low,
            "log_c_high": self.log_c_high,
            "f1_terms": [[lc, e] for lc, e in self.f1.terms],
            "f2_terms": [[lc, e] for lc, e in self.f2.terms],
            "rotation_basis": self.rotation_basis,
            "log_dominance": self.log_dominance,
            "log_c_low_inner": self.log_c_low_inner,
            "log_c_high_inner": self.log_c_high_inner,
            "log_c_low_annulus": self.log_c_low_annulus,
            "log_c_high_annulus": self.log_c_high_annulus,
            "log_inner_floor": self.log_inner_floor,
        }


def inner_disk_radii(t0: float, count: int) -> np.ndarray:
    """Radii in [0, t0], sine-spaced so they cluster near t0 where the
    zeros of the truncated series accumulate."""
    i = np.arange(count)
    return t0 * np.sin(0.5 * math.pi * i / (count - 1))


def _log_dominance(f1: LacunarySeries, t0: float) -> float:
    """log rho, rho = sum_{m >= 2} a_m t0^{e_m - e_1} / a_1: on |z| <= t0,
    |f1| >= a_1 (1 - rho), so rho < 1 rules out zeros of f1 there.
    -inf for a single term."""
    log_coeffs, exponents = f1.log_coeff_array, f1.exponent_array
    return logsumexp(log_coeffs[1:] - log_coeffs[0]
                     + (exponents[1:] - exponents[0]) * math.log(t0))


def _rings(t0: float, t_last: float, inner_radii: int, inner_angles: int,
           outer_t_points: int, outer_angles: int) -> list:
    """(radii, angle count) per ring: the inner disk, then the outer grid
    over (t0, t_last] when outer_t_points > 0."""
    rings = [(inner_disk_radii(t0, inner_radii), inner_angles)]
    if outer_t_points > 0:
        rings.append((np.linspace(t0, t_last, outer_t_points + 1)[1:], outer_angles))
    return rings


def _ring_log_sums(f1: LacunarySeries, f2: LacunarySeries, radii, angles: int):
    """The ring sampler: log(|f1| + |f2|) at t e^{2 pi i j / angles}, rows
    indexed by the radii t, one eval_series_grid call per series."""
    return np.logaddexp(eval_series_grid(f1, radii, angles), eval_series_grid(f2, radii, angles))


def _ratio_extremes(f1: LacunarySeries, f2: LacunarySeries, radii, angles: int, log_w):
    """(min, max) of the sample ratios log(|f1| + |f2|) - log omega on one
    ring, log_w its log omega per radius.  A ratio is a rounded
    difference, monotone in log(|f1| + |f2|), so a row's bracket from
    _log_sum_bounds (no kernel call) less its log omega holds every ratio
    of the row; the ring sampler runs on the rows that can hold the
    smallest or the largest alone (_rows_reaching_min), in one call per
    series."""
    lo, hi = (x - log_w for x in _log_sum_bounds(f1, f2, _log_radii(radii)[1]))
    at = np.flatnonzero(_rows_reaching_min(lo, hi) | _rows_reaching_min(-hi, -lo))
    ratios = _ring_log_sums(f1, f2, radii[at], angles) - log_w[at, None]
    return float(ratios.min()), float(ratios.max())


def zero_adjust(pair: SeriesPair, w: WeightFunction, theta_count: int = 720,
                inner_radii: int = 100, inner_angles: int = 64,
                outer_t_points: int = 200, outer_angles: int = 64) -> AdjustedPair:
    """Divide G1 by its leading power and report the grid constants
    measured on a sample grid (a sampling claim, not a bound proved
    between samples).

    The leading term of f1 = G1/z^{e1} must dominate its tail on the
    closed disk |z| <= t0, rho <= DOMINANCE_BOUND (see _log_dominance):
    then |f1| >= a_1/2 there and f1 has no zero to move.  A pair that
    fails the bound is an input error.  A constructed state with
    t0 >= 0.04 cannot fail it.  Its lemma check lines_later_below puts
    the lines of one parity 2h apart at x0 = log t0: l_{k+2}(x0) <=
    l_k(x0) - 2h.  The term a_k t0^{e_k} has log l_k(x0) + (e_k -
    delta_k) x0, and rounding the slope delta_k up to the integer e_k
    puts (e_k - delta_k) x0 in [x0, 0).  So the m-th tail term of f1 is
    at most e^{|x0| - 2mh} times the leading one, and rho <= e^{|x0|} /
    (e^{2h} - 1): 0.021 at h = 2, t0 = 0.9, and below 1/2 for every
    t0 >= 0.04 as the construction needs h >= 2.

    theta_count is only recorded, as theta_candidates.  The constants
    c_low/c_high are measured over a polar grid of the inner disk united
    with an outer grid spanning (t0, t_last], each ring sampled only on
    the radii whose brackets can hold its smallest or largest ratio
    (_ratio_extremes): the extremes of the whole grid, bit for bit.
    """
    if (min(theta_count, inner_angles) < 1 or inner_radii < 2
            or (outer_t_points > 0 and outer_angles < 1)):
        raise ValueError("zero_adjust needs theta_count, inner_angles >= 1, inner_radii "
                         ">= 2, and outer_angles >= 1 when outer_t_points > 0")
    if not pair.g1.terms:
        raise ValueError("g1 is empty")
    e1 = pair.g1.exponents[0]
    f1 = pair.g1.shifted(e1)
    log_rho = _log_dominance(f1, pair.t0)
    if not log_rho <= math.log(DOMINANCE_BOUND):
        raise ValueError(f"f1 = G1/z^e1 is not dominated by its leading term on |z| <= t0: "
                         f"rho = {exp_or_inf(log_rho):.6g} > DOMINANCE_BOUND = "
                         f"{DOMINANCE_BOUND}")

    rings = [(radii, angles, _log_omegas(w, radii))
             for radii, angles in _rings(pair.t0, pair.t_last, inner_radii, inner_angles,
                                         outer_t_points, outer_angles)]
    extremes = [_ratio_extremes(f1, pair.g2, *ring) for ring in rings]
    (low_inner, high_inner), *annulus = extremes
    log_c_low = float(np.min([low for low, _ in extremes]))
    log_c_high = float(np.max([high for _, high in extremes]))
    log_w_in = rings[0][2]
    return AdjustedPair(
        f1=f1,
        f2=pair.g2,
        theta_candidates=theta_count,
        e1=e1,
        c_low=exp_or_inf(log_c_low),
        c_high=exp_or_inf(log_c_high),
        log_c_low=log_c_low,
        log_c_high=log_c_high,
        log_dominance=log_rho,
        log_c_low_inner=low_inner,
        log_c_high_inner=high_inner,
        log_c_low_annulus=annulus[0][0] if annulus else None,
        log_c_high_annulus=annulus[0][1] if annulus else None,
        log_inner_floor=float(log_w_in[-1] - log_w_in[0]),
    )

