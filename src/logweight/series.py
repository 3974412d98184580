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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .construction import ConstructionState, SlowGrowthError, next_tangent
from .numerics import NEG_INF, exp_or_inf, logaddexp, logsumexp, normalized_margins
from .weight_model import WeightFunction

# Terms this far (log scale) below the leading one cannot move a float64
# sum at 1e-12 relative accuracy even in million-term sums; they are dropped.
DROP_THRESHOLD = 200.0

# Normalized-margin slack for the sandwich bounds, matching the lemma
# verifier convention.
SANDWICH_SLACK = 1e-9

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)

# Zero adjustment skips its rotation search when the tail of f1 sums to at
# most this fraction of the leading term on |z| <= t0: then |f1| >= a_1/2
# there, with a wide margin over rounding in the log-domain sum.
DOMINANCE_BOUND = 0.5

# Radii of a grid, or points of a batch, that share one kernel call.
_BLOCK = 256


@dataclass(frozen=True)
class ScaledComplex:
    """A complex value mantissa * exp(log_scale) with |mantissa| in [1, 2).

    Zero is represented by mantissa 0 and log_scale -inf.  Normalizing to
    a power-of-two window keeps the representation unique, so equality and
    serialization are stable.
    """

    mantissa: complex
    log_scale: float

    @staticmethod
    def normalize(value: complex, log_scale: float = 0.0) -> "ScaledComplex":
        if value == 0:
            return ScaledComplex(0j, NEG_INF)
        k = math.frexp(abs(value))[1] - 1
        return ScaledComplex(complex(value.real * 2.0 ** -k, value.imag * 2.0 ** -k),
                             log_scale + k * _LN2)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def log_abs(self) -> float:
        if self.is_zero:
            return NEG_INF
        return math.log(abs(self.mantissa)) + self.log_scale

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return self.mantissa * math.exp(self.log_scale)


@dataclass(frozen=True)
class ScaledArray:
    """ScaledComplex values elementwise: mantissa and log_scale arrays of one shape."""

    mantissa: np.ndarray
    log_scale: np.ndarray

    @staticmethod
    def normalize(values: np.ndarray, log_scale: np.ndarray) -> "ScaledArray":
        """ScaledComplex.normalize elementwise, bit for bit: |v| and log|m| by
        Python's abs and math.log (numpy's differ in the last bit on some values)."""
        k = np.frexp(np.reshape([abs(v) for v in values.ravel().tolist()], values.shape))[1] - 1
        mantissa = np.empty_like(values)
        mantissa.real, mantissa.imag = np.ldexp(values.real, -k), np.ldexp(values.imag, -k)
        mantissa[values == 0] = 0.0
        return ScaledArray(mantissa, np.where(mantissa == 0, NEG_INF, log_scale + k * _LN2))

    def item(self, index=()) -> ScaledComplex:
        return ScaledComplex(complex(self.mantissa[index]), float(self.log_scale[index]))

    @property
    def log_abs(self) -> np.ndarray:
        logs = [math.log(abs(m)) if m else NEG_INF for m in self.mantissa.ravel().tolist()]
        return np.add(logs, self.log_scale.ravel()).reshape(self.mantissa.shape)


@dataclass(frozen=True)
class LacunarySeries:
    """Finite list of terms exp(log_coeff) z^exponent, exponents strictly
    increasing non-negative integers.  Construction sorts the terms, so the
    summation order downstream never depends on input order."""

    terms: tuple  # ((log_coeff, exponent), ...)

    def __post_init__(self):
        terms = tuple(sorted(((float(lc), int(e)) for lc, e in self.terms),
                             key=lambda te: te[1]))
        es = [e for _, e in terms]
        if any(e < 0 for e in es):
            raise ValueError("exponents must be non-negative")
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ValueError("exponents must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    @property
    def exponents(self) -> tuple:
        return tuple(e for _, e in self.terms)

    @property
    def log_coeffs(self) -> tuple:
        return tuple(lc for lc, _ in self.terms)

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


def _scaled_terms(log_mods, exponents, log_radii):
    """The kernel behind every series evaluation: the term magnitudes
    exp(log_mods_k + exponents_k x_r) at log-radii x_r, with the largest
    per radius factored out.

    Returns (mant, live, log_scales): live masks the terms within
    DROP_THRESHOLD of the largest at some radius, mant (live terms, radii)
    holds their scaled magnitudes, 0 where a term is dropped at that
    radius, and log_scales (radii,) the factored-out logs.  A caller
    contracts mant with the phases of the live terms alone; the value at
    radius r is that sum times exp(log_scales[r]).  x = -inf (radius 0)
    keeps only the exponent-0 terms; a radius with no nonzero term gives
    an all-zero column and scale -inf.
    """
    with np.errstate(invalid="ignore"):  # 0 * -inf at z = 0; all terms -inf
        logs = log_mods[:, None] + exponents[:, None] * log_radii
        np.copyto(logs, log_mods[:, None], where=np.isnan(logs))  # z^0 = 1
        l_max = logs.max(axis=0, initial=NEG_INF)
        logs -= l_max
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


def eval_series(s: LacunarySeries, z: complex) -> ScaledComplex:
    """Evaluate the series at |z| < 1, stably at any coefficient scale:
    a one-point call of the kernel with phases e^{i e theta}."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"|z| = {abs(z)} is outside the open unit disk")
    return _eval_points(np.array(s.log_coeffs), None,
                        np.array(s.exponents, dtype=float), np.array([z])).item(0)


def modulus_sum(pair: SeriesPair, z: complex) -> float:
    """log(|G1(z)| + |G2(z)|); -inf when both vanish (e.g. at z = 0)."""
    return logaddexp(eval_series(pair.g1, z).log_abs,
                     eval_series(pair.g2, z).log_abs)


# -- grid evaluation --------------------------------------------------------


def eval_series_grid(s: LacunarySeries, t_values, theta_count: int,
                     theta_indices=None) -> np.ndarray:
    """log|series(t e^{i theta_j})| on the (t, theta) product grid.

    Angles are theta_j = 2 pi j / theta_count with j over theta_indices
    (all of them by default).  Returns shape (len(t_values), n_angles).
    Radii are evaluated in blocks of _BLOCK, and phases are built only
    for the terms live in the block (within DROP_THRESHOLD of a per-radius
    maximum), from the exact residues e mod theta_count, so deep
    constructions (thousands of terms) cost time and memory in the few
    terms that matter at each radius.
    """
    ts = np.asarray(t_values, dtype=float)
    if ts.size and (ts.min() < 0.0 or ts.max() >= 1.0):
        raise ValueError("radii must lie in [0, 1)")
    n_angles = theta_count if theta_indices is None else len(theta_indices)
    out = np.full((ts.size, n_angles), NEG_INF)
    if not s.terms:
        return out
    log_coeffs = np.asarray(s.log_coeffs)
    exponents = np.asarray(s.exponents, dtype=float)
    residues = np.array([e % theta_count for e in s.exponents], dtype=np.int64)
    j = (np.arange(theta_count) if theta_indices is None
         else np.asarray(theta_indices, dtype=np.int64))
    base = np.exp(2j * math.pi * np.arange(theta_count) / theta_count)
    with np.errstate(divide="ignore"):
        xs = np.log(ts)
        for start in range(0, ts.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            mant, live, scales = _scaled_terms(log_coeffs, exponents, xs[block])
            sums = mant.T @ base[residues[live, None] * j % theta_count]
            out[block] = np.log(np.abs(sums)) + scales[:, None]
    return out


def _ring_samples(f1: LacunarySeries, f2: LacunarySeries, w: WeightFunction,
                  radii, angles: int, common: int, shift: int = 0, known=None):
    """(log omega per radius, log|f1(e^{2 pi i shift/common} z)|,
    log|f2(z)|) at z = t e^{2 pi i j/angles}, rows indexed by t; angles
    must divide common.  known, when given, is the (log omega, log|f2|)
    pair already evaluated on these radii."""
    j = (np.arange(angles) * (common // angles) + shift) % common
    f1_grid = eval_series_grid(f1, radii, common, theta_indices=j)
    if known is None:
        known = (np.array([w.log_omega(float(t)) for t in radii]),
                 eval_series_grid(f2, radii, angles))
    return known[0], f1_grid, known[1]


def _check_radii(t_grid, t0: float, t_last: float) -> np.ndarray:
    """The radius grid as an array, non-empty and within (t0, t_last]."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0:
        raise ValueError("empty radius grid")
    if ts.min() <= t0 or ts.max() > t_last:
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


def sandwich_samples(pair: SeriesPair, w: WeightFunction, t_grid, theta_count: int):
    """The sandwich (2/5)e^{-h} omega < |G1|+|G2| < 4 omega sampled at
    z = t e^{i theta_j}, theta_j = 2 pi j / theta_count.  Returns (thetas,
    log_g1, log_g2, log_omega, log_lower, log_upper): log|G1| and log|G2|
    with rows indexed by t, and per radius log omega and the bounds
    log_lower = log(2/5) - h + log omega, log_upper = log 4 + log omega."""
    if theta_count < 1:
        raise ValueError("theta_count must be positive")
    log_w, log_g1, log_g2 = _ring_samples(pair.g1, pair.g2, w, t_grid,
                                          theta_count, theta_count)
    thetas = _TWO_PI * np.arange(theta_count) / theta_count
    return (thetas, log_g1, log_g2, log_w,
            math.log(0.4) - pair.h + log_w, math.log(4.0) + log_w)


def sandwich_check(pair: SeriesPair, w: WeightFunction, t_grid,
                   theta_count: int = 256) -> SandwichReport:
    """Certify (2/5)e^{-h} omega < |G1|+|G2| < 4 omega on the grid.

    Every t must lie in (t0, t_last], the range the construction actually
    covered; radii outside it are an input error, not a bound failure.
    Margins are log-domain differences normalized by the magnitudes of the
    compared sides; pass means every margin >= -1e-9.
    """
    ts = _check_radii(t_grid, pair.t0, pair.t_last)
    thetas, log_g1, log_g2, _, lo_bound, hi_bound = sandwich_samples(pair, w, ts, theta_count)
    log_s = np.logaddexp(log_g1, log_g2)
    del log_g1, log_g2  # two grids fewer alive while the margins are formed
    lower = normalized_margins(log_s, lo_bound[:, None])
    upper = normalized_margins(hi_bound[:, None], log_s)

    li = np.unravel_index(np.argmin(lower), lower.shape)
    ui = np.unravel_index(np.argmin(upper), upper.shape)
    lower_margin = float(lower[li])
    upper_margin = float(upper[ui])
    return SandwichReport(
        passed=bool(lower_margin >= -SANDWICH_SLACK and upper_margin >= -SANDWICH_SLACK),
        lower_margin=lower_margin,
        lower_witness=(float(ts[li[0]]), float(thetas[li[1]])),
        upper_margin=upper_margin,
        upper_witness=(float(ts[ui[0]]), float(thetas[ui[1]])),
        t_count=int(ts.size),
        theta_count=theta_count,
        h=pair.h,
    )


# -- zero adjustment ---------------------------------------------------------


@dataclass(frozen=True)
class AdjustedPair:
    """The final pair (f1, f2) with f1(z) = (G1/z^{e1})(e^{i theta*} z).

    Dividing out the leading exponent makes f1(0) = a_1 != 0 and can only
    increase the modulus inside the closed unit disk, so the lower bound
    survives.  When the leading term of f1 dominates its tail on |z| <= t0
    (rotation_basis "dominance", log_dominance = log rho <= log 1/2), f1
    has no zero there and theta* = 0.  Only when dominance fails
    (rotation_basis "search") is theta* searched, to push the finitely many
    zeros of the two factors apart on the sampled inner disk.  c_low and
    c_high are the measured two-sided constants of (|f1|+|f2|)/omega over
    the sample set; the *_inner and *_annulus logs are the same extremes
    over the inner disk and over the outer ring (None without one), and
    log_inner_floor = log omega(t0) - log omega(0) is the spread the inner
    constants must have wherever |f1|+|f2| is nearly constant there.
    """

    f1: LacunarySeries
    f2: LacunarySeries
    theta_star: float
    theta_index: int
    theta_candidates: int
    e1: int
    c_low: float
    c_high: float
    log_c_low: float
    log_c_high: float
    t0: float
    t_last: float
    grid_spec: tuple  # (inner_radii, inner_angles, outer_t_points, outer_angles)
    rotation_basis: str  # "dominance" or "search"
    log_dominance: float
    log_c_low_inner: float
    log_c_high_inner: float
    log_c_low_annulus: float | None
    log_c_high_annulus: float | None
    log_inner_floor: float

    def eval_f1(self, z: complex) -> ScaledComplex:
        return eval_series(self.f1, cmath.exp(1j * self.theta_star) * z)

    def sample_log_ratios(self, w: WeightFunction):
        """(log omega, log(|f1|+|f2|)) over exactly the sample grid the
        constants were measured on, for cross-checks against independent
        two-sided constant estimators."""
        return _log_ratio_samples(self.f1, self.f2, w, self.t0, self.t_last,
                                  self.theta_index, self.theta_candidates,
                                  *self.grid_spec)

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
    log_coeffs = np.asarray(f1.log_coeffs)
    exponents = np.asarray(f1.exponents, dtype=float)
    return logsumexp(log_coeffs[1:] - log_coeffs[0]
                     + (exponents[1:] - exponents[0]) * math.log(t0))


def _ratio_rings(f1: LacunarySeries, f2: LacunarySeries,
                 w: WeightFunction, t0: float, t_last: float,
                 theta_index: int, theta_count: int,
                 inner_radii: int, inner_angles: int,
                 outer_t_points: int, outer_angles: int, inner_known=None):
    """Per ring (the inner disk, then the outer grid over (t0, t_last] when
    outer_t_points > 0): log omega per radius and log(|f1 rotated| + |f2|)
    with rows indexed by radius.  inner_known, when given, is the
    (log omega, log|f2|) pair already evaluated on the inner radii."""
    common = int(np.lcm(inner_angles, theta_count))
    if outer_angles:
        common = int(np.lcm(common, outer_angles))
    shift = theta_index * (common // theta_count)
    rings = [(inner_disk_radii(t0, inner_radii), inner_angles, inner_known)]
    if outer_t_points > 0:
        rings.append((np.linspace(t0, t_last, outer_t_points + 1)[1:], outer_angles, None))
    out = []
    for radii, angles, known in rings:
        log_w, f1_ring, f2_ring = _ring_samples(f1, f2, w, radii, angles, common, shift,
                                                known)
        out.append((log_w, np.logaddexp(f1_ring, f2_ring)))
    return out


def _log_ratio_samples(*args):
    """log omega and log(|f1 rotated| + |f2|) on the inner-disk grid united
    with the outer sandwich grid, as flat arrays in a fixed order; the
    arguments are those of _ratio_rings."""
    rings = _ratio_rings(*args)
    return (np.concatenate([np.repeat(log_w, log_s.shape[1]) for log_w, log_s in rings]),
            np.concatenate([log_s.ravel() for _, log_s in rings]))


def _search_rotation(f1: LacunarySeries, f2: LacunarySeries, w: WeightFunction,
                     r_in, theta_count: int, inner_angles: int):
    """The candidate c < theta_count whose rotation maximizes the minimum
    of (|f1(e^{2 pi i c/theta_count} z)| + |f2(z)|)/omega over the inner
    grid, plus the inner (log omega, log|f2|) it evaluated."""
    # Evaluating f1 on a common refined angle grid lets each candidate
    # rotation reuse exact phases: angle(j, c) = 2 pi (j/inner_angles +
    # c/theta_count) lives on the lcm grid.
    common = int(np.lcm(inner_angles, theta_count))
    stride_j = common // inner_angles
    stride_c = common // theta_count
    f1_in = eval_series_grid(f1, r_in, common)
    f2_in = eval_series_grid(f2, r_in, inner_angles)
    log_w_in = np.array([w.log_omega(float(t)) for t in r_in])

    j_idx = np.arange(inner_angles) * stride_j
    best_c = -1
    best_min = -math.inf
    for c in range(theta_count):
        rot = f1_in[:, (j_idx + c * stride_c) % common]
        ratio = np.logaddexp(rot, f2_in) - log_w_in[:, None]
        m = float(ratio.min())
        if m > best_min:
            best_min = m
            best_c = c
    if best_min == -math.inf:
        raise RuntimeError("adjustment failed - refine grids")
    return best_c, (log_w_in, f2_in)


def zero_adjust(pair: SeriesPair, w: WeightFunction, theta_count: int = 720,
                inner_radii: int = 100, inner_angles: int = 64,
                outer_t_points: int = 200, outer_angles: int = 64) -> AdjustedPair:
    """Pick the rotation and report the grid constants measured on a
    sample grid (a sampling claim, not a bound proved between samples).

    When the leading term of f1 = G1/z^{e1} dominates its tail on the
    closed disk |z| <= t0 (rho <= DOMINANCE_BOUND, see _log_dominance), f1
    has no zero there and theta* = 0 with no search.  Only when dominance
    fails is theta* searched among theta_count uniform candidates, to
    maximize the minimum of (|f1| + |f2|)/omega over a polar grid of that
    disk.  The constants c_low/c_high are then measured over that grid
    united with an outer grid spanning (t0, t_last].
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
    if log_rho <= math.log(DOMINANCE_BOUND):
        basis, theta_index, inner_known = "dominance", 0, None
    else:
        basis = "search"
        theta_index, inner_known = _search_rotation(
            f1, pair.g2, w, inner_disk_radii(pair.t0, inner_radii), theta_count,
            inner_angles)

    rings = _ratio_rings(f1, pair.g2, w, pair.t0, pair.t_last, theta_index, theta_count,
                         inner_radii, inner_angles, outer_t_points, outer_angles,
                         inner_known)
    ratios = [log_s - log_w[:, None] for log_w, log_s in rings]
    inner, *annulus = ratios
    log_c_low = float(np.min([r.min() for r in ratios]))
    log_c_high = float(np.max([r.max() for r in ratios]))
    log_w_in = rings[0][0]
    return AdjustedPair(
        f1=f1,
        f2=pair.g2,
        theta_star=_TWO_PI * theta_index / theta_count,
        theta_index=theta_index,
        theta_candidates=theta_count,
        e1=e1,
        c_low=exp_or_inf(log_c_low),
        c_high=exp_or_inf(log_c_high),
        log_c_low=log_c_low,
        log_c_high=log_c_high,
        t0=pair.t0,
        t_last=pair.t_last,
        grid_spec=(inner_radii, inner_angles, outer_t_points, outer_angles),
        rotation_basis=basis,
        log_dominance=log_rho,
        log_c_low_inner=float(inner.min()),
        log_c_high_inner=float(inner.max()),
        log_c_low_annulus=float(annulus[0].min()) if annulus else None,
        log_c_high_annulus=float(annulus[0].max()) if annulus else None,
        log_inner_floor=float(log_w_in[-1] - log_w_in[0]),
    )


def frequency_profile(state: ConstructionState) -> list:
    """Consecutive exponent ratios e_{k+1}/e_k; ratios sinking toward 1
    are the weakly lacunary regime of fast weights."""
    if len(state.es) < 2:
        raise ValueError("need at least 2 exponents")
    return [b / a for a, b in zip(state.es, state.es[1:])]


def tail_margin(state: ConstructionState, w: WeightFunction, t_grid,
                rel_bound: float = 1e-9) -> float:
    """Soundness margin of the truncation over the given radii.

    Computes the hypothetical next line of the induction and returns the
    worst value of log(rel_bound * omega(t)) - log(a t^delta) over the
    grid: >= 0 means every radius is far enough below the truncation point
    that the first omitted term (and hence, by the geometric separation of
    the lines, the whole omitted tail up to the factor 1/(1-e^{-h})) is
    below rel_bound * omega(t).  Returns +inf when the weight admits no
    further tangent step at float resolution.
    """
    try:
        line, _ = next_tangent(w, state.xs[-1], state.params.h,
                               state.params.root_tol)
    except (SlowGrowthError, OverflowError):
        return math.inf
    worst = math.inf
    for t in np.asarray(t_grid, dtype=float):
        t = float(t)
        x = math.log(t)
        margin = (math.log(rel_bound) + w.log_omega(t)) - line.value(x)
        worst = min(worst, margin)
    return worst
