"""Unit-ball generalization over pluggable homogeneous polynomial families.

A family supplies, for each degree n, Q homogeneous polynomials W_q[n] on
C^d with sup norm at most 1 on the unit sphere and max_q |W_q[n]| >= delta
everywhere on the sphere.  Replacing the monomials z^{e_k} of the disk
construction by W_q[e_k] (and running the induction with the larger gap
h_for_delta(delta)) produces 2Q functions whose modulus sum dominates
(2 delta / 5) e^{-h} omega(|z|) outside the inner ball |z| <= t0; adding
the constant function 1 covers the inside, for 2Q + 1 functions total.

A provider evaluates W_q at an array of degrees and an array of points in
the series kernel's log-polar form (log|W|, W/|W|): verify_family makes
one call per index q, the ball check one per grid kernel call for the
degrees of its live rows.  Family existence is not constructed here:
providers are supplied and their claims verified numerically on
deterministic sphere samples.  The builtins, by name in _BUILTIN_FAMILIES,
are the d = 1 monomial family, which reproduces the disk pipeline exactly,
and the d = 2 coordinate family, a negative example (no uniform delta).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .construction import ConstructionState, h_for_delta
from .numerics import MARGIN_SLACK, NEG_INF, exp_or_inf, logsumexp, normalized_margins
from .series import (_TWO_PI, LacunarySeries, ScaledArray, _check_radii, _eval_points,
                     _first_worst, _grid_kernel, _log_omegas, _log_radii, _row_blocks,
                     split_parity)
from .weight_model import WeightFunction

SUP_NORM_SLACK = 1e-9
MIN_OF_MAX_SLACK = 1e-9
HOMOGENEITY_TOL = 1e-10

_EPS = float(np.finfo(float).eps)

# W(lambda z) = lambda^n W(z) is probed at these lambda and the first _PROBED
# sphere points; in log-polar form |lambda|^n stays in range at any degree.
_PROBES = np.array([1j, 0.7 + 0.0j, 0.9 * cmath.exp(1j * math.pi / 3.0)])
_PROBED = 8


def _degrees_text(ns) -> str:
    """The degrees ns for an error message: the first three, then the count."""
    shown = ", ".join(f"{n:.0f}" for n in ns[:3])
    return shown + (f", ... ({len(ns)} degrees)" if len(ns) > 3 else "")


@dataclass(frozen=True)
class PolynomialFamily:
    """Provider of homogeneous polynomials: provider(q, ns, pts) evaluates
    W_q[n] (1-based q) for every degree n of ns (rows), a 1-d float array
    of integers, at the points pts of C^d (columns), an array of shape (P, d),
    and returns (log_abs, unit), log|W| as a float and W/|W| as a complex
    array, both of shape (len(ns), P).  A zero value has log_abs -inf and
    any finite unit.  A value must not depend on the other degrees or points
    of the call, as the ball check asks for each kernel call's live rows."""

    d: int
    Q: int
    delta_claimed: float
    provider: Callable[[int, np.ndarray, np.ndarray], tuple]
    name: str = "custom"

    def __post_init__(self):
        if self.d < 1 or self.Q < 1:
            raise ValueError("d and Q must be positive")
        if not 0.0 < self.delta_claimed <= 1.0:
            raise ValueError("delta_claimed must lie in (0, 1]")

    def eval(self, q: int, ns: np.ndarray, pts: np.ndarray):
        """The provider's (log_abs, unit) for the degrees ns at pts.  Its
        exception (RuntimeError), a shape other than (len(ns), P) or a NaN
        (ValueError) names q and the degrees, or the first with a NaN."""
        try:
            log_abs, unit = self.provider(q, ns, pts)
            log_abs, unit = np.asarray(log_abs, dtype=float), np.asarray(unit, dtype=complex)
        except Exception as exc:  # surface degree/index context
            raise RuntimeError(f"family {self.name!r} provider failed at q={q}, "
                               f"n={_degrees_text(ns)}") from exc
        shape = (len(ns), len(pts))
        if log_abs.shape != shape or unit.shape != shape:
            raise ValueError(f"family {self.name!r} provider gave shapes {log_abs.shape} "
                             f"and {unit.shape}, not {shape}, at q={q}, n={_degrees_text(ns)}")
        nan_rows = np.isnan(log_abs).any(axis=1) | np.isnan(unit).any(axis=1)
        if nan_rows.any():
            raise ValueError(f"family {self.name!r} provider gave NaN at q={q}, "
                             f"n={ns[np.argmax(nan_rows)]:.0f}")
        return log_abs, unit


def _coordinate_power(q: int, ns: np.ndarray, pts: np.ndarray):
    """z_q^n for the degrees ns (rows) at the points pts (columns) in
    log-polar form, (n log|z_q|, e^{i fmod(n arg z_q, 2 pi)}), the phases of
    the series kernel.  The modulus is never powered, so |zeta_1^n| = 1
    holds on the circle."""
    z = pts[:, q - 1]
    ns = ns[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # z^0 = 1 at z = 0 too
        log_abs = np.where(ns == 0, 0.0, ns * np.log(np.abs(z)))
    return log_abs, np.exp(1j * np.fmod(ns * np.angle(z), _TWO_PI))


def monomial_family() -> PolynomialFamily:
    """d = 1, Q = 1, W_1[n](z) = z^n: the family that reduces the ball
    pipeline to the disk one, with delta = 1."""
    return PolynomialFamily(d=1, Q=1, delta_claimed=1.0, provider=_coordinate_power,
                            name="monomial_d1")


def coordinate_family_d2(delta_claimed: float = 0.5) -> PolynomialFamily:
    """d = 2, Q = 2, W_q[n](z) = z_q^n: a deliberate negative example.
    At balanced points |z_1| = |z_2| = 1/sqrt(2) the max drops like
    2^{-n/2}, so no uniform delta exists and verify_family must reject
    the claim for large enough degree."""
    return PolynomialFamily(d=2, Q=2, delta_claimed=delta_claimed,
                            provider=_coordinate_power, name="coordinate_d2")


# The builtin families by name, as `verify ball --poly-family` offers them.
_BUILTIN_FAMILIES = {
    "monomial_d1": monomial_family,
    "coordinate_d2": coordinate_family_d2,
}


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uniform_shift(seed: int, count: int) -> np.ndarray:
    """np.random.default_rng(seed).random(count), bit for bit, without
    importing numpy.random (about 6 MB of resident memory).

    SeedSequence(seed) hashes the seed's 32-bit words, least significant
    first, into a pool of four words and draws eight words from it; the
    first 128 bits seed PCG64's state and the next its stream (O'Neill,
    HMC-CS-2014-0905), and each double is (x >> 11) 2^-53 of one XSL-RR
    output x."""
    def hasher(const, mult):  # each call hashes one word with the next constant
        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = hasher(0x8B51F9DD, 0x58F38DED)
    state = [draw(pool[i % 4]) for i in range(8)]
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]

    # PCG64's set-seq start: from state 0, step, add the seed state, step
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _MASK128
    lcg = (inc + (u64[0] << 64 | u64[1])) * _PCG64_MULT + inc & _MASK128
    out = np.empty(count)
    for i in range(count):
        lcg = lcg * _PCG64_MULT + inc & _MASK128
        rot = lcg >> 122
        x = (lcg >> 64 ^ lcg) & _MASK64
        out[i] = ((x >> rot | x << (64 - rot)) & _MASK64) >> 11
    return out * 2.0 ** -53


def sphere_points(d: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic points on the unit sphere of C^d: the same (d, count,
    seed) give the same bits.

    A small structured prefix (coordinate vectors and balanced-modulus
    vectors, where coordinate families are extremal) is always included so
    that degenerate families are measured at their worst points exactly.
    The rest is a Kronecker sequence u_n = frac(s + n alpha), n = 1, 2, ...,
    in [0, 1)^{2d}, with alpha_j = phi^{-j} for phi the root of
    x^{2d+1} = x + 1 (Roberts' generalized golden ratio) and a seeded
    random shift s (Cranley-Patterson), mapped by complex Box-Muller,
    z_j = sqrt(-2 log(1 - u_j)) e^{2 pi i u_{d+j}}, and normalized.  The
    shift is numpy's np.random.default_rng(seed).random(2 d), for an integer
    seed >= 0.
    """
    if d < 1:
        raise ValueError(f"sphere_points needs d >= 1, got d={d}")
    if count < 2 * d + 2:
        raise ValueError(f"need at least {2 * d + 2} sphere samples for d={d}")
    try:
        index = operator.index(seed)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError(f"sphere_points needs an integer seed >= 0, got {seed!r}")
    eye = np.eye(d, dtype=complex)
    structured = [row for q in range(d)
                  for row in (eye[q], eye[q] * cmath.exp(0.5j * math.pi / (q + 1)))]
    structured.append(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
    structured.append(np.exp(2j * math.pi * np.arange(d) / max(d, 2)) / math.sqrt(d))
    structured = np.asarray(structured)

    phi = 2.0
    for _ in range(32):  # x -> (1 + x)^{1/(2d+1)} contracts by < 1/4 on x >= 1
        phi = (1.0 + phi) ** (1.0 / (2 * d + 1))
    alpha = phi ** -np.arange(1.0, 2 * d + 1)
    shift = _uniform_shift(index, 2 * d)
    n = np.arange(1.0, count - len(structured) + 1)
    u = (shift + n[:, None] * alpha) % 1.0
    z = np.sqrt(-2.0 * np.log1p(-u[:, :d])) * np.exp(1j * _TWO_PI * u[:, d:])
    z = z / np.linalg.norm(z, axis=1)[:, None]
    return np.concatenate([structured, z], axis=0)


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    sup_norm: float
    min_of_max: float
    homogeneity_residual: float
    passed: bool
    sup_ok: bool
    min_ok: bool
    homogeneity_ok: bool


@dataclass(frozen=True)
class FamilyReport:
    family: str
    delta_claimed: float
    sphere_samples: int
    per_degree: tuple
    passed: bool

    def degree(self, n: int) -> DegreeReport:
        for rep in self.per_degree:
            if rep.degree == n:
                return rep
        raise KeyError(n)

    def to_json_dict(self) -> dict:
        keys = ("degree", "sup_norm", "min_of_max", "homogeneity_residual", "passed")
        return {"family": self.family, "delta_claimed": self.delta_claimed,
                "sphere_samples": self.sphere_samples, "passed": self.passed,
                "per_degree": [{k: getattr(r, k) for k in keys} for r in self.per_degree]}


def _homogeneity_residuals(ns: np.ndarray, log_abs: np.ndarray, units: np.ndarray):
    """Worst relative residual |W(lambda z) - lambda^n W(z)| / |lambda^n W(z)|
    over the lambdas of _PROBES, per degree n of ns, from (Q, degrees,
    columns) values whose first _PROBED columns are W at points z and whose
    last columns are W at lambda z, probe by probe.  Both sides stay in
    log-polar form, so no power is formed; where W vanishes at z and at
    lambda z, 0/0 counts 0."""
    lam_log, lam_unit = _coordinate_power(1, ns, _PROBES[:, None])
    shape = (*log_abs.shape[:2], _PROBES.size, _PROBED)
    lhs_log = log_abs[..., -_PROBES.size * _PROBED:].reshape(shape)
    lhs_unit = units[..., -_PROBES.size * _PROBED:].reshape(shape)
    rhs_log = lam_log[:, :, None] + log_abs[:, :, None, :_PROBED]
    with np.errstate(invalid="ignore"):
        rel = np.abs(np.exp(lhs_log - rhs_log) * lhs_unit
                     - lam_unit[:, :, None] * units[:, :, None, :_PROBED])
    return np.max(rel, axis=(0, 2, 3), initial=0.0, where=~np.isnan(rel))


def verify_family(fam: PolynomialFamily, degrees, sphere_samples: int = 256,
                  seed: int = 0) -> FamilyReport:
    """Measure the family's claims per degree on deterministic samples:
    sup norm <= 1, min over the sphere of max_q |W_q[n]| >= delta, and
    homogeneity.  Each q is one provider call, for every degree at the
    sphere samples and the homogeneity probes together."""
    if sphere_samples < 64:
        raise ValueError("sphere_samples must be at least 64")
    pts = sphere_points(fam.d, sphere_samples, seed=seed)
    degrees = [int(n) for n in degrees]
    ns = np.array(degrees, dtype=float)
    # Float sphere points carry norms 1 + O(eps); a degree-n homogeneous
    # polynomial amplifies that to (1 + O(eps))^n, which swamps the 1e-9
    # tolerances once n ~ 1e7.  Subtracting n log ||zeta|| measures the
    # value at the exact sphere point zeta/||zeta||.
    log_norms = 0.5 * np.log1p(np.sum(np.abs(pts) ** 2, axis=1) - 1.0)
    batch = np.concatenate([pts, (_PROBES[:, None, None] * pts[:_PROBED]).reshape(-1, fam.d)])
    # (Q, degrees, columns) arrays, one provider call per q
    log_abs, units = map(np.array, zip(*[fam.eval(q, ns, batch) for q in range(1, fam.Q + 1)]))
    mags = np.exp(log_abs[..., :len(pts)] - ns[:, None] * log_norms)
    sup_norms = mags.max(axis=(0, 2))
    mins_of_max = mags.max(axis=0).min(axis=1)
    resids = _homogeneity_residuals(ns, log_abs, units)
    # Degree-n log-moduli and phases are n times a rounded log|z| and arg z,
    # off by O(n eps); past n ~ 1e6 this floor exceeds the fixed tolerances.
    noise = 8.0 * ns * _EPS
    sup_ok = sup_norms <= 1.0 + np.maximum(SUP_NORM_SLACK, noise)
    min_ok = mins_of_max >= fam.delta_claimed - np.maximum(MIN_OF_MAX_SLACK, noise)
    hom_ok = resids <= np.maximum(HOMOGENEITY_TOL, noise)
    passed = sup_ok & min_ok & hom_ok
    reports = [DegreeReport(
        degree=n, sup_norm=float(sup_norms[i]), min_of_max=float(mins_of_max[i]),
        homogeneity_residual=float(resids[i]), passed=bool(passed[i]), sup_ok=bool(sup_ok[i]),
        min_ok=bool(min_ok[i]), homogeneity_ok=bool(hom_ok[i])) for i, n in enumerate(degrees)]
    return FamilyReport(family=fam.name, delta_claimed=fam.delta_claimed,
                        sphere_samples=sphere_samples, per_degree=tuple(reports),
                        passed=all(r.passed for r in reports))


@dataclass(frozen=True)
class BallFunction:
    """One assembled function: sum_j exp(log_a_j) W_q[e_j], or the constant 1."""

    q: int  # 0 for the constant function
    terms: tuple  # ((log_a, e), ...), empty for the constant
    is_one: bool = False

    @cached_property
    def series(self) -> LacunarySeries:
        """The series of the terms a_j lam^{e_j}, built once; the constant is 1 = e^0 lam^0."""
        return LacunarySeries(((0.0, 0),) if self.is_one else self.terms)


@dataclass(frozen=True)
class BallFunctionSystem:
    functions: tuple  # 2Q + 1 BallFunction values, the last is constant 1
    family: PolynomialFamily
    state: ConstructionState

    def _line(self, index: int, zeta: np.ndarray):
        """(log-moduli, units, exponents) of the series sum_j a_j W_q[e_j](zeta)
        lam^{e_j} of function `index` along one sphere point zeta."""
        func = self.functions[index]
        s = func.series
        if func.is_one:
            return s.log_coeff_array, np.ones(1, dtype=complex), s.exponent_array
        log_w, units = self.family.eval(func.q, s.exponent_array, np.reshape(zeta, (1, -1)))
        return s.log_coeff_array + log_w[:, 0], units[:, 0], s.exponent_array

    def eval(self, index: int, t: float, zeta: np.ndarray) -> ScaledArray:
        """Evaluate function `index` (0-based) at z = t * zeta, |zeta| = 1,
        as a 0-d ScaledArray.

        Homogeneity turns each term into exp(log_a + e log t) W_q[e](zeta),
        so the radial scale separates exactly and only the largest term
        magnitude is exponentiated.
        """
        if not 0.0 <= t < 1.0:
            raise ValueError(f"t={t} outside [0, 1)")
        return _eval_points(*self._line(index, zeta), np.array(t + 0j))

    def slice_callable(self, index: int, zeta: np.ndarray, shift: int = 0):
        """The slice lam -> f(lam * zeta) as a one-variable callable.

        Homogeneity turns the slice into a lacunary series in lam with
        coefficients a_j W_q[e_j](zeta), so the disk-side machinery (for
        example the three-circles convexity check) applies directly to
        ball functions through their slices.  A nonzero `shift` divides by
        lam^shift termwise; shifting by the least exponent makes the slice
        nonvanishing at 0, as the convexity check requires.  Points `lam`
        in the open unit disk (NaN is not) give one ScaledArray of their
        shape, 0-d for a scalar.  The points go through the series kernel
        in blocks of 256, whatever their moduli, so a circle of 256 sample
        points costs one kernel call.
        """
        log_mods, units, es = self._line(index, zeta)
        es = es - shift

        def slice_fn(lam):
            lam = np.asarray(lam, dtype=complex)
            if not np.all(np.abs(lam) < 1.0):
                raise ValueError("slice argument must lie in the open unit disk")
            return _eval_points(log_mods, units, es, lam)

        return slice_fn


def build_ball_functions(state: ConstructionState, fam: PolynomialFamily,
                         sphere_samples: int = 256, seed: int = 0,
                         family_report: Optional[FamilyReport] = None) -> BallFunctionSystem:
    """Assemble the 2Q + 1 functions from a construction state.

    Preconditions: the state was built with h >= h_for_delta(delta) and the
    family passes verify_family on every degree the state uses (a report
    can be passed in to skip re-measuring).
    """
    need_h = h_for_delta(fam.delta_claimed)
    if state.params.h < need_h - 1e-12:
        raise ValueError(
            f"state used h={state.params.h} but delta={fam.delta_claimed} "
            f"needs h >= {need_h}")
    if family_report is None:
        family_report = verify_family(fam, state.es, sphere_samples, seed=seed)
    else:
        have = {r.degree for r in family_report.per_degree}
        missing = [e for e in state.es if e not in have]
        if missing:
            raise ValueError(f"family report lacks degrees {missing[:5]}")
    if not family_report.passed:
        raise ValueError(
            f"family {fam.name!r} fails its claimed conditions; see report")

    pair = split_parity(state)
    funcs = [BallFunction(q=q, terms=series.terms)
             for series in (pair.g1, pair.g2) for q in range(1, fam.Q + 1)]
    funcs.append(BallFunction(q=0, terms=(), is_one=True))
    return BallFunctionSystem(functions=tuple(funcs), family=fam, state=state)


@dataclass(frozen=True)
class BallReport:
    passed: bool
    lower_margin: float
    witness_t: Optional[float]
    witness_point: Optional[int]
    c_measured: float
    log_c_measured: float
    t_count: int
    sphere_samples: int
    delta: float
    h: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _log_modulus_sums(sys: BallFunctionSystem, xs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """log sum_{m <= 2Q} |f_m(t zeta)| at the log-radii xs of one block
    (rows) and the sphere points zeta of pts (columns): one grid kernel
    evaluation per function, each kernel call with the values W_q[e_j](zeta)
    of its live rows alone as column factors, from one provider call."""
    def values(func, k):
        log_v, units = sys.family.eval(func.q, func.series.exponent_array[k], pts)
        return np.exp(log_v) * units

    return logsumexp([_grid_kernel(func.series, partial(values, func))(xs)
                      for func in sys.functions[:-1]], axis=0)


def ball_lower_bound_check(sys: BallFunctionSystem, w: WeightFunction,
                           t_grid, sphere_samples: int = 256,
                           seed: int = 0) -> BallReport:
    """Sample (2 delta / 5) e^{-h} omega(t) < sum_{m<=2Q} |f_m(t zeta)| on
    the product of the radius grid and deterministic sphere samples (a
    sampling claim, not a bound proved between samples).

    Also measures the constant C of omega(|z|) <= C sum_{m<=2Q+1} |f_m(z)|
    over the same grid extended into the inner ball |z| <= t0, where the
    constant function takes over.  The radius grid goes through the grid
    kernel _BLOCK radii at a time, with no (terms, samples) table of family
    values; the 16 x 16 inner samples share each function's series.
    """
    state = sys.state
    ts = _check_radii(t_grid, state.t0, state.t_last)
    pts = sphere_points(sys.family.d, sphere_samples, seed=seed)
    delta = sys.family.delta_claimed
    h = state.params.h
    log_w = _log_omegas(w, ts)
    log_bound = math.log(0.4 * delta) - h + log_w
    xs = _log_radii(ts)[1]
    worst, log_c = None, NEG_INF
    for rows in _row_blocks(ts.size):
        s_log = _log_modulus_sums(sys, xs[rows], pts)
        worst = _first_worst(worst, normalized_margins(s_log, log_bound[rows, None]), rows.start)
        log_c = np.maximum(log_c, np.max(log_w[rows, None] - np.logaddexp(s_log, 0.0)))
    # The constant function adds log 1 = 0 to every modulus sum; in the
    # inner ball |z| <= t0 it takes over once omega is capped.
    t_in, x_in = _log_radii(np.linspace(0.0, state.t0, 16))
    s_in = _log_modulus_sums(sys, x_in, pts[:16])
    log_c = max(float(log_c),
                float(np.max(_log_omegas(w, t_in)[:, None] - np.logaddexp(s_in, 0.0))))
    margin, wit_t, wit_i = worst
    return BallReport(
        passed=bool(margin >= -MARGIN_SLACK), lower_margin=margin,
        witness_t=float(ts[wit_t]), witness_point=wit_i, c_measured=exp_or_inf(log_c),
        log_c_measured=log_c, t_count=int(ts.size), sphere_samples=sphere_samples,
        delta=delta, h=h)
