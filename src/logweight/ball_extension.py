"""Unit-ball generalization over pluggable homogeneous polynomial families.

A family supplies, for each degree n, Q homogeneous polynomials W_q[n] on
C^d with sup norm at most 1 on the unit sphere and max_q |W_q[n]| >= delta
everywhere on the sphere.  Replacing the monomials z^{e_k} of the disk
construction by W_q[e_k] (and running the induction with the larger gap
h_for_delta(delta)) produces 2Q functions whose modulus sum dominates
(2 delta / 5) e^{-h} omega(|z|) outside the inner ball |z| <= t0; adding
the constant function 1 covers the inside, for 2Q + 1 functions total.

Family existence is not constructed here: providers are supplied and
their claims verified numerically on deterministic sphere samples.  The
d = 1 monomial family reproduces the disk pipeline exactly; the d = 2
coordinate family ships as a negative example (it has no uniform delta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from ._sobol import MAX_DIM, ndtri, scrambled_sobol
from .construction import ConstructionState, h_for_delta
from .numerics import exp_or_inf, logsumexp, normalized_margins
from .series import ScaledComplex, _check_radii, _eval_points, _scaled_terms, split_parity
from .weight_model import WeightFunction

SUP_NORM_SLACK = 1e-9
MIN_OF_MAX_SLACK = 1e-9
HOMOGENEITY_TOL = 1e-10
BALL_SLACK = 1e-9

_EPS = float(np.finfo(float).eps)


def _degree_noise(n: int) -> float:
    """Relative noise floor of evaluating a degree-n homogeneous polynomial
    in float64: powering accumulates O(n eps), so conditions cannot be
    certified tighter than this for very large degrees.  At desk-scale
    degrees (n below ~1e6) the fixed tolerances above dominate."""
    return 8.0 * n * _EPS


@dataclass(frozen=True)
class PolynomialFamily:
    """Provider of homogeneous polynomials; provider(q, n, z) evaluates
    W_q[n] at a point z of C^d (1-based q)."""

    d: int
    Q: int
    delta_claimed: float
    provider: Callable[[int, int, np.ndarray], complex]
    name: str = "custom"

    def __post_init__(self):
        if self.d < 1 or self.Q < 1:
            raise ValueError("d and Q must be positive")
        if not 0.0 < self.delta_claimed <= 1.0:
            raise ValueError("delta_claimed must lie in (0, 1]")

    def eval(self, q: int, n: int, z: np.ndarray) -> complex:
        try:
            return complex(self.provider(q, n, z))
        except Exception as exc:  # surface degree/index context
            raise RuntimeError(
                f"family {self.name!r} provider failed at q={q}, n={n}") from exc


def monomial_family() -> PolynomialFamily:
    """d = 1, Q = 1, W_1[n](z) = z^n: the family that reduces the ball
    pipeline to the disk one, with delta = 1."""
    return PolynomialFamily(
        d=1, Q=1, delta_claimed=1.0,
        provider=lambda q, n, z: complex(z[0]) ** n,
        name="monomial_d1",
    )


def coordinate_family_d2(delta_claimed: float = 0.5) -> PolynomialFamily:
    """d = 2, Q = 2, W_q[n](z) = z_q^n: a deliberate negative example.
    At balanced points |z_1| = |z_2| = 1/sqrt(2) the max drops like
    2^{-n/2}, so no uniform delta exists and verify_family must reject
    the claim for large enough degree."""
    return PolynomialFamily(
        d=2, Q=2, delta_claimed=delta_claimed,
        provider=lambda q, n, z: complex(z[q - 1]) ** n,
        name="coordinate_d2",
    )


_BUILTIN_FAMILIES = {
    "monomial_d1": monomial_family,
    "coordinate_d2": coordinate_family_d2,
}


def provider_from_interleaved(fn: Callable) -> Callable:
    """Adapt an external plugin f(q, n, coords) -> complex, where coords
    are interleaved real pairs [re_1, im_1, ..., re_d, im_d], to the
    complex-vector provider signature used internally."""
    def provider(q: int, n: int, z: np.ndarray) -> complex:
        coords = np.empty(2 * len(z))
        coords[0::2] = np.real(z)
        coords[1::2] = np.imag(z)
        return complex(fn(q, n, coords))
    return provider


def family_from_manifest(manifest: dict) -> PolynomialFamily:
    """Build a builtin family from {"d":, "Q":, "delta":, "kind":}."""
    kind = manifest.get("kind")
    if kind not in _BUILTIN_FAMILIES:
        raise ValueError(f"unknown builtin family kind {kind!r}")
    fam = _BUILTIN_FAMILIES[kind]()
    if "delta" in manifest and manifest["delta"] is not None:
        fam = PolynomialFamily(d=fam.d, Q=fam.Q,
                               delta_claimed=float(manifest["delta"]),
                               provider=fam.provider, name=fam.name)
    for key, val in (("d", fam.d), ("Q", fam.Q)):
        if key in manifest and int(manifest[key]) != val:
            raise ValueError(f"manifest {key}={manifest[key]} does not match "
                             f"builtin {kind!r} ({val})")
    return fam


def sphere_points(d: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic points on the unit sphere of C^d.

    A scrambled Sobol sequence mapped through the Gaussian inverse CDF and
    normalized covers the sphere uniformly; a small structured prefix
    (coordinate vectors and balanced-modulus vectors, where coordinate
    families are extremal) is always included so that degenerate families
    are measured at their worst points exactly.  The Sobol sequence has
    2d dimensions, so d may be at most MAX_DIM / 2 = 32.
    """
    if not 1 <= d <= MAX_DIM // 2:
        raise ValueError(f"sphere_points needs 1 <= d <= {MAX_DIM // 2} "
                         f"(a {MAX_DIM}-dimensional Sobol table), got d={d}")
    if count < 2 * d + 2:
        raise ValueError(f"need at least {2 * d + 2} sphere samples for d={d}")
    structured = []
    for q in range(d):
        v = np.zeros(d, dtype=complex)
        v[q] = 1.0
        structured.append(v)
        v = np.zeros(d, dtype=complex)
        v[q] = cmath.exp(0.5j * math.pi / (q + 1))
        structured.append(v)
    structured.append(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
    phases = np.exp(2j * math.pi * np.arange(d) / max(d, 2))
    structured.append(phases / math.sqrt(d))
    structured = np.asarray(structured)

    raw = scrambled_sobol(2 * d, count - len(structured), seed)
    g = ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
    z = g[:, :d] + 1j * g[:, d:]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    z = z / norms[:, None]
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
        return {
            "family": self.family,
            "delta_claimed": self.delta_claimed,
            "sphere_samples": self.sphere_samples,
            "passed": self.passed,
            "per_degree": [
                {
                    "degree": r.degree,
                    "sup_norm": r.sup_norm,
                    "min_of_max": r.min_of_max,
                    "homogeneity_residual": r.homogeneity_residual,
                    "passed": r.passed,
                }
                for r in self.per_degree
            ],
        }


def _homogeneity_residual(fam: PolynomialFamily, n: int, pts: np.ndarray) -> float:
    """Relative residual of W(lambda z) = lambda^n W(z) at probe scalings.

    lambda = i is exact for any degree (i^n cycles through 4 values); a
    contracting probe is added only while |lambda|^n stays representable.
    """
    probes = [1j]
    if n * abs(math.log(0.7)) < 600.0:
        probes.append(0.7 + 0.0j)
        probes.append(0.9 * cmath.exp(1j * math.pi / 3.0))
    worst = 0.0
    for z in pts[: min(8, len(pts))]:
        for q in range(1, fam.Q + 1):
            base = fam.eval(q, n, z)
            for lam in probes:
                lhs = fam.eval(q, n, lam * z)
                rhs = lam ** n * base
                denom = max(abs(rhs), 1e-30)
                worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def verify_family(fam: PolynomialFamily, degrees, sphere_samples: int = 256,
                  seed: int = 0) -> FamilyReport:
    """Measure the family's claims per degree on deterministic samples:
    sup norm <= 1, min over the sphere of max_q |W_q[n]| >= delta, and
    homogeneity."""
    if sphere_samples < 64:
        raise ValueError("sphere_samples must be at least 64")
    pts = sphere_points(fam.d, sphere_samples, seed=seed)
    # Float sphere points carry norms 1 + O(eps); a degree-n homogeneous
    # polynomial amplifies that to (1 + O(eps))^n, which swamps the 1e-9
    # tolerances once n ~ 1e7.  Rescaling by ||zeta||^n (in log form)
    # measures the value at the exact sphere point zeta/||zeta||.
    log_norms = 0.5 * np.log1p(np.sum(np.abs(pts) ** 2, axis=1) - 1.0)
    reports = []
    for n in degrees:
        n = int(n)
        mags = np.empty((fam.Q, len(pts)))
        for q in range(1, fam.Q + 1):
            for i, z in enumerate(pts):
                a = abs(fam.eval(q, n, z))
                mags[q - 1, i] = (math.exp(math.log(a) - n * log_norms[i])
                                  if a > 0.0 else 0.0)
        sup_norm = float(mags.max())
        min_of_max = float(mags.max(axis=0).min())
        resid = _homogeneity_residual(fam, n, pts)
        noise = _degree_noise(n)
        sup_ok = sup_norm <= 1.0 + max(SUP_NORM_SLACK, noise)
        min_ok = min_of_max >= fam.delta_claimed - max(MIN_OF_MAX_SLACK, noise)
        hom_ok = resid <= max(HOMOGENEITY_TOL, noise)
        reports.append(DegreeReport(
            degree=n, sup_norm=sup_norm, min_of_max=min_of_max,
            homogeneity_residual=resid,
            passed=sup_ok and min_ok and hom_ok,
            sup_ok=sup_ok, min_ok=min_ok, homogeneity_ok=hom_ok,
        ))
    return FamilyReport(
        family=fam.name,
        delta_claimed=fam.delta_claimed,
        sphere_samples=sphere_samples,
        per_degree=tuple(reports),
        passed=all(r.passed for r in reports),
    )


@dataclass(frozen=True)
class BallFunction:
    """One assembled function: sum_j exp(log_a_j) W_q[e_j], or the
    constant 1."""

    q: int  # 0 for the constant function
    terms: tuple  # ((log_a, e), ...), empty for the constant
    is_one: bool = False


@dataclass(frozen=True)
class BallFunctionSystem:
    functions: tuple  # 2Q + 1 BallFunction values, the last is constant 1
    family: PolynomialFamily
    state: ConstructionState

    @property
    def Q(self) -> int:
        return self.family.Q

    def _coefficients(self, index: int, zeta: np.ndarray):
        """Function `index` restricted to the complex line through zeta is
        the series sum_j a_j W_q[e_j](zeta) lam^{e_j}; returns its
        log-moduli, unit phases and exponents, with one provider call per
        term.  The constant function is the one term 1 = e^0 lam^0."""
        func = self.functions[index]
        if func.is_one:
            return np.zeros(1), np.ones(1, dtype=complex), np.zeros(1)
        w = np.array([self.family.eval(func.q, e, zeta) for _, e in func.terms],
                     dtype=complex)
        mags = np.abs(w)
        with np.errstate(divide="ignore"):
            log_mods = np.array([log_a for log_a, _ in func.terms]) + np.log(mags)
        return (log_mods, w / np.where(mags > 0.0, mags, 1.0),
                np.array([e for _, e in func.terms], dtype=float))

    def eval(self, index: int, t: float, zeta: np.ndarray) -> ScaledComplex:
        """Evaluate function `index` (0-based) at z = t * zeta, |zeta| = 1.

        Homogeneity turns each term into exp(log_a + e log t) W_q[e](zeta),
        so the radial scale separates exactly and only the largest term
        magnitude is exponentiated.
        """
        if not 0.0 <= t < 1.0:
            raise ValueError(f"t={t} outside [0, 1)")
        return _eval_points(*self._coefficients(index, zeta), np.array([t + 0j])).item(0)

    def log_modulus_sum(self, t: float, zeta: np.ndarray) -> float:
        """log sum_{m <= 2Q} |f_m(t zeta)|, without the constant function."""
        return logsumexp([self.eval(i, t, zeta).log_abs
                          for i in range(len(self.functions) - 1)])

    def _log_modulus_sums(self, ts: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """log sum_{m <= 2Q} |f_m(t zeta)| for every radius t (rows) and
        sphere point zeta (columns), one kernel call per function and
        point over all radii."""
        with np.errstate(divide="ignore"):
            log_ts = np.log(ts)
            logs = np.empty((len(self.functions) - 1, ts.size, len(pts)))
            for p, zeta in enumerate(pts):
                for m in range(len(self.functions) - 1):
                    log_mods, units, es = self._coefficients(m, zeta)
                    mant, live, scales = _scaled_terms(log_mods, es, log_ts)
                    logs[m, :, p] = np.log(np.abs(mant.T @ units[live])) + scales
        return logsumexp(logs, axis=0)

    def slice_callable(self, index: int, zeta: np.ndarray, shift: int = 0):
        """The slice lam -> f(lam * zeta) as a one-variable callable.

        Homogeneity turns the slice into a lacunary series in lam with
        coefficients a_j W_q[e_j](zeta), so the disk-side machinery (for
        example the three-circles convexity check) applies directly to
        ball functions through their slices.  A nonzero `shift` divides by
        lam^shift termwise; shifting by the least exponent makes the slice
        nonvanishing at 0, as the convexity check requires.  A scalar `lam`
        gives a ScaledComplex; an array of points gives one ScaledArray of
        its shape.  The points go through the series kernel in blocks of
        256, whatever their moduli, so a circle of 256 sample points costs
        one kernel call.
        """
        log_mods, units, es = self._coefficients(index, zeta)
        es = es - shift

        def slice_fn(lam):
            lam = np.asarray(lam, dtype=complex)
            if np.any(np.abs(lam) >= 1.0):
                raise ValueError("slice argument must lie in the open unit disk")
            values = _eval_points(log_mods, units, es, lam)
            return values if lam.ndim else values.item()

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


def ball_lower_bound_check(sys: BallFunctionSystem, w: WeightFunction,
                           t_grid, sphere_samples: int = 256,
                           seed: int = 0) -> BallReport:
    """Certify (2 delta / 5) e^{-h} omega(t) < sum_{m<=2Q} |f_m(t zeta)|
    over the product of the radius grid and deterministic sphere samples.

    Also measures the constant C of omega(|z|) <= C sum_{m<=2Q+1} |f_m(z)|
    over the same grid extended into the inner ball |z| <= t0, where the
    constant function takes over.
    """
    state = sys.state
    ts = _check_radii(t_grid, state.t0, state.t_last)
    pts = sphere_points(sys.family.d, sphere_samples, seed=seed)
    delta = sys.family.delta_claimed
    h = state.params.h
    log_bound_const = math.log(0.4 * delta) - h

    log_w = np.array([w.log_omega(float(t)) for t in ts])
    s_log = sys._log_modulus_sums(ts, pts)
    margins = normalized_margins(s_log, log_bound_const + log_w[:, None])
    wit_t, wit_i = np.unravel_index(np.argmin(margins), margins.shape)
    # The constant function adds log 1 = 0 to every modulus sum; in the
    # inner ball |z| <= t0 it takes over once omega is capped.
    log_c = float(np.max(log_w[:, None] - np.logaddexp(s_log, 0.0)))
    t_in = np.linspace(0.0, state.t0, 16)
    log_w_in = np.array([w.log_omega(float(t)) for t in t_in])
    s_in = sys._log_modulus_sums(t_in, pts[:16])
    log_c = max(log_c, float(np.max(log_w_in[:, None] - np.logaddexp(s_in, 0.0))))

    return BallReport(
        passed=bool(margins[wit_t, wit_i] >= -BALL_SLACK),
        lower_margin=float(margins[wit_t, wit_i]),
        witness_t=float(ts[wit_t]),
        witness_point=int(wit_i),
        c_measured=exp_or_inf(log_c),
        log_c_measured=log_c,
        t_count=int(ts.size),
        sphere_samples=sphere_samples,
        delta=delta,
        h=h,
    )
