"""Test-only reference: lacunary series evaluation with a full phase table.

`reference_grid` builds exp(i e theta_j) for every term and angle column
from the exact residues (e j mod N), tabulates every term at every
radius, then sums the terms within DROP_THRESHOLD of each radius's
largest, in blocks of 256 radii.  `reference_points` groups points by
their exact float modulus and makes one such sum per group.
`logweight.series` builds phases only for the live terms.  On a grid it
first finds each term's window, the x-interval where it can be live
(every row, for at most 32 terms), and contracts each block in runs of
radii over the candidate rows of the run alone; it must reproduce
`reference_grid` bit for bit on any series.  It blocks points regardless of modulus: on the
lacunary series of a construction, where a few terms are live at any
radius, it must reproduce `reference_points` bit for bit; on dense
series its block contraction sums many live terms in another order.

`reference_log_modulus_bounds` is the per-radius bracket of a positive
series as the run-based kernel gave it: l and the sum of the kept
mantissas of each run's table (`series._runs`).  `logweight.series`
gathers each radius' candidate rows into one table per series and makes
no kernel call; it must give the same bits.

`reference_normalize` and `reference_log_abs` put one value in the
mantissa window by math.frexp, math.ldexp and math.log; `ScaledArray`
normalizes whole arrays and must give the same bits.
`reference_modulus_sum` and `reference_ball_modulus_sum` add moduli one
point at a time, through `eval_series` and `BallFunctionSystem.eval`.
`reference_ball_modulus_sums` tabulates every term of each ball function
at every radius of a grid and contracts the live rows with the family
values at every sphere point at once; `ball_lower_bound_check` streams
the grid through the series grid kernel in blocks of 256 radii, in runs
over candidate rows, asking the family for each run's live rows alone,
and must give the same bits.

Phases times units are formed out of place: numpy multiplies a lone
complex pair in place without a fused multiply-add, so an in-place
product would round differently for groups of one point.  For the same
reason `reference_points` sums each point's terms by `np.einsum`, as the
kernel does, and not by a matrix product: BLAS may fuse the products
into the sum, and the two differ in the last bit once two terms are
live.

`reference_sandwich_check` forms the whole (t, theta) grid of margins
and takes its witnesses by `np.argmin`; `logweight.sandwich_check`
samples only the radii whose per-radius brackets of log(|G1| + |G2|)
can hold a worst margin, reduces them in blocks of 256 radii over every
angle and never holds the grid.  `reference_emit_csv` formats the
sandwich samples of `logweight emit` cell by cell, and
`reference_log_ratio_samples` evaluates zero adjustment's inner and
outer rings in full as two separate blocks, both on `reference_grid`;
`logweight` takes both from one (t, theta) ring sampler, and zero
adjustment samples each ring only on the radii that can hold its
smallest or largest ratio.
`reference_extreme_bits` gives zero adjustment's six extremes as the
min and max of those ratios.

`reference_zero_adjust` always runs the search over every candidate
rotation on the inner disk, on the lcm grid of the inner angles and the
candidates, and measures the constants on the rotated subsets of that
grid; `logweight.zero_adjust` admits only pairs whose f1 is dominated
by its leading term there, never rotates, and samples at 2 pi j/angles.
"""

import math

import numpy as np

from logweight import series
from logweight.numerics import MARGIN_SLACK, NEG_INF, exp_or_inf, logsumexp, normalized_margins
from logweight.series import (DROP_THRESHOLD, ScaledArray, eval_series,
                              inner_disk_radii)


def _live_terms(log_mods, exponents, log_radii):
    """(mant, live, log_scales): the magnitudes exp(log_mods_k +
    exponents_k x_r) of the live terms, the largest per radius factored
    out, 0 where a term is dropped."""
    with np.errstate(invalid="ignore"):
        logs = log_mods[:, None] + exponents[:, None] * log_radii
        np.copyto(logs, log_mods[:, None], where=np.isnan(logs))
        l_max = logs.max(axis=0, initial=NEG_INF)
        logs -= l_max
    keep = logs >= -DROP_THRESHOLD
    live = keep.any(axis=1)
    return np.where(keep[live], np.exp(logs[live]), 0.0), live, l_max


def _lacunary_sums(log_mods, units, exponents, log_radii, phases):
    """(sums, log_scales) of the terms exp(log_mods_k + exponents_k x_r)
    units_k phases_kj, the largest magnitude per radius factored out."""
    mant, live, l_max = _live_terms(log_mods, exponents, log_radii)
    return mant.T @ (phases[live] * units[live, None]), l_max


def _phase_table(exponents, theta_count, theta_indices=None):
    if theta_indices is None:
        j = np.arange(theta_count, dtype=np.int64)
    else:
        j = np.asarray(theta_indices, dtype=np.int64)
    idx = np.asarray([(int(e) % theta_count) * j % theta_count for e in exponents])
    base = np.exp(2j * math.pi * np.arange(theta_count) / theta_count)
    return base[idx]


def reference_grid(s, t_values, theta_count, theta_indices=None):
    """log|series(t e^{2 pi i j / theta_count})| on the product grid."""
    ts = np.asarray(t_values, dtype=float)
    n_angles = theta_count if theta_indices is None else len(theta_indices)
    out = np.full((ts.size, n_angles), NEG_INF)
    if not s.terms:
        return out
    log_coeffs = np.asarray(s.log_coeffs)
    units = np.ones(len(s.terms), dtype=complex)
    exponents = np.asarray(s.exponents, dtype=float)
    phases = _phase_table(s.exponents, theta_count, theta_indices)
    with np.errstate(divide="ignore"):
        xs = np.log(ts)
        for start in range(0, ts.size, 256):
            block = slice(start, start + 256)
            sums, scales = _lacunary_sums(log_coeffs, units, exponents, xs[block], phases)
            out[block] = np.log(np.abs(sums)) + scales[:, None]
    return out


def reference_log_modulus_bounds(s, xs):
    """series._log_modulus_bounds as the run-based kernel computes it: per
    block of 256 log-radii, the kept mantissas of each run of the grid
    kernel (series._runs) summed over its rows, with the same widening."""
    log_coeffs, exponents = s.log_coeff_array, s.exponent_array
    sigma, ell = np.empty(xs.size), np.empty(xs.size)
    for start in range(0, xs.size, 256):
        block = np.arange(start, min(start + 256, xs.size))
        for rows, at in series._runs(s.windows, xs[block]):
            mant, _, scales = _live_terms(log_coeffs[rows], exponents[rows], xs[block[at]])
            sigma[block[at]], ell[block[at]] = mant.sum(axis=0), scales
    sigma *= 1.0 + (2.0 ** 20 + len(s.terms)) * 2.0 ** -50
    slack = series._WIDEN * (64.0 + np.where(np.isfinite(ell), np.abs(ell), 0.0))
    with np.errstate(divide="ignore"):
        return (ell + np.log(np.maximum(2.0 - sigma, 0.0)) - slack,
                ell + np.log(sigma) + slack)


def reference_normalize(value: complex, log_scale: float = 0.0) -> tuple:
    """(mantissa, log_scale) of value * exp(log_scale) with |mantissa| in
    [1, 2), zero as (0, -inf): one value by math.frexp and math.ldexp."""
    if value == 0:
        return 0j, NEG_INF
    k = math.frexp(abs(value))[1] - 1
    return (complex(math.ldexp(value.real, -k), math.ldexp(value.imag, -k)),
            log_scale + k * math.log(2.0))


def reference_log_abs(mantissa: complex, log_scale: float) -> float:
    """log|mantissa * exp(log_scale)|, one value by math.log."""
    return NEG_INF if mantissa == 0 else math.log(abs(mantissa)) + log_scale


def stack_scaled(pairs) -> ScaledArray:
    """(mantissa, log_scale) pairs gathered into one 1-d ScaledArray."""
    pairs = list(pairs)
    return ScaledArray(np.array([m for m, _ in pairs], dtype=complex),
                       np.array([c for _, c in pairs], dtype=float))


def to_complex(v: ScaledArray) -> complex:
    """The value of a 0-d ScaledArray as a complex number."""
    return complex(v.mantissa) * math.exp(float(v.log_scale))


def reference_modulus_sum(pair, z) -> float:
    """log(|G1(z)| + |G2(z)|) at one point; -inf where both vanish."""
    return float(np.logaddexp(eval_series(pair.g1, z).log_abs, eval_series(pair.g2, z).log_abs))


def reference_ball_modulus_sum(system, t, zeta) -> float:
    """log sum_{m <= 2Q} |f_m(t zeta)| at one point, without the constant
    function."""
    return logsumexp([system.eval(m, t, zeta).log_abs for m in range(len(system.functions) - 1)])


def reference_ball_modulus_sums(system, t_values, pts):
    """log sum_{m <= 2Q} |f_m(t zeta)| for every radius t (rows) and
    sphere point zeta of pts (columns): per function one table of every
    term at every radius and one contraction of its live rows with the
    family values exp(log|W|) * W/|W| at every point."""
    logs = []
    with np.errstate(divide="ignore"):
        xs = np.log(np.asarray(t_values, dtype=float))
        for func in system.functions[:-1]:
            es = np.array([e for _, e in func.terms], dtype=float)
            log_w, units = system.family.eval(func.q, es, pts)
            mant, live, scales = _live_terms(np.array([lc for lc, _ in func.terms]), es, xs)
            sums = mant.T @ (np.exp(log_w[live]) * units[live])
            logs.append(np.log(np.abs(sums)) + scales[:, None])
    return logsumexp(logs, axis=0)


def reference_points(log_mods, units, exponents, zs):
    """sum_k exp(log_mods_k) units_k z^exponents_k at the points zs, one
    sum per distinct float |z|, each normalized on its own by
    reference_normalize and gathered into a ScaledArray."""
    rs = np.abs(zs)
    out = [None] * zs.size
    for r in set(rs.tolist()):
        at = np.flatnonzero(rs == r)
        phases = np.exp(1j * np.fmod(np.multiply.outer(exponents, np.angle(zs[at])),
                                     2.0 * math.pi))
        log_r = math.log(r) if r > 0.0 else NEG_INF
        mant, live, scales = _live_terms(log_mods, exponents, np.array([log_r]))
        sums = np.einsum("k,kp->p", mant[:, 0], phases[live] * units[live, None])
        for i, v in zip(at, sums):
            out[i] = reference_normalize(complex(v), float(scales[0]))
    return stack_scaled(out)


def reference_sandwich_check(pair, w, t_grid, theta_count):
    """The report dict of `sandwich_check` from the full grids of
    log|G1|, log|G2| and both normalized margins."""
    ts = np.asarray(t_grid, dtype=float)
    log_s = np.logaddexp(reference_grid(pair.g1, ts, theta_count),
                         reference_grid(pair.g2, ts, theta_count))
    log_w = np.array([w.log_omega(float(t)) for t in ts])
    lower = normalized_margins(log_s, (math.log(0.4) - pair.h + log_w)[:, None])
    upper = normalized_margins((math.log(4.0) + log_w)[:, None], log_s)
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    li = np.unravel_index(np.argmin(lower), lower.shape)
    ui = np.unravel_index(np.argmin(upper), upper.shape)
    lower_margin, upper_margin = float(lower[li]), float(upper[ui])
    return {
        "passed": bool(lower_margin >= -MARGIN_SLACK and upper_margin >= -MARGIN_SLACK),
        "lower_margin": lower_margin,
        "lower_witness": {"t": float(ts[li[0]]), "theta": float(thetas[li[1]])},
        "upper_margin": upper_margin,
        "upper_witness": {"t": float(ts[ui[0]]), "theta": float(thetas[ui[1]])},
        "t_count": int(ts.size),
        "theta_count": theta_count,
        "h": pair.h,
    }


def reference_emit_csv(pair, w, t_grid, angles):
    """The CSV of `logweight emit` on the radii t_grid, one format per cell."""
    lines = ["t,theta,log_g1_abs,log_g2_abs,log_sum,log_omega,lower_margin,upper_margin"]
    if t_grid.size:
        g1 = reference_grid(pair.g1, t_grid, angles)
        g2 = reference_grid(pair.g2, t_grid, angles)
        log_s = np.logaddexp(g1, g2)
        thetas = 2.0 * math.pi * np.arange(angles) / angles
        for i, t in enumerate(t_grid):
            log_w = w.log_omega(float(t))
            lo = math.log(0.4) - pair.h + log_w
            hi = math.log(4.0) + log_w
            for j, th in enumerate(thetas):
                row = (t, th, g1[i, j], g2[i, j], log_s[i, j], log_w,
                       log_s[i, j] - lo, hi - log_s[i, j])
                lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def reference_log_ratio_samples(f1, f2, w, t0, t_last, inner_radii, inner_angles,
                                outer_t_points, outer_angles):
    """(log omega, log(|f1| + |f2|)) on the inner-disk grid, then on the
    outer grid over (t0, t_last], as flat arrays."""
    rings = [(inner_disk_radii(t0, inner_radii), inner_angles)]
    if outer_t_points > 0:
        rings.append((np.linspace(t0, t_last, outer_t_points + 1)[1:], outer_angles))
    log_w_parts, log_s_parts = [], []
    for radii, angles in rings:
        log_s = np.logaddexp(reference_grid(f1, radii, angles), reference_grid(f2, radii, angles))
        log_w_parts.append(np.repeat([w.log_omega(float(t)) for t in radii], angles))
        log_s_parts.append(log_s.ravel())
    return np.concatenate(log_w_parts), np.concatenate(log_s_parts)


EXTREME_FIELDS = ("log_c_low", "log_c_high", "log_c_low_inner", "log_c_high_inner",
                  "log_c_low_annulus", "log_c_high_annulus")


def _bits(value):
    return None if value is None else float(value).hex()


def extreme_bits(adj) -> dict:
    """The six measured extremes of an AdjustedPair, each as float.hex
    (so -0.0 and 0.0 differ), None where there is no outer ring."""
    return {name: _bits(getattr(adj, name)) for name in EXTREME_FIELDS}


def reference_extreme_bits(samples, inner_count) -> dict:
    """The six extremes of zero_adjust as the min and max of the ratios of
    reference_log_ratio_samples, the first inner_count of them the inner
    disk, in the form of extreme_bits."""
    ratios = samples[1] - samples[0]
    inner, annulus = ratios[:inner_count], ratios[inner_count:]
    values = (ratios.min(), ratios.max(), inner.min(), inner.max(),
              *((annulus.min(), annulus.max()) if annulus.size else (None, None)))
    return {name: _bits(v) for name, v in zip(EXTREME_FIELDS, values)}


def reference_zero_adjust(pair, w, theta_count=720, inner_radii=100, inner_angles=64,
                          outer_t_points=200, outer_angles=64):
    """The report keys of the rotation picked by the full search, with the
    constants measured on the rotated sample grid."""
    e1 = pair.g1.exponents[0]
    f1 = pair.g1.shifted(e1)
    common = int(np.lcm(inner_angles, theta_count))
    stride_j = common // inner_angles
    stride_c = common // theta_count

    r_in = inner_disk_radii(pair.t0, inner_radii)
    f1_in = reference_grid(f1, r_in, common)
    f2_in = reference_grid(pair.g2, r_in, inner_angles)
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

    # the constants' grid holds the outer angles too
    if outer_angles:
        common = int(np.lcm(common, outer_angles))
    shift = best_c * (common // theta_count)
    rings = [(r_in, inner_angles, log_w_in, f2_in)]
    if outer_t_points > 0:
        r_out = np.linspace(pair.t0, pair.t_last, outer_t_points + 1)[1:]
        rings.append((r_out, outer_angles, np.array([w.log_omega(float(t)) for t in r_out]),
                      reference_grid(pair.g2, r_out, outer_angles)))
    ratios = []
    for radii, angles, log_w, f2_ring in rings:
        j = (np.arange(angles) * (common // angles) + shift) % common
        f1_ring = reference_grid(f1, radii, common, theta_indices=j)
        ratios.append((np.logaddexp(f1_ring, f2_ring) - log_w[:, None]).ravel())
    ratios = np.concatenate(ratios)
    log_c_low = float(ratios.min())
    log_c_high = float(ratios.max())
    return {
        "theta_star": 2.0 * math.pi * best_c / theta_count,
        "theta_index": best_c,
        "theta_candidates": theta_count,
        "e1": e1,
        "c_low": exp_or_inf(log_c_low),
        "c_high": exp_or_inf(log_c_high),
        "log_c_low": log_c_low,
        "log_c_high": log_c_high,
        "f1_terms": [[lc, e] for lc, e in f1.terms],
        "f2_terms": [[lc, e] for lc, e in pair.g2.terms],
    }
