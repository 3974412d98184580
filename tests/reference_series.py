"""Test-only reference: lacunary series evaluation with a full phase table.

`reference_grid` builds exp(i e theta_j) for every term and angle column
from the exact residues (e j mod N), then sums the terms within
DROP_THRESHOLD of each radius's largest, in blocks of 256 radii.
`reference_points` groups points by their exact float modulus and makes
one such sum per group.  `logweight.series` builds phases only for the
live terms and blocks points regardless of modulus.  On the lacunary
series of a construction, where a few terms are live at any radius, it
must reproduce these values bit for bit; on dense series its block
contraction sums many live terms in another order.

Phases times units are formed out of place: numpy multiplies a lone
complex pair in place without a fused multiply-add, so an in-place
product would round differently for groups of one point.

`reference_emit_csv` formats the sandwich samples of `logweight emit`
cell by cell, and `reference_log_ratio_samples` evaluates zero
adjustment's inner and outer rings as two separate blocks;
`logweight` takes both from one (t, theta) ring sampler.

`reference_zero_adjust` always runs the search over every candidate
rotation on the inner disk; `logweight.zero_adjust` skips it when the
leading term of f1 dominates there, and shares the search's inner
evaluations with the constants' sample grid.
"""

import math

import numpy as np

from logweight.numerics import NEG_INF, exp_or_inf
from logweight.series import (DROP_THRESHOLD, ScaledArray, ScaledComplex,
                              eval_series_grid, inner_disk_radii)


def _lacunary_sums(log_mods, units, exponents, log_radii, phases):
    """(sums, log_scales) of the terms exp(log_mods_k + exponents_k x_r)
    units_k phases_kj, the largest magnitude per radius factored out."""
    with np.errstate(invalid="ignore"):
        logs = log_mods[:, None] + exponents[:, None] * log_radii
        np.copyto(logs, log_mods[:, None], where=np.isnan(logs))
        l_max = logs.max(axis=0, initial=NEG_INF)
        logs -= l_max
    keep = logs >= -DROP_THRESHOLD
    live = keep.any(axis=1)
    mant = np.where(keep[live], np.exp(logs[live]), 0.0)
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


def stack_scaled(values) -> ScaledArray:
    """ScaledComplex values gathered into one ScaledArray."""
    return ScaledArray(np.array([v.mantissa for v in values], dtype=complex),
                       np.array([v.log_scale for v in values], dtype=float))


def reference_points(log_mods, units, exponents, zs):
    """sum_k exp(log_mods_k) units_k z^exponents_k at the points zs, one
    sum per distinct float |z|, each normalized on its own by
    ScaledComplex.normalize and gathered into a ScaledArray."""
    rs = np.abs(zs)
    out = [None] * zs.size
    for r in set(rs.tolist()):
        at = np.flatnonzero(rs == r)
        phases = np.exp(1j * np.fmod(np.multiply.outer(exponents, np.angle(zs[at])),
                                     2.0 * math.pi))
        log_r = math.log(r) if r > 0.0 else NEG_INF
        sums, scales = _lacunary_sums(log_mods, units, exponents, np.array([log_r]), phases)
        for i, v in zip(at, sums[0]):
            out[i] = ScaledComplex.normalize(complex(v), float(scales[0]))
    return stack_scaled(out)


def reference_emit_csv(pair, w, t_grid, angles):
    """The CSV of `logweight emit` on the radii t_grid, one format per cell."""
    lines = ["t,theta,log_g1_abs,log_g2_abs,log_sum,log_omega,lower_margin,upper_margin"]
    if t_grid.size:
        g1 = eval_series_grid(pair.g1, t_grid, angles)
        g2 = eval_series_grid(pair.g2, t_grid, angles)
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


def reference_log_ratio_samples(f1, f2, w, t0, t_last, theta_index, theta_count,
                                inner_radii, inner_angles, outer_t_points, outer_angles):
    """(log omega, log(|f1 rotated| + |f2|)) on the inner-disk grid, then
    on the outer grid over (t0, t_last], as flat arrays."""
    common = int(np.lcm(inner_angles, theta_count))
    if outer_angles:
        common = int(np.lcm(common, outer_angles))
    shift = theta_index * (common // theta_count)

    r_in = inner_disk_radii(t0, inner_radii)
    j_in = (np.arange(inner_angles) * (common // inner_angles) + shift) % common
    f1_in = eval_series_grid(f1, r_in, common, theta_indices=j_in)
    f2_in = eval_series_grid(f2, r_in, inner_angles)
    log_w_in = np.array([w.log_omega(float(t)) for t in r_in])
    log_s_parts = [np.logaddexp(f1_in, f2_in).ravel()]
    log_w_parts = [np.repeat(log_w_in, inner_angles)]

    if outer_t_points > 0:
        r_out = np.linspace(t0, t_last, outer_t_points + 1)[1:]
        j_out = (np.arange(outer_angles) * (common // outer_angles) + shift) % common
        f1_out = eval_series_grid(f1, r_out, common, theta_indices=j_out)
        f2_out = eval_series_grid(f2, r_out, outer_angles)
        log_w_out = np.array([w.log_omega(float(t)) for t in r_out])
        log_s_parts.append(np.logaddexp(f1_out, f2_out).ravel())
        log_w_parts.append(np.repeat(log_w_out, outer_angles))

    return np.concatenate(log_w_parts), np.concatenate(log_s_parts)


def reference_zero_adjust(pair, w, theta_count=720, inner_radii=100, inner_angles=64,
                          outer_t_points=200, outer_angles=64):
    """The rotation picked by the full search and the constants on the
    rotated sample grid: (the report keys of the search, log omega,
    log(|f1| + |f2|)), the last two flat as in `reference_log_ratio_samples`."""
    e1 = pair.g1.exponents[0]
    f1 = pair.g1.shifted(e1)
    common = int(np.lcm(inner_angles, theta_count))
    stride_j = common // inner_angles
    stride_c = common // theta_count

    r_in = inner_disk_radii(pair.t0, inner_radii)
    f1_in = eval_series_grid(f1, r_in, common)
    f2_in = eval_series_grid(pair.g2, r_in, inner_angles)
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

    log_w_all, log_s_all = reference_log_ratio_samples(
        f1, pair.g2, w, pair.t0, pair.t_last, best_c, theta_count,
        inner_radii, inner_angles, outer_t_points, outer_angles)
    ratios = log_s_all - log_w_all
    log_c_low = float(ratios.min())
    log_c_high = float(ratios.max())
    report = {
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
    return report, log_w_all, log_s_all
