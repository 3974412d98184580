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
"""

import math

import numpy as np

from logweight.numerics import NEG_INF
from logweight.series import DROP_THRESHOLD, ScaledComplex


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


def reference_points(log_mods, units, exponents, zs):
    """sum_k exp(log_mods_k) units_k z^exponents_k at the points zs, as
    ScaledComplex values, one sum per distinct float |z|."""
    rs = np.abs(zs)
    out = np.empty(zs.shape, dtype=object)
    for r in set(rs.tolist()):
        at = rs == r
        phases = np.exp(1j * np.fmod(np.multiply.outer(exponents, np.angle(zs[at])),
                                     2.0 * math.pi))
        log_r = math.log(r) if r > 0.0 else NEG_INF
        sums, scales = _lacunary_sums(log_mods, units, exponents, np.array([log_r]), phases)
        out[at] = [ScaledComplex.normalize(complex(v), float(scales[0])) for v in sums[0]]
    return out
