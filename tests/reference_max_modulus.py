"""Test-only reference: the per-radius angle doubling that
`logweight.envelope._log_max_moduli` replaced.

Each radius is refined on its own: log max |f| on 64 equispaced angles,
then 128, 256, ..., until two successive values agree within 1e-9 or the
count reaches 2^16, with one call of f per circle.  The batched routine
must reproduce these values, angle counts and Hadamard reports exactly.
"""

import math

import numpy as np

from logweight.envelope import HADAMARD_TOL, HadamardReport
from logweight.numerics import logsumexp

START = 64
CAP = 1 << 16
TOL = 1e-9


def reference_max_modulus(f, r: float, theta_count: int) -> float:
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    values = np.asarray(f(r * np.exp(1j * thetas)))
    if values.dtype == object:
        logs = np.array([v.log_abs for v in values])
    else:
        with np.errstate(divide="ignore"):
            logs = np.where(np.abs(values) > 0, np.log(np.abs(values)), -np.inf)
    return float(np.max(logs))


def reference_adaptive(f, r: float):
    """(log M, angle count used) for one radius."""
    n = START
    prev = reference_max_modulus(f, r, n)
    while n < CAP:
        n *= 2
        cur = reference_max_modulus(f, r, n)
        if abs(cur - prev) < TOL:
            return cur, n
        prev = cur
    return prev, n


def reference_profile(f, rs, theta_count: int = 0):
    """Per-radius log M values and per-radius angle counts."""
    if theta_count:
        return ([reference_max_modulus(f, float(r), theta_count) for r in rs],
                [theta_count] * len(rs))
    pairs = [reference_adaptive(f, float(r)) for r in rs]
    return [v for v, _ in pairs], [n for _, n in pairs]


def reference_hadamard_check(fs, r_grid, theta_count: int = 0,
                             tol: float = HADAMARD_TOL) -> HadamardReport:
    rs = np.asarray(r_grid, dtype=float)
    profiles = [reference_profile(f, rs, theta_count) for f in fs]
    log_s = logsumexp(np.array([values for values, _ in profiles]), axis=0)
    d2 = log_s[2:] - 2.0 * log_s[1:-1] + log_s[:-2]
    i = int(np.argmin(d2))
    return HadamardReport(
        passed=bool(d2[i] >= -tol),
        min_second_diff=float(d2[i]),
        witness_r=float(rs[i + 1]),
        n_functions=len(fs),
        r_count=int(rs.size),
        theta_count=max(max(ns) for _, ns in profiles),
        tol=tol,
    )
