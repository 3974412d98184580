"""Test-only references for `logweight.envelope._log_max_moduli`.

The per-radius angle doubling that the batched sampled rule replaced:
each radius is refined on its own, log max |f| on 64 equispaced angles,
then 128, 256, ..., until two successive values agree within 1e-9 or the
count reaches 2^16, with one call of f per circle.  The batched routine
must reproduce these values, angle counts and Hadamard reports exactly.

And a dense oracle for the polynomial bracket: log max |p| over 2^18
equispaced angles, by Horner's rule.
"""

import math

import numpy as np

from logweight.envelope import HADAMARD_TOL, HadamardReport, PolynomialCallable
from logweight.numerics import logsumexp

START = 64
CAP = 1 << 16
TOL = 1e-9
DENSE = 1 << 18


def reference_max_modulus(f, r: float, theta_count: int) -> float:
    thetas = 2.0 * math.pi * np.arange(theta_count) / theta_count
    values = np.asarray(f(r * np.exp(1j * thetas)))
    if values.dtype == object:
        logs = np.array([v.log_abs for v in values])
    else:
        with np.errstate(divide="ignore"):
            logs = np.where(np.abs(values) > 0, np.log(np.abs(values)), -np.inf)
    return float(np.max(logs))


def dense_log_max_modulus(coeffs, r: float) -> float:
    """log max |p| over DENSE equispaced angles on |z| = r, by Horner's
    rule: a lower estimate of log max |p| whose angle grid is 2^10 times
    finer than the bracket's for degree 30."""
    return reference_max_modulus(PolynomialCallable(coeffs), r, DENSE)


def reference_adaptive(f, r: float):
    """(log M, angle count used, whether two maxima agreed) for one radius."""
    n = START
    prev = reference_max_modulus(f, r, n)
    while n < CAP:
        n *= 2
        cur = reference_max_modulus(f, r, n)
        if abs(cur - prev) < TOL:
            return cur, n, True
        prev = cur
    return prev, n, False


def _reference_runs(f, rs, theta_count: int):
    if theta_count:
        return [(reference_max_modulus(f, float(r), theta_count), theta_count, True)
                for r in rs]
    return [reference_adaptive(f, float(r)) for r in rs]


def reference_profile(f, rs, theta_count: int = 0):
    """Per-radius log M values and per-radius angle counts."""
    runs = _reference_runs(f, rs, theta_count)
    return [v for v, _, _ in runs], [n for _, n, _ in runs]


def reference_hadamard_check(fs, r_grid, theta_count: int = 0,
                             tol: float = HADAMARD_TOL) -> HadamardReport:
    rs = np.asarray(r_grid, dtype=float)
    runs = [_reference_runs(f, rs, theta_count) for f in fs]
    log_s = logsumexp(np.array([[v for v, _, _ in run] for run in runs]), axis=0)
    d2 = log_s[2:] - 2.0 * log_s[1:-1] + log_s[:-2]
    i = int(np.argmin(d2))
    return HadamardReport(
        passed=bool(d2[i] >= -tol),
        min_second_diff=float(d2[i]),
        witness_r=float(rs[i + 1]),
        n_functions=len(fs),
        r_count=int(rs.size),
        theta_count=max(n for run in runs for _, n, _ in run),
        tol=tol,
        basis="sampled",
        converged=all(settled for run in runs for _, _, settled in run),
        log_bracket_width=None,
    )
