"""Small numeric helpers shared across modules: log-domain reductions
that tolerate -inf sentinels, normalized margins and overflow-safe
exponentials."""

from __future__ import annotations

import math

import numpy as np

LOG_MAX = math.log(np.finfo(np.float64).max)  # ~709.78, exp overflow threshold
NEG_INF = float("-inf")


def logsumexp(log_values, axis=None):
    """Stable log(sum(exp(v))) over all values (a float) or along `axis`
    (an array).  -inf entries add nothing, so an empty or all -inf sum is
    -inf; a +inf entry makes the sum +inf."""
    arr = np.asarray(log_values, dtype=float)
    top = np.max(arr, axis=axis, keepdims=True, initial=NEG_INF)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = (np.squeeze(top, axis=axis)
               + np.log(np.sum(np.exp(arr - top), axis=axis)))
    return float(out) if axis is None else out


def normalized_margins(lhs, rhs):
    """Log-domain margins lhs - rhs divided by max(1, |lhs|, |rhs|), so
    they are relative to the size of the compared sides.  An infinite
    difference is kept, so an lhs at -inf or an rhs at +inf fails
    unboundedly."""
    diff = np.subtract(lhs, rhs)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.divide(diff, scale, out=diff, where=~np.isinf(diff))


def exp_or_inf(x: float) -> float:
    """exp(x) for reporting a constant measured in the log domain; inf
    once x passes 709, near the end of the float64 range."""
    return math.exp(x) if x <= 709.0 else math.inf


def logaddexp(a: float, b: float) -> float:
    """Stable log(e^a + e^b) for scalars, -inf acting as additive zero."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    return float(np.logaddexp(a, b))

