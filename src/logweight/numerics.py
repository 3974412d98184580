"""Small numeric helpers shared across modules: log-domain reductions
that tolerate -inf sentinels, normalized margins and overflow-safe
exponentials."""

from __future__ import annotations

import math

import numpy as np

LOG_MAX = math.log(np.finfo(np.float64).max)  # ~709.78, exp overflow threshold
NEG_INF = float("-inf")

# A check on normalized margins (lemmas, sandwich, ball bound) passes when
# its worst margin is at least -MARGIN_SLACK.
MARGIN_SLACK = 1e-9


def logsumexp(log_values, axis=None):
    """Stable log(sum(exp(v))) over all values (a float) or along `axis`
    (an array).  -inf entries add nothing, so an empty or all -inf sum is
    -inf; a +inf entry makes the sum +inf and a NaN entry makes it NaN, and
    no term beside either is exponentiated (unshifted, a finite one could
    overflow)."""
    arr = np.asarray(log_values, dtype=float)
    top = np.max(arr, axis=axis, keepdims=True, initial=NEG_INF)
    settled = ~(top < np.inf)  # a maximum of +inf or NaN is the sum
    if settled.any():  # exponentiate none of such a sum's terms
        arr = np.where(settled, NEG_INF, arr)
    else:
        settled = None
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = (np.squeeze(shift, axis=axis)
               + np.log(np.sum(np.exp(arr - shift), axis=axis)))
    if settled is not None:
        out = np.where(np.squeeze(settled, axis=axis), np.squeeze(top, axis=axis), out)
    return float(out) if axis is None else out


def normalized_margins(lhs, rhs, scale=None):
    """Log-domain margins lhs - rhs divided by max(1, |lhs|, |rhs|), so
    they are relative to the size of the compared sides; a caller that
    has formed that scale already passes it as `scale`.  An infinite
    difference is kept, so an lhs at -inf or an rhs at +inf fails
    unboundedly."""
    diff = np.subtract(lhs, rhs)
    if scale is None:
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.divide(diff, scale, out=diff, where=~np.isinf(diff))


def exp_or_inf(x: float) -> float:
    """exp(x) for reporting a constant measured in the log domain; inf
    once x passes 709, near the end of the float64 range, and NaN for
    NaN."""
    return math.inf if x > 709.0 else math.exp(x)

