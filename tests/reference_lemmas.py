"""Test-only reference: the sampled tangent-lemma verifier that
`logweight.construction.verify_tangent_lemmas` replaced.

It samples every check on `samples_per_interval` points per interval (plus
eight points past the last abscissa) and keeps, per interval, the lines
whose endpoint ranges can matter there.  It costs about K^2 work and makes
no claim between its samples, so it serves only as an oracle: the
certificate must never be more lenient than this sampling.

`reference_min_above_line` is the per-line tangency bound in scalar
Python, sign tests, secant bound and all; the verifier does only the
weight calls per line and the bound's arithmetic as arrays over all lines,
and must give the same bits.

`reference_tail_log_bound` is the verifier's tail bound on a (rows,
window, points) table, summed along its middle axis; the verifier's
window-first table must give the same bits.
"""

import math
from typing import Optional

import numpy as np

from logweight.construction import (_TAIL_WINDOW, _X_FLOOR, _XI_BRACKET, T0_INTEGER_ESTIMATES,
                                    LemmaCheck, LemmaReport, h_for_delta)
from logweight.numerics import MARGIN_SLACK, logsumexp
from reference_construction import reference_bisect


def _normalized_margins(lhs, rhs):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return (lhs - rhs) / scale


def reference_min_above_line(w, line, x_lo, x_hi, x0):
    """(lower bound of F - l over [x0, 0), the bracket midpoint c, F(c)),
    one line at a time: the bracket [lo, hi] around the stored xi when the
    F' signs confirm it, else bisected from [x_lo, x_hi]; then
    min(g(lo), g(hi), 2 g(c) - max g(lo, c, hi))."""
    fused = {}

    def psi(x):
        if x not in fused:
            fused[x] = w.big_f_and_prime(x)
        return fused[x][1] - line.delta

    xi = line.xi
    if xi is not None and psi(xi * (1.0 + _XI_BRACKET)) <= 0.0 <= psi(xi * (1.0 - _XI_BRACKET)):
        lo, hi = xi * (1.0 + _XI_BRACKET), xi * (1.0 - _XI_BRACKET)
    else:
        lo, hi = x_lo, x_hi
        if psi(lo) > 0.0:
            lo, hi = x0, lo
        while psi(hi) < 0.0 and hi < _X_FLOOR:
            lo, hi = hi, hi / 2.0
        if psi(lo) >= 0.0:
            hi = lo
        elif psi(hi) < 0.0:
            lo = hi
        else:
            lo, hi = reference_bisect(psi, lo, hi, positive_at_lo=False)
    c = 0.5 * (lo + hi)
    f_lo, f_c, f_hi = (fused[x][0] if x in fused else w.big_f(x) for x in (lo, c, hi))
    g_lo, g_c, g_hi = f_lo - line.value(lo), f_c - line.value(c), f_hi - line.value(hi)
    return min(g_lo, g_hi, 2.0 * g_c - max(g_lo, g_c, g_hi)), c, f_c


def reference_tail_log_bound(k, pts, log_as, slopes, gap):
    """Log upper bound of sum_{|m-k|>=2} exp(log_a_m + slope_m x) at `pts`
    on I_{k+1}, from a (rows, window, points) table: the window of lines
    within _TAIL_WINDOW of k, then the two edge lines times e^{-gap} / (1 -
    e^{-gap}).  -inf: empty; +inf: gap <= 0."""
    K, W = log_as.size, _TAIL_WINDOW
    idx = k[:, None] + np.r_[-W:-1, 2:W + 1, -W, W]
    valid = (idx >= 0) & (idx < K)
    valid[:, -2], valid[:, -1] = k - W >= 1, k + W <= K - 2
    idx = np.clip(idx, 0, K - 1)
    terms = log_as[idx][:, :, None] + slopes[idx][:, :, None] * pts[:, None, :]
    terms[:, -2:] += -gap - math.log(-math.expm1(-gap)) if gap > 0.0 else math.inf
    terms[~valid] = -np.inf
    return logsumexp(terms, axis=1)


class _Worst:
    """Order-independent min-reduction with witness."""

    def __init__(self, name):
        self.name = name
        self.margin = math.inf
        self.x = None
        self.k = None
        self.n = 0

    def update(self, margins, xs, k):
        margins = np.asarray(margins, dtype=float)
        self.n += margins.size
        if margins.size == 0:
            return
        i = int(np.argmin(margins))
        if margins[i] < self.margin:
            self.margin = float(margins[i])
            self.x = float(np.asarray(xs, dtype=float)[i])
            self.k = k

    def check(self, slack=MARGIN_SLACK):
        return LemmaCheck(
            name=self.name,
            worst_margin=self.margin,
            witness_x=self.x,
            witness_k=self.k,
            n_points=self.n,
            passed=(self.n == 0) or (self.margin >= -slack),
        )


def reference_verify_tangent_lemmas(state, w,
                                    samples_per_interval: int = 50,
                                    delta: Optional[float] = None) -> LemmaReport:
    """Check every separation and sandwich estimate the induction promises.

    All quantities are compared in the log domain; margins are (lhs-rhs)
    normalized by the magnitude of the sides, and a check passes when its
    worst margin is >= -1e-9.  With `delta` given, the run must have used
    h >= h_for_delta(delta) and the delta-weighted tail bounds are checked
    as well.

    Checks (K = number of lines, I_k = [x_{k-1}, x_k]):
      lines_later_below    l_m >= l_{m+1} + h on [x_0, x_{m-1}]
      lines_earlier_below  l_m >= l_{m-1} + h on [x_m, 0)
      segment_upper        l_k <= F on [x_0, ...) (tangency from below)
      segment_lower        F - h <= l_k on I_k (chord conditions)
      segment_tail_half    sum_{|m-k|>=2} a_m t^{delta_m} < 1/2 a_k t^{delta_k} on I_k
      segment_upper_int    integer-exponent form of segment_upper
      segment_lower_int    a_k t^{e_k} >= (9/10) e^{-h} omega on I_k
      segment_tail_int     integer tail < (5/9) a_k t^{e_k} on I_k
      segment_tail_delta   tail < (delta/2) a_k t^{delta_k} on I_k
      segment_tail_delta_int  integer tail < (5 delta / 9) a_k t^{e_k} on I_k
    """
    if samples_per_interval < 2:
        raise ValueError("samples_per_interval must be at least 2")
    if not state.lines:
        raise ValueError("state has no lines")
    if delta is not None:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta={delta} outside (0, 1]")
        need = h_for_delta(delta)
        if state.params.h < need - 1e-12:
            raise ValueError(
                f"state was built with h={state.params.h} < h_for_delta({delta})"
                f" = {need}")

    h = state.params.h
    xs = np.asarray(state.xs)
    K = len(state.lines)
    deltas = np.asarray(state.deltas)
    log_as = np.asarray(state.log_as)
    es = np.asarray(state.es, dtype=float)

    # State/weight consistency gate: the chord identities must hold.
    for k in (1, K):
        lhs = state.lines[k - 1].value(xs[k - 1])
        rhs = w.big_f(float(xs[k - 1])) - h
        if abs(lhs - rhs) > 1e-6 * max(1.0, abs(rhs)):
            raise ValueError(
                "state does not match this weight (chord residual "
                f"{abs(lhs - rhs):.3g} at k={k})")

    def interval(k, n=samples_per_interval):
        return np.linspace(xs[k - 1], xs[k], n)

    # Points approaching 0 past the last abscissa, used for the open-ended
    # inequality ranges; F is only sampled where it stays finite.
    ext = [float(xs[-1]) / 2.0 ** j for j in range(1, 9)]
    ext_f = [x for x in ext if math.isfinite(w.big_f(x))]

    def line_vals(idx, pts):
        return log_as[idx] + deltas[idx] * np.asarray(pts)

    checks = []

    later = _Worst("lines_later_below")
    for m in range(1, K):  # l_m vs l_{m+1}, valid on [x0, x_{m-1}]
        pts = np.linspace(xs[0], xs[m - 1], samples_per_interval)
        later.update(_normalized_margins(line_vals(m - 1, pts),
                                         line_vals(m, pts) + h), pts, m)
    checks.append(later.check())

    earlier = _Worst("lines_earlier_below")
    for m in range(2, K + 1):  # l_m vs l_{m-1}, valid on [x_m, 0)
        pts = np.concatenate([np.linspace(xs[m], xs[-1], samples_per_interval),
                              np.asarray(ext)])
        earlier.update(_normalized_margins(line_vals(m - 1, pts),
                                           line_vals(m - 2, pts) + h), pts, m)
    checks.append(earlier.check())

    up = _Worst("segment_upper")
    up_int = _Worst("segment_upper_int")
    low = _Worst("segment_lower")
    low_int = _Worst("segment_lower_int")
    tail = _Worst("segment_tail_half")
    tail_int = _Worst("segment_tail_int")
    tail_d = _Worst("segment_tail_delta")
    tail_d_int = _Worst("segment_tail_delta_int")
    log_half = math.log(0.5)
    log_59 = math.log(5.0 / 9.0)

    # Per interval, the work is restricted to lines that can matter there.
    # A line whose larger endpoint value on the interval lies below the
    # smaller endpoint value of some other line is dominated pointwise
    # (lines are monotone between endpoints), so it never attains the
    # upper envelope; for the tail sums, lines more than 250 log units
    # below can shift the log of the sum by at most K e^{-250}, far under
    # the 1e-9 slack.  This keeps deep runs (thousands of lines) linear.
    def process_interval(k, pts, f_pts, with_tails):
        ends = np.stack([pts[0] * deltas + log_as, pts[-1] * deltas + log_as])
        ends_i = np.stack([pts[0] * es + log_as, pts[-1] * es + log_as])
        for e_mat, up_acc, coeff in ((ends, up, deltas), (ends_i, up_int, es)):
            dominated_by = e_mat.min(axis=0).max()
            live = np.nonzero(e_mat.max(axis=0) >= dominated_by)[0]
            env = (log_as[live][:, None] + coeff[live][:, None] * pts[None, :]).max(axis=0)
            up_acc.update(_normalized_margins(f_pts, env), pts, k)

        lk = line_vals(k - 1, pts)
        lk_int = log_as[k - 1] + es[k - 1] * pts
        low.update(_normalized_margins(lk, f_pts - h), pts, k)
        low_int.update(_normalized_margins(
            lk_int, math.log(T0_INTEGER_ESTIMATES) - h + f_pts), pts, k)
        if not with_tails:
            return
        others = np.asarray([m for m in range(1, K + 1) if abs(m - k) >= 2]) - 1
        if others.size == 0:
            return
        for e_mat, coeff, acc, acc_d, const, const_d in (
                (ends, deltas, tail, tail_d, log_half,
                 None if delta is None else math.log(delta / 2.0)),
                (ends_i, es, tail_int, tail_d_int, log_59,
                 None if delta is None else math.log(5.0 * delta / 9.0))):
            cutoff = e_mat[:, others].min(axis=0).max() - 250.0
            live = others[e_mat[:, others].max(axis=0) >= cutoff]
            mat = log_as[live][:, None] + coeff[live][:, None] * pts[None, :]
            mmax = mat.max(axis=0)
            lse = mmax + np.log(np.sum(np.exp(mat - mmax[None, :]), axis=0))
            lhs = lk if coeff is deltas else lk_int
            acc.update(_normalized_margins(const + lhs, lse), pts, k)
            if const_d is not None:
                acc_d.update(_normalized_margins(const_d + lhs, lse), pts, k)

    for k in range(1, K + 1):
        pts = interval(k)
        f_pts = np.array([w.big_f(float(x)) for x in pts])
        process_interval(k, pts, f_pts, with_tails=True)
    if ext_f:
        # the upper (tangency) estimates extend past the last abscissa
        pts = np.asarray(ext_f)
        f_pts = np.array([w.big_f(float(x)) for x in pts])
        ends = np.stack([pts[0] * deltas + log_as, pts[-1] * deltas + log_as])
        for e_mat, up_acc, coeff in ((ends, up, deltas),
                                     (np.stack([pts[0] * es + log_as,
                                                pts[-1] * es + log_as]),
                                      up_int, es)):
            dominated_by = e_mat.min(axis=0).max()
            live = np.nonzero(e_mat.max(axis=0) >= dominated_by)[0]
            env = (log_as[live][:, None] + coeff[live][:, None] * pts[None, :]).max(axis=0)
            up_acc.update(_normalized_margins(f_pts, env), pts, K)

    checks.extend([up.check(), low.check(), tail.check(),
                   up_int.check(), low_int.check(), tail_int.check()])
    if delta is not None:
        checks.extend([tail_d.check(), tail_d_int.check()])

    checks = tuple(checks)
    return LemmaReport(
        checks=checks,
        passed=all(c.passed for c in checks),
        samples_per_interval=samples_per_interval,
        delta=delta,
    )
