"""Test-only references for `logweight.construction.next_tangent`.

`reference_newton_tangent` is the step `next_tangent` takes: both roots by
safeguarded Newton from the quadratic start.  F' and F'' of an analytic
weight come from the family's own formulas below, not from the package,
so this oracle does not share the evaluations it checks; `run_construction`
must reproduce it exactly, tangency points included.

`reference_bisection_tangent` is the step Newton replaced, with F and F'
called apart and both roots bisected.  It is a tolerance oracle for the
Newton step, and the exact one for every weight without F'' (tabulated,
perturbed_* and duck-typed weights), which `next_tangent` still bisects.
"""

import math

from logweight.construction import (ConstructionError, ConstructionState,
                                    ExponentCollisionError, NotStrictlyConvexError,
                                    SlowGrowthError, TangentLine, _bisect, _ROOT_TOL,
                                    _X_FLOOR)
from logweight.numerics import LOG_MAX, NEG_INF


def _u(x):
    return -math.expm1(x)


def _log_u(x):
    # log(1 - e^x): log(-expm1(x)) right of -log 2, log1p(-e^x) left of it
    return math.log(_u(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x))


def _pow_or_inf(u, a):
    try:
        return u ** a
    except OverflowError:  # the families promise +inf where F' overflows
        return math.inf


def _double_exp_f(x):
    return math.exp(1.0 / _u(x)) if 1.0 / _u(x) <= LOG_MAX else math.inf


# The analytic F' of every family, as separate formulas.
SEPARATE_F_PRIME = {
    "ramey_ullrich": lambda x, p: math.exp(x) / _u(x),
    "power": lambda x, p: p[0] * math.exp(x) / _u(x),
    "exp_power": lambda x, p: p[0] * _pow_or_inf(_u(x), -p[0] - 1.0) * math.exp(x),
    "double_exp": lambda x, p: (math.exp(1.0 / _u(x) + x) / _u(x) ** 2
                                if 1.0 / _u(x) + x - 2.0 * math.log(_u(x)) <= LOG_MAX
                                else math.inf),
    "log_power": lambda x, p: p[0] * math.exp(x) / (_u(x) * (1.0 - _log_u(x))),
    "inv_log": lambda x, p: 1.0 / (x * x) if x * x else math.inf,  # x * x underflows
}

# The analytic F'' of every family, as separate formulas; each divides by
# u (or x) once per power so that no power underflows to 0.
SEPARATE_F_SECOND = {
    "ramey_ullrich": lambda x, p: math.exp(x) / _u(x) / _u(x),
    "power": lambda x, p: p[0] * (math.exp(x) / _u(x) / _u(x)),
    "exp_power": lambda x, p: (p[0] * math.exp(x) * _pow_or_inf(_u(x), -p[0]) / _u(x) / _u(x)
                               * (_u(x) + (p[0] + 1.0) * math.exp(x))),
    "double_exp": lambda x, p: (_double_exp_f(x) * (math.exp(x) / _u(x) / _u(x))
                                * (math.exp(x) / _u(x) / _u(x) + 1.0
                                   + 2.0 * math.exp(x) / _u(x))),
    "log_power": lambda x, p: (p[0] * (math.exp(x) / _u(x) / _u(x)) * (_u(x) - _log_u(x))
                               / (1.0 - _log_u(x)) ** 2),
    "inv_log": lambda x, p: -2.0 / x / x / x,
}


def _separate(formulas, fallback, w, x):
    formula = formulas.get(getattr(w, "family", None))
    if formula is None:
        return fallback(x)
    if x >= 0.0:
        raise ValueError(f"x={x} must be negative")
    return formula(x, w.params)


def separate_f_prime(w, x):
    """F'(x) by the family formula for an analytic weight, else w's own."""
    return _separate(SEPARATE_F_PRIME, w.big_f_prime, w, x)


def separate_f_second(w, x):
    """F''(x) by the family formula for an analytic weight, else w's own
    big_f_second, or None for a weight without one."""
    return _separate(SEPARATE_F_SECOND, getattr(w, "big_f_second", lambda x: None), w, x)


def _tangent_bracket(big_g, x_prev, h):
    """Stage (a)'s bracket [lo, hi] of the tangency, halving toward 0."""
    lo, g_lo = x_prev, h
    hi = x_prev / 2.0
    decreased = False
    while True:
        if hi > _X_FLOOR:
            if decreased:
                raise SlowGrowthError("no tangent line drops h below F")
            raise NotStrictlyConvexError("the tangent never separates from the chord")
        g_hi = big_g(hi)
        if g_hi > g_lo + 1e-9 * max(1.0, abs(g_lo)):
            raise NotStrictlyConvexError(f"not strictly convex near x = {hi}")
        if g_hi < g_lo - 1e-12 * max(1.0, abs(g_lo)):
            decreased = True
        if g_hi <= 0.0:
            return lo, hi
        lo, g_lo = hi, g_hi
        hi = hi / 2.0


def _crossing_bracket(big_h, xi):
    """Stage (b)'s bracket [lo, hi] of the next crossing, halving toward 0."""
    lo, hi = xi, xi / 2.0
    while True:
        if hi > _X_FLOOR:
            raise SlowGrowthError("F - h never crosses the tangent line again")
        if big_h(hi) >= 0.0:
            return lo, hi
        lo, hi = hi, hi / 2.0


def _line_at(w, xi):
    delta = separate_f_prime(w, xi)
    log_a = w.big_f(xi) - delta * xi
    if not (delta > 0.0 and math.isfinite(log_a)):
        raise ConstructionError(f"degenerate tangent at xi={xi}")
    return TangentLine(delta=delta, log_a=log_a, xi=xi)


def _f_prev(w, x_prev):
    if x_prev >= 0.0:
        raise ValueError("x_prev must be negative")
    f_prev = w.big_f(x_prev)
    if not math.isfinite(f_prev):
        raise OverflowError(f"F({x_prev}) is not finite; start farther from 0")
    return f_prev


def reference_bisection_tangent(w, x_prev, h):
    """One induction step by bisection, F and F' called apart."""
    f_prev = _f_prev(w, x_prev)

    def big_g(xi):
        f = w.big_f(xi)
        fp = separate_f_prime(w, xi)
        if not (math.isfinite(f) and math.isfinite(fp)):
            return NEG_INF
        return f + fp * (x_prev - xi) - f_prev + h

    xi = 0.5 * sum(_bisect(big_g, *_tangent_bracket(big_g, x_prev, h), positive_at_lo=True))
    line = _line_at(w, xi)

    def big_h(x):
        f = w.big_f(x)
        if not math.isfinite(f):
            return math.inf
        return f - h - line.value(x)

    x_next = 0.5 * sum(_bisect(big_h, *_crossing_bracket(big_h, xi), positive_at_lo=False))
    return line, x_next


def _rtsafe(value_and_slope, bracket, positive_at_lo, x):
    """Newton from x inside the bracket; a step out of it, or without a
    finite nonzero slope, goes to the midpoint.  Returns the point of a
    step of at most _ROOT_TOL relative that stays in the bracket, else the
    midpoint of a bracket narrowed to _ROOT_TOL relative."""
    lo, hi = bracket
    for _ in range(200):
        if hi - lo <= _ROOT_TOL * abs(hi):
            break
        if x is None or not lo < x < hi:
            x = 0.5 * (lo + hi)
        value, slope = value_and_slope(x)
        if (value > 0.0) == positive_at_lo:
            lo = x
        else:
            hi = x
        if slope is None or slope == 0.0 or math.isinf(slope) or math.isnan(slope):
            x = None
            continue
        step = value / slope
        x -= step
        if abs(step) <= _ROOT_TOL * abs(x) and lo <= x <= hi:
            return x
    return 0.5 * (lo + hi)


def _start(x, f_second, h):
    return x + math.sqrt(2.0 * h / f_second) if f_second is not None and f_second > 0.0 else None


def reference_newton_tangent(w, x_prev, h):
    """One induction step by safeguarded Newton from the quadratic start,
    F, F' and F'' called apart; see next_tangent.  Without F'' it bisects
    as reference_bisection_tangent does."""
    f_prev = _f_prev(w, x_prev)
    if separate_f_second(w, x_prev) is None:
        return reference_bisection_tangent(w, x_prev, h)

    def big_g(xi):
        f = w.big_f(xi)
        fp = separate_f_prime(w, xi)
        if not (math.isfinite(f) and math.isfinite(fp)):
            return NEG_INF
        return f + fp * (x_prev - xi) - f_prev + h

    def g_and_slope(xi):
        return big_g(xi), separate_f_second(w, xi) * (x_prev - xi)

    bracket = _tangent_bracket(big_g, x_prev, h)
    xi = _rtsafe(g_and_slope, bracket, True, _start(x_prev, separate_f_second(w, x_prev), h))
    line = _line_at(w, xi)

    def h_and_slope(x):
        f = w.big_f(x)
        if not math.isfinite(f):
            return math.inf, None
        return f - h - line.value(x), separate_f_prime(w, x) - line.delta

    bracket = _crossing_bracket(lambda x: h_and_slope(x)[0], xi)
    x_next = _rtsafe(h_and_slope, bracket, False, _start(xi, separate_f_second(w, xi), h))
    return line, x_next


def reference_run_construction(w, params, step=reference_newton_tangent):
    """The induction loop of run_construction (one attempt, no convexity
    gate) driven by `step`."""
    xs, lines, es = [params.x0], [], []
    x_prev = params.x0
    for _ in range(params.k_max):
        line, x_next = step(w, x_prev, params.h)
        e = math.floor(line.delta) + 1
        if es and e <= es[-1]:
            raise ExponentCollisionError(f"integer exponents collide at k={len(es) + 1}")
        lines.append(line)
        es.append(e)
        xs.append(x_next)
        x_prev = x_next
        if math.exp(x_next) > params.t_stop:
            break
    return ConstructionState(params=params, xs=tuple(xs),
                             lines=tuple(lines), es=tuple(es))
