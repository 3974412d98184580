"""Test-only reference: the tangent step that
`logweight.construction.next_tangent` replaced, which evaluates F and F'
in separate calls.

F' of an analytic weight comes from the family's own formula below, not
from the package, so this oracle does not share the fused (F, F')
evaluation it checks.  The step fused F and F' without changing a bit, so
`run_construction` must reproduce this reference exactly, tangency points
included.
"""

import math

from logweight.construction import (ConstructionError, ConstructionState,
                                    ExponentCollisionError, NotStrictlyConvexError,
                                    SlowGrowthError, TangentLine, _bisect, _ROOT_TOL)
from logweight.numerics import LOG_MAX, NEG_INF


def _u(x):
    return -math.expm1(x)


def _pow_or_inf(u, a):
    try:
        return u ** a
    except OverflowError:  # the families promise +inf where F' overflows
        return math.inf


# The analytic F' of every family, as separate formulas.
SEPARATE_F_PRIME = {
    "ramey_ullrich": lambda x, p: math.exp(x) / _u(x),
    "power": lambda x, p: p[0] * math.exp(x) / _u(x),
    "exp_power": lambda x, p: p[0] * _pow_or_inf(_u(x), -p[0] - 1.0) * math.exp(x),
    "double_exp": lambda x, p: (math.exp(1.0 / _u(x) + x) / _u(x) ** 2
                                if 1.0 / _u(x) + x - 2.0 * math.log(_u(x)) <= LOG_MAX
                                else math.inf),
    "log_power": lambda x, p: p[0] * math.exp(x) / (_u(x) * (1.0 - math.log(_u(x)))),
    "inv_log": lambda x, p: 1.0 / (x * x),
}


def separate_f_prime(w, x):
    """F'(x) by the family formula for an analytic weight, else w's own."""
    formula = SEPARATE_F_PRIME.get(getattr(w, "family", None))
    if formula is None:
        return w.big_f_prime(x)
    if x >= 0.0:
        raise ValueError(f"x={x} must be negative")
    return formula(x, w.params)


def reference_next_tangent(w, x_prev, h, root_tol=_ROOT_TOL):
    """One induction step with F and F' called apart; see next_tangent."""
    if x_prev >= 0.0:
        raise ValueError("x_prev must be negative")
    f_prev = w.big_f(x_prev)
    if not math.isfinite(f_prev):
        raise OverflowError(f"F({x_prev}) is not finite; start farther from 0")

    def big_g(xi):
        f = w.big_f(xi)
        fp = separate_f_prime(w, xi)
        if not (math.isfinite(f) and math.isfinite(fp)):
            return NEG_INF
        return f + fp * (x_prev - xi) - f_prev + h

    lo, g_lo = x_prev, h
    hi = x_prev / 2.0
    decreased = False
    while True:
        if hi > -root_tol:
            if decreased:
                raise SlowGrowthError("no tangent line drops h below F")
            raise NotStrictlyConvexError("the tangent never separates from the chord")
        g_hi = big_g(hi)
        if g_hi > g_lo + 1e-9 * max(1.0, abs(g_lo)):
            raise NotStrictlyConvexError(f"not strictly convex near x = {hi}")
        if g_hi < g_lo - 1e-12 * max(1.0, abs(g_lo)):
            decreased = True
        if g_hi <= 0.0:
            break
        lo, g_lo = hi, g_hi
        hi = hi / 2.0
    xi = 0.5 * sum(_bisect(big_g, lo, hi, positive_at_lo=True, tol=root_tol))
    delta = separate_f_prime(w, xi)
    log_a = w.big_f(xi) - delta * xi
    if not (delta > 0.0 and math.isfinite(log_a)):
        raise ConstructionError(f"degenerate tangent at xi={xi}")

    def big_h(x):
        f = w.big_f(x)
        if not math.isfinite(f):
            return math.inf
        return f - h - (log_a + delta * x)

    lo2 = xi
    hi2 = xi / 2.0
    while True:
        if hi2 > -root_tol:
            raise SlowGrowthError("F - h never crosses the tangent line again")
        if big_h(hi2) >= 0.0:
            break
        lo2 = hi2
        hi2 = hi2 / 2.0
    x_next = 0.5 * sum(_bisect(big_h, lo2, hi2, positive_at_lo=False, tol=root_tol))
    return TangentLine(delta=delta, log_a=log_a, xi=xi), x_next


def reference_run_construction(w, params):
    """The induction loop of run_construction (one attempt, no convexity
    gate) driven by reference_next_tangent."""
    xs, lines, es = [params.x0], [], []
    x_prev = params.x0
    for _ in range(params.k_max):
        line, x_next = reference_next_tangent(w, x_prev, params.h)
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
