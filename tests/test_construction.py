"""Tangent-line induction: solver precision, run invariants, lemma checks."""

import itertools
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight.cli import main
from logweight.construction import (ConstructionError, ConstructionParams,
                                    _ROOT_TOL, _convexity_gate, _gate_grid,
                                    _tangency_bracket, check_exponents, check_state_matches)
from logweight.weight_model import ROUNDING, check_log_convexity
from reference_construction import (reference_bisection_tangent, reference_newton_tangent,
                                    reference_run_construction)


SQRT2 = math.sqrt(2.0)


def ramey_state(t_stop=0.9999, h=2.0, k_max=500):
    w = lw.make_weight("ramey_ullrich")
    params = ConstructionParams(x0=math.log(0.95), h=h, t_stop=t_stop, k_max=k_max)
    return w, lw.run_construction(w, params)


class SoftLines:
    """Duck-typed test profile F(x) = log sum_i exp(s_i x + b_i) - eps/x.

    Strictly convex with slopes creeping through the s_i; tuned so two
    consecutive tangent slopes land in the same unit cell, which a smooth
    fast-growing weight cannot do at h >= 2.
    """

    def __init__(self, slopes, offsets, eps=1e-3):
        self.s = np.asarray(slopes, float)
        self.b = np.asarray(offsets, float)
        self.eps = eps

    def big_f(self, x):
        v = self.s * x + self.b
        m = v.max()
        return float(m + math.log(np.exp(v - m).sum()) - self.eps / x)

    def big_f_prime(self, x):
        v = self.s * x + self.b
        e = np.exp(v - v.max())
        return float((self.s * e).sum() / e.sum() + self.eps / (x * x))

    def big_f_and_prime(self, x):
        return self.big_f(x), self.big_f_prime(x)


def collision_profile():
    s2, s2b, s3 = 0.78, 0.90, 30.0
    b2b = (s2b - s2) * 60.0
    b3 = b2b + (s3 - s2b) * 2.0
    return SoftLines([s2, s2b, s3], [0.0, b2b, b3])


class TestNextTangentOracle:
    """F(x) = -1/x admits a closed-form step: the tangent through
    (-1, F(-1) - 2) touches at the root of xi^2 - 2 xi - 1 = 0."""

    def test_closed_form_values(self):
        w = lw.make_weight("inv_log")
        line, x_next = lw.next_tangent(w, -1.0, 2.0)
        assert line.xi == pytest.approx(1.0 - SQRT2, abs=1e-10)
        assert line.delta == pytest.approx(3.0 + 2.0 * SQRT2, abs=1e-10)
        assert line.log_a == pytest.approx(2.0 * (SQRT2 + 1.0), abs=1e-10)
        assert x_next == pytest.approx(-(3.0 - 2.0 * SQRT2), abs=1e-10)

    def test_quadratic_residuals(self):
        w = lw.make_weight("inv_log")
        line, x_next = lw.next_tangent(w, -1.0, 2.0)
        assert abs(line.xi**2 - 2.0 * line.xi - 1.0) < 1e-12
        # x_next is the other root of x^2 + 2 xi (xi - 1) x + xi^2 = 0
        assert abs(x_next**2 + 2.0 * line.xi * (line.xi - 1.0) * x_next
                   + line.xi**2) < 1e-12


class TestNextTangentRamey:
    def test_post_identities(self):
        w = lw.make_weight("ramey_ullrich")
        x_prev = math.log(0.95)
        line, x_next = lw.next_tangent(w, x_prev, 2.0)
        assert x_prev < line.xi < x_next < 0.0
        for x in (x_prev, x_next):
            res = line.value(x) - (w.big_f(x) - 2.0)
            assert abs(res) < 1e-10
        assert abs(line.value(line.xi) - w.big_f(line.xi)) < 1e-10
        assert line.delta == pytest.approx(w.big_f_prime(line.xi), rel=1e-8)

    def test_against_high_precision_bisection(self):
        # Independent oracle: redo both solves with 50-digit mpmath.
        mpmath.mp.dps = 50
        h = mpmath.mpf(2)
        x_prev = mpmath.log(mpmath.mpf("0.95"))

        def F(x):
            return -mpmath.log(1 - mpmath.exp(x))

        def Fp(x):
            return mpmath.exp(x) / (1 - mpmath.exp(x))

        def bisect(fn, lo, hi, want_pos_lo):
            for _ in range(220):
                mid = (lo + hi) / 2
                if (fn(mid) > 0) == want_pos_lo:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        G = lambda xi: F(xi) + Fp(xi) * (x_prev - xi) - F(x_prev) + h
        hi = x_prev / 2
        while G(hi) > 0:
            hi = hi / 2
        xi_ref = bisect(G, x_prev, hi, True)
        delta_ref = Fp(xi_ref)
        log_a_ref = F(xi_ref) - delta_ref * xi_ref
        H = lambda x: F(x) - h - (log_a_ref + delta_ref * x)
        hi2 = xi_ref / 2
        while H(hi2) < 0:
            hi2 = hi2 / 2
        x_next_ref = bisect(H, xi_ref, hi2, False)

        w = lw.make_weight("ramey_ullrich")
        line, x_next = lw.next_tangent(w, float(x_prev), 2.0)
        assert line.xi == pytest.approx(float(xi_ref), abs=1e-10)
        assert line.delta == pytest.approx(float(delta_ref), rel=1e-10)
        assert line.log_a == pytest.approx(float(log_a_ref), rel=1e-10)
        assert x_next == pytest.approx(float(x_next_ref), abs=1e-10)

    def test_linear_profile_rejected(self):
        table = [[t, math.exp(2.0 * math.log(t) + 3.0)] for t in (0.2, 0.4, 0.6, 0.8)]
        w = lw.make_weight("tabulated", table=table)
        with pytest.raises(lw.NotStrictlyConvexError):
            lw.next_tangent(w, -1.0, 2.0)


class Profile:
    """Duck-typed weight with F and F' given in closed form."""

    def __init__(self, f, fp):
        self.f, self.fp = f, fp

    def big_f(self, x):
        return self.f(x)

    def big_f_and_prime(self, x):
        return self.f(x), self.fp(x)


class TestTangentStageAFailures:
    """The two names stage (a) gives a profile whose tangent never drops h
    below F: bounded growth and concavity."""

    def test_bounded_profile_is_slow_growth(self):
        # F = e^x < 1: G falls, but from x_prev = -1 stays above G(0^-) = h - 1/e > 0
        w = Profile(math.exp, math.exp)
        with pytest.raises(lw.SlowGrowthError, match=r"no tangent line drops 2\.0 below F"):
            lw.next_tangent(w, -1.0, 2.0)

    def test_concave_profile_is_not_strictly_convex(self):
        # F = -x^2: G(xi) = (xi - x_prev)^2 + h grows at the first probe
        w = Profile(lambda x: -x * x, lambda x: -2.0 * x)
        with pytest.raises(lw.NotStrictlyConvexError,
                           match=r"not strictly convex near x = -0\.5$"):
            lw.next_tangent(w, -1.0, 2.0)


class TestRunConstruction:
    def test_invariants_and_stop(self):
        w, state = ramey_state()
        assert state.t_last > 0.9999
        xs = state.xs
        assert all(b > a for a, b in zip(xs, xs[1:])) and xs[-1] < 0.0
        assert all(b > a for a, b in zip(state.ts, state.ts[1:]))
        deltas = state.deltas
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b > a for a, b in zip(state.es, state.es[1:]))
        assert all(e == math.floor(d) + 1 for e, d in zip(state.es, deltas))

    def test_residual_invariants(self):
        # Tangency and chord residuals, relative to the local size of F,
        # stay within 10x the bisection tolerance.
        w, state = ramey_state(t_stop=0.999999999)
        tol = 10.0 * _ROOT_TOL
        h = state.params.h
        for k, line in enumerate(state.lines, start=1):
            f_xi = w.big_f(line.xi)
            assert abs(line.value(line.xi) - f_xi) <= tol * max(1.0, abs(f_xi))
            for x in (state.xs[k - 1], state.xs[k]):
                f_x = w.big_f(x)
                assert abs(line.value(x) - (f_x - h)) <= tol * max(1.0, abs(f_x))

    def test_determinism(self):
        _, s1 = ramey_state()
        _, s2 = ramey_state()
        assert s1.xs == s2.xs
        assert s1.deltas == s2.deltas
        assert s1.log_as == s2.log_as
        assert s1.es == s2.es

    def test_k_max_one(self):
        w, state = ramey_state(k_max=1)
        assert len(state.lines) == 1
        assert state.es == (math.floor(state.lines[0].delta) + 1,)

    def test_exp_power_ratio_trend(self):
        w = lw.make_weight("exp_power", [1.0])
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.999, k_max=1000))
        ratios = [b / a for a, b in zip(state.es, state.es[1:])]
        assert len(ratios) >= 6
        assert np.mean(ratios[-3:]) < np.mean(ratios[:3])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ConstructionParams(x0=-1.0, h=1.0)
        with pytest.raises(ValueError):
            ConstructionParams(x0=0.5)
        with pytest.raises(ValueError):
            ConstructionParams(x0=-1.0, t_stop=1.0)

    @pytest.mark.parametrize("field, kw", [
        ("h", dict(x0=-1.0, h=math.inf)), ("h", dict(x0=-1.0, h=math.nan)),
        ("x0", dict(x0=-math.inf)), ("x0", dict(x0=math.nan))])
    def test_nonfinite_param_named(self, field, kw):
        with pytest.raises(ValueError, match=f"^{field}=.* must be finite$"):
            ConstructionParams(**kw)

    def test_nonfinite_x0_exits_2_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["construct", "--family", "ramey_ullrich", "--x0=-inf"]) == 2
        assert capsys.readouterr().err == "error: x0=-inf must be finite\n"

    def test_huge_gap_is_slow_growth(self, capsys):
        # next to h = 1e300 the drop of G rounds away; G - h still falls
        w = lw.make_weight("ramey_ullrich")
        with pytest.raises(lw.SlowGrowthError, match="no tangent line drops 1e[+]300 below F"):
            lw.next_tangent(w, math.log(0.95), 1e300)
        assert main(["construct", "--family", "ramey_ullrich", "--h", "1e300"]) == 2
        assert "grows too slowly" in capsys.readouterr().err

    def test_slow_growth_error(self):
        w = lw.make_weight("log_power")
        with pytest.raises(lw.SlowGrowthError, match=r"float floor x = -1\.1102230246251565e-16"):
            lw.run_construction(
                w, ConstructionParams(x0=math.log(0.95), h=2.0,
                                      t_stop=1.0 - 1e-15, k_max=50))

    def test_deep_run_passes_the_bisection_tolerance(self):
        # The halving searches stop at x = -2^-53, not at -_ROOT_TOL: a run
        # to t = 1 - 1e-12 brackets its last crossing, within 2 _ROOT_TOL of
        # 0, by an abscissa right of x = -_ROOT_TOL.
        w, state = ramey_state(t_stop=0.999999999999)
        assert len(state.lines) == 6
        assert -2.0 * _ROOT_TOL < state.xs[-1] < -_ROOT_TOL
        assert state.t_last > 0.999999999999
        assert lw.verify_tangent_lemmas(state, w).passed
        ts = np.linspace(state.t0, state.t_last, 201)[1:]
        assert lw.sandwich_check(lw.split_parity(state), w, ts, theta_count=32).passed

    def test_convexity_gate(self):
        table = [[t, math.exp(2.0 * math.log(t) + 3.0)] for t in (0.2, 0.4, 0.6, 0.8)]
        w = lw.make_weight("tabulated", table=table)
        with pytest.raises(lw.NotStrictlyConvexError):
            lw.run_construction(w, ConstructionParams(x0=-1.2, h=2.0, t_stop=0.7))

    def test_json_round_trip(self):
        _, state = ramey_state()
        d = state.to_json_dict()
        assert set(d) == {"h", "x0", "xs", "deltas", "log_as", "es"}
        back = lw.ConstructionState.from_json_dict(d)
        assert back.xs == state.xs
        assert back.es == state.es
        assert back.deltas == state.deltas

    def test_nan_abscissa_fails_the_state_gate(self):
        # abs(nan) > tol is false, so the residual test must fail a NaN
        w, state = ramey_state()
        bad = replace(state, xs=(math.nan,) + state.xs[1:])
        with pytest.raises(ValueError, match="chord residual nan at k=1"):
            check_state_matches(bad, w)


class TestExponentCollision:
    def test_collision_raises_with_advice(self):
        w = collision_profile()
        with pytest.raises(lw.ExponentCollisionError) as exc:
            lw.run_construction(
                w, ConstructionParams(x0=-120.0, h=2.0, t_stop=0.9999, k_max=8))
        assert "x0" in str(exc.value)

    def test_auto_restart_recovers(self):
        w = collision_profile()
        state = lw.run_construction(
            w, ConstructionParams(x0=-120.0, h=2.0, t_stop=0.9999, k_max=8,
                                  auto_restart=True))
        assert all(b > a for a, b in zip(state.es, state.es[1:]))
        assert state.params.x0 > -120.0  # restarted closer to 0


class TestFloatFloor:
    def test_past_floor_is_named(self):
        # line 1 has log_a = 4.05e19, one ulp 8192: it cannot resolve h = 2
        w = lw.make_weight("double_exp")
        params = ConstructionParams(x0=math.log(0.9758528039767908), h=2.0, k_max=40)
        with pytest.raises(lw.FloatFloorError, match="line 1 is past the float floor"):
            lw.run_construction(w, params)
        assert issubclass(lw.FloatFloorError, ConstructionError)

    def test_bench_depth_stays_above_floor(self):
        w = lw.make_weight("double_exp")
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), k_max=2000))
        assert len(state.lines) == 2000
        assert max(math.ulp(a) for a in state.log_as) <= 2.0 / 1024 / 1000


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_same_run(w, params):
    new, ref = lw.run_construction(w, params), reference_run_construction(w, params)
    assert new.es == ref.es
    for get in (lambda s: s.xs, lambda s: s.deltas, lambda s: s.log_as,
                lambda s: [line.xi for line in s.lines]):
        np.testing.assert_array_equal(bits(get(new)), bits(get(ref)))
    return new


class CountingWeight:
    """A weight's F, F', fused (F, F') and F'', counting the calls of each
    and recording the abscissas of the fused ones."""

    def __init__(self, w):
        self.w = w
        self.calls = {"big_f": 0, "big_f_prime": 0, "big_f_and_prime": 0, "big_f_second": 0}
        self.fused_xs = []

    def __getattr__(self, name):
        method = getattr(self.w, name)
        if name not in self.calls:
            return method

        def counted(x):
            self.calls[name] += 1
            if name == "big_f_and_prime":
                self.fused_xs.append(x)
            return method(x)
        return counted


class TestConvexityGate:
    """The gate decides on the fused slopes: one (F, F') call per grid
    point, no F' call, and check_log_convexity's report and errors."""

    @pytest.mark.parametrize("w, x0", [
        (lw.make_weight("exp_power", (2.0,)), math.log(0.95)),
        (lw.make_weight("double_exp"), math.log(0.95)),
        (lw.make_weight("perturbed_sawtooth"), -1.5),
        (lw.weight_from_knots([(-3.0, 0.0), (-1.0, 1.0), (-0.5, 1.5), (-0.1, 2.0)]), -2.0),
    ], ids=["exp_power", "double_exp", "sawtooth", "linear_knots"])
    def test_one_fused_call_per_point(self, w, x0):
        grid = [float(x) for x in _gate_grid(x0)]
        prefix = list(itertools.takewhile(
            lambda x: all(map(math.isfinite, w.big_f_and_prime(x))), grid))
        counted = CountingWeight(w)
        try:
            expected = check_log_convexity(w, prefix)
        except (OverflowError, ValueError):
            with pytest.raises(OverflowError, match="enough of the gate grid"):
                _convexity_gate(counted, x0)
        else:
            if expected.is_strictly_convex:
                assert _convexity_gate(counted, x0) == expected
            else:
                with pytest.raises(lw.NotStrictlyConvexError,
                                   match=f"min slope gap {expected.min_slope_gap:.3g}, "):
                    _convexity_gate(counted, x0)
        assert counted.calls["big_f_prime"] == counted.calls["big_f"] == 0
        assert counted.calls["big_f_and_prime"] == min(len(prefix) + 1, len(grid))

    def test_bench_gate_calls(self):
        counted = CountingWeight(lw.make_weight("exp_power", (2.0,)))
        lw.run_construction(counted, ConstructionParams(x0=math.log(0.95), k_max=1))
        assert counted.calls["big_f_prime"] == 0

    def test_too_few_finite_points(self):
        with pytest.raises(OverflowError, match="enough of the gate grid"):
            _convexity_gate(CountingWeight(lw.make_weight("double_exp")), -1e-3)


# the four constructions of the benchmark: deep_lemmas' two and cli_grid's two
BENCH_RUNS = [
    ("double_exp", (), dict(k_max=2000)),
    ("exp_power", (2.0,), dict(k_max=5000, t_stop=0.999)),
    ("exp_power", (1.0,), dict(t_stop=0.9999)),
    ("ramey_ullrich", (), dict(t_stop=0.999999999)),
]


class TestMinAboveLineCalls:
    """The lemma bound of one line reuses F from the fused (F, F') calls
    of its sign tests: two fused calls and one F call on the stored xi."""

    @pytest.mark.parametrize("w", [lw.make_weight("exp_power", (2.0,)),
                                   lw.make_weight("ramey_ullrich")],
                             ids=["exp_power", "ramey_ullrich"])
    def test_three_evaluations_per_line(self, w):
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), k_max=20))
        xs = state.xs
        for k, line in enumerate(state.lines):
            counted = CountingWeight(w)
            _, c, _, _, f_c, _ = _tangency_bracket(counted, line, xs[k], xs[k + 1], xs[0])
            assert counted.calls == {"big_f": 1, "big_f_prime": 0, "big_f_and_prime": 2,
                                     "big_f_second": 0}
            assert f_c == w.big_f(c)

    @pytest.mark.parametrize("family, params, kw", BENCH_RUNS)
    def test_two_fused_calls_per_line_on_bench_states(self, family, params, kw):
        # every stored xi keeps its +-_XI_BRACKET bracket, which a root
        # stopped at the residual's rounding noise must not lose to the
        # bisection fallback
        w = lw.make_weight(family, params)
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), **kw))
        counted = CountingWeight(w)
        xs = state.xs
        for k, line in enumerate(state.lines):
            _tangency_bracket(counted, line, xs[k], xs[k + 1], xs[0])
        assert counted.calls["big_f_and_prime"] == 2 * len(state.lines)

    def test_bisection_path_evaluates_f_at_the_midpoint_only(self):
        w = lw.make_weight("exp_power", (2.0,))
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), k_max=20))
        xs = state.xs
        for k, line in enumerate(state.lines):
            counted = CountingWeight(w)
            _tangency_bracket(counted, replace(line, xi=None), xs[k], xs[k + 1], xs[0])
            assert counted.calls["big_f_prime"] == 0 and counted.calls["big_f"] <= 1
            # the searches' end points are not evaluated again after them
            assert len(set(counted.fused_xs)) == len(counted.fused_xs)


BENCH_STATES = [
    ("double_exp", (), dict(k_max=200), 200),
    ("exp_power", (2.0,), dict(k_max=5000, t_stop=0.999), 601),
    ("exp_power", (1.0,), {}, 68),
    ("ramey_ullrich", (), dict(t_stop=1.0 - 1e-9), 4),
    ("power", (3.0,), {}, None),
    ("inv_log", (), {}, None),
]


class TestFusedStepOracle:
    """run_construction, with F and F' fused, against the Newton step that
    calls F, F' and F'' apart, each analytic F' and F'' from its own
    formula: every abscissa, coefficient and tangency point bit for bit."""

    @pytest.mark.parametrize("family, params, kw, lines", BENCH_STATES)
    def test_bench_states(self, family, params, kw, lines):
        state = assert_same_run(lw.make_weight(family, params),
                                ConstructionParams(x0=math.log(0.95), **kw))
        assert lines is None or len(state.lines) == lines

    @pytest.mark.parametrize("family, params, kw", BENCH_RUNS)
    def test_row_functions_match_methods(self, family, params, kw):
        # next_tangent evaluates a WeightFunction through its row functions,
        # and a wrapper weight through the methods it forwards to
        w = lw.make_weight(family, params)
        params = ConstructionParams(x0=math.log(0.95), **kw)
        new, ref = lw.run_construction(w, params), lw.run_construction(CountingWeight(w), params)
        assert new.es == ref.es
        for get in (lambda s: s.xs, lambda s: s.deltas, lambda s: s.log_as,
                    lambda s: [line.xi for line in s.lines]):
            np.testing.assert_array_equal(bits(get(new)), bits(get(ref)))

    @pytest.mark.parametrize("x_prev", [0.0, 1.0, math.inf])
    def test_nonnegative_start_rejected(self, x_prev):
        # the row functions skip the methods' x < 0 guard: next_tangent keeps its own
        with pytest.raises(ValueError, match="x_prev must be negative"):
            lw.next_tangent(lw.make_weight("double_exp"), x_prev, 2.0)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.25, 4.0), t0=st.floats(0.5, 0.97))
    def test_exp_power_property(self, alpha, t0):
        w = lw.make_weight("exp_power", (alpha,))
        params = ConstructionParams(x0=math.log(t0), k_max=60, t_stop=0.999)
        try:
            assert_same_run(w, params)
        except ConstructionError as err:
            with pytest.raises(type(err)):
                reference_run_construction(w, params)


class TestNewtonStep:
    """The Newton step finds the bisection step's roots, to within the
    rounding noise of the residuals, in a fraction of the evaluations."""

    @pytest.mark.parametrize("family, params, kw, lines", BENCH_STATES)
    def test_bisection_is_a_tolerance_oracle(self, family, params, kw, lines):
        # Step by step from the same x_prev: Newton's roots lie within the
        # rounding noise err / |slope| of their residuals, bisection's
        # within that and its bracket width _ROOT_TOL |x|.  Whole runs are
        # compared by K only: each step's noise moves the next x_prev, and
        # on double_exp (delta ~ 1e11) es may differ, as a relative move of
        # 1e-12 in xi can carry floor(delta) across an integer.
        w, params = lw.make_weight(family, params), ConstructionParams(x0=math.log(0.95), **kw)
        new = lw.run_construction(w, params)
        ref = reference_run_construction(w, params, step=reference_bisection_tangent)
        assert len(new.lines) == len(ref.lines)
        h = params.h
        for x_prev in new.xs[:-1]:
            line, x_next = lw.next_tangent(w, x_prev, h)
            ref_line, ref_next = reference_bisection_tangent(w, x_prev, h)
            noise_g, noise_h = root_noise(w, x_prev, h, line, x_next)
            assert abs(line.xi - ref_line.xi) <= 4.0 * noise_g + _ROOT_TOL * abs(line.xi)
            assert abs(x_next - ref_next) <= 4.0 * noise_h + _ROOT_TOL * abs(x_next)

    @pytest.mark.parametrize("family, params, kw", [
        ("double_exp", (), dict(k_max=200)),
        ("exp_power", (2.0,), dict(k_max=5000, t_stop=0.999)),
    ])
    def test_fused_calls_per_line(self, family, params, kw):
        # bisection took 45 fused and 45 F calls per line, Newton to
        # _ROOT_TOL about 15 fused and 8 F'' on double_exp and 9.4 and 5.3
        # on exp_power; stopped at the rounding noise, a step makes exactly
        # these calls (the convexity gate's fused calls included)
        fused, second = {"double_exp": (853, 600), "exp_power": (4023, 2542)}[family]
        counted = CountingWeight(lw.make_weight(family, params))
        state = lw.run_construction(counted, ConstructionParams(x0=math.log(0.95), **kw))
        assert counted.calls["big_f_and_prime"] == fused
        assert counted.calls["big_f_second"] == second
        assert counted.calls["big_f"] == len(state.lines)  # F(x_prev) once per line
        assert len(state.lines) == {"double_exp": 200, "exp_power": 601}[family]


def root_noise(w, x_prev, h, line, x_next):
    """err / |slope| of stage (a)'s residual G at line.xi and of stage (b)'s
    H at x_next, err from the weight's rounding_shift as in next_tangent."""
    def err_f(x, value, slope):
        return ROUNDING * abs(value) + w.rounding_shift(x) * abs(slope)

    xi, f_prev = line.xi, w.big_f(x_prev)
    f, fp = w.big_f_and_prime(xi)
    fpp, gap = w.big_f_second(xi), x_prev - xi
    err_g = (err_f(xi, f, fp) + err_f(x_prev, f_prev, fp) + abs(gap) * err_f(xi, fp, fpp)
             + ROUNDING * (abs(f) + abs(fp * gap) + abs(f_prev) + h))
    f, fp = w.big_f_and_prime(x_next)
    err_h = err_f(x_next, f, fp) + ROUNDING * (abs(f) + abs(line.log_a)
                                               + abs(line.delta * x_next) + h)
    return err_g / abs(fpp * gap), err_h / abs(fp - line.delta)


class WithoutSecond:
    """A weight's F, F' and fused (F, F') without its big_f_second, and
    with the other methods named in `keep`."""

    def __init__(self, w, *keep):
        self.big_f, self.big_f_prime = w.big_f, w.big_f_prime
        self.big_f_and_prime = w.big_f_and_prime
        for name in keep:
            setattr(self, name, getattr(w, name))


def step_outcomes(step, w, x0, n=8, h=2.0):
    """The bits of n induction steps from x0, up to the type of the first
    error one raises."""
    out, x = [], x0
    for _ in range(n):
        try:
            line, x = step(w, x, h)
        except (ConstructionError, ArithmeticError, ValueError) as err:
            return out, type(err)
        out.append(bits([line.delta, line.log_a, line.xi, x]).tolist())
    return out, None


class TestBisectionFallback:
    """A weight without F'' (tabulated, perturbed_*, duck-typed) gets no
    Newton step: each step is the bisection step, bit for bit."""

    def test_hull_run(self):
        source = lw.make_weight("exp_power", (1.0,))
        knots = [(x, source.big_f(x)) for x in (-np.geomspace(2.0, 1e-9, 400)).tolist()]
        w = lw.weight_from_knots(knots, strictify=1.0)
        params = ConstructionParams(x0=math.log(0.95), t_stop=0.999)
        new = lw.run_construction(w, params)
        ref = reference_run_construction(w, params, step=reference_bisection_tangent)
        assert len(new.lines) == 20 and new.es == ref.es
        for get in (lambda s: s.xs, lambda s: s.deltas, lambda s: s.log_as,
                    lambda s: [line.xi for line in s.lines]):
            np.testing.assert_array_equal(bits(get(new)), bits(get(ref)))

    def test_crossing_bisects_on_plain_f(self):
        # stage (b) reads no F' without F'': 47 fused calls bisect to the
        # tangency, then 48 big_f calls to the crossing, plus F(x_prev)
        counted = CountingWeight(lw.make_weight("perturbed_bump"))
        lw.next_tangent(counted, -0.6, 2.0)
        assert (counted.calls["big_f_and_prime"], counted.calls["big_f"]) == (47, 49)

    @pytest.mark.parametrize("w, x0, steps, error", [
        (lw.make_weight("perturbed_bump"), math.log(0.95), 7, lw.SlowGrowthError),
        (lw.make_weight("perturbed_bump", (0.5, -0.2, 0.05)), -0.4, 0,
         lw.NotStrictlyConvexError),
        (lw.make_weight("perturbed_sawtooth", (0.01, 0.25)), -0.6, 8, None),
        (lw.make_weight("perturbed_unbounded_sawtooth", (0.01, 0.5)), -0.6, 1,
         lw.NotStrictlyConvexError),
        (collision_profile(), -120.0, 8, None),
        (WithoutSecond(lw.make_weight("exp_power", (2.0,))), math.log(0.95), 8, None),
        # a rounding bound without F'' gives no rounding stop: its err needs F''
        (WithoutSecond(lw.make_weight("exp_power", (2.0,)), "rounding_shift"),
         math.log(0.95), 8, None),
    ], ids=["bump", "bump-near", "sawtooth", "unbounded_sawtooth", "soft_lines",
            "exp_power-without-second", "exp_power-without-second-with-shift"])
    def test_steps(self, w, x0, steps, error):
        new = step_outcomes(lw.next_tangent, w, x0)
        assert (len(new[0]), new[1]) == (steps, error)
        assert new == step_outcomes(reference_bisection_tangent, w, x0)
        assert new == step_outcomes(reference_newton_tangent, w, x0)
        # a WeightFunction's row functions and the methods a wrapper calls
        assert new == step_outcomes(lw.next_tangent, CountingWeight(w), x0)


class TestHForDelta:
    def test_boundary_values(self):
        assert lw.h_for_delta(1.0) == 2.0  # log 5 < 2, clamped
        assert lw.h_for_delta(0.01) == pytest.approx(math.log(401.0), rel=1e-15)
        boundary = 4.0 / (math.e**2 - 1.0)
        assert lw.h_for_delta(boundary) == pytest.approx(2.0, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                lw.h_for_delta(bad)

    def test_monotone_decreasing_in_delta(self):
        hs = [lw.h_for_delta(d) for d in (0.001, 0.01, 0.1, 0.62, 1.0)]
        assert all(b <= a for a, b in zip(hs, hs[1:]))


class TestVerifyTangentLemmas:
    def test_ramey_deep_all_pass(self):
        w, state = ramey_state(t_stop=0.999999999)
        rep = lw.verify_tangent_lemmas(state, w, 50)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert names == {
            "lines_later_below", "lines_earlier_below", "segment_upper",
            "segment_lower", "segment_tail_half", "segment_upper_int",
            "segment_lower_int", "segment_tail_int"}
        # tails are non-vacuous on a deep run
        assert rep.check("segment_tail_half").n_points > 0

    def test_tampered_intercept_fails_with_witness(self):
        w, state = ramey_state(t_stop=0.999999999)
        lines = list(state.lines)
        lines[1] = replace(lines[1], log_a=lines[1].log_a + 5.0)
        bad = replace(state, lines=tuple(lines))
        rep = lw.verify_tangent_lemmas(bad, w, 50)
        assert not rep.passed
        c = rep.check("segment_upper")
        assert not c.passed
        assert c.worst_margin < -1e-3
        assert c.witness_x is not None and c.witness_k is not None

    def test_single_line_vacuous_pairs(self):
        w, state = ramey_state(k_max=1)
        rep = lw.verify_tangent_lemmas(state, w, 50)
        assert rep.passed
        assert rep.check("lines_later_below").n_points == 0
        assert rep.check("segment_tail_half").n_points == 0
        assert rep.check("segment_upper").n_points > 0
        assert rep.check("segment_lower").n_points > 0

    def test_delta_gate(self):
        w, state = ramey_state()  # h = 2
        with pytest.raises(ValueError):
            lw.verify_tangent_lemmas(state, w, 20, delta=0.01)  # needs h ~ 5.99

    def test_delta_checks_present_and_pass(self):
        delta = 0.1
        h = lw.h_for_delta(delta)
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=h, t_stop=0.9999))
        rep = lw.verify_tangent_lemmas(state, w, 50, delta=delta)
        assert rep.passed
        assert rep.check("segment_tail_delta").passed
        assert rep.check("segment_tail_delta_int").passed

    def test_weight_mismatch_rejected(self):
        w, state = ramey_state()
        other = lw.make_weight("exp_power", [1.0])
        with pytest.raises(ValueError):
            lw.verify_tangent_lemmas(state, other, 20)

    def test_exponents_checked(self):
        # e_1 = 1 < delta_1: segment_upper_int is decided from the delta
        # form's bound, so without the check this state passed
        w, state = ramey_state(t_stop=0.999999999)
        bad = replace(state, es=(1,) + state.es[1:])
        with pytest.raises(ValueError, match=r"'es' entry 0 is 1, not floor\(deltas\[0\]\) \+ 1"):
            lw.verify_tangent_lemmas(bad, w, 50)

    def test_raised_line_fails_tails_without_warning(self):
        # line 101 raised by 30 tops its neighbours, so the smallest gap is
        # negative and the tail sums are +inf beside finite terms above 709,
        # which logsumexp must not exponentiate
        w = lw.make_weight("double_exp")
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), k_max=200))
        lines = list(state.lines)
        lines[100] = replace(lines[100], log_a=lines[100].log_a + 30.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = lw.verify_tangent_lemmas(replace(state, lines=tuple(lines)), w)
        assert [str(c.message) for c in caught] == []
        tail = report.check("segment_tail_half")
        assert tail.worst_margin == -math.inf and not tail.passed


def reference_check_exponents(es, deltas):
    """check_exponents entry by entry, by math.floor."""
    for i, (e, dd) in enumerate(zip(es, deltas)):
        if e != math.floor(dd) + 1:
            raise ValueError(f"state field 'es' entry {i} is {e}, not floor(deltas[{i}]) + 1 "
                             f"= {math.floor(dd) + 1}")


def exponent_outcome(check, es, deltas):
    try:
        check(es, deltas)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    return None


# integers, one ulp below and above them, and the magnitudes where floats
# stop resolving fractions (2^52) and consecutive integers (2^53), up to
# floors past the int64 range (2^63, 2^64)
EXPONENT_DELTAS = [0.0, -0.0, 0.5, 3.0, math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0),
                   -2.0, math.nextafter(-2.0, -3.0), 1e11, math.nextafter(1e11, 0.0),
                   2.0 ** 52, math.nextafter(2.0 ** 52, 0.0), -(2.0 ** 52), 2.0 ** 53,
                   math.nextafter(2.0 ** 53, 0.0), -(2.0 ** 53), 2.0 ** 63, -(2.0 ** 63),
                   2.0 ** 64]


class TestCheckExponents:
    """check_exponents decides es[k] == floor(deltas[k]) + 1 on arrays
    where that is exact and by math.floor elsewhere: the verdict, the error
    and its message are those of the rule applied entry by entry."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_math_floor(self, data):
        deltas = data.draw(st.lists(st.one_of(st.sampled_from(EXPONENT_DELTAS),
                                              st.floats(-1e17, 1e17)), max_size=6))
        es = [math.floor(d) + 1 + data.draw(st.sampled_from([0, 0, 0, 1, -1, 2 ** 63, 2 ** 64]))
              for d in deltas]
        got = exponent_outcome(check_exponents, tuple(es), tuple(deltas))
        assert got == exponent_outcome(reference_check_exponents, es, deltas)

    @pytest.mark.parametrize("es, deltas", [
        ((1, 2 ** 63 + 1), (0.5, 2.0 ** 63)),  # an int past int64 sends es to math.floor
        ((1, 2 ** 63 + 2), (0.5, 2.0 ** 63)),
        ((2, 4, 2 ** 53 + 1), (1.0, 3.0, 2.0 ** 53)),
        ((2, 4, 2 ** 53 + 2), (1.0, 3.0, 2.0 ** 53)),  # 2^53 + 2 == float(2^53) + 1.0
        ((1, 3), (0.5, math.nextafter(3.0, 0.0))),
        ((1, 4), (0.5, math.nextafter(3.0, 0.0))),
        ((1, 2, 7), (0.5, math.inf, 5.0)),  # math.floor raises at the infinite entry
        ((1, 7, 2), (0.5, 5.0, math.inf)),  # the first bad entry comes before it
        ((1, 2), (0.5, math.nan)),
        ((1.0, 2), (0.5, 1.5)),  # a float es goes by math.floor
        ((1.5, 2), (0.5, 1.5)),
        ((1,), (0.5, 1.5)),  # zip's common prefix
        ((), ()),
    ])
    def test_fixed_cases(self, es, deltas):
        assert (exponent_outcome(check_exponents, es, deltas)
                == exponent_outcome(reference_check_exponents, es, deltas))
