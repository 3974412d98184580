"""Tangent-line induction: solver precision, run invariants, lemma checks."""

import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight.construction import (ConstructionError, ConstructionParams,
                                    _convexity_gate, _gate_grid, _min_above_line)
from logweight.weight_model import check_log_convexity
from reference_construction import reference_run_construction


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
        tol = 10.0 * state.params.root_tol
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

    def test_slow_growth_error(self):
        w = lw.make_weight("log_power")
        with pytest.raises(lw.SlowGrowthError, match=r"float floor x = -1\.1102230246251565e-16"):
            lw.run_construction(
                w, ConstructionParams(x0=math.log(0.95), h=2.0,
                                      t_stop=1.0 - 1e-15, k_max=50))

    def test_deep_run_passes_the_bisection_tolerance(self):
        # The halving searches stop at x = -2^-53, not at -root_tol: a run
        # to t = 1 - 1e-12 brackets its last crossing, within 2 root_tol of
        # 0, by an abscissa right of x = -root_tol.
        w, state = ramey_state(t_stop=0.999999999999)
        assert len(state.lines) == 6
        assert -2.0 * state.params.root_tol < state.xs[-1] < -state.params.root_tol
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
    """A weight's F, F' and fused (F, F'), counting the calls of each."""

    def __init__(self, w):
        self.w, self.calls = w, {"big_f": 0, "big_f_prime": 0, "big_f_and_prime": 0}

    def __getattr__(self, name):
        method = getattr(self.w, name)
        if name not in self.calls:
            return method

        def counted(x):
            self.calls[name] += 1
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
            _, c, f_c = _min_above_line(counted, line, xs[k], xs[k + 1], xs[0],
                                        state.params.root_tol)
            assert counted.calls == {"big_f": 1, "big_f_prime": 0, "big_f_and_prime": 2}
            assert f_c == w.big_f(c)

    def test_bisection_path_evaluates_f_at_the_midpoint_only(self):
        w = lw.make_weight("exp_power", (2.0,))
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), k_max=20))
        xs = state.xs
        for k, line in enumerate(state.lines):
            counted = CountingWeight(w)
            _min_above_line(counted, replace(line, xi=None), xs[k], xs[k + 1], xs[0],
                            state.params.root_tol)
            assert counted.calls["big_f_prime"] == 0 and counted.calls["big_f"] <= 1


class TestFusedStepOracle:
    """run_construction, with F and F' fused, against the step that calls
    them apart: every abscissa, coefficient and tangency point bit for bit."""

    @pytest.mark.parametrize("family, params, kw, lines", [
        ("double_exp", (), dict(k_max=200), 200),
        ("exp_power", (2.0,), dict(k_max=5000, t_stop=0.999), 601),
        ("exp_power", (1.0,), {}, 68),
        ("ramey_ullrich", (), dict(t_stop=1.0 - 1e-9), 4),
        ("power", (3.0,), {}, None),
        ("inv_log", (), {}, None),
    ])
    def test_bench_states(self, family, params, kw, lines):
        state = assert_same_run(lw.make_weight(family, params),
                                ConstructionParams(x0=math.log(0.95), **kw))
        assert lines is None or len(state.lines) == lines

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
