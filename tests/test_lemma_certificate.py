"""The endpoint certificate of verify_tangent_lemmas against the sampled
reference verifier, the JSON path (states without tangency points), and
the basis a lemma report names."""

import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import logweight as lw
from logweight import construction
from logweight.cli import main, render_json
from logweight.construction import (_TAIL_BLOCK, _TAIL_WINDOW, _XI_BRACKET, ConstructionParams,
                                    _tail_log_bound, _tangency_bounds, _tangency_bracket)
from logweight.numerics import logsumexp
from logweight.weight_model import is_known_convex
from reference_lemmas import (reference_min_above_line, reference_tail_log_bound,
                              reference_verify_tangent_lemmas)

X0 = math.log(0.95)

# name -> (family, family params, construction params, delta checked)
STATES = {
    "ramey_ullrich": ("ramey_ullrich", (), dict(t_stop=1.0 - 1e-9), None),
    "exp_power": ("exp_power", (1.0,), dict(t_stop=0.9999), None),
    "power_delta": ("power", (2.0,), dict(h=lw.h_for_delta(0.01), t_stop=1.0 - 1e-9), 0.01),
    "double_exp": ("double_exp", (), dict(k_max=200), None),
}


@functools.lru_cache(maxsize=None)
def built(name):
    family, params, kw, delta = STATES[name]
    w = lw.make_weight(family, params)
    return w, lw.run_construction(w, ConstructionParams(x0=X0, **kw)), delta


def dipped_bump():
    """The K = 4 ramey_ullrich state and perturbed_bump with a dip of depth
    1 at the midpoint of I_2, a fifth of I_2 wide."""
    w = lw.make_weight("ramey_ullrich")
    state = lw.run_construction(w, ConstructionParams(x0=X0, t_stop=0.999999999))
    xs = state.xs
    return lw.make_weight("perturbed_bump",
                          (-1.0, 0.5 * (xs[1] + xs[2]), 0.2 * (xs[2] - xs[1]))), state


class DuckWeight:
    """ramey_ullrich's F and F' behind an object with no `family`: convex,
    but not known to be, so its lemma report takes the sampled basis."""

    def __init__(self):
        w = lw.make_weight("ramey_ullrich")
        self.big_f, self.big_f_prime, self.big_f_and_prime = (
            w.big_f, w.big_f_prime, w.big_f_and_prime)


def tamper(state, k, **changes):
    lines = list(state.lines)
    lines[k - 1] = dataclasses.replace(lines[k - 1], **changes)
    return dataclasses.replace(state, lines=tuple(lines))


def from_json(state):
    return lw.ConstructionState.from_json_dict(json.loads(json.dumps(state.to_json_dict())))


class TestAgainstSampledReference:
    @pytest.mark.parametrize("samples", [2, 50])
    @pytest.mark.parametrize("name", list(STATES))
    def test_never_more_lenient(self, name, samples):
        w, state, delta = built(name)
        new = lw.verify_tangent_lemmas(state, w, samples, delta=delta)
        ref = reference_verify_tangent_lemmas(state, w, samples, delta=delta)
        assert new.passed and ref.passed
        assert [c.name for c in new.checks] == [c.name for c in ref.checks]
        for c_new, c_ref in zip(new.checks, ref.checks):
            assert c_new.passed == c_ref.passed, c_new.name
            assert c_new.worst_margin <= c_ref.worst_margin + 1e-12, c_new.name

    def test_nonvacuous_states(self):
        # the tails and delta checks above compare real sums, not empty ones
        assert [len(built(n)[1].lines) for n in STATES] == [4, 68, 4, 200]
        w, state, delta = built("power_delta")
        rep = lw.verify_tangent_lemmas(state, w, delta=delta)
        assert rep.check("segment_tail_delta").n_points > 0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), name=st.sampled_from(["ramey_ullrich", "exp_power", "power_delta"]),
           size=st.floats(0.5, 6.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_interior_tamper_fails_when_reference_fails(self, data, name, size, sign):
        w, state, delta = built(name)
        k = data.draw(st.integers(2, len(state.lines) - 1), label="k")
        bad = tamper(state, k, log_a=state.lines[k - 1].log_a + sign * size)
        ref = reference_verify_tangent_lemmas(bad, w, delta=delta)
        new = lw.verify_tangent_lemmas(bad, w, delta=delta)
        if not ref.passed:
            assert not new.passed
            failed = [c for c in new.checks if not c.passed]
            assert all(c.witness_x is not None and c.witness_k is not None for c in failed)

    @pytest.mark.parametrize("samples", [7, 50])
    def test_non_convex_weight(self, samples):
        # a dip in F inside I_2, between the tangency brackets: only the
        # sampled points see it (7 samples put one at the dip's centre)
        w, state = dipped_bump()
        new = lw.verify_tangent_lemmas(state, w, samples)
        ref = reference_verify_tangent_lemmas(state, w, samples)
        assert new.basis == "sampled" and not ref.passed and not new.passed
        for c_new, c_ref in zip(new.checks, ref.checks):
            assert c_new.passed == c_ref.passed, c_new.name
            assert c_new.worst_margin <= c_ref.worst_margin + 1e-12, c_new.name
        assert not new.check("segment_upper").passed
        assert not new.check("segment_upper_int").passed

    def test_lowered_third_line_fails(self):
        # line 3 of the K=4 state lowered by 4: the chord gate (k = 1 and
        # K) cannot see it, the chord condition on I_3 can
        w, state, _ = built("ramey_ullrich")
        bad = tamper(state, 3, log_a=state.lines[2].log_a - 4.0)
        assert not reference_verify_tangent_lemmas(bad, w).passed
        rep = lw.verify_tangent_lemmas(bad, w)
        assert not rep.passed
        low = rep.check("segment_lower")
        assert not low.passed and low.witness_k == 3
        assert bad.xs[2] <= low.witness_x <= bad.xs[3]


@functools.lru_cache(maxsize=None)
def exp_power_a2():
    # the deep benchmark state, K = 601
    w = lw.make_weight("exp_power", (2.0,))
    return w, lw.run_construction(w, ConstructionParams(x0=X0, k_max=5000, t_stop=0.999)), None


# (worst_margin, witness_x, witness_k) of every check, as the verifier
# reported them at 50 samples per interval before basis "convexity" moved
# to the interval endpoints; re-recorded when the tangent step became
# Newton's, whose roots move by the rounding noise of the residuals, and
# again when Newton stopped at that noise.
PINNED_50 = {
    'ramey_ullrich': {
        'lines_later_below': (0.9883587318491878, -0.05129329438755058, 3),
        'lines_earlier_below': (0.1278353059280347, -9.43609317381464e-10, 4),
        'segment_upper': (-1.9921262217577046e-16, -1.798409660356598e-08, 4),
        'segment_lower': (-4.440892098500626e-16, -0.05129329438755058, 1),
        'segment_tail_half': (0.27107266205480396, -8.102269828273332e-08, 4),
        'segment_upper_int': (-1.9921262217577046e-16, -1.798409660356598e-08, 4),
        'segment_lower_int': (0.005609860065005202, -9.43609317381464e-10, 4),
        'segment_tail_int': (0.27666188751681864, -8.102269828273332e-08, 4),
    },
    'exp_power': {
        'lines_later_below': (0.001501833539933481, -0.000104649086817355, 67),
        'lines_earlier_below': (0.0013508485970475377, -9.884624324405643e-05, 68),
        'segment_upper': (-6.172009399463937e-16, -0.0018112916925594486, 14),
        'segment_lower': (-3.2060071388416413e-15, -0.019057427273931133, 3),
        'segment_tail_half': (0.0015221885800380394, -0.00010168560422357265, 68),
        'segment_upper_int': (-6.17200939946394e-16, -0.0018112916925594486, 14),
        'segment_lower_int': (1.0409893602248087e-05, -9.884624324405643e-05, 68),
        'segment_tail_int': (0.0015328896005781484, -0.00010168560422357265, 68),
    },
    'power_delta': {
        'lines_later_below': (0.9967421557292555, -0.05129329438755058, 3),
        'lines_earlier_below': (0.11848933753570683, -5.778678563307634e-12, 4),
        'segment_upper': (-1.8805120593037193e-16, -0.008927611577567201, 1),
        'segment_lower': (-2.6645352591003757e-15, -0.05129329438755058, 1),
        'segment_tail_half': (0.3190062901262687, -1.7737176461506303e-09, 4),
        'segment_upper_int': (-1.8805120593037193e-16, -0.008927611577567201, 1),
        'segment_lower_int': (0.0023024723694721944, -5.778678563307634e-12, 4),
        'segment_tail_int': (0.3211341895199085, -1.7737176461506303e-09, 4),
        'segment_tail_delta': (0.21089537614924786, -1.7737176461506303e-09, 4),
        'segment_tail_delta_int': (0.21375111626808127, -1.7737176461506303e-09, 4),
    },
    'double_exp': {
        'lines_later_below': (2.7894457539975608e-08, -0.05120409714603297, 199),
        'lines_earlier_below': (2.7881713993620988e-08, -0.05120320537745009, 200),
        'segment_upper': (-1.0829525408838853e-14, -0.05120967482754907, 186),
        'segment_lower': (-7.109558095665583e-15, -0.05128738194624717, 14),
        'segment_tail_half': (3.0489720235054674e-08, -0.0512036512389245, 200),
        'segment_upper_int': (-1.0829525408838906e-14, -0.05120967482754907, 186),
        'segment_lower_int': (1.0970959490976183e-10, -0.051229140809525925, 142),
        'segment_tail_int': (3.0668269518541854e-08, -0.051206773544026245, 193),
    },
    'exp_power_a2': {
        'lines_later_below': (1.409657026584115e-05, -0.0010030072730980945, 600),
        'lines_earlier_below': (1.3952493522627277e-05, -0.0009997328866274543, 601),
        'segment_upper': (-1.0651901283851369e-15, -0.010881133669240994, 45),
        'segment_lower': (-3.865639993602342e-15, -0.006675819747804123, 80),
        'segment_tail_half': (1.5307219673012522e-05, -0.0010013674033519024, 601),
        'segment_upper_int': (-1.0651901283851373e-15, -0.010881133669240994, 45),
        'segment_lower_int': (1.0436025953266318e-07, -0.0009997328866274543, 601),
        'segment_tail_int': (1.5412391802177396e-05, -0.0010013674033519024, 601),
    },
}


class TestEndpointRule:
    """Under basis "convexity" the chord and tail checks use the interval
    endpoints alone; the margins and witnesses are those of 50 samples."""

    @pytest.mark.parametrize("name", list(PINNED_50))
    def test_samples_ignored_under_convexity(self, name):
        w, state, delta = exp_power_a2() if name == "exp_power_a2" else built(name)
        two = lw.verify_tangent_lemmas(state, w, 2, delta=delta)
        fifty = lw.verify_tangent_lemmas(state, w, 50, delta=delta)
        assert two.basis == "convexity" and two.samples_per_interval == 2
        assert fifty.to_json_dict() == two.to_json_dict()
        assert fifty.check("segment_lower").n_points == 2 * len(state.lines)

    @pytest.mark.parametrize("samples", [2, 50])
    @pytest.mark.parametrize("name", list(PINNED_50))
    def test_margins_and_witnesses_pinned(self, name, samples):
        w, state, delta = exp_power_a2() if name == "exp_power_a2" else built(name)
        rep = lw.verify_tangent_lemmas(state, w, samples, delta=delta)
        got = {c.name: (c.worst_margin, c.witness_x, c.witness_k) for c in rep.checks}
        assert got == PINNED_50[name]

    @pytest.mark.parametrize("samples", [2, 7, 50])
    def test_sampled_basis_keeps_samples(self, samples):
        w, state, _ = built("ramey_ullrich")
        fd = DuckWeight()
        rep = lw.verify_tangent_lemmas(state, fd, samples)
        assert rep.basis == "sampled" and rep.samples_per_interval == samples
        assert rep.check("segment_lower").n_points == samples * len(state.lines)


class TestTangencyBound:
    @pytest.mark.parametrize("factor", [1e-3, 0.3, 0.9, 1.0, 1.1, 3.0, 1e30])
    def test_bound_below_dense_samples(self, factor):
        # Slopes moved off the tangency put the minimum of F - l at x0,
        # left of the line's interval, inside it, right of it, or past the
        # float floor of |x|; the certified bound must stay below a dense
        # sampling of F - l in every case.
        w, state, _ = built("exp_power")
        loaded = from_json(state)
        xs = loaded.xs
        grid = np.concatenate([np.linspace(xs[0], xs[-1], 20001),
                               xs[-1] * np.geomspace(0.5, 1e-3, 200)])
        f = np.array([w.big_f(float(x)) for x in grid])
        for k in (2, 30, 67):
            line = dataclasses.replace(loaded.lines[k - 1],
                                       delta=loaded.lines[k - 1].delta * factor)
            bracket = _tangency_bracket(w, line, xs[k - 1], xs[k], xs[0])
            lb = float(_tangency_bounds(line.log_a, line.delta, bracket))
            c, f_c = bracket[1], bracket[4]
            sampled = np.min(f - line.value(grid))
            assert lb <= sampled + 1e-12 * max(1.0, abs(f_c))
            assert f_c == w.big_f(c)
            if factor == 1.0:
                assert lb == pytest.approx(0.0, abs=1e-9 * max(1.0, abs(f_c)))

    @pytest.mark.parametrize("name", list(STATES))
    def test_json_state_matches_in_memory(self, name):
        w, state, delta = built(name)
        loaded = from_json(state)
        assert all(line.xi is None for line in loaded.lines)
        mem = lw.verify_tangent_lemmas(state, w, delta=delta)
        disk = lw.verify_tangent_lemmas(loaded, w, delta=delta)
        assert disk.passed == mem.passed
        for c_disk, c_mem in zip(disk.checks, mem.checks):
            assert c_disk.name == c_mem.name
            assert c_disk.passed == c_mem.passed
            assert c_disk.worst_margin == pytest.approx(c_mem.worst_margin, rel=0, abs=1e-12)


def nudged(state):
    """The state with every stored xi moved by 1e-8 relative, alternately
    left and right of the tangency, past its +-_XI_BRACKET bracket."""
    return dataclasses.replace(state, lines=tuple(
        dataclasses.replace(line, xi=line.xi * (1.0 + (1e-8 if k % 2 else -1e-8)))
        for k, line in enumerate(state.lines)))


# sha256 of the rendered lemma report at 7 samples per interval (delta as
# in STATES) by state, tangency points (stored, none after a JSON round
# trip, or nudged) and weight (the family, or DuckWeight's sampled basis),
# as the per-line tangency bound gave them
LEMMA_DIGESTS = {
    "ramey_ullrich/stored/family":
        "a40205b22ce9ea6e4afa3c7f145c2e293055de7ab6da968e98b30da784f32bf6",
    "ramey_ullrich/stored/duck":
        "11e4d2c79bbf0409ea21b64aa76b5bca42b550b622b92a001a9f8193d7afc66f",
    "ramey_ullrich/json/family":
        "c88ad6615bf1b340662075019733416d4182b9c2d170c0287ef8ba9ee8f58712",
    "ramey_ullrich/json/duck":
        "7e89af09af9fc96bfa1283ce1343b36c784520a04a9cfb4a614ff30d93b6c20f",
    "ramey_ullrich/nudged/family":
        "c88ad6615bf1b340662075019733416d4182b9c2d170c0287ef8ba9ee8f58712",
    "ramey_ullrich/nudged/duck":
        "7e89af09af9fc96bfa1283ce1343b36c784520a04a9cfb4a614ff30d93b6c20f",
    "exp_power/stored/family":
        "79b4fe5c8e62c1cd18565e05e6b5d877044c1ec51814464f73bc02c1c1a63887",
    "exp_power/json/family":
        "2823e1fc3bb8e0a94a2e23110d37a2b4f2ff2bdfec45d33df5162574a720f271",
    "exp_power/nudged/family":
        "2823e1fc3bb8e0a94a2e23110d37a2b4f2ff2bdfec45d33df5162574a720f271",
    "power_delta/stored/family":
        "203d6907ec022c67dc8be8e8ca3b674c101612e1530759db3d28220aaa702713",
    "power_delta/json/family":
        "59accec9b04cdc8f8f50a8c2523edc20c7901439a1e847e72755f4d2888950e3",
    "power_delta/nudged/family":
        "59accec9b04cdc8f8f50a8c2523edc20c7901439a1e847e72755f4d2888950e3",
    "double_exp/stored/family":
        "2cde6985834941c049d64675c0d5ceef483e06e920efd0518b14c08ce5eb0a5f",
    "double_exp/json/family":
        "ca3d430948a98fcc59cc2d0fbd8797dce5e4d07fa3e8c94d3179bc4f11e4064c",
    "double_exp/nudged/family":
        "ca3d430948a98fcc59cc2d0fbd8797dce5e4d07fa3e8c94d3179bc4f11e4064c",
    "exp_power_a2/stored/family":
        "0189eabd9be4868ba9b100b1658cfe978f90eda392507a6820ba7dcfe3ce2244",
    "exp_power_a2/json/family":
        "758343559131249a1a24682ceca142cb5c4e7bb7bc4d6a8db6b617e875d8d31c",
    "exp_power_a2/nudged/family":
        "758343559131249a1a24682ceca142cb5c4e7bb7bc4d6a8db6b617e875d8d31c",
}


def lemma_case(key):
    """(weight, state, delta) of a LEMMA_DIGESTS key."""
    name, form, weight = key.split("/")
    w, state, delta = exp_power_a2() if name == "exp_power_a2" else built(name)
    state = {"stored": state, "json": from_json(state), "nudged": nudged(state)}[form]
    return (DuckWeight() if weight == "duck" else w), state, delta


class TestTangencyArrays:
    """verify_tangent_lemmas makes each line's weight calls alone and
    takes the tangency bounds as arrays over all lines: the bits of the
    scalar bound per line and the report bytes it gave."""

    @pytest.mark.parametrize("key", list(LEMMA_DIGESTS))
    def test_bounds_match_scalar_reference(self, key):
        w, state, _ = lemma_case(key)
        xs = state.xs
        brackets = np.array([_tangency_bracket(w, line, xs[k], xs[k + 1], xs[0])
                             for k, line in enumerate(state.lines)]).T
        got = (_tangency_bounds(np.asarray(state.log_as), np.asarray(state.deltas), brackets),
               brackets[1], brackets[4])
        expected = np.array([reference_min_above_line(w, line, xs[k], xs[k + 1], xs[0])
                             for k, line in enumerate(state.lines)]).T
        for a, b in zip(got, expected, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("key", list(LEMMA_DIGESTS))
    def test_report_bytes_pinned(self, key):
        w, state, delta = lemma_case(key)
        text = render_json(lw.verify_tangent_lemmas(state, w, 7, delta=delta).to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == LEMMA_DIGESTS[key]

    @pytest.mark.parametrize("name", list(STATES))
    def test_nudged_xi_takes_the_bisection(self, name):
        w, state, _ = built(name)
        xs = state.xs
        for k, line in enumerate(nudged(state).lines):
            p = _tangency_bracket(w, line, xs[k], xs[k + 1], xs[0])[0]
            assert p != line.xi * (1.0 + _XI_BRACKET)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=8, max_size=8))
    def test_bound_arithmetic_as_scalar(self, values):
        # Python's min and max keep the first of equal or unordered values
        # (NaN, or -0.0 against 0.0); the arrays must do the same
        log_a, delta, p, c, q, f_p, f_c, f_q = values
        line = lw.TangentLine(delta=delta, log_a=log_a)
        g_p, g_c, g_q = f_p - line.value(p), f_c - line.value(c), f_q - line.value(q)
        expected = min(g_p, g_q, 2.0 * g_c - max(g_p, g_c, g_q))
        got = float(_tangency_bounds(np.array([log_a]), np.array([delta]),
                                     np.array([[p], [c], [q], [f_p], [f_c], [f_q]]))[0])
        assert np.array([got]).tobytes() == np.array([expected]).tobytes()


def assert_tail_bits(k, pts, log_as, slopes, gap):
    # with gap <= 0 an edge line at log_a = -inf adds -inf + inf = NaN, and
    # beside that NaN the large finite terms overflow exp unshifted (the
    # sum is NaN either way)
    with np.errstate(invalid="ignore", over="ignore"):
        got = _tail_log_bound(k, pts, log_as, slopes, gap)
        ref = reference_tail_log_bound(k, pts, log_as, slopes, gap)
    assert got.shape == ref.shape == pts.shape
    assert got.tobytes() == ref.tobytes()
    return got


class TestTailWindowLayout:
    """_tail_log_bound sums its window down the leading axis of a (window,
    rows, points) table, one line after another, as the (rows, window,
    points) reference did down its middle axis: the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 2 * _TAIL_WINDOW + 1),
           n=st.sampled_from([2, 50]),
           gap=st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(1e-3, 50.0)))
    def test_matches_reference(self, data, size, n, gap):
        # K below 2 _TAIL_WINDOW + 2, so windows run past both ends; a block
        # of rows with k = 0 or K - 1 at one end or both
        start = data.draw(st.sampled_from([0, data.draw(st.integers(0, size - 1))]), label="start")
        stop = data.draw(st.sampled_from([size, data.draw(st.integers(start + 1, size))]),
                         label="stop")
        k = np.arange(start, stop)
        log_as = data.draw(arrays(float, size, elements=st.one_of(
            st.floats(-1e3, 1e3), st.just(-math.inf))), label="log_as")
        slopes = data.draw(arrays(float, size, elements=st.floats(0.0, 1e3)), label="slopes")
        pts = data.draw(arrays(float, (k.size, n), elements=st.floats(-10.0, 0.0)), label="pts")
        assert_tail_bits(k, pts, log_as, slopes, gap)

    @pytest.mark.parametrize("gap", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("size", [1, 2, 3, 2 * _TAIL_WINDOW + 1, 2 * _TAIL_WINDOW + 2])
    @pytest.mark.parametrize("n", [2, 50])
    def test_empty_and_minus_inf_windows(self, size, n, gap):
        # K <= 2 leaves every window empty, and log_a = -inf every term at
        # -inf: both sum to -inf wherever no edge line carries gap <= 0
        k = np.arange(size)
        pts = np.linspace(-1.0, -0.5, size * n).reshape(size, n)
        slopes = np.linspace(1.0, 3.0, size)
        for log_as in (np.zeros(size), np.full(size, -math.inf)):
            got = assert_tail_bits(k, pts, log_as, slopes, gap)
            if size <= 2 or (gap > 0.0 and log_as[0] == -math.inf):
                assert np.all(got == -math.inf)
            elif gap <= 0.0 and log_as[0] == 0.0 and size > _TAIL_WINDOW + 2:
                assert np.isposinf(got[k - _TAIL_WINDOW >= 1]).all()


def test_logsumexp_skips_exp_beside_inf():
    # a +inf term makes its sum +inf without exponentiating the finite
    # terms beside it, which unshifted overflow above 709
    got = logsumexp(np.array([[800.0, math.inf], [1.0, 2.0], [-math.inf, -math.inf]]), axis=1)
    finite = 2.0 + np.log(np.sum(np.exp(np.array([-1.0, 0.0]))))
    assert got.tobytes() == np.array([math.inf, finite, -math.inf]).tobytes()
    assert logsumexp([900.0, math.inf, -math.inf]) == math.inf


@functools.lru_cache(maxsize=None)
def double_exp_2000():
    # the deep benchmark state, K = 2000
    w = lw.make_weight("double_exp")
    return w, lw.run_construction(w, ConstructionParams(x0=X0, k_max=2000))


def traced_peak(fn):
    """The tracemalloc peak of fn() above the memory traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestVerifierMemory:
    """The lemma verifier works in blocks of intervals: its traced peak on
    the K = 2000 double_exp state is one block's tail sums above the
    per-line arrays, and each tail table holds _TAIL_BLOCK floats."""

    def test_traced_peak(self):
        # 1,052,214 bytes with the (rows, window, points) tables, 1,053,078
        # window-first (numpy 2.4, Python 3.11): about 0.58 MB of per-line
        # arrays live at the last block plus one tail call's own peak of
        # about 0.48 MB.  1.1 MB leaves 5%, under half of one more
        # table-sized temporary (8 _TAIL_BLOCK bytes = 128 kB).
        w, state = double_exp_2000()
        lw.verify_tangent_lemmas(state, w, 50)
        assert traced_peak(lambda: lw.verify_tangent_lemmas(state, w, 50)) < 1.1e6

    @staticmethod
    def record_tables(monkeypatch):
        """The (shape, axis) of every table _tail_log_bound sums."""
        shapes, logsumexp = [], construction.logsumexp

        def recording(terms, axis):
            shapes.append((terms.shape, axis))
            return logsumexp(terms, axis)

        monkeypatch.setattr(construction, "logsumexp", recording)
        return shapes

    @pytest.mark.parametrize("n", [2, 50])
    def test_tail_call_within_a_block(self, monkeypatch, n):
        # a full block's call peaks under four tables of _TAIL_BLOCK
        # floats: the window indices (_TAIL_BLOCK / n), the gathered lines,
        # the table, its shift and its exponentials, never all at once
        _, state = double_exp_2000()
        shapes = self.record_tables(monkeypatch)
        rows = _TAIL_BLOCK // (2 * _TAIL_WINDOW * n)
        k = np.arange(100, 100 + rows)
        xs, log_as, deltas = (np.asarray(v) for v in (state.xs, state.log_as, state.deltas))
        pts = np.linspace(xs[k], xs[k + 1], n, axis=1)
        peak = traced_peak(lambda: _tail_log_bound(k, pts, log_as, deltas, 2.0))
        assert shapes == [((2 * _TAIL_WINDOW, rows, n), 0)]
        assert peak < 4 * 8 * _TAIL_BLOCK

    @pytest.mark.parametrize("key", ["exp_power/stored/family", "ramey_ullrich/stored/duck"])
    def test_verifier_tables_window_first(self, monkeypatch, key):
        w, state, _ = lemma_case(key)
        shapes = self.record_tables(monkeypatch)
        lw.verify_tangent_lemmas(state, w, 50)
        assert shapes and all(shape[0] == 2 * _TAIL_WINDOW and axis == 0
                              and math.prod(shape) <= _TAIL_BLOCK for shape, axis in shapes)


class TestBasis:
    def test_known_convex_families(self):
        assert is_known_convex(lw.make_weight("ramey_ullrich"))
        assert is_known_convex(lw.make_weight("double_exp"))
        assert not is_known_convex(DuckWeight())
        assert not is_known_convex(lw.make_weight("perturbed_sawtooth"))
        assert not is_known_convex(lw.make_weight("perturbed_bump"))

    def test_tabulated_knot_slopes(self):
        convex = [(-1.0, 0.0), (-0.5, 0.5), (-0.25, 1.0), (-0.1, 2.0)]
        assert is_known_convex(lw.weight_from_knots(convex))
        assert is_known_convex(lw.weight_from_knots(convex, strictify=1e-3))
        # slopes 1, 2, 2: convex but not strictly
        flat = [(-1.0, 0.0), (-0.5, 0.5), (-0.25, 1.0), (-0.125, 1.25)]
        assert not is_known_convex(lw.weight_from_knots(flat))
        dented = [(-1.0, 0.0), (-0.5, 1.0), (-0.25, 1.1), (-0.1, 2.0)]
        assert not is_known_convex(lw.weight_from_knots(dented))
        assert not is_known_convex(lw.weight_from_knots(convex, strictify=-1e-3))

    def test_report_names_basis(self):
        w, state, _ = built("ramey_ullrich")
        rep = lw.verify_tangent_lemmas(state, w)
        assert rep.basis == "convexity"
        assert rep.to_json_dict()["basis"] == "convexity"
        fd = DuckWeight()
        assert lw.verify_tangent_lemmas(state, fd).to_json_dict()["basis"] == "sampled"

    def test_cli_sampled_basis_catches_a_dip(self, tmp_path, capsys):
        # the chord gate (k = 1 and K) and the tangency brackets miss the
        # dip in I_2; the sampled segment_upper finds it
        w, state = dipped_bump()
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state.to_json_dict()))
        params = ",".join(repr(p) for p in w.params)
        assert main(["verify", "lemmas", "--state", str(path), "--family", "perturbed_bump",
                     f"--params={params}"]) == 1
        report = json.loads(capsys.readouterr().out)
        upper = {c["name"]: c for c in report["checks"]}["segment_upper"]
        assert report["basis"] == "sampled" and upper["witness_k"] == 2
        assert upper["worst_margin"] < -0.05

    def test_cli_prints_basis(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        assert main(["construct", "--family", "ramey_ullrich", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "lemmas", "--state", str(path),
                     "--family", "ramey_ullrich", "--samples", "2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["basis"] == "convexity"
        assert "convexity" in captured.err
