"""Zero adjustment admits only pairs whose f1 = G1/z^{e1} is dominated by
its leading term on |z| <= t0, and never rotates.  On the benchmark
states the report keys it shares with the always-searching
`reference_series.reference_zero_adjust` match byte for byte, and its
sample ratios match the direct-angle rings of
`reference_series.reference_log_ratio_samples` bit for bit.  A pair
that fails dominance is an input error.

The oracle measures its constants on the rotated subsets of the search's
lcm angle grid, whose phase table rounds 2 pi 45j/2880 where zero_adjust
rounds 2 pi j/64: on exp_power alpha = 1 at the defaults 9 outer-ring
sample ratios differ from it by up to 6e-14, and the report bytes agree.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight import series
from logweight.cli import main

from reference_series import (extreme_bits, reference_extreme_bits,
                              reference_log_ratio_samples, reference_zero_adjust)

X0 = math.log(0.95)

NEW_KEYS = ("rotation_basis", "log_dominance", "log_c_low_inner", "log_c_high_inner",
            "log_c_low_annulus", "log_c_high_annulus", "log_inner_floor")


def _cli_state(tmp_path_factory, name, flags, t_stop):
    path = tmp_path_factory.mktemp(name) / "state.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["construct", *flags, "--t-stop", t_stop, "--out", str(path)]) == 0
    return lw.ConstructionState.from_json_dict(json.loads(path.read_text()))


@pytest.fixture(scope="module", params=["double_exp", "exp_power_a2", "ramey_ullrich",
                                        "exp_power_a1"])
def bench_state(request, tmp_path_factory):
    """The four states whose zero adjustment the benchmark times: two deep
    API constructions and two shallow CLI state files."""
    name = request.param
    if name == "double_exp":
        w = lw.make_weight("double_exp")
        return w, lw.run_construction(w, lw.ConstructionParams(x0=X0, k_max=2000))
    if name == "exp_power_a2":
        w = lw.make_weight("exp_power", (2.0,))
        return w, lw.run_construction(
            w, lw.ConstructionParams(x0=X0, k_max=5000, t_stop=0.999))
    if name == "ramey_ullrich":
        return lw.make_weight("ramey_ullrich"), _cli_state(
            tmp_path_factory, name, ["--family", "ramey_ullrich"], "0.999999999")
    return lw.make_weight("exp_power", (1.0,)), _cli_state(
        tmp_path_factory, name, ["--family", "exp_power", "--params", "1"], "0.9999")


def crossing_pair():
    """f1 = 1 + 3z^2 and f2 = z^2 (1 + 3z^2): both vanish at +-i/sqrt(3),
    inside t0 = 0.9, so f1 is not dominated there (rho = 3 t0^2 = 2.43)."""
    g1 = lw.LacunarySeries(((0.0, 1), (math.log(3.0), 3)))
    g2 = lw.LacunarySeries(((0.0, 2), (math.log(3.0), 4)))
    return lw.SeriesPair(g1=g1, g2=g2, t0=0.9, h=2.0, t_last=0.95)


def dominant_pair():
    """f1 = 1 + z^4/10 and f2 = z^2 (1 + z^4/10): rho = t0^4/10 = 0.066 at
    t0 = 0.9, so f1 has no zero on |z| <= t0."""
    g1 = lw.LacunarySeries(((0.0, 1), (math.log(0.1), 5)))
    g2 = lw.LacunarySeries(((0.0, 2), (math.log(0.1), 6)))
    return lw.SeriesPair(g1=g1, g2=g2, t0=0.9, h=2.0, t_last=0.95)


def assert_matches_oracle(adj, pair, w):
    """adj is zero_adjust(pair, w) at its default grid."""
    report = reference_zero_adjust(pair, w)
    got = adj.to_json_dict()
    assert list(got)[:len(report)] == list(report)
    assert tuple(got)[len(report):] == NEW_KEYS
    assert json.dumps({k: got[k] for k in report}) == json.dumps(report)
    grid = (100, 64, 200, 64)  # inner_radii, inner_angles, outer_t_points, outer_angles
    expected = reference_log_ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last, *grid)
    rings = [(series._log_omegas(w, radii), series._ring_log_sums(adj.f1, adj.f2, radii, angles))
             for radii, angles in series._rings(pair.t0, pair.t_last, *grid)]
    samples = (np.concatenate([np.repeat(log_w, log_s.shape[1]) for log_w, log_s in rings]),
               np.concatenate([log_s.ravel() for _, log_s in rings]))
    for a, b in zip(samples, expected, strict=True):
        np.testing.assert_array_equal(a, b)
    assert extreme_bits(adj) == reference_extreme_bits(expected, 100 * 64)


class CallCounter:
    """Wraps `series.eval_series_grid`, recording the angle count and the
    radius count of each call."""

    def __init__(self, monkeypatch):
        self.calls, self.radii = [], []
        inner = series.eval_series_grid

        def counted(s, t_values, theta_count):
            self.calls.append(theta_count)
            self.radii.append(len(t_values))
            return inner(s, t_values, theta_count)

        monkeypatch.setattr(series, "eval_series_grid", counted)


class TestDominance:
    def test_bench_states_match_search(self, bench_state):
        w, state = bench_state
        pair = lw.split_parity(state)
        adj = lw.zero_adjust(pair, w)
        assert adj.rotation_basis == "dominance"
        assert adj.log_dominance < -30.0
        assert (adj.theta_index, adj.theta_star) == (0, 0.0)
        assert_matches_oracle(adj, pair, w)

    def test_dominant_state_skips_full_angle_grid(self, monkeypatch):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0))
        counter = CallCounter(monkeypatch)
        adj = lw.zero_adjust(lw.split_parity(state), w)
        assert adj.rotation_basis == "dominance"
        assert counter.calls == [64] * 4  # f1 and f2 on each ring, at its own angles

    def test_few_rows_sampled_per_ring(self, bench_state, monkeypatch):
        # the per-radius brackets leave the rows of the smallest and the
        # largest ratio; the rings have 100 and 200 radii
        w, state = bench_state
        counter = CallCounter(monkeypatch)
        lw.zero_adjust(lw.split_parity(state), w)
        assert counter.calls == [64] * 4
        assert all(1 <= n <= 4 for n in counter.radii)

    def test_each_series_set_up_once(self, bench_state, monkeypatch):
        # Series of more than _RUN_ROWS terms run in candidate windows: the
        # deep states (K = 2000 and 601) and exp_power alpha = 1 (K = 68,
        # 34 terms each).  f1 and f2 get theirs once, for both rings.
        w, state = bench_state
        calls = []
        windows = series._term_windows

        def counted(*args):
            calls.append(len(args[0]))
            return windows(*args)

        monkeypatch.setattr(series, "_term_windows", counted)
        pair = lw.split_parity(state)
        lw.zero_adjust(pair, w)
        sizes = [len(s.terms) for s in (pair.g1, pair.g2)]
        assert calls == [n for n in sizes if n > series._RUN_ROWS]

    def test_each_ring_evaluated_once(self, monkeypatch):
        w = lw.make_weight("ramey_ullrich")
        log_omega_radii = []
        inner = type(w).log_omega

        def counted(self, t):
            log_omega_radii.append(t)
            return inner(self, t)

        monkeypatch.setattr(type(w), "log_omega", counted)
        counter = CallCounter(monkeypatch)
        lw.zero_adjust(dominant_pair(), w)
        assert len(counter.calls) == 4
        assert len(log_omega_radii) == 100 + 200

    def test_single_term_has_no_tail(self):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0, h=2.0, k_max=1))
        adj = lw.zero_adjust(lw.split_parity(state), w, theta_count=16, inner_radii=20,
                             inner_angles=16, outer_t_points=20, outer_angles=16)
        assert adj.rotation_basis == "dominance"
        assert adj.log_dominance == -math.inf
        assert adj.to_json_dict()["log_dominance"] == -math.inf

    def test_dominance_is_tail_over_leading_term_at_t0(self):
        g1 = lw.LacunarySeries(((math.log(2.0), 3), (0.0, 5), (math.log(0.5), 8)))
        pair = lw.SeriesPair(g1=g1, g2=lw.LacunarySeries(((0.0, 4),)), t0=0.9, h=2.0,
                             t_last=0.95)
        rho = (0.9 ** 2 + 0.5 * 0.9 ** 5) / 2.0  # 0.553: dominance fails
        log_rho = series._log_dominance(pair.g1.shifted(3), pair.t0)
        assert log_rho == pytest.approx(math.log(rho), rel=1e-14)
        with pytest.raises(ValueError, match=r"rho = 0\.552623 > DOMINANCE_BOUND = 0\.5"):
            lw.zero_adjust(pair, lw.make_weight("ramey_ullrich"), theta_count=8,
                           inner_radii=6, inner_angles=8, outer_t_points=4,
                           outer_angles=8)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from([("ramey_ullrich", ()), ("power", (2.0,)),
                                   ("exp_power", (0.5,)), ("exp_power", (1.0,)),
                                   ("exp_power", (2.0,)), ("double_exp", ())]),
           t0=st.floats(0.1, 0.99), h=st.floats(2.0, 5.0))
    @example(family=("double_exp", ()), t0=0.9758528039767908, h=2.0)
    def test_separation_bounds_dominance(self, family, t0, h):
        # lines_later_below puts the lines of one parity 2h apart at x0, and
        # rounding slopes up to integers costs at most |x0| in log.  (Past
        # t0 = 0.998 double_exp's F leaves the float range on the
        # construction's convexity gate.)  From t0 = 0.9633 on, a double_exp
        # line within 40 steps has an ulp of log_a above h/1024 (line 1 of
        # the example: log_a = 4.05e19, ulp 8192), and the construction
        # names the float floor instead of returning.
        w = lw.make_weight(*family)
        x0 = math.log(t0)
        try:
            state = lw.run_construction(w, lw.ConstructionParams(x0=x0, h=h, k_max=40))
        except lw.FloatFloorError:
            assert family == ("double_exp", ()) and t0 > 0.96
            return
        pair = lw.split_parity(state)
        log_rho = series._log_dominance(pair.g1.shifted(pair.g1.exponents[0]), pair.t0)
        assert log_rho <= abs(x0) - math.log(math.expm1(2.0 * h))


class TestNonDominance:
    @pytest.mark.parametrize("grid", [{}, {"theta_count": 30, "inner_radii": 12,
                                           "inner_angles": 7, "outer_t_points": 9,
                                           "outer_angles": 5}])
    def test_crossing_pair_is_an_input_error(self, grid, monkeypatch):
        counter = CallCounter(monkeypatch)
        with pytest.raises(ValueError, match=r"rho = 2\.43 > DOMINANCE_BOUND = 0\.5"):
            lw.zero_adjust(crossing_pair(), lw.make_weight("ramey_ullrich"), **grid)
        assert counter.calls == []  # decided before any sampling

    def test_overflowing_rho_is_named(self):
        # log rho = 800: rho itself is past the float range
        g1 = lw.LacunarySeries(((0.0, 1), (800.0 - 2.0 * math.log(0.9), 3)))
        pair = lw.SeriesPair(g1=g1, g2=lw.LacunarySeries(((0.0, 2),)), t0=0.9, h=2.0,
                             t_last=0.95)
        with pytest.raises(ValueError, match=r"rho = inf > DOMINANCE_BOUND = 0\.5"):
            lw.zero_adjust(pair, lw.make_weight("ramey_ullrich"))


class TestRingConstants:
    @pytest.mark.parametrize("pair_of", ["ramey", "hand_built"])
    def test_rings_split_the_constants(self, pair_of):
        w = lw.make_weight("ramey_ullrich")
        pair = (dominant_pair() if pair_of == "hand_built" else
                lw.split_parity(lw.run_construction(w, lw.ConstructionParams(x0=X0))))
        adj = lw.zero_adjust(pair, w, theta_count=32, inner_radii=16, inner_angles=16,
                             outer_t_points=24, outer_angles=8)
        log_w, log_s = reference_log_ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last,
                                                   16, 16, 24, 8)
        ratios = log_s - log_w
        inner, annulus = ratios[:16 * 16], ratios[16 * 16:]
        assert (adj.log_c_low_inner, adj.log_c_high_inner) == (inner.min(), inner.max())
        assert (adj.log_c_low_annulus, adj.log_c_high_annulus) == (annulus.min(),
                                                                     annulus.max())
        assert adj.log_c_low == min(adj.log_c_low_inner, adj.log_c_low_annulus)
        assert adj.log_c_high == max(adj.log_c_high_inner, adj.log_c_high_annulus)
        assert adj.log_inner_floor == w.log_omega(pair.t0) - w.log_omega(0.0)

    def test_no_outer_ring_has_no_annulus(self):
        adj = lw.zero_adjust(dominant_pair(), lw.make_weight("ramey_ullrich"),
                             theta_count=8, inner_radii=6, inner_angles=8,
                             outer_t_points=0, outer_angles=0)
        assert adj.log_c_low_annulus is None and adj.log_c_high_annulus is None
        assert (adj.log_c_low, adj.log_c_high) == (adj.log_c_low_inner,
                                                   adj.log_c_high_inner)
