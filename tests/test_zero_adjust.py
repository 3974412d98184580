"""Zero adjustment decides the inner disk by dominance first: when the
leading term of f1 outweighs its tail on |z| <= t0, no rotation search
runs.  `reference_series.reference_zero_adjust` always searches; the
report keys it shares with `AdjustedPair.to_json_dict()` and the sample
ratios must agree bit for bit on both paths.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import logweight as lw
from logweight import series
from logweight.cli import main

from reference_series import reference_zero_adjust

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
    inside t0 = 0.9, so the unrotated pair has common zeros."""
    g1 = lw.LacunarySeries(((0.0, 1), (math.log(3.0), 3)))
    g2 = lw.LacunarySeries(((0.0, 2), (math.log(3.0), 4)))
    return lw.SeriesPair(g1=g1, g2=g2, t0=0.9, h=2.0, t_last=0.95)


def assert_matches_oracle(adj, w, expected):
    report, log_w, log_s = expected
    got = adj.to_json_dict()
    assert list(got)[:len(report)] == list(report)
    assert tuple(got)[len(report):] == NEW_KEYS
    assert json.dumps({k: got[k] for k in report}) == json.dumps(report)
    for a, b in zip(adj.sample_log_ratios(w), (log_w, log_s), strict=True):
        np.testing.assert_array_equal(a, b)


class CallCounter:
    """Wraps `series.eval_series_grid`, recording (theta_count, all angles?)."""

    def __init__(self, monkeypatch):
        self.calls = []
        inner = series.eval_series_grid

        def counted(s, t_values, theta_count, theta_indices=None):
            self.calls.append((theta_count, theta_indices is None))
            return inner(s, t_values, theta_count, theta_indices)

        monkeypatch.setattr(series, "eval_series_grid", counted)


class TestDominance:
    def test_bench_states_match_search(self, bench_state):
        w, state = bench_state
        pair = lw.split_parity(state)
        adj = lw.zero_adjust(pair, w)
        assert adj.rotation_basis == "dominance"
        assert adj.log_dominance < -30.0
        assert (adj.theta_index, adj.theta_star) == (0, 0.0)
        assert_matches_oracle(adj, w, reference_zero_adjust(pair, w))

    def test_dominant_state_skips_full_angle_grid(self, monkeypatch):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0))
        counter = CallCounter(monkeypatch)
        adj = lw.zero_adjust(lw.split_parity(state), w)
        assert adj.rotation_basis == "dominance"
        common = int(np.lcm(64, 720))
        assert (common, True) not in counter.calls
        assert len(counter.calls) == 4  # f1 and f2 on each of the two rings

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
        adj = lw.zero_adjust(pair, lw.make_weight("ramey_ullrich"), theta_count=8,
                             inner_radii=6, inner_angles=8, outer_t_points=4,
                             outer_angles=8)
        rho = (0.9 ** 2 + 0.5 * 0.9 ** 5) / 2.0  # 0.553: dominance fails
        assert adj.log_dominance == pytest.approx(math.log(rho), rel=1e-14)
        assert adj.rotation_basis == "search"


class TestSearch:
    @pytest.mark.parametrize("grid", [{}, {"theta_count": 30, "inner_radii": 12,
                                           "inner_angles": 7, "outer_t_points": 9,
                                           "outer_angles": 5}])
    def test_failing_dominance_runs_search(self, grid):
        w = lw.make_weight("ramey_ullrich")
        pair = crossing_pair()
        adj = lw.zero_adjust(pair, w, **grid)
        assert adj.rotation_basis == "search"
        assert adj.log_dominance == pytest.approx(math.log(3.0 * 0.81), rel=1e-14)
        assert adj.theta_index != 0  # the unrotated pair shares its zeros
        assert_matches_oracle(adj, w, reference_zero_adjust(pair, w, **grid))

    def test_inner_ring_evaluated_once(self, monkeypatch):
        w = lw.make_weight("ramey_ullrich")
        log_omega_radii = []
        inner = type(w).log_omega

        def counted(self, t):
            log_omega_radii.append(t)
            return inner(self, t)

        monkeypatch.setattr(type(w), "log_omega", counted)
        counter = CallCounter(monkeypatch)
        lw.zero_adjust(crossing_pair(), w)
        assert len(counter.calls) == 5
        assert counter.calls.count((int(np.lcm(64, 720)), True)) == 1
        assert len(log_omega_radii) == 100 + 200


class TestRingConstants:
    @pytest.mark.parametrize("pair_of", ["ramey", "crossing"])
    def test_rings_split_the_constants(self, pair_of):
        w = lw.make_weight("ramey_ullrich")
        pair = (crossing_pair() if pair_of == "crossing" else
                lw.split_parity(lw.run_construction(w, lw.ConstructionParams(x0=X0))))
        adj = lw.zero_adjust(pair, w, theta_count=32, inner_radii=16, inner_angles=16,
                             outer_t_points=24, outer_angles=8)
        log_w, log_s = adj.sample_log_ratios(w)
        ratios = log_s - log_w
        inner, annulus = ratios[:16 * 16], ratios[16 * 16:]
        assert (adj.log_c_low_inner, adj.log_c_high_inner) == (inner.min(), inner.max())
        assert (adj.log_c_low_annulus, adj.log_c_high_annulus) == (annulus.min(),
                                                                     annulus.max())
        assert adj.log_c_low == min(adj.log_c_low_inner, adj.log_c_low_annulus)
        assert adj.log_c_high == max(adj.log_c_high_inner, adj.log_c_high_annulus)
        assert adj.log_inner_floor == w.log_omega(pair.t0) - w.log_omega(0.0)

    def test_no_outer_ring_has_no_annulus(self):
        adj = lw.zero_adjust(crossing_pair(), lw.make_weight("ramey_ullrich"),
                             theta_count=8, inner_radii=6, inner_angles=8,
                             outer_t_points=0, outer_angles=0)
        assert adj.log_c_low_annulus is None and adj.log_c_high_annulus is None
        assert (adj.log_c_low, adj.log_c_high) == (adj.log_c_low_inner,
                                                   adj.log_c_high_inner)
