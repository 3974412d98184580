"""One (t, theta) sampler behind the sandwich check, `emit` and zero
adjustment: the same bytes and bits as the per-cell and two-ring copies
in `reference_series`, within a memory bound, and input errors for grid
sizes the samplers cannot use.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

import logweight as lw
from logweight.cli import main

from reference_series import reference_emit_csv, reference_log_ratio_samples

X0 = math.log(0.95)

# The two shallow states of the CLI pipeline benchmark: weight flags,
# --t-stop, and the weight as make_weight arguments.
CLI_STATES = {
    "ramey_ullrich": (["--family", "ramey_ullrich"], "0.999999999", ("ramey_ullrich", ())),
    "exp_power_a1": (["--family", "exp_power", "--params", "1"], "0.9999",
                     ("exp_power", (1.0,))),
}

# (theta_count, inner_radii, inner_angles, outer_t_points, outer_angles);
# None is zero_adjust's defaults.
ADJUST_GRIDS = [None, (16, 10, 16, 20, 16), (30, 12, 7, 9, 5), (30, 12, 7, 0, 5)]
ADJUST_KEYS = ("theta_count", "inner_radii", "inner_angles", "outer_t_points",
               "outer_angles")


@pytest.fixture(scope="module", params=sorted(CLI_STATES))
def cli_state(request, tmp_path_factory):
    flags, t_stop, weight = CLI_STATES[request.param]
    path = tmp_path_factory.mktemp(request.param) / "state.json"
    assert main(["construct", *flags, "--t-stop", t_stop, "--out", str(path)]) == 0
    state = lw.ConstructionState.from_json_dict(json.loads(path.read_text()))
    return flags, path, state, lw.make_weight(*weight)


def assert_bit_equal(got, expected):
    for a, b in zip(got, expected, strict=True):
        np.testing.assert_array_equal(a, b)


class TestEmitMatchesCellwiseCopy:
    @pytest.mark.parametrize("extra, t_min, t_points, angles", [
        (["--t-points", "200", "--angles", "64"], None, 200, 64),
        (["--t-points", "13", "--angles", "3", "--t-min", "0.5"], 0.5, 13, 3),
        (["--t-points", "0"], None, 0, 4),
        (["--t-points", "-3"], None, -3, 4),
    ])
    def test_byte_equal_csv(self, cli_state, tmp_path, extra, t_min, t_points, angles):
        flags, path, state, w = cli_state
        out = tmp_path / "grid.csv"
        assert main(["emit", *flags, "--state", str(path), *extra, "--out", str(out)]) == 0
        lo = state.t0 if t_min is None else t_min
        t_grid = (np.linspace(lo, state.t_last, t_points + 1)[1:] if t_points > 0
                  else np.empty(0))
        expected = reference_emit_csv(lw.split_parity(state), w, t_grid, angles)
        assert out.read_text() == expected


class TestLogRatioSamplesMatchTwoRingCopy:
    @pytest.mark.parametrize("grid", ADJUST_GRIDS)
    def test_bit_equal(self, cli_state, grid):
        _, _, state, w = cli_state
        pair = lw.split_parity(state)
        adj = lw.zero_adjust(pair, w, **({} if grid is None else dict(zip(ADJUST_KEYS, grid))))
        assert_bit_equal(adj.sample_log_ratios(w),
                         reference_log_ratio_samples(adj.f1, adj.f2, w, adj.t0, adj.t_last,
                                                     *adj.grid_spec))


class TestSandwichSamples:
    def test_matches_check_margins(self, cli_state):
        _, _, state, w = cli_state
        pair = lw.split_parity(state)
        ts = np.linspace(state.t0, state.t_last, 41)[1:]
        thetas, g1, g2, log_w, lo, hi = lw.sandwich_samples(pair, w, ts, 16)
        assert thetas.shape == (16,) and g1.shape == g2.shape == (40, 16)
        np.testing.assert_array_equal(log_w, [w.log_omega(float(t)) for t in ts])
        np.testing.assert_allclose(hi - lo, math.log(10.0) + pair.h, rtol=1e-12)
        log_s = np.logaddexp(g1, g2)
        report = lw.sandwich_check(pair, w, ts, theta_count=16)
        assert report.passed
        assert bool((log_s > lo[:, None]).all() and (log_s < hi[:, None]).all())

    def test_rejects_no_angles(self, cli_state):
        _, _, state, w = cli_state
        with pytest.raises(ValueError, match="theta_count"):
            lw.sandwich_samples(lw.split_parity(state), w, [state.t_last], 0)

    def test_check_memory_bound(self):
        # 2000 x 256 doubles take 4.1 MB per grid; holding log|G1| and
        # log|G2| while the margins are formed costs about 8 MB more.
        w = lw.make_weight("exp_power", (1.0,))
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0, t_stop=0.9999))
        assert len(state.lines) == 68
        pair = lw.split_parity(state)
        ts = np.linspace(state.t0, state.t_last, 2001)[1:]
        tracemalloc.start()
        try:
            lw.sandwich_check(pair, w, ts, theta_count=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestZeroAdjustGridSizes:
    @pytest.mark.parametrize("kwargs", [
        {"theta_count": 0},
        {"inner_angles": 0},
        {"outer_angles": 0},
        {"inner_radii": 1},
        {"inner_radii": 0},
    ])
    def test_unusable_grid_rejected(self, kwargs):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0))
        with pytest.raises(ValueError, match="zero_adjust needs"):
            lw.zero_adjust(lw.split_parity(state), w, **kwargs)

    def test_no_outer_ring_needs_no_outer_angles(self):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0))
        adj = lw.zero_adjust(lw.split_parity(state), w, theta_count=8, inner_radii=6,
                             inner_angles=8, outer_t_points=0, outer_angles=0)
        assert math.isfinite(adj.log_c_low)
