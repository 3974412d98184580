"""One (t, theta) sampler behind the sandwich check, `emit` and zero
adjustment: the same bytes and bits as the full-grid, per-cell and
two-ring copies in `reference_series`, within a memory bound, and input
errors for grid sizes the samplers cannot use.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import logweight as lw
from logweight import series
from logweight.cli import main, render_json
from logweight.series import _sandwich_blocks

from reference_series import (reference_emit_csv, reference_grid, reference_log_ratio_samples,
                              reference_sandwich_check)

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


def ratio_samples(f1, f2, w, t0, t_last, *grid):
    """series._ratio_rings flattened as reference_log_ratio_samples is:
    (log omega, log(|f1| + |f2|)) per sample, inner disk first."""
    rings = series._ratio_rings(f1, f2, w, t0, t_last, *grid)
    return (np.concatenate([np.repeat(log_w, log_s.shape[1]) for log_w, log_s in rings]),
            np.concatenate([log_s.ravel() for _, log_s in rings]))


class TestEmitMatchesCellwiseCopy:
    @pytest.mark.parametrize("extra, t_min, t_points, angles", [
        (["--t-points", "200", "--angles", "64"], None, 200, 64),
        (["--t-points", "13", "--angles", "3", "--t-min", "0.5"], 0.5, 13, 3),
        (["--t-points", "0"], None, 0, 4),
        (["--t-points", "-3"], None, -3, 4),
        (["--t-points", "300", "--angles", "5"], None, 300, 5),  # crosses a 256-radius block
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

    def test_non_finite_log_omega(self, tmp_path):
        # double_exp's log omega overflows to inf past t ~ 0.9986
        path, out = tmp_path / "state.json", tmp_path / "grid.csv"
        flags = ["--family", "double_exp"]
        assert main(["construct", *flags, "--k-max", "20", "--out", str(path)]) == 0
        assert main(["emit", *flags, "--state", str(path), "--t-points", "300",
                     "--angles", "5", "--t-max", "0.9999", "--out", str(out)]) == 0
        state = lw.ConstructionState.from_json_dict(json.loads(path.read_text()))
        t_grid = np.linspace(state.t0, 0.9999, 301)[1:]
        text = out.read_text()
        assert text == reference_emit_csv(lw.split_parity(state), lw.make_weight("double_exp"),
                                          t_grid, 5)
        assert ",inf,-inf,inf\n" in text


class TestLogRatioSamplesMatchTwoRingCopy:
    @pytest.mark.parametrize("grid", ADJUST_GRIDS)
    def test_bit_equal(self, cli_state, grid):
        _, _, state, w = cli_state
        pair = lw.split_parity(state)
        kw = dict(zip(ADJUST_KEYS, grid or (720, 100, 64, 200, 64)))
        adj = lw.zero_adjust(pair, w, **({} if grid is None else kw))
        rings = [kw[key] for key in ADJUST_KEYS[1:]]
        expected = reference_log_ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last, *rings)
        assert_bit_equal(ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last, *rings),
                         expected)
        log_ratios = expected[1] - expected[0]
        assert (adj.log_c_low, adj.log_c_high) == (log_ratios.min(), log_ratios.max())


def gather_sandwich_blocks(pair, w, ts, theta_count):
    """(thetas, log_g1, log_g2, log_omega, log_lower, log_upper) with the
    streamed blocks of _sandwich_blocks gathered into whole grids."""
    thetas, log_w, lo, hi, blocks = _sandwich_blocks(pair, w, ts, theta_count)
    log_g1 = np.empty((log_w.size, theta_count))
    log_g2 = np.empty_like(log_g1)
    for rows, g1, g2 in blocks:
        log_g1[rows], log_g2[rows] = g1, g2
    return thetas, log_g1, log_g2, log_w, lo, hi


class TestSandwichSamples:
    def test_matches_check_margins(self, cli_state):
        _, _, state, w = cli_state
        pair = lw.split_parity(state)
        ts = np.linspace(state.t0, state.t_last, 41)[1:]
        thetas, g1, g2, log_w, lo, hi = gather_sandwich_blocks(pair, w, ts, 16)
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
            _sandwich_blocks(lw.split_parity(state), w, [state.t_last], 0)

    def test_nan_radius_rejected(self, cli_state):
        _, _, state, w = cli_state
        ts = np.linspace(state.t0, state.t_last, 301)[1:]
        ts[100] = math.nan
        for t_grid in (ts, [math.nan]):
            with pytest.raises(ValueError, match="radius grid must lie"):
                lw.sandwich_check(lw.split_parity(state), w, t_grid, theta_count=8)

    @pytest.mark.parametrize("theta_count", [0, -1])
    def test_grid_rejects_no_angles(self, cli_state, theta_count):
        _, _, state, _ = cli_state
        pair = lw.split_parity(state)
        for s in (pair.g1, lw.LacunarySeries(())):
            with pytest.raises(ValueError, match="theta_count"):
                lw.eval_series_grid(s, [0.5, state.t_last], theta_count)

    def test_check_memory_bound(self):
        # The check reduces blocks of 256 radii over the 129 distinct
        # angles theta <= pi: its peak stays below one 2000 x 129 grid of
        # doubles (2.064 MB).
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
        assert peak < 2000 * 129 * 8


# The two deep states of the lemma benchmark, as make_weight arguments and
# ConstructionParams keywords.
DEEP_STATES = {
    "double_exp": (("double_exp", ()), {"k_max": 2000}),
    "exp_power_a2": (("exp_power", (2.0,)), {"k_max": 5000, "t_stop": 0.999}),
}


@pytest.fixture(scope="module", params=sorted(DEEP_STATES))
def deep_state(request):
    weight, params = DEEP_STATES[request.param]
    w = lw.make_weight(*weight)
    return lw.run_construction(w, lw.ConstructionParams(x0=X0, **params)), w


def assert_same_report(pair, w, ts, theta_count):
    report = lw.sandwich_check(pair, w, ts, theta_count=theta_count)
    expected = reference_sandwich_check(pair, w, ts, theta_count)
    assert render_json(report.to_json_dict()) == render_json(expected)
    return report


class TestSandwichCheckMatchesFullGrid:
    """The block reduction gives the bytes of the full-grid check: margins
    and the np.argmin witnesses."""

    def test_deep_states(self, deep_state):
        state, w = deep_state
        assert len(state.lines) in (601, 2000)
        ts = np.linspace(state.t0, state.t_last, 2001)[1:]
        assert assert_same_report(lw.split_parity(state), w, ts, 256).passed

    @pytest.mark.parametrize("t_count, theta_count", [
        (2000, 256), *itertools.product([1, 255, 256, 257, 600], [1, 5, 64])])
    def test_cli_states(self, cli_state, t_count, theta_count):
        _, _, state, w = cli_state
        ts = np.linspace(state.t0, state.t_last, t_count + 1)[1:]
        assert_same_report(lw.split_parity(state), w, ts, theta_count)

    # log|G1| = 0 under a flat weight: every cell ties in both margins.
    FLAT = lw.weight_from_knots([(-5.0, 0.0), (-0.01, 0.0)])

    def test_all_margins_tie(self):
        pair = lw.SeriesPair(g1=lw.LacunarySeries(((0.0, 0),)), g2=lw.LacunarySeries(()),
                             t0=0.5, h=2.0, t_last=0.9)
        ts = np.linspace(pair.t0, pair.t_last, 601)[1:]
        report = assert_same_report(pair, self.FLAT, ts, 5)
        assert report.lower_witness == report.upper_witness == (ts[0], 0.0)

    def test_nan_counts_as_smallest(self):
        # a NaN log omega at one radius of the second block makes its row NaN
        pair = lw.SeriesPair(g1=lw.LacunarySeries(((0.0, 0), (-1.0, 3))),
                             g2=lw.LacunarySeries(()), t0=0.5, h=2.0, t_last=0.9)
        ts = np.linspace(pair.t0, pair.t_last, 601)[1:]
        flat = self.FLAT

        class NanAtOneRadius:
            def log_omega(self, t):
                return math.nan if t == ts[300] else flat.log_omega(t)

        report = assert_same_report(pair, NanAtOneRadius(), ts, 5)
        assert report.lower_witness == report.upper_witness == (ts[300], 0.0)
        assert math.isnan(report.lower_margin) and not report.passed

    def test_empty_series(self):
        pair = lw.SeriesPair(g1=lw.LacunarySeries(()), g2=lw.LacunarySeries(()),
                             t0=0.5, h=2.0, t_last=0.9)
        ts = np.linspace(pair.t0, pair.t_last, 301)[1:]
        report = assert_same_report(pair, self.FLAT, ts, 3)
        assert (report.lower_margin, report.upper_margin) == (-math.inf, math.inf)
        assert report.lower_witness == report.upper_witness == (ts[0], 0.0)
        assert not report.passed


class TestHalfAngleGrid:
    """The sandwich check samples theta_j, j = 0 .. N // 2, alone: G1 and G2
    have positive coefficients, so |G(conj z)| = |G(z)|."""

    @pytest.mark.parametrize("theta_count", [1, 2, 5, 64, 256])
    def test_check_contracts_distinct_columns(self, cli_state, monkeypatch, theta_count):
        _, _, state, w = cli_state
        shapes = []
        make = series._grid_kernel

        def recording(*args):
            kernel = make(*args)

            def block(xs):
                out = kernel(xs)
                shapes.append(out.shape)
                return out

            return block

        monkeypatch.setattr(series, "_grid_kernel", recording)
        ts = np.linspace(state.t0, state.t_last, 301)[1:]
        report = lw.sandwich_check(lw.split_parity(state), w, ts, theta_count=theta_count)
        # two series, two blocks of radii (256 + 44)
        assert sorted(shapes) == sorted([(256, theta_count // 2 + 1), (44, theta_count // 2 + 1)]
                                        * 2)
        assert report.lower_witness[1] <= math.pi and report.upper_witness[1] <= math.pi

    @staticmethod
    def assert_mirror_columns_agree(state):
        # Column N - j of the full grid evaluates the conjugate points of
        # column j, rounding differently; on the benchmark states the gap
        # stays below 1e-12 relative (512 ulps of a small log at most).
        # Near a zero of a dense series it can be far larger.
        pair = lw.split_parity(state)
        ts = np.linspace(state.t0, state.t_last, 2001)[1:]
        for s in (pair.g1, pair.g2):
            grid = reference_grid(s, ts, 256)
            mirror = grid[:, [0, *range(255, 0, -1)]]
            assert np.isfinite(grid).all()
            assert (np.abs(mirror - grid) <= 1e-12 * np.maximum(1.0, np.abs(grid))).all()

    def test_mirror_columns_agree_on_deep_states(self, deep_state):
        self.assert_mirror_columns_agree(deep_state[0])

    def test_mirror_columns_agree_on_cli_states(self, cli_state):
        self.assert_mirror_columns_agree(cli_state[2])


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
