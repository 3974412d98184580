"""One (t, theta) sampler behind the sandwich check, `emit` and zero
adjustment: the same bytes and bits as the full-grid, per-cell and
two-ring copies in `reference_series`, within a memory bound, and input
errors for grid sizes the samplers cannot use.
"""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight import series
from logweight.cli import main, render_json
from logweight.series import _sandwich_blocks

from reference_series import (extreme_bits, reference_emit_csv, reference_extreme_bits,
                              reference_grid, reference_log_ratio_samples,
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
    """The ring sampler series._ring_log_sums on every row of each ring,
    flattened as reference_log_ratio_samples is: (log omega, log(|f1| +
    |f2|)) per sample, inner disk first."""
    rings = [(series._log_omegas(w, radii), series._ring_log_sums(f1, f2, radii, angles))
             for radii, angles in series._rings(t0, t_last, *grid)]
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
        assert extreme_bits(adj) == reference_extreme_bits(expected, rings[0] * rings[1])


def gather_sandwich_blocks(pair, w, ts, theta_count):
    """(thetas, log_g1, log_g2, log_omega, log_lower, log_upper) with the
    streamed blocks of _sandwich_blocks gathered into whole grids."""
    thetas, log_w, lo, hi, blocks = _sandwich_blocks(pair, w, ts, theta_count)
    log_g1 = np.empty((log_w.size, theta_count))
    log_g2 = np.empty_like(log_g1)
    for rows, g1, g2 in blocks():
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
        # The check samples only the rows whose brackets can hold a
        # witness, in blocks of 256 radii over all 256 angles, and never
        # holds the grid: its peak stays below 2000 x 129 doubles
        # (2.064 MB), half of one 2000 x 256 grid.
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


def tampered(state, data):
    """state with the log_a of 0-3 drawn lines moved by up to 4 either
    way, as the benchmark's tampered state lowers one line's by 4."""
    lines = list(state.lines)
    for k in data.draw(st.lists(st.integers(0, len(lines) - 1), max_size=3, unique=True)):
        shift = data.draw(st.floats(-4.0, 4.0))
        lines[k] = dataclasses.replace(lines[k], log_a=lines[k].log_a + shift)
    return dataclasses.replace(state, lines=tuple(lines))


def drawn_radii(pair, data, max_count):
    """1 .. max_count radii in (t0, t_last]: evenly spaced, or sorted
    uniform draws."""
    count = data.draw(st.integers(1, max_count))
    if data.draw(st.booleans()):
        return np.linspace(pair.t0, pair.t_last, count + 1)[1:]
    u = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).random(count)
    return np.sort(np.maximum(pair.t_last - (pair.t_last - pair.t0) * u,
                              np.nextafter(pair.t0, 1.0)))


def assert_pruned_matches_full_grid(state, w, data, max_count):
    """sandwich_check and zero_adjust, which sample only the rows that can
    hold a worst cell or an extreme, give the full-grid references' bytes
    and bits on a tampered state and a drawn grid."""
    pair = lw.split_parity(tampered(state, data))
    ts = drawn_radii(pair, data, max_count)
    theta_count = data.draw(st.sampled_from([1, 2, 3, 5, 16, 64, 256]))
    assert_same_report(pair, w, ts, theta_count)
    grid = data.draw(st.sampled_from(ADJUST_GRIDS))
    kw = dict(zip(ADJUST_KEYS, grid or (720, 100, 64, 200, 64)))
    try:
        adj = lw.zero_adjust(pair, w, **({} if grid is None else kw))
    except ValueError as err:  # a tampered f1 may not be dominated on |z| <= t0
        assert "not dominated" in str(err)
        return
    rings = [kw[key] for key in ADJUST_KEYS[1:]]
    expected = reference_log_ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last, *rings)
    assert extreme_bits(adj) == reference_extreme_bits(expected, rings[0] * rings[1])


class TestPrunedRowsMatchFullGrid:
    """Row pruning keeps every report byte: the sandwich report renders as
    the reference over the full (t, theta) grid does, and the
    six zero adjustment extremes are the min and max of the full two-ring
    samples, bit for bit."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_deep_states(self, deep_state, data):
        assert_pruned_matches_full_grid(*deep_state, data, 600)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_cli_states(self, cli_state, data):
        assert_pruned_matches_full_grid(*cli_state[2:], data, 2000)


class TestRowBrackets:
    """_log_sum_bounds brackets every sample of log(|G1| + |G2|) in its
    row, and sandwich_check runs the phase kernels on the few rows whose
    brackets can hold a witness."""

    @staticmethod
    def assert_samples_inside(state, w):
        pair = lw.split_parity(state)
        ts = np.linspace(state.t0, state.t_last, 2001)[1:]
        _, g1, g2, *_ = gather_sandwich_blocks(pair, w, ts, 256)
        log_s = np.logaddexp(g1, g2)
        lo, hi = series._log_sum_bounds(pair.g1, pair.g2, np.log(ts))
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert ((lo[:, None] <= log_s) & (log_s <= hi[:, None])).all()

    def test_deep_samples_inside(self, deep_state):
        self.assert_samples_inside(*deep_state)

    def test_cli_samples_inside(self, cli_state):
        self.assert_samples_inside(*cli_state[2:])

    def test_worst_margin_at_a_kink_inside_a_bracket(self):
        # log omega = 5 and h = 2 put the lower bound at b = 2.084, so the
        # lower margin (x - b) / max(|x|, b) has its minimum -2 at the
        # kink x = -b.  At t = 0.999, G1 = A (1 + z^1001 / 2 / 0.999^1001)
        # brackets x = log|G1| in [log A/2, log 3A/2], both ends with
        # margins above -1.9, and its sample at theta = pi/2 lies on the
        # kink.  At t = 0.5 the z^1001 term drops out: the one sample
        # there has margin -1.95, below the bracket ends of t = 0.999.
        # At t = 0.99999 G2 = e^7 z^100000 takes over and holds the worst
        # upper margin alone, so only the lower margin's kink keeps the
        # row t = 0.999.
        b = math.log(0.4) - 2.0 + 5.0
        log_a = -b - 0.5 * math.log(1.25)
        g1 = lw.LacunarySeries(((log_a, 0), (log_a - math.log(2.0) - 1001 * math.log(0.999),
                                              1001)))
        g2 = lw.LacunarySeries(((7.0, 100000),))
        pair = lw.SeriesPair(g1=g1, g2=g2, t0=0.4, h=2.0, t_last=0.99999)
        w = lw.weight_from_knots([(-10.0, 5.0), (-1e-6, 5.0)])
        report = assert_same_report(pair, w, [0.5, 0.999, 0.99999], 4)
        assert report.lower_witness == (0.999, 0.5 * math.pi)
        assert report.lower_margin == pytest.approx(-2.0, abs=1e-9)
        assert report.upper_witness[0] == 0.99999

    @staticmethod
    def kernel_radii(monkeypatch, state, w):
        """The radii each series' phase kernel evaluates in one
        sandwich_check on 2000 x 256."""
        counts = []
        make = series._grid_kernel

        def recording(*args):
            kernel = make(*args)
            counts.append(0)
            at = len(counts) - 1

            def block(xs):
                counts[at] += xs.size
                return kernel(xs)

            return block

        monkeypatch.setattr(series, "_grid_kernel", recording)
        ts = np.linspace(state.t0, state.t_last, 2001)[1:]
        assert lw.sandwich_check(lw.split_parity(state), w, ts, 256).passed
        return counts

    def test_deep_rows_evaluated(self, deep_state, monkeypatch):
        counts = self.kernel_radii(monkeypatch, *deep_state)
        assert len(counts) == 2 and all(1 <= n <= 20 for n in counts)

    def test_cli_rows_evaluated(self, cli_state, monkeypatch):
        counts = self.kernel_radii(monkeypatch, *cli_state[2:])
        assert len(counts) == 2 and all(1 <= n <= 20 for n in counts)


class TestHalfAngleGrid:
    """Column N - j of the angle grid evaluates the conjugate points of
    column j, |G(conj z)| = |G(z)|, but rounds apart, so the sandwich check
    contracts all N distinct columns and its witnesses are np.argmin's
    over the full grid."""

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
        # every kernel call, of either series, contracts every column
        assert shapes and {columns for _, columns in shapes} == {theta_count}
        assert render_json(report.to_json_dict()) == render_json(
            reference_sandwich_check(lw.split_parity(state), w, ts, theta_count))

    def test_mirror_witness_is_full_grid_argmin(self, tmp_path, capsys):
        # The ramey_ullrich state of the CLI benchmark (K = 4) with line
        # 2's log a raised by 0.5 (the chord gate still passes): at t_last
        # and N = 3 the lower margin rounds apart at theta = 2 pi/3 and
        # 4 pi/3.  Sampling theta <= pi alone reported 0.04939850327058834
        # at 2 pi/3, above the full grid's smallest margin.
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(w, lw.ConstructionParams(x0=X0, t_stop=0.999999999))
        assert len(state.lines) == 4
        lines = list(state.lines)
        lines[1] = dataclasses.replace(lines[1], log_a=lines[1].log_a + 0.5)
        state = dataclasses.replace(state, lines=tuple(lines))
        pair, witness = lw.split_parity(state), (state.t_last, 2.0 * math.pi * 2 / 3)
        expected = reference_sandwich_check(pair, w, [state.t_last], 3)
        assert expected["lower_margin"] == 0.04939850327058816
        assert assert_same_report(pair, w, [state.t_last], 3).lower_witness == witness

        path = tmp_path / "state.json"
        path.write_text(json.dumps(state.to_json_dict()))
        assert main(["verify", "sandwich", "--family", "ramey_ullrich", "--state", str(path),
                     "--angles", "3", "--t-points", "1"]) == 0
        cli_report = json.loads(capsys.readouterr().out)
        assert cli_report["lower_witness"] == expected["lower_witness"]
        assert cli_report["lower_margin"] == expected["lower_margin"]

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
