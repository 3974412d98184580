"""The series kernel: tables and phases only for candidate terms, the
same values.

`reference_series` keeps the full-phase-table grid evaluation and the
|z|-grouped point evaluation as oracles.
"""

import gc
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight import series
from logweight.envelope import _log_max_moduli
from logweight.series import ScaledArray, _eval_points, inner_disk_radii

from reference_series import (reference_grid, reference_log_abs, reference_log_modulus_bounds,
                              reference_normalize, reference_points, stack_scaled)

X0 = math.log(0.95)


@pytest.fixture(scope="module")
def deep_state():
    """double_exp to K = 2000: 1,000 terms per series, exponents to 1e14."""
    w = lw.make_weight("double_exp")
    return lw.run_construction(w, lw.ConstructionParams(x0=X0, k_max=2000))


@pytest.fixture(scope="module")
def deep_pair(deep_state):
    return lw.split_parity(deep_state)


@pytest.fixture(scope="module")
def deep_ball(deep_state):
    """The monomial ball system of the double_exp state, and a 2000-radius
    grid over (t0, t_last]."""
    system = lw.build_ball_functions(deep_state, lw.monomial_family())
    return system, np.linspace(deep_state.t0, deep_state.t_last, 2001)[1:]


@pytest.fixture(scope="module")
def deep_pair_a2():
    """exp_power alpha = 2 to t = 0.999: K = 601, about 300 terms per series."""
    w = lw.make_weight("exp_power", (2.0,))
    state = lw.run_construction(w, lw.ConstructionParams(x0=X0, k_max=5000, t_stop=0.999))
    return lw.split_parity(state)


@pytest.fixture(scope="module")
def shallow_case():
    """exp_power alpha = 1 to t = 0.9999: K = 68, 34 terms per series."""
    w = lw.make_weight("exp_power", (1.0,))
    state = lw.run_construction(w, lw.ConstructionParams(x0=X0, t_stop=0.9999))
    return lw.split_parity(state), w


@pytest.fixture(scope="module")
def slice_system():
    """The ball system and sphere point behind the benchmark's slices."""
    w = lw.make_weight("exp_power", (1.0,))
    state = lw.run_construction(w, lw.ConstructionParams(x0=X0, t_stop=0.9999))
    return lw.build_ball_functions(state, lw.monomial_family()), lw.sphere_points(1, 64, 7)[-1]


def tangent_like_case(n_terms, n_radii, from_zero, sharpness, n_sunk, dead, seed):
    """(series, radii): tangent-like terms b e - a e log e, so that the
    largest term moves through the exponents as t grows, plus noise; some
    middle terms sunk far below their neighbours (gaps in the live sets),
    maybe a zero coefficient (log -inf) or a least exponent above 0.
    Radii from 0 and 1e-300 up to 0.999, unsorted, some repeated."""
    rng = np.random.default_rng(seed)
    es = np.sort(rng.choice(10**6, n_terms, replace=False)) + (0 if from_zero else 1)
    if from_zero:
        es[0] = 0
    e = es.astype(float)
    log_coeffs = sharpness * (15.0 * e - e * np.log(np.maximum(e, 1.0)))
    log_coeffs += rng.uniform(-300.0, 300.0, n_terms) * rng.uniform(size=n_terms) ** 4
    sunk = rng.integers(1, n_terms - 1, n_sunk)
    log_coeffs[sunk] -= rng.uniform(150.0, 5000.0, n_sunk)
    if dead:
        log_coeffs[rng.integers(0, n_terms)] = -math.inf
    s = series.LacunarySeries(tuple(zip(log_coeffs.tolist(), es.tolist())))
    ts = np.exp(-rng.exponential(2.0, n_radii))
    ts = np.minimum(ts, 0.999)
    ts[rng.integers(0, n_radii, 4)] = 0.0
    ts[rng.integers(0, n_radii, 2)] = 1e-300
    ts[rng.integers(0, n_radii, 20)] = ts[rng.integers(0, n_radii, 20)]
    return s, ts


# The arguments of tangent_like_case, with an angle count.
TANGENT_LIKE = dict(
    n_terms=st.integers(257, 360), n_radii=st.integers(200, 600),
    theta_count=st.integers(1, 9), from_zero=st.booleans(),
    sharpness=st.floats(0.05, 20.0), n_sunk=st.integers(0, 8),
    dead=st.booleans(), seed=st.integers(0, 2**32 - 1))


def bits(values):
    """The bytes of a ScaledArray: mantissa parts and log scale per point."""
    m = values.mantissa.ravel()
    return np.column_stack([m.real, m.imag, values.log_scale.ravel()]).tobytes()


class TestGridMatchesReference:
    def test_lcm_grid_and_rotated_subsets(self, deep_pair):
        # f1 on zero_adjust's inner disk at the lcm of 64 and 720 angles:
        # its columns hold every rotated 64-angle subset.
        f1 = deep_pair.g1.shifted(deep_pair.g1.exponents[0])
        r_in = inner_disk_radii(deep_pair.t0, 100)
        common = int(np.lcm(64, 720))
        np.testing.assert_array_equal(lw.eval_series_grid(f1, r_in, common),
                                      reference_grid(f1, r_in, common))

    def test_outer_radii_across_blocks(self, deep_pair):
        ts = np.linspace(deep_pair.t0, deep_pair.t_last, 601)[1:]
        for s in (deep_pair.g1, deep_pair.g2):
            np.testing.assert_array_equal(lw.eval_series_grid(s, ts, 256),
                                          reference_grid(s, ts, 256))

    @pytest.mark.parametrize("case", ["deep_pair", "deep_pair_a2"])
    def test_benchmark_sandwich_grid(self, case, request):
        # the 2000 x 256 sandwich grid over (t0, t_last] of both deep
        # benchmark states: runs of radii over their candidate rows give
        # the bits of one call over every term
        pair = request.getfixturevalue(case)
        ts = np.linspace(pair.t0, pair.t_last, 2001)[1:]
        for s in (pair.g1, pair.g2):
            assert lw.eval_series_grid(s, ts, 256).tobytes() == \
                reference_grid(s, ts, 256).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(**TANGENT_LIKE)
    def test_any_series_matches_reference(self, theta_count, **case):
        s, ts = tangent_like_case(**case)
        assert lw.eval_series_grid(s, ts, theta_count).tobytes() == \
            reference_grid(s, ts, theta_count).tobytes()

    def test_radii_past_the_log_range(self):
        # e_0 = 1e12: at t = 1e-300 the logs reach 7e14, where rounding
        # could pass the candidate margin, so such radii take every row
        es = 10**12 + np.arange(300) * 10**9
        log_coeffs = 0.01 * (es - 10**12) ** 0.5
        s = series.LacunarySeries(tuple(zip(log_coeffs.tolist(), es.tolist())))
        ts = np.concatenate([np.linspace(0.0, 0.999, 300), [1e-300, 1e-200]])
        assert lw.eval_series_grid(s, ts, 8).tobytes() == reference_grid(s, ts, 8).tobytes()

    @pytest.mark.parametrize("n_terms", [1, 2, 31, 32, 33, 34])
    @pytest.mark.parametrize("seed", range(4))
    def test_short_series_match_reference(self, n_terms, seed):
        # up to _RUN_ROWS terms every row is a candidate, in one call per
        # block (_term_windows divides by zero on one or two terms); from
        # 33 on the candidate windows split the block into runs.  Seed 3
        # has a zero coefficient, which takes every row at any length.
        s, ts = tangent_like_case(n_terms, 600, from_zero=seed % 2 == 0,
                                  sharpness=(0.05, 1.0, 20.0, 1.0)[seed],
                                  n_sunk=2 if n_terms > 2 else 0, dead=seed == 3, seed=seed)
        for theta_count in (1, 7):
            assert lw.eval_series_grid(s, ts, theta_count).tobytes() == \
                reference_grid(s, ts, theta_count).tobytes()

    @pytest.mark.parametrize("coeff_shift, exponent_base", [(2.0 ** 47, 0), (0.0, 2 ** 53)])
    def test_past_the_window_range(self, monkeypatch, coeff_shift, exponent_base):
        # a log-coefficient past 2^46 or an exponent past 2^53, where
        # _term_windows could fail: every row is a candidate, in one
        # _scaled_terms call per block of radii
        s, ts = tangent_like_case(300, 600, True, 1.0, 4, False, 5)
        s = series.LacunarySeries(tuple((lc + coeff_shift, exponent_base + 2 * e)
                                        for lc, e in s.terms))
        assert max(abs(lc) for lc in s.log_coeffs) > 2.0 ** 46 or s.exponents[-1] > 2 ** 53

        def run():
            assert lw.eval_series_grid(s, ts, 8).tobytes() == reference_grid(s, ts, 8).tobytes()

        assert TestNoLongTables.rows_per_call(monkeypatch, run) == [300] * 3

    @pytest.mark.parametrize("nan_at", [0, 150, 301])
    def test_nan_radius_rejected(self, nan_at):
        # every comparison with NaN is false, so a range check written as
        # "min < 0 or max >= 1" would let NaN through
        es = 10**12 + np.arange(300) * 10**9
        s = series.LacunarySeries(tuple(zip((0.01 * (es - 10**12) ** 0.5).tolist(),
                                            es.tolist())))
        ts = np.concatenate([np.linspace(0.0, 0.999, 300), [1e-300, 1e-200]])
        ts[nan_at] = math.nan
        for t_values in (ts, [math.nan]):
            with pytest.raises(ValueError, match=r"radii must lie in \[0, 1\)"):
                lw.eval_series_grid(s, t_values, 8)

    def test_phase_memory_follows_live_terms(self, deep_pair):
        # The full phase table of 1,000 terms over 2,880 angles takes 46 MB
        # (complex) plus 23 MB of indices; at radii <= t0 only a few terms
        # are live, and the output itself takes 2.3 MB.
        f1 = deep_pair.g1.shifted(deep_pair.g1.exponents[0])
        r_in = inner_disk_radii(deep_pair.t0, 100)
        tracemalloc.start()
        try:
            lw.eval_series_grid(f1, r_in, 2880)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6


@pytest.fixture(scope="module")
def ramey_pair():
    """ramey_ullrich to t = 0.999999999: K = 4, two terms per series."""
    w = lw.make_weight("ramey_ullrich")
    state = lw.run_construction(w, lw.ConstructionParams(x0=X0, t_stop=0.999999999))
    return lw.split_parity(state)


def assert_brackets_match_runs(s, ts):
    """The gathered bracket of s at the radii ts has the bits of the
    run-based one."""
    _, xs = series._log_radii(ts)
    got, expected = series._log_modulus_bounds(s, xs), reference_log_modulus_bounds(s, xs)
    for a, b in zip(got, expected, strict=True):
        assert a.tobytes() == b.tobytes()
    return got


class TestGatheredBrackets:
    """_log_modulus_bounds gathers each radius' candidate rows into one
    table per series and sums the same mantissas as the grid kernel's runs
    (reference_log_modulus_bounds), bit for bit."""

    @pytest.mark.parametrize("case", ["deep_pair", "deep_pair_a2", "shallow_case", "ramey_pair"])
    def test_bench_states_match_runs(self, case, request):
        # the 2000-radius sandwich grid of G1 and G2, then zero_adjust's
        # inner ring (radius 0 included) and outer ring of f1 and G2
        pair = request.getfixturevalue(case)
        pair = pair[0] if case == "shallow_case" else pair
        f1 = pair.g1.shifted(pair.g1.exponents[0])
        for s in (pair.g1, pair.g2):
            assert_brackets_match_runs(s, np.linspace(pair.t0, pair.t_last, 2001)[1:])
        for radii, _ in series._rings(pair.t0, pair.t_last, 100, 64, 200, 64):
            for s in (f1, pair.g2):
                assert_brackets_match_runs(s, radii)

    def test_empty_series(self):
        lo, hi = assert_brackets_match_runs(lw.LacunarySeries(()), np.array([0.0, 0.5, 0.9]))
        assert (lo == -math.inf).all() and (hi == -math.inf).all()

    @pytest.mark.parametrize("n_terms", [1, 2, 31, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_short_series(self, n_terms, seed):
        # up to _RUN_ROWS terms every row is a candidate at every radius
        s, ts = tangent_like_case(n_terms, 600, from_zero=seed % 2 == 0,
                                  sharpness=(0.05, 1.0, 20.0, 1.0)[seed],
                                  n_sunk=2 if n_terms > 2 else 0, dead=seed == 3, seed=seed)
        assert len(s.terms) <= series._RUN_ROWS
        assert_brackets_match_runs(s, ts)

    def test_wide_radii(self):
        # e_0 = 1e12: at t = 1e-300 and 1e-200, e_0 |x| passes the room
        # below _LOG_RANGE, so those radii take every row
        es = 10**12 + np.arange(300) * 10**9
        s = series.LacunarySeries(tuple(zip((0.01 * (es - 10**12) ** 0.5).tolist(),
                                            es.tolist())))
        ts = np.concatenate([np.linspace(0.0, 0.999, 300), [1e-300, 1e-200]])
        _, hi, wide = series._candidates(s.windows, series._log_radii(ts)[1])
        assert wide.sum() == 2 and (hi[wide] == 300).all()
        assert_brackets_match_runs(s, ts)

    @settings(max_examples=25, deadline=None)
    @given(**TANGENT_LIKE)
    def test_any_series_matches_runs(self, theta_count, **case):
        assert_brackets_match_runs(*tangent_like_case(**case))

    def test_no_kernel_calls(self, deep_pair, monkeypatch):
        # the run-based bracket made 36 to 39 _scaled_terms calls per
        # series on this grid, one per run of candidate rows
        ts = np.linspace(deep_pair.t0, deep_pair.t_last, 2001)[1:]
        rows = TestNoLongTables.rows_per_call(monkeypatch, lambda: series._log_sum_bounds(
            deep_pair.g1, deep_pair.g2, series._log_radii(ts)[1]))
        assert rows == []


class TestNoLongTables:
    """On the sandwich, zero adjustment and ball check paths no kernel call
    tabulates more than _RUN_ROWS terms of a series: of the 1,000 of
    double_exp K = 2000, the 300 of exp_power alpha = 2 or the 34 of
    exp_power alpha = 1.  The sandwich and zero adjustment need no more
    memory than on a series of 34, and the ball check asks the family for
    the live rows of a call alone."""

    @staticmethod
    def rows_per_call(monkeypatch, run):
        """The row count of every _scaled_terms call that run() makes,
        also through a copy of the name in ball_extension, if any."""
        rows = []
        kernel = series._scaled_terms

        def counting(*args):
            rows.append(np.size(args[0]))
            return kernel(*args)

        monkeypatch.setattr(series, "_scaled_terms", counting)
        monkeypatch.setattr(lw.ball_extension, "_scaled_terms", counting, raising=False)
        run()
        return rows

    def test_rows_per_kernel_call(self, deep_pair, deep_pair_a2, shallow_case, monkeypatch):
        # the zero_adjust rings have 100 and 200 radii; every series here
        # has more than _RUN_ROWS terms, so runs in windows
        cases = [(deep_pair, lw.make_weight("double_exp")),
                 (deep_pair_a2, lw.make_weight("exp_power", (2.0,))), shallow_case]

        def run():
            for pair, w in cases:
                ts = np.linspace(pair.t0, pair.t_last, 2001)[1:]
                assert lw.sandwich_check(pair, w, ts, 256).passed
                lw.zero_adjust(pair, w)

        rows = self.rows_per_call(monkeypatch, run)
        assert rows and max(rows) <= series._RUN_ROWS

    def test_rows_per_ball_kernel_call(self, deep_ball, monkeypatch):
        # the inner-ball samples share the windows of the radius grid; each
        # kernel call asks the family for the degrees of its live rows alone
        system, ts = deep_ball
        live, degrees = [], []
        kernel, family_eval = series._scaled_terms, lw.PolynomialFamily.eval

        def counting(*args):
            out = kernel(*args)
            live.append(int(out[1].sum()))
            return out

        def asked(fam, q, ns, pts):
            degrees.append(len(ns))
            return family_eval(fam, q, ns, pts)

        monkeypatch.setattr(series, "_scaled_terms", counting)
        monkeypatch.setattr(lw.PolynomialFamily, "eval", asked)
        rows = self.rows_per_call(monkeypatch, lambda: lw.ball_lower_bound_check(
            system, lw.make_weight("double_exp"), ts, sphere_samples=128))
        assert rows and max(rows) <= series._RUN_ROWS
        assert degrees == live

    def test_ball_check_peak_memory(self, deep_ball):
        # the 2000 x 128 grid of one complex contraction alone takes 4 MB,
        # and the (1000, 2000) term table of each function 16 MB; the
        # (terms, samples) family values of both functions would take 6 MB
        system, ts = deep_ball
        tracemalloc.start()
        try:
            lw.ball_lower_bound_check(system, lw.make_weight("double_exp"), ts,
                                      sphere_samples=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_peak_memory_as_on_a_short_series(self, deep_pair, shallow_case):
        # a (1000, 256) table of logs alone takes 2 MB; the parity series
        # of exp_power alpha = 1 have 34 terms
        def peaks(pair, w):
            ts = np.linspace(pair.t0, pair.t_last, 2001)[1:]
            out = []
            for check in (lambda: lw.sandwich_check(pair, w, ts, 256),
                          lambda: lw.zero_adjust(pair, w)):
                tracemalloc.start()
                try:
                    check()
                    out.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return out

        deep = peaks(deep_pair, lw.make_weight("double_exp"))
        short = peaks(*shallow_case)
        for d, s in zip(deep, short):
            assert d <= s + 250_000


class TestSetUpOnSeries:
    """A series builds its arrays and candidate windows once, for every
    grid it is evaluated on."""

    def test_windows_built_once_per_series(self, deep_state, monkeypatch):
        # g1 and g2 for the sandwich; zero_adjust reuses g2 and builds
        # f1 = G1 / z^{e1}
        pair = lw.split_parity(deep_state)
        w = lw.make_weight("double_exp")
        built = []
        windows = series._term_windows

        def counted(*args):
            built.append(len(args[0]))
            return windows(*args)

        monkeypatch.setattr(series, "_term_windows", counted)
        lw.sandwich_check(pair, w, np.linspace(pair.t0, pair.t_last, 301)[1:], 64)
        lw.zero_adjust(pair, w)
        assert built == [1000, 1000, 1000]

    def test_ball_function_series_built_once(self, deep_ball, monkeypatch):
        # a ball function builds its series once, not on every evaluation
        system, _ = deep_ball
        zeta = lw.sphere_points(1, 64, 7)[-1]
        system.eval(0, 0.5, zeta)
        system.slice_callable(1, zeta)
        built = []
        init = series.LacunarySeries.__post_init__

        def counted(self):
            built.append(len(self.terms))
            init(self)

        monkeypatch.setattr(series.LacunarySeries, "__post_init__", counted)
        system.eval(0, 0.5, zeta)
        system.slice_callable(1, zeta)(np.array([0.3, 0.5j]))
        assert built == []

    def test_canonical_terms_kept(self, deep_pair):
        # split_parity and shifted hand over sorted (float, int) pairs; a
        # rebuild allocates 1,000 new pairs (about 64 kB) and two 1,000-long
        # sequences.  Holding 4,000 pairs empties the free list of pairs, so
        # that new ones would show in the trace.
        terms = deep_pair.g1.terms
        held = [(float(i), i) for i in range(4000)]
        gc.collect()
        tracemalloc.start()
        try:
            s = lw.LacunarySeries(terms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del held
        assert peak < 4096
        assert s.terms is terms

    def test_other_terms_made_canonical(self):
        s = lw.LacunarySeries([(np.float64(2.0), 3), (1, True)])
        assert s.terms == ((1.0, 1), (2.0, 3))
        assert [type(v) for te in s.terms for v in te] == [float, int, float, int]

    def test_cached_arrays_read_only(self, deep_pair):
        for values in (deep_pair.g1.log_coeff_array, deep_pair.g1.exponent_array):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0


class TestPointsMatchReference:
    def test_slice_circles(self, slice_system):
        system, zeta = slice_system
        circle = np.exp(2j * math.pi * np.arange(256) / 256)
        pts = (np.geomspace(0.1, 0.9, 24)[:, None] * circle).ravel()
        for index in (0, 1):
            log_mods, units, es = system._line(index, zeta)
            es = es - es.min()
            assert bits(_eval_points(log_mods, units, es, pts)) == \
                bits(reference_points(log_mods, units, es, pts))

    def test_mixed_radii_with_zero(self, slice_system):
        system, zeta = slice_system
        rng = np.random.default_rng(11)
        zs = rng.uniform(0.0, 0.999, 700) * np.exp(2j * math.pi * rng.uniform(size=700))
        zs[[0, 255, 256, 511, 699]] = 0.0
        for index in (0, 1):
            log_mods, units, es = system._line(index, zeta)
            assert bits(_eval_points(log_mods, units, es, zs)) == \
                bits(reference_points(log_mods, units, es, zs))

    def test_unit_coefficients(self, deep_pair):
        s = deep_pair.g2
        log_mods = np.array(s.log_coeffs)
        es = np.array(s.exponents, dtype=float)
        zs = np.array([0j, 0.5, -0.3j, deep_pair.t0 * 1j, deep_pair.t_last * np.exp(2j)])
        values = [lw.eval_series(s, z) for z in zs]
        assert bits(stack_scaled((v.mantissa, v.log_scale) for v in values)) == \
            bits(reference_points(log_mods, np.ones(es.size, dtype=complex), es, zs))

    def test_dense_series_agree_to_rounding(self):
        # Many terms live at once: the block sums them in another order
        # than the per-|z| product, so values agree to rounding only.
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 60))
            es = np.sort(rng.choice(400, k, replace=False)).astype(float)
            log_mods = rng.normal(0.0, 3.0, k)
            units = np.exp(2j * math.pi * rng.uniform(size=k))
            zs = rng.uniform(0.01, 0.999, 600) * np.exp(2j * math.pi * rng.uniform(size=600))
            got = _eval_points(log_mods, units, es, zs)
            want = reference_points(log_mods, units, es, zs)
            for i, z in enumerate(zs):
                top = float(np.max(log_mods + es * math.log(abs(z))))
                diff = (got.mantissa[i] * math.exp(got.log_scale[i] - top)
                        - want.mantissa[i] * math.exp(want.log_scale[i] - top))
                assert abs(diff) <= 4 * k * np.finfo(float).eps


class TestOneKernelCallPerBlock:
    @pytest.mark.parametrize("shape, calls", [((24, 256), 24), ((300,), 2), ((), 1)])
    def test_slice_calls(self, slice_system, monkeypatch, shape, calls):
        system, zeta = slice_system
        seen = []
        kernel = series._scaled_terms

        def counting(*args):
            seen.append(np.size(args[2]))
            return kernel(*args)

        monkeypatch.setattr(series, "_scaled_terms", counting)
        rng = np.random.default_rng(3)
        lam = 0.9 * rng.uniform(size=shape) * np.exp(2j * math.pi * rng.uniform(size=shape))
        system.slice_callable(0, zeta)(lam)
        assert len(seen) == calls
        assert max(seen) <= 256


def per_point(values, log_scales):
    """reference_normalize of every value on its own, gathered."""
    return stack_scaled(reference_normalize(complex(v), float(c))
                        for v, c in zip(values.tolist(), log_scales.tolist()))


def per_point_log_abs(values):
    """reference_log_abs of every value of a 1-d ScaledArray."""
    return [reference_log_abs(m, c)
            for m, c in zip(values.mantissa.tolist(), values.log_scale.tolist())]


def log_abs_bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestArrayNormalization:
    """The array path normalizes every sum as reference_normalize does,
    bit for bit, and reads log|value| as reference_log_abs does."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_terms=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_eval_points_matches_per_point_normalize(self, data, n_terms, seed):
        rng = np.random.default_rng(seed)
        exponents = np.sort(rng.choice(120, n_terms, replace=False)).astype(float)
        log_mods = rng.uniform(-30.0, 30.0, n_terms)
        units = np.exp(2j * math.pi * rng.uniform(size=n_terms))
        cancel = n_terms >= 2 and data.draw(st.booleans(), label="cancelling pair")
        if cancel:
            # at z = 1 the first two terms are equal and opposite and every
            # other term is dropped, so the sum there is exactly 0
            log_mods[:2], units[:2] = log_mods.max() + 250.0, (1.0, -1.0)
        radii = rng.uniform(0.0, 0.999, 300)
        radii[rng.integers(0, 300, 5)] = 0.0
        zs = radii * np.exp(2j * math.pi * rng.uniform(size=300))
        zs[rng.integers(0, 300, 3)] = 1.0
        seen = []
        normalize = ScaledArray.normalize

        def spy(values, log_scale):
            seen.append((values.copy(), log_scale.copy()))
            return normalize(values, log_scale)

        with mock.patch.object(ScaledArray, "normalize", staticmethod(spy)):
            got = _eval_points(log_mods, units, exponents, zs)
        (sums, scales), = seen
        want = per_point(sums, scales)
        assert bits(got) == bits(want)
        assert log_abs_bits(got.log_abs) == log_abs_bits(per_point_log_abs(want))
        if cancel:
            assert np.all(sums[zs == 1.0] == 0) and np.all(np.isfinite(scales[zs == 1.0]))

    def test_edge_values(self):
        # powers of two and their neighbours, a subnormal, signed zeros, a
        # wide exponent range, zero sums at a finite scale, inf and NaN
        tops = np.ldexp(1.0, np.arange(-1000, 1001, 37))
        mags = np.concatenate([tops, np.nextafter(tops, 0.0), np.nextafter(tops, np.inf),
                               [1e-310]])
        values = np.concatenate([
            mags + 0j, -mags + 0j, mags * 1j, complex(-0.0, 1.0) * mags, mags * (0.6 - 0.8j),
            [0j, complex(-0.0, -0.0), complex(0.0, -0.0), np.inf + 0j, complex(np.nan, 0.0)]])
        scales = np.linspace(-700.0, 700.0, values.size)
        scales[-5:-2] = (3.5, -np.inf, 0.0)
        with np.errstate(invalid="ignore"):
            got = ScaledArray.normalize(values, scales)
        assert bits(got) == bits(per_point(values, scales))
        assert log_abs_bits(got.log_abs) == log_abs_bits(per_point_log_abs(got))
        assert (got.mantissa[-5], got.log_scale[-5]) == (0j, -math.inf)


class TestBenchmarkSlices:
    """The two slices of the benchmark: exp_power alpha = 1, the last of
    sphere_points(1, 64, 7), each shifted by its least exponent, on 24
    radii by 256 angles."""

    rs = np.geomspace(0.1, 0.9, 24)
    # sha256 of the per-radius log max |f| and of the (mantissa, log scale)
    # bits of every point
    pins = {0: ("fac6222324cc2e8d3a7213b5e14b39ab3413a76ee8fa9f9144925b7380d40b67",
                "ffddedbdd8c8644fb0632decb638670f6aad8c725187adaa93742790f39d96b8"),
            1: ("bbc616e201241e85dbd6b86fb63a1af993ea788ca124665e819bd760bcfc7341",
                "c8768716c7aaf80bc69cc8b34bb48e7083a0416acf961cf38a7386f7fbc15133")}

    def slice_fn(self, slice_system, index):
        system, zeta = slice_system
        shift = min(e for _, e in system.functions[index].terms)
        return system.slice_callable(index, zeta, shift=shift)

    @pytest.mark.parametrize("index", [0, 1])
    def test_reports_pinned(self, slice_system, index):
        f = self.slice_fn(slice_system, index)
        assert lw.hadamard_check([f], self.rs, theta_count=256).to_json_dict() == {
            "passed": True, "min_second_diff": 0.0, "witness_r": 0.11002434828571835,
            "n_functions": 1, "r_count": 24, "theta_count": 256, "tol": 1e-07,
            "basis": "sampled", "converged": True, "log_bracket_width": None}
        values_pin, points_pin = self.pins[index]
        values = _log_max_moduli(f, self.rs, 256).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == values_pin
        circle = np.exp(2j * math.pi * np.arange(256) / 256)
        points = f(self.rs[:, None] * circle)
        assert hashlib.sha256(bits(points)).hexdigest() == points_pin

    def test_no_scaled_complex_per_point(self, slice_system):
        # ScaledArray is the one value type: eval_series,
        # BallFunctionSystem.eval and a slice at a scalar give a 0-d
        # ScaledArray with the bits of the one-point array call
        system, zeta = slice_system
        s = lw.split_parity(system.state).g1
        log_mods, es = np.array(s.log_coeffs), np.array(s.exponents, dtype=float)
        f = self.slice_fn(slice_system, 0)
        for scalar, one_point in [
                (lw.eval_series(s, 0.5 + 0.25j),
                 _eval_points(log_mods, None, es, np.array([0.5 + 0.25j]))),
                (system.eval(1, 0.75, zeta),
                 _eval_points(*system._line(1, zeta), np.array([0.75 + 0j]))),
                (f(0.5 + 0j), f(np.array([0.5 + 0j])))]:
            assert isinstance(scalar, ScaledArray)
            assert scalar.mantissa.shape == scalar.log_scale.shape == ()
            assert bits(scalar) == bits(one_point)
            assert scalar.log_abs.tobytes() == one_point.log_abs.tobytes()
