"""The series kernel: phases only for live terms, the same values.

`reference_series` keeps the full-phase-table grid evaluation and the
|z|-grouped point evaluation as oracles.
"""

import math
import tracemalloc

import numpy as np
import pytest

import logweight as lw
from logweight import series
from logweight.series import _eval_points, inner_disk_radii

from reference_series import reference_grid, reference_points

X0 = math.log(0.95)


@pytest.fixture(scope="module")
def deep_pair():
    """double_exp to K = 2000: 1,000 terms per series, exponents to 1e14."""
    w = lw.make_weight("double_exp")
    state = lw.run_construction(w, lw.ConstructionParams(x0=X0, k_max=2000))
    return lw.split_parity(state)


@pytest.fixture(scope="module")
def slice_system():
    """The ball system and sphere point behind the benchmark's slices."""
    w = lw.make_weight("exp_power", (1.0,))
    state = lw.run_construction(w, lw.ConstructionParams(x0=X0, t_stop=0.9999))
    return lw.build_ball_functions(state, lw.monomial_family()), lw.sphere_points(1, 64, 7)[-1]


def bits(values):
    return np.array([[v.mantissa.real, v.mantissa.imag, v.log_scale]
                     for v in values]).tobytes()


class TestGridMatchesReference:
    def test_lcm_grid_and_rotated_subsets(self, deep_pair):
        # zero_adjust's inner disk: f1 on the lcm of 64 and 720 angles, in
        # full and at the rotated 64-angle subsets its constants use.
        f1 = deep_pair.g1.shifted(deep_pair.g1.exponents[0])
        r_in = inner_disk_radii(deep_pair.t0, 100)
        common = int(np.lcm(64, 720))
        np.testing.assert_array_equal(lw.eval_series_grid(f1, r_in, common),
                                      reference_grid(f1, r_in, common))
        for theta_index in (0, 1, 357, 719):
            j = (np.arange(64) * (common // 64) + theta_index * (common // 720)) % common
            np.testing.assert_array_equal(
                lw.eval_series_grid(f1, r_in, common, theta_indices=j),
                reference_grid(f1, r_in, common, theta_indices=j))

    def test_outer_radii_across_blocks(self, deep_pair):
        ts = np.linspace(deep_pair.t0, deep_pair.t_last, 601)[1:]
        for s in (deep_pair.g1, deep_pair.g2):
            np.testing.assert_array_equal(lw.eval_series_grid(s, ts, 256),
                                          reference_grid(s, ts, 256))

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


class TestPointsMatchReference:
    def test_slice_circles(self, slice_system):
        system, zeta = slice_system
        circle = np.exp(2j * math.pi * np.arange(256) / 256)
        pts = (np.geomspace(0.1, 0.9, 24)[:, None] * circle).ravel()
        for index in (0, 1):
            log_mods, units, es = system._coefficients(index, zeta)
            es = es - es.min()
            assert bits(_eval_points(log_mods, units, es, pts)) == \
                bits(reference_points(log_mods, units, es, pts))

    def test_mixed_radii_with_zero(self, slice_system):
        system, zeta = slice_system
        rng = np.random.default_rng(11)
        zs = rng.uniform(0.0, 0.999, 700) * np.exp(2j * math.pi * rng.uniform(size=700))
        zs[[0, 255, 256, 511, 699]] = 0.0
        for index in (0, 1):
            log_mods, units, es = system._coefficients(index, zeta)
            assert bits(_eval_points(log_mods, units, es, zs)) == \
                bits(reference_points(log_mods, units, es, zs))

    def test_unit_coefficients(self, deep_pair):
        s = deep_pair.g2
        log_mods = np.array(s.log_coeffs)
        es = np.array(s.exponents, dtype=float)
        zs = np.array([0j, 0.5, -0.3j, deep_pair.t0 * 1j, deep_pair.t_last * np.exp(2j)])
        assert bits([lw.eval_series(s, z) for z in zs]) == \
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
            for a, b, z in zip(got, want, zs):
                top = float(np.max(log_mods + es * math.log(abs(z))))
                diff = a.mantissa * math.exp(a.log_scale - top) - b.mantissa * math.exp(b.log_scale - top)
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
