"""The series kernel: phases only for live terms, the same values.

`reference_series` keeps the full-phase-table grid evaluation and the
|z|-grouped point evaluation as oracles.
"""

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
from logweight.series import ScaledArray, ScaledComplex, _eval_points, inner_disk_radii

from reference_series import reference_grid, reference_points, stack_scaled

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
    """The bytes of a ScaledArray: mantissa parts and log scale per point."""
    m = values.mantissa.ravel()
    return np.column_stack([m.real, m.imag, values.log_scale.ravel()]).tobytes()


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
        assert bits(stack_scaled([lw.eval_series(s, z) for z in zs])) == \
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
                a, b = got.item(i), want.item(i)
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


def per_point(values, log_scales):
    """ScaledComplex.normalize of every value on its own, gathered."""
    return stack_scaled([ScaledComplex.normalize(complex(v), float(c))
                         for v, c in zip(values.tolist(), log_scales.tolist())])


def log_abs_bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestArrayNormalization:
    """The array path normalizes every sum as ScaledComplex.normalize does,
    bit for bit, and reads log|value| as ScaledComplex.log_abs does."""

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
        assert log_abs_bits(got.log_abs) == log_abs_bits(
            [want.item(i).log_abs for i in range(zs.size)])
        if cancel:
            assert np.all(sums[zs == 1.0] == 0) and np.all(np.isfinite(scales[zs == 1.0]))

    def test_edge_values(self):
        # powers of two and their neighbours, signed zeros, a wide exponent
        # range, zero sums at a finite scale, inf and NaN
        tops = np.ldexp(1.0, np.arange(-1000, 1001, 37))
        mags = np.concatenate([tops, np.nextafter(tops, 0.0), np.nextafter(tops, np.inf)])
        values = np.concatenate([
            mags + 0j, -mags + 0j, mags * 1j, complex(-0.0, 1.0) * mags, mags * (0.6 - 0.8j),
            [0j, complex(-0.0, -0.0), complex(0.0, -0.0), np.inf + 0j, complex(np.nan, 0.0)]])
        scales = np.linspace(-700.0, 700.0, values.size)
        scales[-5:-2] = (3.5, -np.inf, 0.0)
        with np.errstate(invalid="ignore"):
            got = ScaledArray.normalize(values, scales)
        assert bits(got) == bits(per_point(values, scales))
        assert log_abs_bits(got.log_abs) == log_abs_bits(
            [got.item(i).log_abs for i in range(values.size)])
        assert got.item(-5) == ScaledComplex(0j, -math.inf)


class TestBenchmarkSlices:
    """The two slices of the benchmark: exp_power alpha = 1, the last of
    sphere_points(1, 64, 7), each shifted by its least exponent, on 24
    radii by 256 angles."""

    rs = np.geomspace(0.1, 0.9, 24)
    # sha256 of the per-radius log max |f| and of the (mantissa, log scale)
    # bits of every point, as the per-point ScaledComplex path gave them
    pins = {0: ("8377b611ac96a57b3d59efd75f8d9e937ea27955683b32a88075b1ea1e7f1c1a",
                "dc6a855c17fb921b1f7f69b747ea51e056acef60adca6b730b0f8b70438c4dae"),
            1: ("4461d05d0443aacbf5ec2a4439609e99c0fac7b86723816c830077ed01bce582",
                "a046b1eab7cc968545351ef465bd59dd7f6b43884e0ab601e8c789f9c9b84e43")}

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

    def test_no_scaled_complex_per_point(self, slice_system, monkeypatch):
        f = self.slice_fn(slice_system, 0)
        built = []
        init = ScaledComplex.__init__
        monkeypatch.setattr(ScaledComplex, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        circle = np.exp(2j * math.pi * np.arange(256) / 256)
        values = f(self.rs[:, None] * circle)
        assert isinstance(values, ScaledArray) and values.mantissa.shape == (24, 256)
        assert built == []
        assert isinstance(f(0.5 + 0j), ScaledComplex) and built == [1]
