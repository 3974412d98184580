"""Series assembly, scaled evaluation, sandwich bounds, zero adjustment."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import logweight as lw
from logweight.construction import ConstructionParams
from reference_series import (reference_log_abs, reference_log_ratio_samples,
                              reference_modulus_sum, reference_normalize, to_complex)


def ramey_pair(t_stop=0.9999, h=2.0):
    w = lw.make_weight("ramey_ullrich")
    state = lw.run_construction(
        w, ConstructionParams(x0=math.log(0.95), h=h, t_stop=t_stop))
    return w, state, lw.split_parity(state)


class TestSplitParity:
    def test_example_split(self):
        lines = tuple(lw.TangentLine(delta=e - 0.5, log_a=float(i))
                      for i, e in enumerate([3, 5, 8, 13]))
        state = lw.ConstructionState(
            params=ConstructionParams(x0=-1.0, h=2.0),
            xs=(-1.0, -0.8, -0.6, -0.4, -0.2),
            lines=lines, es=(3, 5, 8, 13))
        pair = lw.split_parity(state)
        assert pair.g1.exponents == (3, 8)
        assert pair.g2.exponents == (5, 13)

    def test_single_line_empty_g2(self):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=2.0, k_max=1))
        pair = lw.split_parity(state)
        assert pair.g2.terms == ()
        assert len(pair.g1.terms) == 1

    def test_disjoint_union(self):
        _, state, pair = ramey_pair(t_stop=0.999999999)
        union = set(pair.g1.exponents) | set(pair.g2.exponents)
        assert union == set(state.es)
        assert not set(pair.g1.exponents) & set(pair.g2.exponents)


class TestScaledComplex:
    """The window and zero contract of ScaledArray, 0-d and 1-d."""

    @staticmethod
    def normalize(values, log_scale=0.0):
        """ScaledArray.normalize of values at one log scale, as a 0-d
        array for a scalar and a 1-d one for a sequence."""
        values = np.asarray(values, dtype=complex)
        return lw.ScaledArray.normalize(values, np.full(values.shape, float(log_scale)))

    def test_normalization_window(self):
        v = self.normalize(123.456 - 7.8j, 10.0)
        assert v.mantissa.shape == ()
        assert 1.0 <= abs(v.mantissa) < 2.0
        assert to_complex(v) == pytest.approx((123.456 - 7.8j) * math.exp(10.0))
        values = [123.456 - 7.8j, 1e-300j, -3e300 + 0j]
        arr = self.normalize(values, 10.0)
        assert np.all((1.0 <= np.abs(arr.mantissa)) & (np.abs(arr.mantissa) < 2.0))
        assert [(m, c) for m, c in zip(arr.mantissa, arr.log_scale)] == \
            [reference_normalize(v, 10.0) for v in values]

    def test_zero_sentinel(self):
        for values in (0j, [0j, 1.0 + 0j, complex(-0.0, -0.0)]):
            z = self.normalize(values, 5.0)
            zero = np.asarray(values) == 0
            assert np.all((z.mantissa == 0) == zero)
            assert np.all((z.log_scale == -math.inf) == zero)
            assert np.all((z.log_abs == -math.inf) == zero)

    def test_log_abs(self):
        for values in (3.0 + 4.0j, [3.0 + 4.0j, -5.0 + 0j]):
            v = self.normalize(values, 100.0)
            assert v.log_abs.shape == np.shape(values)
            assert np.all(v.log_abs == pytest.approx(math.log(5.0) + 100.0, rel=1e-14))
            assert v.log_abs.tolist() == np.reshape(
                [reference_log_abs(*reference_normalize(x, 100.0))
                 for x in np.ravel(values)], np.shape(values)).tolist()

    def test_array_matches_scalar_reference_bits(self):
        # |v| from np.hypot of the parts has the bits of Python's abs, over
        # the whole float range, subnormals and signed zeros included
        rng = np.random.default_rng(5)
        values = ((rng.standard_normal(2048) + 1j * rng.standard_normal(2048))
                  * np.exp2(rng.integers(-1070, 1020, 2048)))
        tiny = 5e-324
        values = np.r_[values, [tiny, tiny * 1j, -tiny - tiny * 1j, 2.2e-308 + tiny * 1j,
                                complex(-0.0, 3.0), complex(3.0, -0.0), 1e308 + 1e308j]]
        arr = self.normalize(values, 7.0)
        expected = [reference_normalize(v, 7.0) for v in values.tolist()]
        assert list(zip(arr.mantissa.tolist(), arr.log_scale.tolist())) == expected
        assert arr.log_abs.tolist() == [reference_log_abs(*e) for e in expected]

    @pytest.mark.parametrize("power", [1.0, 2.0, 8.0, 1024.0, 2.0 ** 60, 2.0 ** -30])
    def test_window_just_below_a_power_of_two(self, power):
        # log2 of the float just below 8 or 1024 rounds up to the power, so
        # a floor(log2) exponent leaves the mantissa just below 1.
        x = math.nextafter(power, 0.0)
        values = [complex(x), complex(0.0, -x)]
        arr = self.normalize(values)
        half_arr = self.normalize([v / 2 for v in values], math.log(2.0))
        assert np.array_equal(arr.mantissa, half_arr.mantissa)
        np.testing.assert_allclose(arr.log_scale, half_arr.log_scale, rtol=1e-15)
        for i, value in enumerate(values):
            v = self.normalize(value)
            assert 1.0 <= abs(v.mantissa) < 2.0
            half = self.normalize(value / 2, math.log(2.0))
            assert v.mantissa == half.mantissa == arr.mantissa[i]
            assert v.log_scale == pytest.approx(half.log_scale, rel=1e-15)
            assert (complex(v.mantissa), float(v.log_scale)) == reference_normalize(value)


class TestEvalSeries:
    def test_single_term(self):
        s = lw.LacunarySeries(((0.0, 2),))
        assert to_complex(lw.eval_series(s, 0.5)) == pytest.approx(0.25)

    def test_huge_coefficient_scaled(self):
        s = lw.LacunarySeries(((1000.0, 1),))
        v = lw.eval_series(s, 0.5)
        assert v.log_abs == pytest.approx(1000.0 + math.log(0.5), rel=1e-14)
        assert 1.0 <= abs(v.mantissa) < 2.0

    def test_five_random_terms_match_direct_sum(self):
        rng = np.random.default_rng(42)
        z = 0.7 * cmath.exp(1j * math.pi / 3.0)
        for _ in range(50):
            es = np.sort(rng.choice(np.arange(0, 60), size=5, replace=False))
            lcs = rng.uniform(0.0, 10.0, size=5)
            s = lw.LacunarySeries(tuple(zip(map(float, lcs), map(int, es))))
            direct = sum(math.exp(lc) * z**e for lc, e in s.terms)
            mine = to_complex(lw.eval_series(s, z))
            assert abs(mine - direct) <= 1e-12 * abs(direct)

    def test_term_order_permutation_invariant(self):
        rng = np.random.default_rng(3)
        terms = [(float(rng.uniform(0, 5)), int(e))
                 for e in rng.choice(np.arange(0, 50), size=8, replace=False)]
        a = lw.LacunarySeries(tuple(terms))
        b = lw.LacunarySeries(tuple(reversed(terms)))
        z = 0.6 + 0.3j
        va, vb = lw.eval_series(a, z), lw.eval_series(b, z)
        assert (va.mantissa, va.log_scale) == (vb.mantissa, vb.log_scale)

    def test_domain_error(self):
        s = lw.LacunarySeries(((0.0, 1),))
        with pytest.raises(ValueError):
            lw.eval_series(s, 1.0 + 0j)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, math.nan)])
    def test_nan_point_rejected(self, z):
        s = lw.LacunarySeries(((0.0, 1),))
        with pytest.raises(ValueError, match="outside the open unit disk"):
            lw.eval_series(s, z)

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError):
            lw.LacunarySeries(((0.0, 3), (1.0, 3)))

    def test_at_zero(self):
        s = lw.LacunarySeries(((2.0, 0), (5.0, 3)))
        assert lw.eval_series(s, 0j).log_abs == pytest.approx(2.0)
        s2 = lw.LacunarySeries(((5.0, 3),))
        zero = lw.eval_series(s2, 0j)
        assert zero.mantissa == 0 and zero.log_scale == -math.inf

    def test_grid_matches_scalar(self):
        _, _, pair = ramey_pair()
        ts = np.array([0.96, 0.97, 0.99])
        grid = lw.eval_series_grid(pair.g1, ts, 8)
        for i, t in enumerate(ts):
            for j in range(8):
                z = t * cmath.exp(2j * math.pi * j / 8)
                assert grid[i, j] == pytest.approx(
                    lw.eval_series(pair.g1, z).log_abs, rel=1e-12)


class TestModulusSum:
    """log(|G1| + |G2|) at single points, from eval_series."""

    def test_empty_g2_reduces_to_g1(self):
        g1 = lw.LacunarySeries(((1.0, 2),))
        pair = lw.SeriesPair(g1=g1, g2=lw.LacunarySeries(()), t0=0.5, h=2.0,
                             t_last=0.9)
        z = 0.3 + 0.1j
        assert reference_modulus_sum(pair, z) == pytest.approx(
            lw.eval_series(g1, z).log_abs)

    def test_zero_gives_neg_inf(self):
        pair = lw.SeriesPair(g1=lw.LacunarySeries(((1.0, 2),)),
                             g2=lw.LacunarySeries(((1.0, 3),)),
                             t0=0.5, h=2.0, t_last=0.9)
        assert reference_modulus_sum(pair, 0j) == -math.inf

    def test_within_sandwich_bounds_at_099(self):
        w, _, pair = ramey_pair()
        val = reference_modulus_sum(pair, 0.99 + 0j)
        log_w = w.log_omega(0.99)
        assert math.log(0.4) - pair.h + log_w < val < math.log(4.0) + log_w


class TestSandwich:
    def test_ramey_passes(self):
        w, _, pair = ramey_pair()
        t_grid = np.linspace(0.95, 0.9999, 501)[1:]
        rep = lw.sandwich_check(pair, w, t_grid, theta_count=64)
        assert rep.passed
        assert rep.lower_margin > 0 and rep.upper_margin > 0

    def test_tampered_coefficient_breaks_upper(self):
        w, _, pair = ramey_pair(t_stop=0.999999999)
        terms = list(pair.g2.terms)
        terms[0] = (terms[0][0] + 6.0, terms[0][1])
        bad = replace(pair, g2=lw.LacunarySeries(tuple(terms)))
        rep = lw.sandwich_check(bad, w, np.linspace(0.951, bad.t_last, 301), 32)
        assert not rep.passed
        assert rep.upper_margin < -1e-3
        t_wit, _ = rep.upper_witness
        assert 0.95 < t_wit <= bad.t_last

    def test_out_of_range_radius_is_input_error(self):
        w, _, pair = ramey_pair()
        with pytest.raises(ValueError):
            lw.sandwich_check(pair, w, [0.9], 16)  # below t0
        with pytest.raises(ValueError):
            lw.sandwich_check(pair, w, [pair.t_last + 1e-6], 16)

    def test_exp_power_small_grid(self):
        w = lw.make_weight("exp_power", [2.0])
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.99,
                                  k_max=10000))
        pair = lw.split_parity(state)
        rep = lw.sandwich_check(pair, w, np.linspace(0.951, 0.99, 200), 32)
        assert rep.passed


class TestZeroAdjust:
    def test_single_term_g1_becomes_constant(self):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=2.0, k_max=1))
        pair = lw.split_parity(state)
        adj = lw.zero_adjust(pair, w, theta_count=16, inner_radii=20,
                             inner_angles=16, outer_t_points=20, outer_angles=16)
        assert adj.f1.exponents == (0,)
        assert adj.c_low > 0.0

    def test_ramey_constants(self):
        w, _, pair = ramey_pair()
        adj = lw.zero_adjust(pair, w)
        assert adj.c_low > 0.0
        assert math.isfinite(adj.c_high)
        assert adj.log_c_low <= adj.log_c_high

    def test_shifted_constant_term_is_first_coefficient(self):
        w, _, pair = ramey_pair()
        adj = lw.zero_adjust(pair, w, theta_count=32, inner_radii=16,
                             inner_angles=16, outer_t_points=16)
        v = lw.eval_series(adj.f1, 0j)
        assert v.log_abs == pytest.approx(pair.g1.terms[0][0], rel=1e-14)

    def test_exponent_shift_never_decreases_modulus(self):
        w, _, pair = ramey_pair()
        shifted = pair.g1.shifted(pair.g1.exponents[0])
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = rng.uniform(0.0, 0.999)
            th = rng.uniform(0.0, 2.0 * math.pi)
            z = r * cmath.exp(1j * th)
            assert (lw.eval_series(shifted, z).log_abs
                    >= lw.eval_series(pair.g1, z).log_abs - 1e-12)

    def test_constants_cover_every_sample(self):
        w, _, pair = ramey_pair()
        adj = lw.zero_adjust(pair, w, theta_count=64, inner_radii=24,
                             inner_angles=16, outer_t_points=32, outer_angles=16)
        log_u, log_v = reference_log_ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last,
                                                   24, 16, 32, 16)
        ratios = log_v - log_u
        assert ratios.min() == adj.log_c_low
        assert ratios.max() == adj.log_c_high

    def test_constants_past_float_range_are_inf(self):
        # Dividing double_exp's G1 by z^e1 (e1 ~ 1.8e11) puts log c_high
        # near 1e10: the constants read inf, their logs stay finite.
        w = lw.make_weight("double_exp")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), k_max=60))
        adj = lw.zero_adjust(lw.split_parity(state), w, theta_count=16,
                             inner_radii=10, inner_angles=16,
                             outer_t_points=20, outer_angles=16)
        assert adj.c_high == math.inf
        assert 709.0 < adj.log_c_high < math.inf
        assert math.isfinite(adj.log_c_low)


class TestFrequencyProfile:
    """Consecutive exponent ratios e_{k+1}/e_k of a construction."""

    def test_ramey_hadamard_lacunary(self):
        _, state, _ = ramey_pair(t_stop=0.999999999)
        ratios = [b / a for a, b in zip(state.es, state.es[1:])]
        assert ratios and all(r > 1.05 for r in ratios)
