"""The numpy ports of scrambled Sobol points and the inverse normal CDF
against scipy, bit for bit, and the sphere points built from them."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import logweight as lw
from logweight._sobol import MAX_DIM, ndtri, scrambled_sobol
from reference_sphere import reference_sphere_points

SEEDS = [0, 1, 3, 7, 9, 12345]


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    diff = a.view(np.uint64) != b.view(np.uint64)
    assert not diff.any(), (a[diff][:5], b[diff][:5])


class TestScrambledSobol:
    @pytest.mark.filterwarnings("ignore:The balance properties")
    @pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
    def test_matches_scipy(self, dim):
        for seed in SEEDS:
            engine = qmc.Sobol(dim, scramble=True, seed=seed)
            for n in [1, 2, 3, 64, 100, 1024]:
                assert_same_bits(scrambled_sobol(dim, n, seed), engine.reset().random(n))


def ndtri_inputs():
    rng = np.random.default_rng(20240601)
    seeded = [rng.random(60_000),                            # mostly central
              rng.random(20_000) * 0.2,                      # lower tail
              1.0 - rng.random(20_000) * 0.2,                # upper tail
              np.exp(-rng.random(20_000) * 745.0)]           # deep lower tail
    fixed = [0.0, 1.0, 1e-12, 1.0 - 1e-12, math.exp(-2), 1.0 - math.exp(-2)]
    near = []
    for x in fixed:
        for toward in (0.0, 1.0):
            y = x
            for _ in range(3):
                y = np.nextafter(y, toward)
                near.append(y)
    # x = sqrt(-2 log p) crosses 8 at p = exp(-32): the tail switches tables
    switch = math.exp(-32)
    near += list(switch * (1.0 + np.linspace(-1e-6, 1e-6, 2001)))
    near += [1.0 - switch, np.nextafter(1.0 - switch, 0.0), np.nextafter(1.0 - switch, 1.0)]
    return np.concatenate(seeded + [np.array(fixed + near)])


class TestNdtri:
    def test_matches_scipy(self):
        p = ndtri_inputs()
        assert p.size > 100_000
        assert_same_bits(ndtri(p), scipy.special.ndtri(p))

    def test_both_tail_tables_used(self):
        tail = np.minimum(ndtri_inputs(), 1.0 - ndtri_inputs())
        x = np.sqrt(-2.0 * np.log(tail[(tail > 0.0) & (tail <= math.exp(-2))]))
        assert (x < 8.0).sum() > 1000 and (x >= 8.0).sum() > 1000

    def test_edges_and_outside(self):
        p = np.array([0.0, 1.0, -0.5, 1.5, np.nan])
        assert_same_bits(ndtri(p), scipy.special.ndtri(p))
        assert ndtri(p)[:2].tolist() == [-math.inf, math.inf]


# (d, count, seed) as the tests, the CLI defaults (--sphere-samples 128,
# --seed 0 for both families) and the converse benchmark's (1, 64, 7) use them
SPHERE_CASES = [(1, 64, 0), (1, 64, 7), (1, 128, 0), (1, 256, 0),
                (2, 64, 0), (2, 64, 1), (2, 64, 3), (2, 100, 0), (2, 100, 1),
                (2, 128, 0), (2, 256, 0), (3, 200, 9)]


class TestSpherePoints:
    @pytest.mark.parametrize("d,count,seed", SPHERE_CASES)
    def test_matches_scipy_reference(self, d, count, seed):
        assert_same_bits(lw.sphere_points(d, count, seed).view(float),
                         reference_sphere_points(d, count, seed).view(float))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 32), extra=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_reference_property(self, d, extra, seed):
        count = 2 * d + 2 + extra
        assert_same_bits(lw.sphere_points(d, count, seed).view(float),
                         reference_sphere_points(d, count, seed).view(float))

    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError, match="1 <= d <= 32"):
            lw.sphere_points(0, 64)

    def test_d_beyond_table_rejected(self):
        with pytest.raises(ValueError, match="1 <= d <= 32"):
            lw.sphere_points(33, 128)

    def test_largest_d_accepted(self):
        # 66 = 2d + 2 points are all structured: no Sobol point is drawn
        assert_same_bits(lw.sphere_points(32, 66).view(float),
                         reference_sphere_points(32, 66).view(float))

    def test_too_few_samples_keeps_its_message(self):
        with pytest.raises(ValueError, match="need at least 6 sphere samples for d=2"):
            lw.sphere_points(2, 5)
