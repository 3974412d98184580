"""The sphere points against a reference that finds phi with scipy and
draws the shift with numpy.random, bit for bit, and the argument checks of
`sphere_points`. (The module keeps the name it had when the points came
from a scrambled Sobol sequence.)"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
from reference_sphere import reference_sphere_points


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    diff = a.view(np.uint64) != b.view(np.uint64)
    assert not diff.any(), (a[diff][:5], b[diff][:5])


# (d, count, seed) as the tests, the CLI defaults (--sphere-samples 128,
# --seed 0 for both families) and the converse benchmark's (1, 64, 7) use
# them, then seeds at and past the 32-, 64- and 128-bit word boundaries
SPHERE_CASES = [(1, 64, 0), (1, 64, 7), (1, 128, 0), (1, 256, 0),
                (2, 64, 0), (2, 64, 1), (2, 64, 3), (2, 100, 0), (2, 100, 1),
                (2, 128, 0), (2, 256, 0), (3, 200, 9),
                (1, 64, 2**32 - 1), (2, 64, 2**32), (3, 200, 2**64 + 3),
                (2, 100, 2**128 + 17), (5, 64, 2**160 - 1)]


class TestSpherePoints:
    @pytest.mark.parametrize("d,count,seed", SPHERE_CASES)
    def test_matches_scipy_reference(self, d, count, seed):
        assert_same_bits(lw.sphere_points(d, count, seed).view(float),
                         reference_sphere_points(d, count, seed).view(float))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 40), extra=st.integers(0, 300),
           seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**256)))
    def test_matches_scipy_reference_property(self, d, extra, seed):
        count = 2 * d + 2 + extra
        assert_same_bits(lw.sphere_points(d, count, seed).view(float),
                         reference_sphere_points(d, count, seed).view(float))

    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError, match="sphere_points needs d >= 1, got d=0"):
            lw.sphere_points(0, 64)

    def test_d_beyond_table_rejected(self):
        # 66 samples hold the table of 2d + 2 structured rows up to d = 32
        with pytest.raises(ValueError, match="need at least 68 sphere samples for d=33"):
            lw.sphere_points(33, 66)

    def test_largest_d_accepted(self):
        # the largest d that 66 samples serve: all 66 points are structured
        # and no Kronecker point is drawn
        assert_same_bits(lw.sphere_points(32, 66).view(float),
                         reference_sphere_points(32, 66).view(float))

    def test_too_few_samples_keeps_its_message(self):
        with pytest.raises(ValueError, match="need at least 6 sphere samples for d=2"):
            lw.sphere_points(2, 5)

    @pytest.mark.parametrize("seed", [None, -1, -2**40, 1.0, "7"])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        with pytest.raises(ValueError, match=f"integer seed >= 0, got {seed!r}"):
            lw.sphere_points(1, 64, seed)

    def test_integer_like_seed_accepted(self):
        assert_same_bits(lw.sphere_points(2, 64, np.uint64(2**63 + 5)).view(float),
                         lw.sphere_points(2, 64, 2**63 + 5).view(float))
