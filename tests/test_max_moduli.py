"""The batched max-modulus routine against the per-radius reference: the
same values, angle counts and Hadamard reports, bit for bit, and no call
of the function on more than 2^16 points."""

import json
import math

import numpy as np
import pytest

import logweight as lw
from logweight.envelope import _log_max_moduli
from reference_max_modulus import (CAP, reference_hadamard_check,
                                   reference_profile)


def coordinate_slice():
    """The shifted coordinate_d2 slice of the three-circles slice test."""
    w = lw.make_weight("ramey_ullrich")
    state = lw.run_construction(
        w, lw.ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.9999))
    fam = lw.coordinate_family_d2(delta_claimed=0.5)
    odd = tuple((l.log_a, e) for i, (l, e) in
                enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
    func = lw.ball_extension.BallFunction(q=1, terms=odd)
    system = lw.BallFunctionSystem(functions=(func,), family=fam, state=state)
    zeta = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
    return system.slice_callable(0, zeta, shift=func.terms[0][1])


def report_json(report):
    return json.dumps(report.to_json_dict())


def assert_matches_reference(fs, rs, theta_count):
    for f in fs:
        values, n = _log_max_moduli(f, rs, theta_count)
        ref_values, ref_ns = reference_profile(f, rs, theta_count)
        assert values.tolist() == ref_values
        assert n == max(ref_ns)
    assert (report_json(lw.hadamard_check(fs, rs, theta_count=theta_count))
            == report_json(reference_hadamard_check(fs, rs, theta_count)))


class TestMatchesPerRadiusReference:
    def test_random_polynomials_adaptive(self):
        fs = [lw.polynomial_callable(c) for c in lw.random_polynomials(25, 30, seed=7)]
        assert_matches_reference(fs, np.geomspace(0.05, 0.95, 64), 0)

    @pytest.mark.parametrize("theta_count", [256, 0])
    def test_coordinate_slice(self, theta_count):
        assert_matches_reference([coordinate_slice()], np.geomspace(0.1, 0.9, 24),
                                 theta_count)

    @pytest.mark.parametrize("theta_count", [64, 0])
    def test_constant(self, theta_count):
        f = lambda z: np.full_like(np.asarray(z), 2.0 + 1.0j)
        assert_matches_reference([f], np.geomspace(0.1, 0.9, 16), theta_count)


class TestCallSizes:
    def test_polynomials_stay_under_cap(self):
        sizes = []
        fs = [lambda z, p=lw.polynomial_callable(c): sizes.append(np.size(z)) or p(z)
              for c in lw.random_polynomials(25, 30, seed=7)]
        lw.hadamard_check(fs, np.geomspace(0.05, 0.95, 64))
        assert max(sizes) <= CAP

    def test_radii_split_at_cap(self):
        # a function that vanishes never settles, so all 8 radii refine to
        # the cap; each doubling to m angles evaluates the m/2 new
        # midpoints, and from 2^15 angles on they no longer fit in one call
        sizes = []
        f = lambda z: sizes.append(np.size(z)) or np.zeros_like(z)
        values, n = _log_max_moduli(f, np.linspace(0.1, 0.8, 8), 0)
        assert n == CAP
        assert np.all(values == -np.inf)
        assert max(sizes) == CAP
        levels = [128 << k for k in range(10)]
        assert sizes == [512] + [min(8 * m // 2, CAP) for m in levels
                                 for _ in range(-(-8 * m // 2 // CAP))]

    def test_wide_circle_is_one_call(self):
        sizes = []
        f = lambda z: sizes.append(np.size(z)) or z + 1.0
        _log_max_moduli(f, [0.3, 0.6], 2 * CAP)
        assert sizes == [2 * CAP, 2 * CAP]


class TestPointCounts:
    """Every angle is evaluated once: 64 points per radius at the first
    level, then the n/2 new midpoints per radius still refining at n
    angles, so a radius that stops at n angles costs n points."""

    def test_levels_match_reference_angle_counts(self):
        rs = np.geomspace(0.05, 0.95, 64)
        for c in lw.random_polynomials(5, 30, seed=7):
            p = lw.polynomial_callable(c)
            shapes = []
            _log_max_moduli(lambda z: shapes.append(z.shape) or p(z), rs, 0)
            _, ns = reference_profile(p, rs, 0)
            levels = [(rs.size, 64)] + [(sum(k >= n for k in ns), n // 2)
                                        for n in (128 << j for j in range(10))]
            calls = iter(shapes)
            for active, cols in levels:
                taken = 0
                while taken < active:
                    rows, got = next(calls)
                    assert got == cols
                    taken += rows
                assert taken == active
            assert next(calls, None) is None
            assert sum(rows * cols for rows, cols in shapes) == sum(ns)

    def test_bench_polynomials_total(self):
        points = []
        rs = np.geomspace(0.05, 0.95, 64)
        for c in lw.random_polynomials(100, 30, seed=7):
            p = lw.polynomial_callable(c)
            _log_max_moduli(lambda z: points.append(z.size) or p(z), rs, 0)
        assert sum(points) == 3_905_664
