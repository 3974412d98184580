"""The batched max-modulus routine against the per-radius reference: the
same values, angle counts and Hadamard reports, bit for bit, and no call
of the function on more than 2^16 points.  The polynomial bracket against
closed forms and a dense oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight.envelope import _log_max_moduli, _polynomial_maxima
from reference_max_modulus import (CAP, dense_log_max_modulus,
                                   reference_hadamard_check, reference_profile)


def coordinate_slice():
    """The shifted coordinate_d2 slice of the three-circles slice test."""
    w = lw.make_weight("ramey_ullrich")
    state = lw.run_construction(
        w, lw.ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.9999))
    fam = lw.coordinate_family_d2()
    odd = tuple((l.log_a, e) for i, (l, e) in
                enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
    func = lw.ball_extension.BallFunction(q=1, terms=odd)
    system = lw.BallFunctionSystem(functions=(func,), family=fam, state=state)
    zeta = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
    return system.slice_callable(0, zeta, shift=func.terms[0][1])


def opaque_polynomial(c):
    """The polynomial as a callable that hadamard_check cannot see into:
    it has the values of polynomial_callable(c), bit for bit, and so
    takes the sampled rule."""
    return lambda z: np.polynomial.polynomial.polyval(z, c)


def report_json(report):
    return json.dumps(report.to_json_dict())


def assert_matches_reference(fs, rs, theta_count):
    for f in fs:
        values, n = _log_max_moduli(f, rs, theta_count)[:2]
        ref_values, ref_ns = reference_profile(f, rs, theta_count)
        assert values.tolist() == ref_values
        assert n == max(ref_ns)
    assert (report_json(lw.hadamard_check(fs, rs, theta_count=theta_count))
            == report_json(reference_hadamard_check(fs, rs, theta_count)))


class TestMatchesPerRadiusReference:
    def test_random_polynomials_adaptive(self):
        fs = [opaque_polynomial(c) for c in lw.random_polynomials(25, 30, seed=7)]
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
        fs = [lambda z, p=opaque_polynomial(c): sizes.append(np.size(z)) or p(z)
              for c in lw.random_polynomials(25, 30, seed=7)]
        lw.hadamard_check(fs, np.geomspace(0.05, 0.95, 64))
        assert max(sizes) <= CAP

    def test_radii_split_at_cap(self):
        # a function that vanishes never settles, so all 8 radii refine to
        # the cap; each doubling to m angles evaluates the m/2 new
        # midpoints, and from 2^15 angles on they no longer fit in one call
        sizes = []
        f = lambda z: sizes.append(np.size(z)) or np.zeros_like(z)
        values, n = _log_max_moduli(f, np.linspace(0.1, 0.8, 8), 0)[:2]
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


def rotated_monomial(n, phi):
    """1 + (e^{-i phi} z)^n: max modulus 1 + r^n, at the angles phi + 2 pi j/n."""
    c = np.zeros(n + 1, dtype=complex)
    c[0], c[n] = 1.0, np.exp(-1j * n * phi)
    return lw.polynomial_callable(c)


class TestPolynomialBracket:
    @pytest.mark.parametrize("n", [1, 7, 30, 200])
    def test_rotated_monomial(self, n):
        # phi lies off every grid angle 2 pi j / N
        rs = np.array([0.0, 0.05, 0.5, 0.9, 0.99])
        profile = _polynomial_maxima([rotated_monomial(n, phi=0.1234567).coeffs], rs)[0]
        exact = np.log1p(rs ** n)
        assert profile.upper is not None and profile.converged
        assert profile.theta_count == max(64, 1 << (8 * (n + 1) - 1).bit_length())
        assert np.all(np.abs(profile.values - exact) <= 1e-13)
        assert np.all(profile.upper >= exact)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_degree=st.integers(1, 40),
           r=st.floats(0.05, 0.99))
    def test_brackets_dense_samples(self, seed, max_degree, r):
        c = lw.random_polynomials(1, max_degree, seed)[0]
        profile = _polynomial_maxima([lw.polynomial_callable(c).coeffs], np.asarray([r], float))[0]
        dense = dense_log_max_modulus(c, r)
        assert profile.converged
        assert profile.values[0] >= dense - 1e-15
        assert profile.upper[0] >= dense

    def test_degree_zero(self):
        profile = _polynomial_maxima([lw.polynomial_callable([2.0 - 1.0j]).coeffs],
                                     np.asarray([0.0, 0.5, 0.9], float))[0]
        assert profile.values.tolist() == [math.log(abs(2.0 - 1.0j))] * 3
        assert profile.upper.tolist() == profile.values.tolist()
        assert profile.theta_count == 64 and profile.converged

    def test_trailing_zeros_dropped(self):
        rs = np.asarray([0.0, 0.3, 0.8], float)
        trimmed = _polynomial_maxima([lw.polynomial_callable([1.0, 0.5j, -0.25]).coeffs], rs)[0]
        padded = _polynomial_maxima(
            [lw.polynomial_callable([1.0, 0.5j, -0.25, 0.0, 0.0]).coeffs], rs)[0]
        assert padded.values.tolist() == trimmed.values.tolist()
        assert padded.upper.tolist() == trimmed.upper.tolist()
        assert padded.theta_count == trimmed.theta_count == 64

    def test_zero_polynomial(self):
        profile = _polynomial_maxima([lw.polynomial_callable([0.0, 0.0]).coeffs],
                                     np.asarray([0.0, 0.5], float))[0]
        assert profile.values.tolist() == [-math.inf, -math.inf]
        assert profile.upper.tolist() == [-math.inf, -math.inf]

    def test_explicit_angle_count_samples(self):
        p = lw.polynomial_callable(lw.random_polynomials(1, 30, seed=7)[0])
        rs = np.geomspace(0.1, 0.9, 8)
        profile = _log_max_moduli(p, rs, 256)
        assert profile.upper is None and profile.theta_count == 256
        assert profile.values.tolist() == reference_profile(p, rs, 256)[0]


class TestReportBasis:
    rs = np.geomspace(0.05, 0.95, 16)

    def test_sampled_converged_flag(self):
        settles = _log_max_moduli(lambda z: z + 2.0, self.rs, 0)
        assert settles.upper is None and settles.converged
        never = _log_max_moduli(lambda z: np.zeros_like(z), self.rs, 0)
        assert not never.converged

    def test_mixed_functions_are_sampled(self):
        c = lw.random_polynomials(2, 30, seed=7)
        rep = lw.hadamard_check([lw.polynomial_callable(c[0]), opaque_polynomial(c[1])],
                                self.rs)
        assert rep.basis == "sampled" and rep.log_bracket_width is None

    def test_bracket_width_of_the_sum(self):
        fs = [lw.polynomial_callable(c) for c in lw.random_polynomials(5, 30, seed=7)]
        rep = lw.hadamard_check(fs, self.rs)
        assert rep.basis == "bracket" and rep.converged
        profiles = [_polynomial_maxima([f.coeffs], self.rs)[0] for f in fs]
        width = np.max(np.logaddexp.reduce([p.upper for p in profiles], axis=0)
                       - np.logaddexp.reduce([p.values for p in profiles], axis=0))
        assert rep.log_bracket_width == pytest.approx(width, rel=1e-12)
        # Bernstein's factor at degree <= 30 (N = 256 at degree 30)
        assert 0.0 < rep.log_bracket_width <= -0.5 * math.log1p(-(30 * math.pi / 256) ** 2)

    def test_forwarding_wrapper_is_seen_through(self):
        # a wrapper that returns the polynomial's own output, as a call
        # counter does, gets the bare polynomial's report; one that makes
        # new values stays opaque
        fs = [lw.polynomial_callable(c) for c in lw.random_polynomials(5, 30, seed=7)]
        calls = []
        counted = [lambda z, p=p: calls.append(np.size(z)) or p(z) for p in fs]
        scaled = [lambda z, p=p: p(z) * 1.0 for p in fs]
        bare = lw.hadamard_check(fs, self.rs).to_json_dict()
        assert lw.hadamard_check(counted, self.rs).to_json_dict() == bare
        assert calls == [1] * len(fs)
        assert lw.hadamard_check(scaled, self.rs).basis == "sampled"


class TestOriginProbe:
    """hadamard_check reads f(0) of a bare polynomial with finite
    coefficients from coeffs[0]; every other callable is called at 0."""

    rs = np.geomspace(0.05, 0.95, 16)

    def test_bare_polynomial_not_called(self, monkeypatch):
        fs = [lw.polynomial_callable(c) for c in lw.random_polynomials(5, 30, seed=7)]
        calls = []
        monkeypatch.setattr(lw.envelope.PolynomialCallable, "__call__",
                            lambda self, z: calls.append(np.size(z)))
        assert lw.hadamard_check(fs, self.rs).basis == "bracket"
        assert calls == []

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_infinite_top_coefficient_raises_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            lw.hadamard_check([lw.polynomial_callable([1.0, 0.5, np.inf])], self.rs)

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0j, 0.5, -1j]])
    def test_zero_constant_term_vanishes(self, coeffs):
        with pytest.raises(ValueError, match="function 0 vanishes at 0"):
            lw.hadamard_check([lw.polynomial_callable(coeffs)], self.rs)
