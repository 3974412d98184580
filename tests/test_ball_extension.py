"""Polynomial families on the sphere and the assembled ball functions."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logweight as lw
import logweight.ball_extension
import logweight.cli
from logweight.cli import main
from logweight.construction import ConstructionParams
from logweight.envelope import _log_max_moduli
from logweight.numerics import exp_or_inf
from logweight import series
from reference_series import (reference_ball_modulus_sum, reference_ball_modulus_sums,
                              reference_modulus_sum, to_complex)


def first_coordinate_power(q, ns, pts):
    """z_1^n for the degrees ns (rows) at the points pts (columns) in the
    provider contract: (log|z_1^n|, unit phase)."""
    z = pts[:, 0]
    return ns[:, None] * np.log(np.abs(z)), np.exp(1j * ns[:, None] * np.angle(z))


def ramey_state(t_stop=0.9999, h=2.0):
    w = lw.make_weight("ramey_ullrich")
    return w, lw.run_construction(
        w, ConstructionParams(x0=math.log(0.95), h=h, t_stop=t_stop))


class TestSpherePoints:
    def test_unit_norms_and_determinism(self):
        a = lw.sphere_points(3, 200, seed=9)
        b = lw.sphere_points(3, 200, seed=9)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_different_seeds_differ(self):
        a = lw.sphere_points(2, 100, seed=0)
        b = lw.sphere_points(2, 100, seed=1)
        assert not np.array_equal(a, b)

    def test_balanced_point_included_for_d2(self):
        pts = lw.sphere_points(2, 64, seed=0)
        target = np.full(2, 1.0 / math.sqrt(2.0))
        assert any(np.allclose(np.abs(p), target, atol=1e-12) for p in pts)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 40), extra=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_unit_points_after_the_structured_prefix(self, d, extra, seed):
        pts = lw.sphere_points(d, 2 * d + 2 + extra, seed)
        assert pts.shape == (2 * d + 2 + extra, d) and not np.isnan(pts.view(float)).any()
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-15
        prefix = structured_prefix(d)
        assert pts[:len(prefix)].tobytes() == prefix.tobytes()

    def test_d_40_accepted(self):
        pts = lw.sphere_points(40, 200, seed=3)
        assert pts.shape == (200, 40)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_d1_rows_distinct(self, seed):
        # two coordinate rows, 1 and i, then Kronecker points: no row twice
        pts = lw.sphere_points(1, 1000, seed)
        assert pts[:2, 0].tolist() == [1.0, cmath.exp(0.5j * math.pi)]
        assert len(np.unique(pts[:, 0])) == len(pts)

    def test_d1_angular_gaps(self):
        # For d = 1 the m points after the prefix sit at the angles
        # 2 pi frac(s_2 + n alpha_2), whose gaps take at most three lengths
        # (three-gap theorem); the largest is below 3 (2 pi / m) except
        # where the partial quotient 12 of alpha_2 = [0; 1, 1, 3, 12, ...]
        # acts, m = 26 ... 78, where it reaches 4.2 (2 pi / m) at m = 50.
        for seed in (0, 7):
            for m in range(2, 1001):
                angles = np.sort(np.angle(lw.sphere_points(1, m + 2, seed)[2:, 0]))
                gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
                bound = 4.25 if 26 <= m <= 78 else 3.0
                assert gaps.max() < bound * 2.0 * math.pi / m, (seed, m)


def structured_prefix(d):
    """The first sphere points: each coordinate vector and its rotation by
    e^{i pi / (2 (q + 1))}, then for d > 1 the real balanced vector and the
    balanced vector with phases e^{2 pi i q / d}, 2d + 2 rows in all."""
    rows = []
    for q in range(d):
        for phase in (1.0, cmath.exp(0.5j * math.pi / (q + 1))):
            v = np.zeros(d, dtype=complex)
            v[q] = phase
            rows.append(v)
    if d > 1:
        rows.append(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
        rows.append(np.exp(2j * math.pi * np.arange(d) / d) / math.sqrt(d))
    return np.asarray(rows)


class TestVerifyFamily:
    def test_monomials_pass(self):
        fam = lw.monomial_family()
        rep = lw.verify_family(fam, [1, 5, 88], sphere_samples=64)
        assert rep.passed
        for r in rep.per_degree:
            assert r.sup_norm == pytest.approx(1.0, abs=1e-12)
            assert r.min_of_max == pytest.approx(1.0, abs=1e-12)
            assert r.homogeneity_residual <= 1e-10

    def test_coordinate_family_rejected_at_degree_8(self):
        fam = lw.coordinate_family_d2()
        rep = lw.verify_family(fam, [8], sphere_samples=128)
        r = rep.degree(8)
        assert not rep.passed
        assert not r.min_ok
        # the balanced sphere point realizes max_q |z_q|^8 = 2^-4 exactly
        assert abs(r.min_of_max - 0.0625) <= 1e-12

    def test_oversized_polynomials_fail_sup_norm(self):
        fam = lw.PolynomialFamily(
            d=1, Q=1, delta_claimed=1.0,
            provider=lambda q, n, pts: (math.log(2.0) + first_coordinate_power(q, n, pts)[0],
                                        first_coordinate_power(q, n, pts)[1]),
            name="doubled")
        rep = lw.verify_family(fam, [3], sphere_samples=64)
        r = rep.degree(3)
        assert not r.sup_ok
        assert r.sup_norm == pytest.approx(2.0, abs=1e-10)

    def test_provider_failure_carries_context(self):
        def bad(q, n, z):
            raise RuntimeError("boom")
        fam = lw.PolynomialFamily(d=1, Q=1, delta_claimed=1.0, provider=bad)
        with pytest.raises(RuntimeError, match="q=1, n=4"):
            lw.verify_family(fam, [4], sphere_samples=64)
        with pytest.raises(RuntimeError, match=r"q=1, n=4, 9, 16, \.\.\. \(4 degrees\)"):
            lw.verify_family(fam, [4, 9, 16, 25], sphere_samples=64)

    def test_no_degrees_pass(self):
        rep = lw.verify_family(lw.coordinate_family_d2(), [], sphere_samples=64)
        assert rep.passed and rep.per_degree == ()

    @pytest.mark.parametrize("degree", [1.5, 2.0, -1, "3", None])
    def test_degrees_are_integers_at_least_zero(self, degree):
        # int() would read 1.5 as degree 1, and z^-1 is no homogeneous polynomial
        with pytest.raises(ValueError, match="integer degrees >= 0"):
            lw.verify_family(lw.monomial_family(), [degree, 2], sphere_samples=64)

    def test_degree_zero_and_numpy_integers_pass(self):
        rep = lw.verify_family(lw.monomial_family(), np.array([0, 3]), sphere_samples=64)
        assert rep.passed and [r.degree for r in rep.per_degree] == [0, 3]
        assert all(type(r.degree) is int for r in rep.per_degree)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            lw.verify_family(lw.monomial_family(), [2], sphere_samples=32)


class TestBuildBallFunctions:
    def test_monomials_reproduce_disk_terms(self):
        w, state = ramey_state(t_stop=0.999999999)
        pair = lw.split_parity(state)
        system = lw.build_ball_functions(state, lw.monomial_family())
        assert system.functions[0].terms == pair.g1.terms
        assert system.functions[1].terms == pair.g2.terms
        assert system.functions[-1].is_one

    def test_function_count_is_2q_plus_1(self):
        w, state = ramey_state()
        fam = lw.PolynomialFamily(
            d=1, Q=3, delta_claimed=1.0,
            provider=first_coordinate_power, name="triple")
        system = lw.build_ball_functions(state, fam)
        assert len(system.functions) == 7

    def test_pointwise_reduction_to_disk(self):
        w, state = ramey_state(t_stop=0.999999999)
        pair = lw.split_parity(state)
        system = lw.build_ball_functions(state, lw.monomial_family())
        rng = np.random.default_rng(4)
        zeta = np.array([cmath.exp(1j * rng.uniform(0, 2 * math.pi))])
        for t in (0.96, 0.99, 0.9995):
            z = t * complex(zeta[0])
            disk1 = lw.eval_series(pair.g1, z).log_abs
            ball1 = system.eval(0, t, zeta).log_abs
            assert ball1 == pytest.approx(disk1, rel=1e-12)
            disk2 = lw.eval_series(pair.g2, z).log_abs
            ball2 = system.eval(1, t, zeta).log_abs
            assert ball2 == pytest.approx(disk2, rel=1e-12)

    def test_magnitude_bounded_by_parity_series(self):
        # |W_q[n]| <= 1 on the sphere caps each assembled function by the
        # corresponding all-positive-coefficient radial series.  The
        # coordinate family has no uniform pointwise floor, so the system
        # is assembled directly; only the sup-norm condition matters here.
        w, state = ramey_state(t_stop=0.999999999)
        pair = lw.split_parity(state)
        fam = lw.coordinate_family_d2()
        odd = tuple((l.log_a, e) for i, (l, e) in
                    enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
        func = lw.ball_extension.BallFunction(q=1, terms=odd)
        system = lw.BallFunctionSystem(functions=(func,), family=fam, state=state)
        pts = lw.sphere_points(2, 64, seed=1)
        for t in (0.96, 0.99):
            x = math.log(t)
            bound1 = np.logaddexp.reduce([lc + e * x for lc, e in pair.g1.terms])
            for zeta in pts[:8]:
                val = system.eval(0, t, zeta).log_abs
                assert val <= bound1 + 1e-9

    def test_h_gate(self):
        w, state = ramey_state()  # h = 2
        fam = lw.PolynomialFamily(
            d=1, Q=1, delta_claimed=0.01,
            provider=first_coordinate_power, name="needs_big_h")
        with pytest.raises(ValueError, match="h"):
            lw.build_ball_functions(state, fam)

    def test_failing_family_rejected(self):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=lw.h_for_delta(0.5),
                                  t_stop=0.9999))
        fam = lw.coordinate_family_d2()
        with pytest.raises(ValueError, match="fails"):
            lw.build_ball_functions(state, fam)


class TestBallLowerBound:
    def test_monomial_on_ramey(self):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family())
        t_grid = np.linspace(0.951, 0.9999, 25)
        rep = lw.ball_lower_bound_check(system, w, t_grid, sphere_samples=64)
        assert rep.passed
        assert math.isfinite(rep.c_measured)

    def test_margin_matches_disk_pointwise(self):
        # With the d = 1 monomial family (delta = 1) the assembled system
        # evaluates to exactly |G1| + |G2|, so the certified lower margin
        # agrees with the disk bound at the sampled points.
        w, state = ramey_state()
        pair = lw.split_parity(state)
        system = lw.build_ball_functions(state, lw.monomial_family())
        pts = lw.sphere_points(1, 64, seed=0)
        for t in (0.96, 0.999):
            for zeta in pts[:6]:
                z = t * complex(zeta[0])
                ball = reference_ball_modulus_sum(system, t, zeta)
                disk = reference_modulus_sum(pair, z)
                assert ball == pytest.approx(disk, rel=1e-12)

    def test_single_line_state(self):
        # A large gap reaches t_stop in one step, leaving the even-parity
        # functions empty; they must evaluate to zero, not crash.
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=4.0, t_stop=0.999))
        system = lw.build_ball_functions(state, lw.monomial_family())
        zeta = np.ones(1, dtype=complex)
        assert len(state.lines) == 1
        for zero in (system.eval(1, 0.97, zeta), system.slice_callable(1, zeta)(0.5 + 0j)):
            assert zero.mantissa == 0 and zero.log_scale == -math.inf
        rep = lw.ball_lower_bound_check(
            system, w, np.linspace(0.951, state.t_last, 10), sphere_samples=64)
        assert rep.passed

    def test_exp_power_alpha_one(self):
        w = lw.make_weight("exp_power", [1.0])
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.999))
        system = lw.build_ball_functions(state, lw.monomial_family())
        rep = lw.ball_lower_bound_check(
            system, w, np.linspace(0.951, 0.999, 20), sphere_samples=64)
        assert rep.passed

    def test_radius_range_enforced(self):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family())
        with pytest.raises(ValueError):
            lw.ball_lower_bound_check(system, w, [0.5], sphere_samples=64)


def per_point_ball_check(system, w, t_grid, sphere_samples):
    """The ball check one point at a time through BallFunctionSystem.eval: worst
    margin with its first witness in (t, point) order, and log C over the
    grid and the inner-ball samples (t = 0 included)."""
    pts = lw.sphere_points(system.family.d, sphere_samples, seed=0)
    bound_const = math.log(0.4 * system.family.delta_claimed) - system.state.params.h
    worst, witness, log_c = math.inf, None, -math.inf
    for t in t_grid:
        bound = bound_const + w.log_omega(float(t))
        for i, zeta in enumerate(pts):
            s = reference_ball_modulus_sum(system, float(t), zeta)
            margin = (s - bound) / max(1.0, abs(s), abs(bound))
            if margin < worst:
                worst, witness = margin, (float(t), i)
            log_c = max(log_c, w.log_omega(float(t)) - np.logaddexp(s, 0.0))
    for t in np.linspace(0.0, system.state.t0, 16):
        for zeta in pts[:16]:
            s = reference_ball_modulus_sum(system, float(t), zeta)
            log_c = max(log_c, w.log_omega(float(t)) - np.logaddexp(s, 0.0))
    return worst, witness, log_c


class TestBatchedBallCheck:
    """ball_lower_bound_check evaluates each function over a block of
    radii at every sphere point at once; it must agree with the per-point
    path."""

    def assert_matches(self, system, w, t_grid):
        rep = lw.ball_lower_bound_check(system, w, t_grid, sphere_samples=64)
        worst, witness, log_c = per_point_ball_check(system, w, t_grid, 64)
        assert abs(rep.lower_margin - worst) <= 1e-12 * max(1.0, abs(worst))
        assert abs(rep.log_c_measured - log_c) <= 1e-12 * max(1.0, abs(log_c))
        assert (rep.witness_t, rep.witness_point) == witness

    def test_monomial_on_ramey(self):
        w, state = ramey_state(t_stop=1.0 - 1e-9)
        system = lw.build_ball_functions(state, lw.monomial_family())
        self.assert_matches(system, w, np.linspace(0.951, state.t_last, 12))

    def test_coordinate_d2_with_complex_phases(self):
        w, state = ramey_state()
        self.assert_matches(coordinate_d2_system(state), w,
                            np.linspace(0.951, state.t_last, 12))


def coordinate_d2_system(state):
    """The coordinate_d2 functions assembled directly: the family fails
    verify_family, but its values z_q^e carry non-real phases at the
    sampled sphere points."""
    fam = lw.coordinate_family_d2()
    funcs = []
    for parity in (1, 0):
        terms = tuple((l.log_a, e) for i, (l, e) in
                      enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == parity)
        funcs += [lw.ball_extension.BallFunction(q=q, terms=terms) for q in (1, 2)]
    funcs.append(lw.ball_extension.BallFunction(q=0, terms=()))
    return lw.BallFunctionSystem(functions=tuple(funcs), family=fam, state=state)


def streamed_modulus_sums(system, t_values, pts, count=None):
    """log sum_{m <= 2Q} |f_m(t zeta)| at the first `count` points of pts
    (default all) from the blocks of radii that ball_lower_bound_check
    streams through the grid kernel, gathered."""
    ts, xs = series._log_radii(t_values)
    return np.concatenate([logweight.ball_extension._log_modulus_sums(
        system, xs[rows], pts[:count]) for rows in series._row_blocks(ts.size)])


class TestSliceReduction:
    """Fixing a sphere point turns each ball function into a one-variable
    lacunary series, so the disk-side converse machinery applies to the
    slices directly."""

    def test_slice_matches_direct_evaluation(self):
        w, state = ramey_state()
        fam = lw.coordinate_family_d2()
        odd = tuple((l.log_a, e) for i, (l, e) in
                    enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
        func = lw.ball_extension.BallFunction(q=2, terms=odd)
        system = lw.BallFunctionSystem(functions=(func,), family=fam,
                                       state=state)
        zeta = lw.sphere_points(2, 64, seed=3)[7]
        sl = system.slice_callable(0, zeta)
        for t in (0.3, 0.9):
            for th in (0.0, 2.1):
                lam = t * cmath.exp(1j * th)
                direct = sum(math.exp(lc) * lam**e * complex(zeta[1]) ** e
                             for lc, e in func.terms)
                got = to_complex(sl(lam))
                assert got == pytest.approx(direct, rel=1e-11)

    def test_array_of_points_matches_pointwise(self):
        w, state = ramey_state()
        fam = lw.coordinate_family_d2()
        odd = tuple((l.log_a, e) for i, (l, e) in
                    enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
        func = lw.ball_extension.BallFunction(q=2, terms=odd)
        system = lw.BallFunctionSystem(functions=(func,), family=fam,
                                       state=state)
        sl = system.slice_callable(0, lw.sphere_points(2, 64, seed=3)[7])
        lams = np.outer([0.0, 0.3, 0.95], np.exp(2j * np.pi * np.arange(8) / 8))
        values = sl(lams)
        assert values.mantissa.shape == lams.shape
        for lam, log_abs in zip(lams.ravel(), values.log_abs.ravel()):
            assert log_abs == pytest.approx(sl(complex(lam)).log_abs, rel=1e-13)
        # the max-modulus sampler hands the whole circle over in one call
        sizes = []
        _log_max_moduli(lambda z: sizes.append(np.size(z)) or sl(z), [0.5], 64)
        assert sizes == [64]

    @pytest.mark.parametrize("lam", [complex(math.nan, 0.0), np.array([0.5, complex(0.0, math.nan)]),
                                     1.0 + 0j])
    def test_points_off_the_open_disk_rejected(self, lam):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family())
        sl = system.slice_callable(0, np.ones(1, dtype=complex))
        with pytest.raises(ValueError, match="open unit disk"):
            sl(lam)

    def test_shifted_slices_are_log_convex(self):
        w, state = ramey_state()
        fam = lw.coordinate_family_d2()
        odd = tuple((l.log_a, e) for i, (l, e) in
                    enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
        func = lw.ball_extension.BallFunction(q=1, terms=odd)
        system = lw.BallFunctionSystem(functions=(func,), family=fam,
                                       state=state)
        zeta = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
        e1 = func.terms[0][1]
        sl = system.slice_callable(0, zeta, shift=e1)
        assert sl(0j).mantissa != 0
        rep = lw.hadamard_check([sl], np.geomspace(0.1, 0.9, 24),
                                theta_count=256)
        assert rep.passed


class TestConstantSlice:
    def test_takes_arrays(self):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family())
        sl = system.slice_callable(len(system.functions) - 1, np.ones(1, dtype=complex))
        lams = np.full((2, 3), 0.5 + 0j)
        values = sl(lams)
        assert np.all(values.mantissa * np.exp(values.log_scale) == 1.0)
        assert values.mantissa.shape == lams.shape
        assert to_complex(sl(0.5 + 0j)) == 1.0
        for t in (0.0, 0.5):
            one = system.eval(len(system.functions) - 1, t, np.ones(1, dtype=complex))
            assert (one.mantissa, one.log_scale) == (1 + 0j, 0.0)
        rep = lw.hadamard_check([sl], np.geomspace(0.1, 0.9, 8), theta_count=64)
        assert rep.passed and rep.min_second_diff == 0.0


def nan_left_half_provider(q, ns, pts):
    """W_1 = NaN where Re z < 0 and W_2 = z^n."""
    log_abs, unit = first_coordinate_power(q, ns, pts)
    if q == 1:
        log_abs[:, pts[:, 0].real < 0.0] = math.nan
    return log_abs, unit


def nan_left_half_family():
    return lw.PolynomialFamily(d=1, Q=2, delta_claimed=1.0,
                               provider=nan_left_half_provider, name="nan_left")


@pytest.fixture(scope="module")
def bench_states():
    """The two states of the CLI benchmark, built at the construct defaults."""
    def build(weight, t_stop):
        return lw.run_construction(weight, ConstructionParams(x0=math.log(0.95), h=2.0,
                                                              t_stop=t_stop))
    return {"ramey_ullrich": build(lw.make_weight("ramey_ullrich"), 0.999999999),
            "exp_power_a1": build(lw.make_weight("exp_power", [1.0]), 0.9999)}


class TestArrayProviders:
    """Providers evaluate one q at every degree of an array and every point
    of another, in log-polar form."""

    def test_calls_do_not_grow_with_sphere_samples(self, bench_states):
        # verify_family makes one provider call per q, whatever the numbers
        # of sphere samples and degrees; the ball check one per grid kernel
        # call, for the degrees of its live rows, the same calls at any
        # number of samples
        calls = []

        def counting(q, ns, pts):
            calls.append((q, len(ns), len(pts)))
            return first_coordinate_power(q, ns, pts)

        fam = lw.PolynomialFamily(d=1, Q=2, delta_claimed=1.0, provider=counting)
        state = bench_states["exp_power_a1"]
        assert len(state.es) == 68
        for degrees in ([88], state.es):
            for samples in (64, 512):
                calls.clear()
                assert lw.verify_family(fam, degrees, sphere_samples=samples).passed
                assert [call[:2] for call in calls] == [(1, len(degrees)), (2, len(degrees))]
                assert min(call[2] for call in calls) > samples
        system = lw.build_ball_functions(state, fam)
        per_samples = []
        for samples in (64, 512):
            calls.clear()
            lw.ball_lower_bound_check(system, lw.make_weight("exp_power", [1.0]),
                                      np.linspace(0.96, state.t_last, 8), sphere_samples=samples)
            assert {call[2] for call in calls} == {samples, 16}
            per_samples.append([call[:2] for call in calls])
        assert per_samples[0] == per_samples[1]
        assert {q for q, _ in per_samples[0]} == {1, 2}
        assert max(n for _, n in per_samples[0]) <= series._RUN_ROWS

    def test_nan_provider_rejected(self):
        with pytest.raises(ValueError, match=r"'nan_left'.*q=1, n=1\b"):
            lw.verify_family(nan_left_half_family(), [1, 3, 5, 88], sphere_samples=64)

    def test_nan_names_first_degree_with_one(self):
        def nan_from_degree_5(q, ns, pts):
            log_abs, unit = first_coordinate_power(q, ns, pts)
            log_abs[ns >= 5] = math.nan
            return log_abs, unit

        fam = lw.PolynomialFamily(d=1, Q=1, delta_claimed=1.0, provider=nan_from_degree_5,
                                  name="late_nan")
        with pytest.raises(ValueError, match=r"'late_nan'.*q=1, n=5\b"):
            lw.verify_family(fam, [1, 3, 5, 88], sphere_samples=64)

    @pytest.mark.parametrize("values", [
        lambda pts: (np.zeros(len(pts) + 1), np.ones(len(pts) + 1)),
        lambda pts: (np.zeros(len(pts)), np.full(len(pts), complex(0.0, math.nan))),
    ])
    def test_wrong_shape_or_nan_unit_rejected(self, values):
        fam = lw.PolynomialFamily(d=1, Q=1, delta_claimed=1.0, name="broken",
                                  provider=lambda q, n, pts: values(pts))
        with pytest.raises(ValueError, match="'broken'.*q=1, n=2"):
            lw.verify_family(fam, [2], sphere_samples=64)

    def test_nan_provider_exits_2(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "state.json"
        assert main(["construct", "--family", "ramey_ullrich", "--t-stop", "0.999999999",
                     "--out", str(state)]) == 0
        monkeypatch.setitem(logweight.ball_extension._BUILTIN_FAMILIES, "monomial_d1",
                            nan_left_half_family)
        rc = main(["verify", "ball", "--family", "ramey_ullrich", "--state", str(state),
                   "--poly-family", "monomial_d1", "--sphere-samples", "64"])
        assert rc == 2
        assert "nan_left" in capsys.readouterr().err

    @pytest.mark.parametrize("x, expected", [(0.0, 1.0), (-math.inf, 0.0),
                                             (709.0, math.exp(709.0)), (709.5, math.inf)])
    def test_exp_or_inf(self, x, expected):
        assert exp_or_inf(x) == expected

    def test_exp_or_inf_keeps_nan(self):
        assert math.isnan(exp_or_inf(math.nan))

    @pytest.mark.parametrize("name", ["ramey_ullrich", "exp_power_a1"])
    def test_monomials_exact_at_bench_degrees(self, bench_states, name):
        # |zeta^n| = 1 on the circle: the log-modulus n log|zeta| and
        # n log||zeta|| cancel, with no powering noise even at n ~ 1e8,
        # whichever sphere points the seed draws
        state = bench_states[name]
        assert max(state.es) > 5e7
        for seed in (0, 1, 7):
            rep = lw.verify_family(lw.monomial_family(), state.es, sphere_samples=128, seed=seed)
            assert rep.passed, seed
            assert {(r.sup_norm, r.min_of_max) for r in rep.per_degree} == {(1.0, 1.0)}, seed

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name, first", [("ramey_ullrich", 88), ("exp_power_a1", 663)])
    def test_coordinate_d2_verdicts_at_bench_degrees(self, bench_states, name, first, seed):
        # no uniform delta: min-of-max, and only min-of-max, fails at every
        # degree of both states, from the first one on, as the closed form
        # min over the sphere of max_q |z_q|^n = 2^{-n/2} < delta says
        state = bench_states[name]
        fam = lw.coordinate_family_d2()
        rep = lw.verify_family(fam, state.es, sphere_samples=128, seed=seed)
        assert state.es[0] == first and len(rep.per_degree) == len(state.es)
        assert [r.min_ok for r in rep.per_degree] == \
            [2.0 ** (-n / 2) >= fam.delta_claimed for n in state.es]
        assert {(r.passed, r.sup_ok, r.min_ok, r.homogeneity_ok)
                for r in rep.per_degree} == {(False, True, False, True)}


@pytest.fixture(scope="module")
def deep_ball_system():
    """The monomial ball system of double_exp to K = 2000: 1,000 terms per
    function, exponents to 1e14."""
    state = lw.run_construction(lw.make_weight("double_exp"),
                                ConstructionParams(x0=math.log(0.95), k_max=2000))
    return lw.build_ball_functions(state, lw.monomial_family())


class TestStreamedBlocks:
    """ball_lower_bound_check streams its radius grid through the series
    grid kernel in blocks of 256 radii, in runs over their candidate rows
    with the family values of each run's live rows; gathered, the blocks
    have the bits of one contraction of every term over the whole grid."""

    @pytest.mark.parametrize("family", ["monomial_d1", "coordinate_d2"])
    @pytest.mark.parametrize("name", ["ramey_ullrich", "exp_power_a1"])
    def test_cli_grid_states(self, bench_states, name, family):
        state = bench_states[name]
        system = (lw.build_ball_functions(state, lw.monomial_family())
                  if family == "monomial_d1" else coordinate_d2_system(state))
        ts = np.linspace(state.t0, state.t_last, 33)[1:]
        for seed in (0, 1, 7):
            pts = lw.sphere_points(system.family.d, 128, seed)
            assert streamed_modulus_sums(system, ts, pts).tobytes() == \
                reference_ball_modulus_sums(system, ts, pts).tobytes(), seed

    @pytest.mark.parametrize("t_points", [300, 2000])
    def test_windowed_runs_over_blocks(self, deep_ball_system, t_points):
        state = deep_ball_system.state
        ts = np.linspace(state.t0, state.t_last, t_points + 1)[1:]
        pts = lw.sphere_points(1, 128, 0)
        assert streamed_modulus_sums(deep_ball_system, ts, pts).tobytes() == \
            reference_ball_modulus_sums(deep_ball_system, ts, pts).tobytes()

    def test_inner_ball_from_zero(self, deep_ball_system):
        # the 16 inner radii from t = 0 through the windows of the
        # 1,000-term series, at the first 16 sphere points
        t_in = np.linspace(0.0, deep_ball_system.state.t0, 16)
        pts = lw.sphere_points(1, 128, 0)
        inner = streamed_modulus_sums(deep_ball_system, t_in, pts, count=16)
        assert inner.tobytes() == \
            reference_ball_modulus_sums(deep_ball_system, t_in, pts[:16]).tobytes()


class TestHullFedStates:
    """A tabulated weight, as weight_from_knots makes from a hull, defines
    omega on t > 0 alone.  A state built on it passes the sandwich check
    over (t0, t_last], but zero_adjust and the ball check also sample the
    inner disk and ball at t = 0, and raise there."""

    T_ZERO = r"tabulated weight needs t > 0"

    def test_inner_samples_raise(self):
        source = lw.make_weight("exp_power", (1.0,))
        knots = [(x, source.big_f(x)) for x in (-np.geomspace(2.0, 1e-9, 400)).tolist()]
        w = lw.weight_from_knots(knots, strictify=1.0)
        state = lw.run_construction(w, ConstructionParams(x0=math.log(0.95), t_stop=0.999))
        assert len(state.lines) == 20
        pair = lw.split_parity(state)
        ts = np.linspace(state.t0, state.t_last, 201)[1:]
        assert lw.sandwich_check(pair, w, ts).passed
        with pytest.raises(ValueError, match=self.T_ZERO):
            lw.zero_adjust(pair, w)
        system = lw.build_ball_functions(state, lw.monomial_family())
        with pytest.raises(ValueError, match=self.T_ZERO):
            lw.ball_lower_bound_check(system, w, ts[:32], sphere_samples=64)

    def test_verify_ball_exits_2(self, tmp_path, monkeypatch, capsys):
        # The CLI reads tables as (t, omega) pairs, so these knots stop
        # where omega still fits a float.  On this state the state check
        # stops verify first (chord residual 0.04 at k = 1, above its
        # 1e-6); past it, the inner ball raises at t = 0.
        source = lw.make_weight("exp_power", (1.0,))
        spec = tmp_path / "hull.json"
        spec.write_text(json.dumps({"family": "tabulated", "params": [1],
                                    "table": [[math.exp(x), math.exp(source.big_f(x))]
                                              for x in (-np.geomspace(2.0, 2e-3, 400)).tolist()]}))
        state = tmp_path / "state.json"
        flags = ["--weight", str(spec)]
        assert main(["construct", *flags, "--t-stop", "0.99", "--out", str(state)]) == 0
        verify = ["verify", "ball", *flags, "--state", str(state), "--poly-family", "monomial_d1"]
        assert main(verify) == 2
        monkeypatch.setattr(logweight.cli, "check_state_matches", lambda state, w: None)
        capsys.readouterr()
        assert main(verify) == 2
        assert self.T_ZERO in capsys.readouterr().err
