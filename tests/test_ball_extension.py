"""Polynomial families on the sphere and the assembled ball functions."""

import cmath
import math

import numpy as np
import pytest

import logweight as lw
import logweight.ball_extension
from logweight.construction import ConstructionParams


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
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
        rep = lw.verify_family(fam, [8], sphere_samples=128)
        r = rep.degree(8)
        assert not rep.passed
        assert not r.min_ok
        # the balanced sphere point realizes max_q |z_q|^8 = 2^-4 exactly
        assert abs(r.min_of_max - 0.0625) <= 1e-12

    def test_oversized_polynomials_fail_sup_norm(self):
        fam = lw.PolynomialFamily(
            d=1, Q=1, delta_claimed=1.0,
            provider=lambda q, n, z: 2.0 * complex(z[0]) ** n, name="doubled")
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

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            lw.verify_family(lw.monomial_family(), [2], sphere_samples=32)


class TestManifest:
    def test_interleaved_plugin_adapter(self):
        def plugin(q, n, coords):
            z = coords[0::2] + 1j * coords[1::2]
            return complex(z[q - 1]) ** n

        fam = lw.PolynomialFamily(
            d=2, Q=2, delta_claimed=0.01,
            provider=lw.provider_from_interleaved(plugin), name="plugin")
        rep = lw.verify_family(fam, [2], sphere_samples=64)
        assert rep.degree(2).sup_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.degree(2).homogeneity_residual <= 1e-10

    def test_builtin_kinds(self):
        fam = lw.family_from_manifest({"kind": "monomial_d1"})
        assert (fam.d, fam.Q, fam.delta_claimed) == (1, 1, 1.0)
        fam2 = lw.family_from_manifest({"kind": "coordinate_d2", "delta": 0.25})
        assert fam2.delta_claimed == 0.25

    def test_mismatched_dimension_rejected(self):
        with pytest.raises(ValueError):
            lw.family_from_manifest({"kind": "monomial_d1", "d": 2})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            lw.family_from_manifest({"kind": "mystery"})


class TestBuildBallFunctions:
    def test_monomials_reproduce_disk_terms(self):
        w, state = ramey_state(t_stop=0.999999999)
        pair = lw.split_parity(state)
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        assert system.functions[0].terms == pair.g1.terms
        assert system.functions[1].terms == pair.g2.terms
        assert system.functions[-1].is_one

    def test_function_count_is_2q_plus_1(self):
        w, state = ramey_state()
        fam = lw.PolynomialFamily(
            d=1, Q=3, delta_claimed=1.0,
            provider=lambda q, n, z: complex(z[0]) ** n, name="triple")
        system = lw.build_ball_functions(state, fam, sphere_samples=64)
        assert len(system.functions) == 7

    def test_pointwise_reduction_to_disk(self):
        w, state = ramey_state(t_stop=0.999999999)
        pair = lw.split_parity(state)
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
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
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
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
            provider=lambda q, n, z: complex(z[0]) ** n, name="needs_big_h")
        with pytest.raises(ValueError, match="h"):
            lw.build_ball_functions(state, fam, sphere_samples=64)

    def test_failing_family_rejected(self):
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=lw.h_for_delta(0.5),
                                  t_stop=0.9999))
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
        with pytest.raises(ValueError, match="fails"):
            lw.build_ball_functions(state, fam, sphere_samples=64)


class TestBallLowerBound:
    def test_monomial_on_ramey(self):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
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
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        pts = lw.sphere_points(1, 64, seed=0)
        for t in (0.96, 0.999):
            for zeta in pts[:6]:
                z = t * complex(zeta[0])
                ball = system.log_modulus_sum(t, zeta)
                disk = lw.modulus_sum(pair, z)
                assert ball == pytest.approx(disk, rel=1e-12)

    def test_single_line_state(self):
        # A large gap reaches t_stop in one step, leaving the even-parity
        # functions empty; they must evaluate to zero, not crash.
        w = lw.make_weight("ramey_ullrich")
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=4.0, t_stop=0.999))
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        zeta = np.ones(1, dtype=complex)
        assert len(state.lines) == 1
        assert system.eval(1, 0.97, zeta).is_zero
        assert system.slice_callable(1, zeta)(0.5 + 0j).is_zero
        rep = lw.ball_lower_bound_check(
            system, w, np.linspace(0.951, state.t_last, 10), sphere_samples=64)
        assert rep.passed

    def test_exp_power_alpha_one(self):
        w = lw.make_weight("exp_power", [1.0])
        state = lw.run_construction(
            w, ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.999))
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        rep = lw.ball_lower_bound_check(
            system, w, np.linspace(0.951, 0.999, 20), sphere_samples=64)
        assert rep.passed

    def test_radius_range_enforced(self):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        with pytest.raises(ValueError):
            lw.ball_lower_bound_check(system, w, [0.5], sphere_samples=64)


def per_point_ball_check(system, w, t_grid, sphere_samples):
    """The ball check one point at a time through log_modulus_sum: worst
    margin with its first witness in (t, point) order, and log C over the
    grid and the inner-ball samples (t = 0 included)."""
    pts = lw.sphere_points(system.family.d, sphere_samples, seed=0)
    bound_const = math.log(0.4 * system.family.delta_claimed) - system.state.params.h
    worst, witness, log_c = math.inf, None, -math.inf
    for t in t_grid:
        bound = bound_const + w.log_omega(float(t))
        for i, zeta in enumerate(pts):
            s = system.log_modulus_sum(float(t), zeta)
            margin = (s - bound) / max(1.0, abs(s), abs(bound))
            if margin < worst:
                worst, witness = margin, (float(t), i)
            log_c = max(log_c, w.log_omega(float(t)) - np.logaddexp(s, 0.0))
    for t in np.linspace(0.0, system.state.t0, 16):
        for zeta in pts[:16]:
            s = system.log_modulus_sum(float(t), zeta)
            log_c = max(log_c, w.log_omega(float(t)) - np.logaddexp(s, 0.0))
    return worst, witness, log_c


class TestBatchedBallCheck:
    """ball_lower_bound_check evaluates each function at one sphere point
    over all radii in one call; it must agree with the per-point path."""

    def assert_matches(self, system, w, t_grid):
        rep = lw.ball_lower_bound_check(system, w, t_grid, sphere_samples=64)
        worst, witness, log_c = per_point_ball_check(system, w, t_grid, 64)
        assert abs(rep.lower_margin - worst) <= 1e-12 * max(1.0, abs(worst))
        assert abs(rep.log_c_measured - log_c) <= 1e-12 * max(1.0, abs(log_c))
        assert (rep.witness_t, rep.witness_point) == witness

    def test_monomial_on_ramey(self):
        w, state = ramey_state(t_stop=1.0 - 1e-9)
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        self.assert_matches(system, w, np.linspace(0.951, state.t_last, 12))

    def test_coordinate_d2_with_complex_phases(self):
        # Assembled directly: the family fails verify_family, but its
        # values z_q^e carry non-real phases at the Sobol sphere points.
        w, state = ramey_state()
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
        funcs = []
        for parity in (1, 0):
            terms = tuple((l.log_a, e) for i, (l, e) in
                          enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == parity)
            funcs += [lw.ball_extension.BallFunction(q=q, terms=terms) for q in (1, 2)]
        funcs.append(lw.ball_extension.BallFunction(q=0, terms=(), is_one=True))
        system = lw.BallFunctionSystem(functions=tuple(funcs), family=fam, state=state)
        self.assert_matches(system, w, np.linspace(0.951, state.t_last, 12))


class TestSliceReduction:
    """Fixing a sphere point turns each ball function into a one-variable
    lacunary series, so the disk-side converse machinery applies to the
    slices directly."""

    def test_slice_matches_direct_evaluation(self):
        w, state = ramey_state()
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
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
                got = sl(lam).to_complex()
                assert got == pytest.approx(direct, rel=1e-11)

    def test_array_of_points_matches_pointwise(self):
        w, state = ramey_state()
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
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
        # max_modulus hands the whole circle over in one call
        sizes = []
        lw.max_modulus(lambda z: sizes.append(np.size(z)) or sl(z), 0.5, 64)
        assert sizes == [64]

    def test_shifted_slices_are_log_convex(self):
        w, state = ramey_state()
        fam = lw.coordinate_family_d2(delta_claimed=0.5)
        odd = tuple((l.log_a, e) for i, (l, e) in
                    enumerate(zip(state.lines, state.es)) if (i + 1) % 2 == 1)
        func = lw.ball_extension.BallFunction(q=1, terms=odd)
        system = lw.BallFunctionSystem(functions=(func,), family=fam,
                                       state=state)
        zeta = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
        e1 = func.terms[0][1]
        sl = system.slice_callable(0, zeta, shift=e1)
        assert not sl(0j).is_zero
        rep = lw.hadamard_check([sl], np.geomspace(0.1, 0.9, 24),
                                theta_count=256)
        assert rep.passed


class TestConstantSlice:
    def test_takes_arrays(self):
        w, state = ramey_state()
        system = lw.build_ball_functions(state, lw.monomial_family(),
                                         sphere_samples=64)
        sl = system.slice_callable(len(system.functions) - 1, np.ones(1, dtype=complex))
        lams = np.full((2, 3), 0.5 + 0j)
        values = sl(lams)
        assert np.all(values.mantissa * np.exp(values.log_scale) == 1.0)
        assert values.mantissa.shape == lams.shape
        assert sl(0.5 + 0j).to_complex() == 1.0
        for t in (0.0, 0.5):
            assert system.eval(len(system.functions) - 1, t, np.ones(1, dtype=complex)) == \
                lw.ScaledComplex(1 + 0j, 0.0)
        rep = lw.hadamard_check([sl], np.geomspace(0.1, 0.9, 8), theta_count=64)
        assert rep.passed and rep.min_second_diff == 0.0
