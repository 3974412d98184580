"""Max-modulus profiles, three-circles convexity, hull decision procedure."""

import cmath
import math

import numpy as np
import pytest

import logweight as lw
from logweight.construction import ConstructionParams
from logweight.envelope import _log_max_moduli, _polynomial_maxima
from logweight.series import ScaledArray


def max_modulus(f, r, theta_count):
    """log max_j |f(r e^{2 pi i j / theta_count})| at one radius."""
    return float(_log_max_moduli(f, [r], theta_count).values[0])


class TestMaxModulus:
    def test_monomial_exact(self):
        for n in (1, 5, 12):
            f = lambda z, n=n: z**n
            for r in (0.1, 0.5, 0.9):
                assert max_modulus(f, r, 64) == pytest.approx(
                    n * math.log(r), rel=1e-14)

    def test_quadratic_near_boundary(self):
        f = lambda z: z**2 + 1.0
        val = max_modulus(f, 0.999999, 4096)
        assert math.exp(val) == pytest.approx(2.0, abs=1e-5)

    def test_constant(self):
        f = lambda z: np.full_like(np.asarray(z), 3.0 - 4.0j)
        for r in (0.1, 0.7):
            assert max_modulus(f, r, 64) == pytest.approx(math.log(5.0))

    def test_monotone_in_radius(self):
        # maximum principle at grid resolution
        coeffs = lw.random_polynomials(1, 20, seed=5)[0]
        f = lw.polynomial_callable(coeffs)
        rs = np.linspace(0.05, 0.95, 40)
        vals = [max_modulus(f, float(r), 512) for r in rs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_angle_floor(self):
        with pytest.raises(ValueError):
            max_modulus(lambda z: z, 0.5, 8)

    def test_adaptive_converges(self):
        f = lambda z: z**5 + 1.0
        val = _log_max_moduli(f, [0.5], 0).values[0]
        dense = max_modulus(f, 0.5, 1 << 16)
        assert val == pytest.approx(dense, abs=1e-8)


class TestHadamard:
    def test_single_polynomial_dense_oracle(self):
        f = lambda z: z**5 + 1.0
        r_grid = np.geomspace(0.1, 0.9, 32)
        rep = lw.hadamard_check([f], r_grid, theta_count=4096)
        assert rep.passed

    def test_constant_function(self):
        f = lambda z: np.full_like(np.asarray(z), 2.0 + 1.0j)
        rep = lw.hadamard_check([f], np.geomspace(0.1, 0.9, 16), theta_count=64)
        assert rep.passed
        assert abs(rep.min_second_diff) < 1e-12

    def test_random_polynomial_sample(self):
        polys = lw.random_polynomials(25, 30, seed=7)
        fs = [lw.polynomial_callable(c) for c in polys]
        rep = lw.hadamard_check(fs, np.geomspace(0.05, 0.95, 64))
        assert rep.passed
        assert rep.min_second_diff >= -1e-7

    def test_vanishing_at_origin_rejected(self):
        f = lambda z: z
        with pytest.raises(ValueError):
            lw.hadamard_check([f], np.geomspace(0.1, 0.9, 16), theta_count=64)

    def test_grid_must_be_log_uniform(self):
        f = lambda z: z + 1.0
        with pytest.raises(ValueError):
            lw.hadamard_check([f], np.linspace(0.1, 0.9, 16), theta_count=64)

    def test_no_functions_rejected(self):
        with pytest.raises(ValueError, match="at least one function"):
            lw.hadamard_check([], np.geomspace(0.1, 0.9, 16))

    @pytest.mark.parametrize("i", [0, 7, 15])
    def test_nan_radius_rejected(self, i):
        r_grid = np.geomspace(0.1, 0.9, 16)
        r_grid[i] = math.nan
        with pytest.raises(ValueError, match="strictly increasing inside"):
            lw.hadamard_check([lambda z: z + 1.0], r_grid)

    def test_bench_report_pinned(self):
        # the sampled report of the CLI's polynomials, as sampling every
        # angle afresh at each doubling gave it; polyval keeps them opaque
        polyval = np.polynomial.polynomial.polyval
        fs = [lambda z, c=c: polyval(z, c) for c in lw.random_polynomials(100, 30, seed=7)]
        rep = lw.hadamard_check(fs, np.geomspace(0.05, 0.95, 64))
        assert rep.to_json_dict() == {
            "passed": True, "min_second_diff": 8.660217394140801e-05,
            "witness_r": 0.05239232609751095, "n_functions": 100, "r_count": 64,
            "theta_count": 65536, "tol": 1e-07, "basis": "sampled",
            "converged": False, "log_bracket_width": None}

    def test_bench_report_bracket_pinned(self):
        # the same polynomials bracketed: FFT and Newton rounding is not
        # pinned bit for bit, so the floats are compared to 1e-9
        fs = [lw.polynomial_callable(c) for c in lw.random_polynomials(100, 30, seed=7)]
        rep = lw.hadamard_check(fs, np.geomspace(0.05, 0.95, 64)).to_json_dict()
        floats = {key: rep.pop(key) for key in ("min_second_diff", "log_bracket_width")}
        assert floats == pytest.approx({"min_second_diff": 8.671652026404075e-05,
                                        "log_bracket_width": 0.041591875216195895}, rel=1e-9)
        assert rep == {
            "passed": True, "witness_r": 0.05239232609751095, "n_functions": 100,
            "r_count": 64, "theta_count": 256, "tol": 1e-07, "basis": "bracket",
            "converged": True}


def _bits(values):
    return np.atleast_1d(values).view(np.uint64)


class TestPolynomials:
    def test_horner_matches_polyval_bitwise(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-1, 1, (17, 129)) + 1j * rng.uniform(-1, 1, (17, 129))
        polyval = np.polynomial.polynomial.polyval
        for c in lw.random_polynomials(100, 30, seed=7):
            p = lw.polynomial_callable(c)
            assert np.array_equal(_bits(p(z)), _bits(polyval(z, c)))
            assert np.shape(p(0.3 - 0.7j)) == ()
            assert np.array_equal(_bits(p(0.3 - 0.7j)), _bits(polyval(0.3 - 0.7j, c)))

    def test_coefficients_kept(self):
        c = np.array([1.0, 2.0 - 1.0j, 0.5j])
        assert np.array_equal(lw.polynomial_callable(c).coeffs, c)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            lw.polynomial_callable([])

    @pytest.mark.parametrize("count, max_degree, match", [(3, 0, "max_degree"),
                                                          (-1, 5, "count")])
    def test_random_polynomials_inputs(self, count, max_degree, match):
        with pytest.raises(ValueError, match=match):
            lw.random_polynomials(count, max_degree, seed=7)


class TestEnvelope:
    def test_convex_family_zero_gap(self):
        w = lw.make_weight("ramey_ullrich")
        res = lw.log_convex_envelope(w, np.linspace(-2.0, -0.005, 2001))
        assert res.equivalent
        assert res.gap <= 1e-9

    def test_bump_gap_equals_height(self):
        # height-3 bump at x* = -1; the grid steps by 0.01 so x* is a
        # sample and the hull bridges the bump support. The measured gap
        # is the height minus the chord sag, well inside 1e-3.
        w = lw.make_weight("perturbed_bump")  # (3.0, -1.0, 0.02)
        res = lw.log_convex_envelope(w, np.linspace(-2.0, -0.01, 200))
        assert 2.999 <= res.gap <= 3.001
        assert res.equivalent  # 3 < 50
        assert res.gap_witness == pytest.approx(-1.0, abs=1e-9)

    def test_unbounded_sawtooth_not_equivalent(self):
        w = lw.make_weight("perturbed_unbounded_sawtooth")
        res = lw.log_convex_envelope(w, np.linspace(-2.0, -0.005, 2001))
        assert res.gap > 10.0
        assert not res.equivalent

    def test_hull_idempotent(self):
        w = lw.make_weight("perturbed_bump")
        grid = np.linspace(-2.0, -0.01, 400)
        res = lw.log_convex_envelope(w, grid)
        hull_w = lw.weight_from_knots(res.hull_knots)
        res2 = lw.log_convex_envelope(hull_w, grid)
        assert res2.gap <= 1e-12

    def test_hull_slopes_nondecreasing(self):
        w = lw.make_weight("perturbed_unbounded_sawtooth")
        res = lw.log_convex_envelope(w, np.linspace(-2.0, -0.01, 1001))
        knots = res.hull_knots
        slopes = [(y1 - y0) / (x1 - x0)
                  for (x0, y0), (x1, y1) in zip(knots, knots[1:])]
        assert all(b >= a for a, b in zip(slopes, slopes[1:]))

    def test_hull_below_samples(self):
        w = lw.make_weight("perturbed_sawtooth")
        grid = np.linspace(-2.0, -0.05, 501)
        res = lw.log_convex_envelope(w, grid)
        hull_vals = np.interp(grid, *np.transpose(res.hull_knots))
        f_vals = np.array([w.big_f(float(x)) for x in grid])
        assert np.all(f_vals - hull_vals >= -1e-12)

    def test_grid_validation(self):
        w = lw.make_weight("ramey_ullrich")
        with pytest.raises(ValueError):
            lw.log_convex_envelope(w, [-1.0, -0.5])
        with pytest.raises(ValueError):
            lw.log_convex_envelope(w, [-1.0, -1.2, -0.5])

    @pytest.mark.parametrize("grid", [[math.nan, -1.0, -0.5], [-1.0, math.nan, -0.5],
                                      [-1.0, -0.5, math.nan]])
    def test_nan_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="strictly increasing and negative"):
            lw.log_convex_envelope(lw.make_weight("ramey_ullrich"), grid)

    def test_nan_gap_bound_rejected(self):
        with pytest.raises(ValueError, match="gap_bound"):
            lw.log_convex_envelope(lw.make_weight("perturbed_unbounded_sawtooth"),
                                   np.linspace(-2.0, -0.005, 101), gap_bound=math.nan)


class TestRegularizationPathway:
    def test_hull_fed_construction_degrades_by_at_most_gap(self):
        # A mild bump (height 1/2) spoils convexity; the hull removes it.
        # Building from the strictified hull and sandwiching against the
        # original weight costs at most the gap on the lower side and the
        # strictifier on the upper side.
        wb = lw.make_weight("perturbed_bump", [0.5, -1.0, 0.02])
        grid = -np.geomspace(2.0, 1e-5, 2001)
        env = lw.log_convex_envelope(wb, grid)
        assert env.gap <= 0.5 + 1e-6
        hull_w = lw.weight_from_knots(env.hull_knots, strictify=0.05)
        state = lw.run_construction(
            hull_w, ConstructionParams(x0=math.log(0.95), h=2.0, t_stop=0.999))
        pair = lw.split_parity(state)
        t_grid = np.linspace(0.9501, min(pair.t_last, 0.998), 400)
        rep = lw.sandwich_check(pair, wb, t_grid, theta_count=64)
        assert rep.lower_margin >= -(env.gap + 0.2)
        assert rep.upper_margin >= -0.06


class TestArrayContract:
    def test_scalar_only_callable_rejected(self):
        f = lambda z: cmath.exp(z) + 1.0
        with pytest.raises((TypeError, ValueError)):
            lw.hadamard_check([f], np.geomspace(0.1, 0.9, 16))

    @pytest.mark.parametrize("f", [lambda z: np.ones(3, dtype=complex),
                                   lambda z: 1.0 + 0j,
                                   lambda z: z.ravel()])
    def test_wrong_shape_rejected(self, f):
        with pytest.raises(ValueError):
            max_modulus(f, 0.5, 64)




def _nan_where(mask, scaled):
    """The constant 1, NaN where mask(z) holds; as a ScaledArray if scaled."""
    def f(z):
        vals = np.where(mask(z), np.nan, 1.0 + 0j)
        if scaled:
            vals = ScaledArray(vals, np.zeros(z.shape))
        return vals
    return f


class TestNaNValues:
    """A NaN value is an error, never a zero that drops out of the maximum."""

    @pytest.mark.parametrize("scaled", [False, True])
    def test_nan_points_raise(self, scaled):
        with pytest.raises(ValueError, match="NaN"):
            max_modulus(_nan_where(lambda z: z.real > 0, scaled), 0.5, 64)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_nan_at_origin_is_not_vanishing(self, scaled):
        with pytest.raises(ValueError, match="NaN"):
            lw.hadamard_check([_nan_where(lambda z: z == 0, scaled)],
                              np.geomspace(0.1, 0.9, 16), theta_count=64)

class TestAdaptiveStopRule:
    def test_no_underestimate(self):
        f = lw.polynomial_callable(lw.random_polynomials(100, 30, seed=7)[98])
        value = _polynomial_maxima([f.coeffs], np.asarray([0.95], float))[0].values[0]
        assert max_modulus(f, 0.95, 1 << 18) - value <= 1e-9
