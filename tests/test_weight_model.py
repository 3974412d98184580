"""Weight families, the log-log profile F, and its diagnostics."""

import math

import numpy as np
import pytest
import sympy as sp

import logweight as lw
from logweight.construction import _gate_grid
from logweight.weight_model import UNBOUNDED_LOG_THRESHOLD, _triangle_wave
from reference_construction import separate_f_prime


ANALYTIC_FAMILIES = [
    ("ramey_ullrich", ()),
    ("power", (3.0,)),
    ("exp_power", (1.0,)),
    ("exp_power", (0.5,)),
    ("double_exp", ()),
    ("log_power", (2.0,)),
    ("inv_log", ()),
]


# omega in closed form, written in t: an oracle for the F-only definitions.
CLOSED_FORM_LOG_OMEGA = {
    "ramey_ullrich": lambda t, p: -math.log1p(-t),
    "power": lambda t, p: -p[0] * math.log1p(-t),
    "exp_power": lambda t, p: (1.0 - t) ** (-p[0]),
    "double_exp": lambda t, p: math.exp(1.0 / (1.0 - t)),
    "log_power": lambda t, p: p[0] * math.log1p(-math.log1p(-t)),
    "inv_log": lambda t, p: -1.0 / math.log(t) if t > 0.0 else 0.0,
}

# One weight of every kind: each analytic family, tabulated (from t-omega
# pairs and from knots with a regularizer) and each perturbation.
EVERY_KIND = [lw.make_weight(f, p) for f, p in ANALYTIC_FAMILIES] + [
    lw.make_weight("tabulated", table=[[0.2, 1.0], [0.5, 2.0], [0.9, 10.0]]),
    lw.weight_from_knots([(-2.0, 0.1), (-1.0, 0.5), (-0.1, 3.0)], strictify=0.25),
    lw.make_weight("perturbed_bump"),
    lw.make_weight("perturbed_sawtooth"),
    lw.make_weight("perturbed_unbounded_sawtooth"),
]


class TestOmegaEval:
    def test_ramey_at_zero(self):
        w = lw.make_weight("ramey_ullrich")
        assert math.exp(w.log_omega(0.0)) == 1.0

    def test_ramey_at_half(self):
        w = lw.make_weight("ramey_ullrich")
        assert math.exp(w.log_omega(0.5)) == pytest.approx(2.0, rel=1e-15)

    def test_exp_power_at_09(self):
        w = lw.make_weight("exp_power", [1.0])
        assert math.exp(w.log_omega(0.9)) == pytest.approx(math.exp(10.0), rel=1e-12)

    def test_overflow_returns_log_form(self):
        w = lw.make_weight("exp_power", [2.0])
        assert w.log_omega(0.999) == pytest.approx(1e6, rel=1e-9)

    def test_domain_error(self):
        w = lw.make_weight("ramey_ullrich")
        for t in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                w.log_omega(t)


class TestDerivedFromF:
    """log omega is F read at log t (or log1p(-s)), bit for bit."""

    @pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.family)
    def test_log_omega_is_f_of_log_t(self, w):
        for t in (1e-3, 0.2, 0.5, 0.9, 0.99, 1.0 - 1e-9):
            assert w.log_omega(t) == w.big_f(math.log(t))
        for s in (1e-12, 1e-6, 0.01, 0.5, 0.999):
            assert w.log_omega_one_minus(s) == w.big_f(math.log1p(-s))

    @pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.family)
    def test_origin(self, w):
        # omega(0) = exp(F(-inf)) for analytic families; the others have
        # no value at t = 0 and keep raising there
        if w.family in CLOSED_FORM_LOG_OMEGA:
            assert w.log_omega(0.0) == w.big_f(-math.inf)
            assert w.log_omega_one_minus(1.0) == w.log_omega(0.0)
        else:
            with pytest.raises(ValueError):
                w.log_omega(0.0)
            with pytest.raises(ValueError):
                w.log_omega_one_minus(1.0)


class TestBigF:
    def test_ramey_value(self):
        w = lw.make_weight("ramey_ullrich")
        assert w.big_f(math.log(0.5)) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_inv_log_value_and_slope(self):
        # omega(t) = exp(-1/log t) has F(x) = -1/x and F'(x) = 1/x^2
        w = lw.make_weight("inv_log")
        assert w.big_f(-1.0) == pytest.approx(1.0, rel=1e-15)
        assert w.big_f_prime(-1.0) == pytest.approx(1.0, rel=1e-15)

    def test_domain_error_nonnegative_x(self):
        w = lw.make_weight("ramey_ullrich")
        for x in (0.0, 0.5):
            with pytest.raises(ValueError):
                w.big_f(x)
            with pytest.raises(ValueError):
                w.big_f_prime(x)

    def test_overflow_gives_inf(self):
        w = lw.make_weight("double_exp")
        assert w.big_f(-1e-6) == math.inf

    @pytest.mark.parametrize("alpha", [2.0, 1.7])
    def test_exp_power_overflow_gives_inf(self, alpha):
        # float ** raises OverflowError where (1 - t)^(-alpha) passes the
        # float range; F and F' read +inf there, each on its own
        w = lw.make_weight("exp_power", (alpha,))
        assert w.log_omega_one_minus(1e-200) == math.inf
        assert w.big_f(-1e-200) == w.big_f_prime(-1e-200) == math.inf
        assert w.big_f_and_prime(-1e-200) == (math.inf, math.inf)
        # F still finite, F' = alpha u^(-alpha-1) e^x past the range
        x = -(1e-310 ** (1.0 / (alpha + 1.0)))
        f, fp = w.big_f_and_prime(x)
        assert f == (-math.expm1(x)) ** (-alpha) < math.inf and fp == math.inf
        assert w.big_f_prime(x) == math.inf

    @pytest.mark.parametrize("family,params", ANALYTIC_FAMILIES)
    def test_matches_omega_through_log(self, family, params):
        # log omega from F and omega in closed form are two evaluation
        # paths of the same quantity and must agree in the value domain.
        w = lw.make_weight(family, params)
        for t in (0.0, 0.2, 0.5, 0.9, 0.95):
            via_f = w.log_omega(t)
            closed = CLOSED_FORM_LOG_OMEGA[family](t, params)
            if closed <= 709.0:
                assert math.exp(via_f) == pytest.approx(math.exp(closed), rel=1e-12)
            else:
                assert via_f == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("family,params", ANALYTIC_FAMILIES)
    def test_analytic_vs_finite_difference(self, family, params):
        wa = lw.make_weight(family, params)
        wf = lw.make_weight(family, params, deriv_mode="fd")
        for x in (-3.0, -1.0, -0.3, -0.05):
            da = wa.big_f_prime(x)
            df = wf.big_f_prime(x)
            assert df == pytest.approx(da, rel=1e-6)

    @pytest.mark.parametrize("family,params", ANALYTIC_FAMILIES)
    def test_profile_monotone(self, family, params):
        w = lw.make_weight(family, params)
        xs = -np.geomspace(3.0, 1e-3, 60)
        vals = [w.big_f(float(x)) for x in xs]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(b >= a for a, b in zip(finite, finite[1:]))


# x < 0 from far out to the float floor, the construction's convexity
# gate grid, and the window where double_exp's F' and then F overflow.
FUSED_XS = np.unique(np.concatenate([
    -np.geomspace(60.0, 1e-300, 8000),
    _gate_grid(math.log(0.95)),
    np.linspace(-2e-3, -1.2e-3, 1600),
]))

# a power of two multiplies exactly, so non-dyadic parameters are needed
# to tell apart two orders of the same products
FUSED_ANALYTIC = ANALYTIC_FAMILIES + [("exp_power", (2.0,)), ("exp_power", (1.7,)),
                                      ("power", (2.0,)), ("log_power", (2.5,))]


def fused_and_apart(w, f_prime, xs):
    """Bits of (F, F') from big_f_and_prime and from big_f with f_prime,
    and the ArithmeticError each raised instead (None when it did not)."""
    def run(fn):
        vals, errs = [], []
        for x in xs:
            try:
                vals.append(fn(float(x)))
                errs.append(None)
            except ArithmeticError as err:
                vals.append((math.nan, math.nan))
                errs.append(type(err))
        return np.asarray(vals, dtype=float).view(np.uint64), errs
    return run(w.big_f_and_prime), run(lambda x: (w.big_f(x), f_prime(x)))


class TestFusedFAndPrime:
    """big_f_and_prime is (big_f, big_f_prime) bit for bit, inf for inf."""

    @pytest.mark.parametrize("family,params", FUSED_ANALYTIC)
    def test_analytic_families(self, family, params):
        w = lw.make_weight(family, params)
        # against the family's F' formula evaluated on its own, and against
        # big_f_prime, which reads the fused pair
        for f_prime in (lambda x: separate_f_prime(w, x), w.big_f_prime):
            (fused, fused_err), (apart, apart_err) = fused_and_apart(w, f_prime, FUSED_XS)
            np.testing.assert_array_equal(fused, apart)
            assert fused_err == apart_err
        assert fused_err.count(None) > len(FUSED_XS) // 4

    def test_double_exp_overflow_window(self):
        w = lw.make_weight("double_exp")
        pairs = [w.big_f_and_prime(float(x)) for x in FUSED_XS if -2e-3 <= x <= -1.2e-3]
        kinds = {(math.isfinite(f), math.isfinite(fp)) for f, fp in pairs}
        assert kinds == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("w", EVERY_KIND[len(ANALYTIC_FAMILIES):] + [
        lw.make_weight(f, p, deriv_mode="fd") for f, p in FUSED_ANALYTIC],
        ids=lambda w: f"{w.family}-{w.deriv_mode}")
    def test_fd_tabulated_perturbed(self, w):
        (fused, fused_err), (apart, apart_err) = fused_and_apart(
            w, w.big_f_prime, FUSED_XS[::4])
        np.testing.assert_array_equal(fused, apart)
        assert fused_err == apart_err

    @pytest.mark.parametrize("w", EVERY_KIND + [lw.make_weight("exp_power", (2.0,), deriv_mode="fd")],
                             ids=lambda w: f"{w.family}-{w.deriv_mode}")
    def test_domain_error_nonnegative_x(self, w):
        for x in (0.0, -0.0, 5e-324, 1.0):
            with pytest.raises(ValueError):
                w.big_f_and_prime(x)


class TestLogConvexity:
    def test_ramey_strictly_convex(self):
        w = lw.make_weight("ramey_ullrich")
        rep = lw.check_log_convexity(w, np.linspace(-2.0, -0.01, 100))
        assert rep.is_strictly_convex
        assert rep.min_slope_gap > 0
        assert rep.violation_points == ()

    def test_ramey_against_symbolic_derivatives(self):
        # Independent oracle: differentiate F(x) = -log(1 - e^x) with sympy.
        x = sp.Symbol("x")
        f_expr = -sp.log(1 - sp.exp(x))
        fp = sp.lambdify(x, sp.diff(f_expr, x), "math")
        fpp = sp.lambdify(x, sp.diff(f_expr, x, 2), "math")
        w = lw.make_weight("ramey_ullrich")
        for xv in np.linspace(-2.0, -0.01, 25):
            assert w.big_f_prime(float(xv)) == pytest.approx(fp(float(xv)), rel=1e-12)
            assert fpp(float(xv)) > 0

    def test_linear_tabulated_not_strict(self):
        # omega = e^3 t^2 makes F(x) = 2x + 3, exactly linear.
        table = [[t, math.exp(2.0 * math.log(t) + 3.0)] for t in (0.2, 0.4, 0.6, 0.8)]
        w = lw.make_weight("tabulated", table=table)
        rep = lw.check_log_convexity(w, np.linspace(-1.4, -0.3, 12))
        assert not rep.is_strictly_convex
        assert abs(rep.min_slope_gap) < 1e-12

    def test_sawtooth_violations_detected(self):
        w = lw.make_weight("perturbed_sawtooth")  # amplitude 0.5, period 0.25
        # Half-period steps offset to mid-flank, so measured slopes
        # alternate between rising and falling teeth.
        rep = lw.check_log_convexity(w, np.linspace(-1.9375, -0.0625, 16))
        assert not rep.is_strictly_convex
        assert len(rep.violation_points) > 0
        assert rep.min_slope_gap < -1.0

    def test_grid_validation(self):
        w = lw.make_weight("ramey_ullrich")
        with pytest.raises(ValueError):
            lw.check_log_convexity(w, [-1.0, -0.5])
        with pytest.raises(ValueError):
            lw.check_log_convexity(w, [-1.0, -1.5, -0.5])


def _numpy_triangle_wave(s):
    """The triangle of the perturbed weights as numpy computed it."""
    frac = s - np.floor(s)
    return 1.0 - 2.0 * np.abs(frac - 0.5)


class TestTriangleWave:
    """The scalar triangle of the sawtooth weights has the numpy formula's bits."""

    def test_bits_match_numpy_formula(self):
        rng = np.random.default_rng(17)
        cli_x = np.linspace(-2.0, -0.005, 2001)  # the CLI's envelope grid
        halves = np.arange(-40, 41) * 0.5
        probes = np.concatenate([
            rng.uniform(-10.0, 10.0, 20000), rng.uniform(-1.0, 1.0, 20000),
            rng.normal(0.0, 1e6, 5000), -np.exp(rng.uniform(-50.0, 50.0, 5000)),
            cli_x / 0.25, np.log(1.0 / np.abs(cli_x)) / 0.5,
            halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0 ** 53 + 2.0]])
        got = np.array([_triangle_wave(s) for s in probes.tolist()])
        np.testing.assert_array_equal(got.view(np.uint64),
                                      _numpy_triangle_wave(probes).view(np.uint64))

    def test_non_finite_gives_nan(self):
        with np.errstate(invalid="ignore"):
            for s in (math.inf, -math.inf, math.nan):
                assert math.isnan(_triangle_wave(s)) and np.isnan(_numpy_triangle_wave(s))

    @pytest.mark.parametrize("name", ["perturbed_sawtooth", "perturbed_unbounded_sawtooth"])
    def test_weights_on_cli_grid(self, name):
        w = lw.make_weight(name)
        scale, period = w.params
        xs = np.linspace(-2.0, -0.005, 2001).tolist()
        ramey = [-math.log(-math.expm1(x)) for x in xs]
        if name == "perturbed_sawtooth":
            want = [f + scale * float(_numpy_triangle_wave(x / period))
                    for f, x in zip(ramey, xs)]
        else:
            want = [f + (scale / abs(x)) * float(_numpy_triangle_wave(math.log(1.0 / abs(x))
                                                                    / period))
                    for f, x in zip(ramey, xs)]
        assert [w.big_f(x) for x in xs] == want


class TestDoubling:
    def test_ramey_exactly_two(self):
        w = lw.make_weight("ramey_ullrich")
        res = lw.check_doubling(w, np.geomspace(1e-6, 1.0, 200))
        assert res.is_doubling
        assert abs(res.a_estimate - 2.0) < 1e-12
        assert abs(res.log_a_estimate - math.log(2.0)) < 1e-12

    def test_power_cube(self):
        w = lw.make_weight("power", [3.0])
        res = lw.check_doubling(w, np.geomspace(1e-6, 1.0, 50))
        assert res.is_doubling
        assert res.a_estimate == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exp_power_not_doubling(self, alpha):
        w = lw.make_weight("exp_power", [alpha])
        res = lw.check_doubling(w, np.geomspace(1e-6, 1.0, 200))
        assert not res.is_doubling

    def test_domain(self):
        w = lw.make_weight("ramey_ullrich")
        with pytest.raises(ValueError):
            lw.check_doubling(w, [0.0])
        with pytest.raises(ValueError):
            lw.check_doubling(w, [1.5])


class TestUnboundedness:
    def test_constructible_families_pass(self):
        for family in lw.CONSTRUCTIBLE_FAMILIES:
            assert lw.check_unbounded(lw.make_weight(family)) is True

    def test_log_power_fails_heuristic(self):
        w = lw.make_weight("log_power")
        assert lw.check_unbounded(w) is False
        # the heuristic threshold, not a statement about the true limit
        assert w.log_omega_one_minus(1e-6) < UNBOUNDED_LOG_THRESHOLD

    def test_tabulated_warns(self):
        table = [[0.2, 1.0], [0.5, 2.0], [0.8, 5.0]]
        w = lw.make_weight("tabulated", table=table)
        with pytest.warns(UserWarning):
            assert lw.check_unbounded(w) is None


class TestJsonSpec:
    def test_round_trip_family(self):
        spec = {"family": "exp_power", "params": [0.5]}
        w = lw.weight_from_spec(spec)
        assert w.family == "exp_power"
        assert w.params == (0.5,)
        back = lw.weight_to_spec(w)
        assert back["family"] == "exp_power"
        assert back["params"] == [0.5]

    def test_table_spec(self):
        spec = {"family": "tabulated", "params": [],
                "table": [[0.2, 1.0], [0.5, 2.0], [0.9, 10.0]]}
        w = lw.weight_from_spec(spec)
        assert w.log_omega(0.5) == pytest.approx(math.log(2.0), rel=1e-12)
        back = lw.weight_to_spec(w)
        assert np.allclose(back["table"], spec["table"])

    def test_perturbed_alias(self):
        w = lw.weight_from_spec({"family": "perturbed", "params": []})
        assert w.family == "perturbed_bump"

    def test_missing_family(self):
        with pytest.raises(ValueError):
            lw.weight_from_spec({"params": [1.0]})

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            lw.make_weight("no_such_family")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            lw.make_weight("power", [-1.0])
        with pytest.raises(ValueError):
            lw.make_weight("power", [1.0, 2.0])

    def test_table_validation(self):
        with pytest.raises(ValueError):
            lw.make_weight("tabulated", table=[[0.5, 2.0], [0.2, 1.0], [0.8, 3.0]])
        with pytest.raises(ValueError):
            lw.make_weight("tabulated", table=[[0.2, 2.0], [0.5, 1.0], [0.8, 3.0]])


class TestDoublingCutoff:
    def test_constant_past_709_is_inf(self):
        # log a = 709.5 lies between exp_or_inf's 709.0 and float overflow
        # at ~709.78; the doubling report cuts off where every other report does
        w = lw.make_weight("power", (709.5 / math.log(2),))
        res = lw.check_doubling(w, np.geomspace(1e-3, 1, 20))
        assert res.log_a_estimate == pytest.approx(709.5, abs=1e-9)
        assert res.a_estimate == math.inf
