"""Weight families, the log-log profile F, and its diagnostics."""

import dataclasses
import functools
import hashlib
import math
import pickle
import struct
import sys

import mpmath
import numpy as np
import pytest

import logweight as lw
from logweight.cli import main
from logweight.construction import _gate_grid
from logweight.weight_model import ROUNDING, _central_difference, _triangle_wave
from reference_construction import separate_f_prime, separate_f_second


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


def central_difference_weight(family, params=()):
    """An analytic family's weight whose F' comes from the perturbed
    families' central-difference helper instead of its closed form."""
    w = lw.make_weight(family, params)
    row = dataclasses.replace(w._row, big_f_and_prime=_central_difference(w._row.big_f))
    object.__setattr__(w, "_row", row)
    return w


def deriv_id(w):
    """family-fd where F' is a central difference, else family-analytic."""
    fd = w._row.big_f_and_prime.__qualname__.startswith("_central_difference")
    return f"{w.family}-{'fd' if fd else 'analytic'}"


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


@pytest.mark.parametrize("w", EVERY_KIND, ids=lambda w: w.family)
def test_pickle_round_trip(w):
    back = pickle.loads(pickle.dumps(w))
    assert back == w
    assert [back.big_f_and_prime(x) for x in (-2.0, -0.5, -1e-3)] == [
        w.big_f_and_prime(x) for x in (-2.0, -0.5, -1e-3)]


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
        wf = central_difference_weight(family, params)
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
        central_difference_weight(f, p) for f, p in FUSED_ANALYTIC], ids=deriv_id)
    def test_fd_tabulated_perturbed(self, w):
        (fused, fused_err), (apart, apart_err) = fused_and_apart(
            w, w.big_f_prime, FUSED_XS[::4])
        np.testing.assert_array_equal(fused, apart)
        assert fused_err == apart_err

    @pytest.mark.parametrize("w", EVERY_KIND + [central_difference_weight("exp_power", (2.0,))],
                             ids=deriv_id)
    def test_domain_error_nonnegative_x(self, w):
        for x in (0.0, -0.0, 5e-324, 1.0):
            with pytest.raises(ValueError):
                w.big_f_and_prime(x)


# F of each analytic family as an mpmath expression, with u = 1 - e^x by
# expm1 and log u by log1p, which keep their digits at every x.
MP_BIG_F = {
    "ramey_ullrich": lambda x, p: -mpmath.log1p(-mpmath.exp(x)),
    "power": lambda x, p: -p[0] * mpmath.log1p(-mpmath.exp(x)),
    "exp_power": lambda x, p: (-mpmath.expm1(x)) ** (-p[0]),
    "double_exp": lambda x, p: mpmath.exp(1 / -mpmath.expm1(x)),
    "log_power": lambda x, p: p[0] * mpmath.log1p(-mpmath.log1p(-mpmath.exp(x))),
    "inv_log": lambda x, p: -1 / x,
}
FLOAT_MAX = sys.float_info.max
EPS = sys.float_info.epsilon


def mp_second(family, params, x):
    """F''(x) by mpmath's central second difference, step 1e-18 |x|."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        return mpmath.diff(lambda s: MP_BIG_F[family](s, params), x, 2,
                           h=abs(x) * mpmath.mpf("1e-18"))


class TestFSecond:
    """big_f_second: F'' in closed form for the analytic families, +inf
    past the float range, None for the others."""

    @pytest.mark.parametrize("family,params", FUSED_ANALYTIC)
    def test_against_mpmath(self, family, params):
        w = lw.make_weight(family, params)
        for x in (-np.geomspace(5.0, 1e-12, 400)).tolist():
            want, got = mp_second(family, params, x), w.big_f_second(x)
            if want > FLOAT_MAX:
                assert got == math.inf
                continue
            # double_exp's F = exp(1/u) carries u's rounding error times 1/u
            cond = 1.0 - 1.0 / math.expm1(x) if family == "double_exp" else 1.0
            assert 0.0 < got < math.inf
            assert abs(got - want) <= 16.0 * EPS * cond * want, x

    @pytest.mark.parametrize("family,params", [("double_exp", ()), ("exp_power", (2.0,)),
                                               ("exp_power", (1.7,)), ("inv_log", ())])
    def test_inf_at_the_overflow_edge(self, family, params):
        # the last float x with a finite F''(x) and the next one toward 0
        w = lw.make_weight(family, params)
        lo, hi = -1.0, -5e-324
        assert math.isfinite(w.big_f_second(lo)) and w.big_f_second(hi) == math.inf
        while math.nextafter(lo, 0.0) != hi:
            mid = 0.5 * (lo + hi) if lo / hi < 4.0 else -math.sqrt(lo * hi)
            lo, hi = (mid, hi) if math.isfinite(w.big_f_second(mid)) else (lo, mid)
        assert mp_second(family, params, lo) <= FLOAT_MAX * (1.0 + 1e-12)
        assert mp_second(family, params, hi) >= FLOAT_MAX * (1.0 - 1e-12)

    @pytest.mark.parametrize("x", [-1e-160, -1e-170, -1e-320, -5e-324])
    def test_inv_log_slope_inf_where_x_squared_underflows(self, x):
        # F' = 1/x^2 is past the float range here, and x * x is 0 from
        # about -1.5e-162 on: F' is +inf as F'' is, not a ZeroDivisionError
        w = lw.make_weight("inv_log")
        assert w.big_f_prime(x) == w.big_f_and_prime(x)[1] == w.big_f_second(x) == math.inf

    @pytest.mark.parametrize("family,params", FUSED_ANALYTIC)
    def test_separate_formula_bits(self, family, params):
        # the reference construction's own F'' formulas give the same bits
        w = lw.make_weight(family, params)
        got = [w.big_f_second(x) for x in FUSED_XS.tolist()]
        want = [separate_f_second(w, x) for x in FUSED_XS.tolist()]
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(want).view(np.uint64))

    @pytest.mark.parametrize("w", EVERY_KIND, ids=deriv_id)
    def test_none_without_closed_form(self, w):
        analytic = w.family in CLOSED_FORM_LOG_OMEGA
        assert (w.big_f_second(-0.5) is not None) == analytic
        for x in (0.0, -0.0, 5e-324, 1.0):
            with pytest.raises(ValueError):
                w.big_f_second(x)


# F' of each analytic family as an mpmath expression, as MP_BIG_F is
MP_BIG_F_PRIME = {
    "ramey_ullrich": lambda x, p: mpmath.exp(x) / -mpmath.expm1(x),
    "power": lambda x, p: p[0] * mpmath.exp(x) / -mpmath.expm1(x),
    "exp_power": lambda x, p: (p[0] * mpmath.exp(x)
                               * (-mpmath.expm1(x)) ** -(mpmath.mpf(p[0]) + 1)),
    "double_exp": lambda x, p: mpmath.exp(1 / -mpmath.expm1(x) + x) / mpmath.expm1(x) ** 2,
    "log_power": lambda x, p: (p[0] * mpmath.exp(x)
                               / (-mpmath.expm1(x) * (1 - mpmath.log1p(-mpmath.exp(x))))),
    "inv_log": lambda x, p: 1 / x ** 2,
}
ROUNDING_FAMILIES = [("ramey_ullrich", ()), ("power", (3.0,)), ("exp_power", (1.0,)),
                     ("exp_power", (1.7,)), ("exp_power", (2.0,)), ("double_exp", ()),
                     ("log_power", (2.0,)), ("inv_log", ())]


@functools.cache
def rounding_xs():
    """-geomspace(5, 1e-12, 400) and the xs of the four benchmark states."""
    xs = (-np.geomspace(5.0, 1e-12, 400)).tolist()
    for family, params, kw in [("double_exp", (), dict(k_max=2000)),
                               ("exp_power", (2.0,), dict(k_max=5000, t_stop=0.999)),
                               ("exp_power", (1.0,), dict(t_stop=0.9999)),
                               ("ramey_ullrich", (), dict(t_stop=0.999999999))]:
        run = lw.ConstructionParams(x0=math.log(0.95), **kw)
        xs += lw.run_construction(lw.make_weight(family, params), run).xs
    return xs


class TestRoundingShift:
    """rounding_shift s(x): F and F' as computed are within R |F| + s |F'|
    and R |F'| + s |F''| of mpmath's (R = ROUNDING), and not vacuously."""

    @pytest.mark.parametrize("family,params", ROUNDING_FAMILIES)
    def test_bounds_the_error_against_mpmath(self, family, params):
        w = lw.make_weight(family, params)
        ratios = []
        with mpmath.workprec(160):
            for x in rounding_xs():
                f, fp = w.big_f_and_prime(x)
                fpp, shift = w.big_f_second(x), w.rounding_shift(x)
                if not math.isfinite(fpp):
                    continue
                err_f = abs(mpmath.mpf(f) - MP_BIG_F[family](mpmath.mpf(x), params))
                err_fp = abs(mpmath.mpf(fp) - MP_BIG_F_PRIME[family](mpmath.mpf(x), params))
                ratios.append((float(err_f) / (ROUNDING * f + shift * fp),
                               float(err_fp) / (ROUNDING * fp + shift * fpp)))
        worst = np.max(ratios, axis=0)
        assert len(ratios) > 400
        assert np.all(worst <= 1.0), worst
        assert np.all(worst >= 2.0 ** -10), worst

    def test_exp_power_slope_exponent_does_not_round(self):
        # -alpha - 1 rounds for a non-dyadic alpha, and u^(-alpha - 1) then
        # misses F' by 36 ulps at u = 1e-12; alpha e^x u^(-alpha) / u does not
        w, x = lw.make_weight("exp_power", (1.7,)), -1e-12
        with mpmath.workprec(160):
            want = MP_BIG_F_PRIME["exp_power"](mpmath.mpf(x), (1.7,))
            assert abs(w.big_f_prime(x) - want) <= 2 * math.ulp(float(want))

    @pytest.mark.parametrize("w", EVERY_KIND, ids=deriv_id)
    def test_none_without_closed_form(self, w):
        assert (w.rounding_shift(-0.5) is not None) == (w.family in CLOSED_FORM_LOG_OMEGA)
        for x in (0.0, -0.0, 5e-324, 1.0):
            with pytest.raises(ValueError):
                w.rounding_shift(x)

    def test_inf_where_expm1_overflows(self):
        w = lw.make_weight("ramey_ullrich")
        assert w.rounding_shift(-700.0) == ROUNDING * math.expm1(700.0)
        assert w.rounding_shift(-710.0) == math.inf


class TestLogOneMinusExp:
    """The rows built on log(1 - e^x) take log1p(-e^x) left of x = -log 2
    and log(-expm1(x)) right of it, so F keeps its relative accuracy both
    far from 0 and next to it."""

    @pytest.mark.parametrize("family,params", [("ramey_ullrich", ()), ("power", (2.5,)),
                                               ("log_power", (1.5,)), ("log_power", (2.0,))])
    def test_f_within_ulps(self, family, params):
        w = lw.make_weight(family, params)
        with mpmath.workdps(50):
            for x in (-np.geomspace(700.0, 1e-12, 400)).tolist():
                want = MP_BIG_F[family](mpmath.mpf(x), params)
                assert abs(w.big_f(x) - want) <= 3 * math.ulp(float(want)), x

    def test_ramey_far_from_zero(self):
        # log(-expm1(-40)) rounds to log(1) = 0
        w = lw.make_weight("ramey_ullrich")
        assert w.big_f(-40.0) == pytest.approx(4.248354255291589e-18, rel=1e-15)

    @pytest.mark.parametrize("family", ["perturbed_bump", "perturbed_sawtooth",
                                        "perturbed_unbounded_sawtooth"])
    def test_perturbed_bases(self, family):
        # the perturbations add their own term to ramey_ullrich's F
        w, base = lw.make_weight(family), lw.make_weight("ramey_ullrich")
        zero = lw.make_weight(family, (0.0,) + w.params[1:])
        for x in (-np.geomspace(700.0, 1e-12, 50)).tolist():
            assert zero.big_f(x) == base.big_f(x)


# One weight of every kind, alias and tabulated variant, with the digest
# of everything it returns or raises on PINNED_XS: F, F', (F, F') at each
# x, then log omega at t = 0, 0.3, 0.9.  The digests were recorded before
# every kind became one row of the family table, which kept these bits and
# exception types; so must any later change to how a weight is evaluated,
# unless it means to move them.  The rows on log(1 - e^x) (ramey_ullrich,
# power, log_power and the perturbations of ramey_ullrich) were re-recorded
# when that log became log1p(-e^x) left of x = -log 2.
PINNED_KNOTS = [(-2.0, 0.1), (-1.0, 0.5), (-0.4, 1.2), (-0.1, 3.0)]
PINNED_PAIRS = [[0.2, 1.0], [0.5, 2.0], [0.8, 4.0], [0.9, 10.0]]
PINNED_WEIGHTS = {
    "ramey_ullrich": (lambda: lw.make_weight("ramey_ullrich"), "daf082b7582de154"),
    "power": (lambda: lw.make_weight("power", (2.5,)), "20dfdf00593c5f27"),
    "exp_power-1": (lambda: lw.make_weight("exp_power", (1.0,)), "5887c4b504a7f622"),
    "exp_power-2": (lambda: lw.make_weight("exp_power", (2.0,)), "78d089399bfedfb1"),
    "double_exp": (lambda: lw.make_weight("double_exp"), "94aaa89ec6436c28"),
    "log_power": (lambda: lw.make_weight("log_power", (1.5,)), "942ac3dc21ed651a"),
    "inv_log": (lambda: lw.make_weight("inv_log"), "08116c9aca543bbb"),
    "perturbed_bump": (lambda: lw.make_weight("perturbed_bump"), "0fb800aadcc16f79"),
    "perturbed_sawtooth": (lambda: lw.make_weight("perturbed_sawtooth"), "2616900ebcbf2d1c"),
    "perturbed_unbounded_sawtooth": (lambda: lw.make_weight("perturbed_unbounded_sawtooth"),
                                     "5212325862369ec1"),
    "perturbed": (lambda: lw.make_weight("perturbed", (2.0, -0.5, 0.1)), "90efa9fe72b60a76"),
    "knots": (lambda: lw.weight_from_knots(PINNED_KNOTS), "cef33681403b2c30"),
    "knots-strictify": (lambda: lw.weight_from_knots(PINNED_KNOTS, strictify=0.3),
                        "8b0dc984ffdd52c3"),
    "pairs": (lambda: lw.make_weight("tabulated", table=PINNED_PAIRS), "e25f09d6e5a39a42"),
    "pairs-strictify": (lambda: lw.make_weight("tabulated", (0.3,), table=PINNED_PAIRS),
                        "9a579439fbe54c74"),
}
PINNED_XS = [float(x) for x in -np.geomspace(5.0, 1e-15, 3000)] + [-math.inf]


def _outcome(fn, arg):
    """The float64 bytes fn(arg) returns, or the name of what it raises."""
    try:
        out = fn(arg)
    except Exception as err:
        return type(err).__name__.encode()
    vals = out if isinstance(out, tuple) else (out,)
    return struct.pack(f"<{len(vals)}d", *vals)


@pytest.mark.parametrize("name", list(PINNED_WEIGHTS))
def test_pinned_bits_of_every_kind(name):
    make, want = PINNED_WEIGHTS[name]
    w = make()
    h = hashlib.sha256()
    with np.errstate(all="ignore"):
        for x in PINNED_XS:
            for fn in (w.big_f, w.big_f_prime, w.big_f_and_prime):
                h.update(_outcome(fn, x))
        for t in (0.0, 0.3, 0.9):
            h.update(_outcome(w.log_omega, t))
    assert h.hexdigest()[:16] == want


@pytest.mark.parametrize("family", ["perturbed_bump", "perturbed_sawtooth",
                                    "perturbed_unbounded_sawtooth", "perturbed"])
def test_central_difference_has_no_slope_at_minus_inf(family):
    # the step there is inf and x + h NaN, whose sign bit is not fixed
    w = lw.make_weight(family)
    for fn in (w.big_f_prime, w.big_f_and_prime):
        with pytest.raises(ValueError):
            fn(-math.inf)
    with pytest.raises(ValueError, match="needs t > 0"):
        w.log_omega(0.0)


class TestLogConvexity:
    def test_ramey_strictly_convex(self):
        w = lw.make_weight("ramey_ullrich")
        rep = lw.check_log_convexity(w, np.linspace(-2.0, -0.01, 100))
        assert rep.is_strictly_convex
        assert rep.min_slope_gap > 0
        assert rep.violation_points == ()

    def test_ramey_against_symbolic_derivatives(self):
        # Independent oracle: differentiate F(x) = -log(1 - e^x) at 50
        # digits with mpmath.
        f = lambda x: -mpmath.log(1 - mpmath.exp(x))
        w = lw.make_weight("ramey_ullrich")
        with mpmath.workdps(50):
            for xv in np.linspace(-2.0, -0.01, 25):
                x = mpmath.mpf(float(xv))
                fp = float(mpmath.diff(f, x))
                assert w.big_f_prime(float(xv)) == pytest.approx(fp, rel=1e-12)
                assert mpmath.diff(f, x, 2) > 0

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

    @pytest.mark.parametrize("grid", [[math.nan, -1.0, -0.5], [-1.0, math.nan, -0.5],
                                      [-1.0, -0.5, math.nan]])
    def test_nan_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="strictly increasing and negative"):
            lw.check_log_convexity(lw.make_weight("ramey_ullrich"), grid)


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
        ramey = [-(math.log(-math.expm1(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x)))
                 for x in xs]
        if name == "perturbed_sawtooth":
            want = [f + scale * float(_numpy_triangle_wave(x / period))
                    for f, x in zip(ramey, xs)]
        else:
            want = [f + (scale / abs(x)) * float(_numpy_triangle_wave(math.log(1.0 / abs(x))
                                                                    / period))
                    for f, x in zip(ramey, xs)]
        assert [w.big_f(x) for x in xs] == want


def doubling_log_ratios(w, s_grid):
    """log omega(1 - s/2) / omega(1 - s) at every s of the grid."""
    return np.array([w.log_omega_one_minus(s / 2.0) - w.log_omega_one_minus(s)
                     for s in map(float, s_grid)])


class TestDoubling:
    """The doubling ratio omega(1-s/2)/omega(1-s) from log_omega_one_minus,
    which works from s directly (never through 1 - s)."""

    def test_ramey_exactly_two(self):
        w = lw.make_weight("ramey_ullrich")
        ratios = doubling_log_ratios(w, np.geomspace(1e-6, 1.0, 200))
        assert np.all(np.abs(ratios - math.log(2.0)) < 1e-12)

    def test_power_cube(self):
        w = lw.make_weight("power", [3.0])
        ratios = doubling_log_ratios(w, np.geomspace(1e-6, 1.0, 50))
        assert np.exp(ratios) == pytest.approx(np.full(50, 8.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exp_power_not_doubling(self, alpha):
        # log ratio (2^alpha - 1) s^-alpha grows without bound as s -> 0
        w = lw.make_weight("exp_power", [alpha])
        s_grid = np.geomspace(1e-6, 1.0, 200)
        ratios = doubling_log_ratios(w, s_grid)
        assert ratios.max() > math.log(1e6)
        np.testing.assert_allclose(ratios, (2.0 ** alpha - 1.0) * s_grid ** -alpha,
                                   rtol=1e-9)

    def test_domain(self):
        w = lw.make_weight("ramey_ullrich")
        for s in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                w.log_omega_one_minus(s)


class TestUnboundedness:
    """Growth of omega(1 - s) toward the boundary, read at s = 1e-6."""

    def test_constructible_families_pass(self):
        for family in lw.CONSTRUCTIBLE_FAMILIES:
            assert lw.make_weight(family).log_omega_one_minus(1e-6) > 10.0

    def test_log_power_fails_heuristic(self):
        # log_power grows too slowly to drive the construction:
        # 2 log(1 + log 1e6) = 5.39
        w = lw.make_weight("log_power")
        assert w.log_omega_one_minus(1e-6) == pytest.approx(
            2.0 * math.log1p(math.log(1e6)), rel=1e-12)
        assert w.log_omega_one_minus(1e-6) < 10.0


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

    def test_table_past_float_range(self):
        # the hull of exp_power alpha=1 to x = -1e-4 reaches F ~ 1e4: its
        # omega has no float64, so the (t, omega) spec names the knot
        source = lw.make_weight("exp_power", (1.0,))
        knots = [(x, source.big_f(x)) for x in (-np.geomspace(2.0, 1e-4, 50)).tolist()]
        first = next(i for i, (_, f) in enumerate(knots) if f > 710.0)
        with pytest.raises(ValueError, match=rf"table knot {first} \(x = .*omega = e\^F past"):
            lw.weight_to_spec(lw.weight_from_knots(knots))
        assert lw.weight_to_spec(lw.weight_from_knots(knots[:first]))["table"][-1][1] < math.inf

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

    @pytest.mark.parametrize("family,params", [
        ("ramey_ullrich", (1.0,)), ("exp_power", (1.0, 2.0)), ("perturbed_bump", (1.0,)),
        ("perturbed", (1.0, 2.0)), ("perturbed_sawtooth", (1.0, 2.0, 3.0)),
        ("perturbed_unbounded_sawtooth", (1.0,))])
    def test_param_count_checked_at_construction(self, family, params):
        with pytest.raises(ValueError, match="parameter"):
            lw.make_weight(family, params)

    def test_tabulated_takes_at_most_one_param(self):
        knots = [(-2.0, 0.1), (-1.0, 0.5)]
        assert lw.weight_from_knots(knots).params == ()
        assert lw.make_weight("tabulated", (0.5,), table=[[0.2, 1.0], [0.5, 2.0]]).params == (0.5,)
        with pytest.raises(ValueError, match="'tabulated' takes 1 parameter"):
            lw.make_weight("tabulated", (0.5, 1.0), table=[[0.2, 1.0], [0.5, 2.0]])

    def test_perturbed_params_may_be_negative(self):
        # the bump's centre is an x < 0; only analytic families need positive params
        assert lw.make_weight("perturbed_bump", (1.0, -0.5, 0.1)).params == (1.0, -0.5, 0.1)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            lw.make_weight("tabulated", table=[[0.5, 2.0], [0.2, 1.0], [0.8, 3.0]])
        with pytest.raises(ValueError):
            lw.make_weight("tabulated", table=[[0.2, 2.0], [0.5, 1.0], [0.8, 3.0]])

    @pytest.mark.parametrize("family, params, match", [
        ("perturbed_bump", (3.0, -1.0, 0.0), "needs a nonzero width"),
        ("perturbed_sawtooth", (0.5, 0.0), "needs a nonzero period"),
        ("perturbed_sawtooth", (0.5, math.inf), r"needs finite parameters, got \(0.5, inf\)"),
        ("perturbed_unbounded_sawtooth", (2.0, math.nan), "needs finite parameters")])
    def test_zero_or_nonfinite_divisor_rejected(self, family, params, match):
        # the width, period or log-period divides x in F
        with pytest.raises(ValueError, match=f"'{family}' {match}"):
            lw.make_weight(family, params)

    @pytest.mark.parametrize("family, params", [
        ("perturbed_bump", (math.nan, -1.0, 0.02)), ("perturbed_bump", (3.0, math.nan, 0.02)),
        ("perturbed_sawtooth", (-math.inf, 0.25)), ("exp_power", (math.nan,)),
        ("power", (math.inf,)), ("log_power", (math.nan,))])
    def test_nonfinite_parameter_rejected(self, family, params):
        # a NaN height or centre made F NaN, and NaN passed the positivity
        # check of the analytic rows
        with pytest.raises(ValueError, match=f"'{family}' needs finite parameters"):
            lw.make_weight(family, params)

    @pytest.mark.parametrize("strictify", [math.nan, math.inf])
    def test_nonfinite_strictify_rejected(self, strictify):
        # F = NaN everywhere for strictify NaN, from the table or the knots
        with pytest.raises(ValueError, match="'tabulated' needs finite parameters"):
            lw.make_weight("tabulated", (strictify,), table=[[0.2, 1.0], [0.5, 2.0]])
        with pytest.raises(ValueError, match="'tabulated' needs finite parameters"):
            lw.weight_from_knots([(-1.0, 0.0), (-0.5, 1.0)], strictify=strictify)

    def test_nan_parameter_exits_2(self, capsys):
        assert main(["verify", "envelope", "--family", "perturbed_bump",
                     "--params", "nan,-1,0.02"]) == 2
        assert "'perturbed_bump' needs finite parameters" in capsys.readouterr().err

    def test_negative_bump_width_rejected(self, capsys):
        # 1 - |x - x*| / width with width < 0 is an unbounded tent, not a
        # bump: F - F_ramey would read 78 at x = -0.5
        with pytest.raises(ValueError, match="'perturbed_bump' needs a positive width, got -0.02"):
            lw.make_weight("perturbed_bump", (3.0, -1.0, -0.02))
        assert main(["verify", "envelope", "--family", "perturbed_bump",
                     "--params", "3,-1,-0.02"]) == 2
        assert "needs a positive width" in capsys.readouterr().err

    def test_zero_period_exits_2(self, capsys):
        assert main(["verify", "envelope", "--family", "perturbed_sawtooth",
                     "--params", "0.5,0"]) == 2
        assert "perturbed_sawtooth" in capsys.readouterr().err

    def test_table_only_for_tabulated(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="'power' takes no table"):
            lw.make_weight("power", (3.0,), table=[[0.2, 1.0], [0.5, 2.0]])
        spec = tmp_path / "weight.json"
        spec.write_text('{"family": "power", "params": [3], "table": [[0.2, 1.0], [0.5, 2.0]]}')
        assert main(["verify", "envelope", "--weight", str(spec)]) == 2
        assert "takes no table" in capsys.readouterr().err

    def test_table_pairs_only(self):
        # a table is read as (t, omega) pairs; (x, F) knots go through
        # weight_from_knots
        with pytest.raises(ValueError, match="outside"):
            lw.make_weight("tabulated", table=[[-1.0, 0.0], [-0.5, 0.5]])

    @pytest.mark.parametrize("table, match", [
        ([1, 2, 3], "table must be a list of"), ([[0.5, None], [0.9, 2.0]], "table must be"),
        ([[0.5, math.nan], [0.9, 2.0]], "omega=nan at t=0.5"),
        ([[0.5, 1.0], [0.9, math.inf]], "omega=inf at t=0.9")])
    def test_malformed_or_nonfinite_table_named(self, table, match):
        # nan <= 0 is false, so a sign test alone lets a NaN omega through
        with pytest.raises(ValueError, match=match):
            lw.make_weight("tabulated", table=table)

    @pytest.mark.parametrize("knot", [(-1.0, math.nan), (-1.0, math.inf), (math.nan, 0.5),
                                      (-math.inf, 0.5)])
    def test_nonfinite_knot_named(self, knot):
        with pytest.raises(ValueError, match=r"tabulated knot \(x=.*\) is not finite"):
            lw.weight_from_knots([knot, (-0.5, 2.0)])

    @pytest.mark.parametrize("spec, match", [
        ({"family": "power", "params": 5}, "params must be a list of numbers"),
        ({"family": "power", "params": [None]}, "params must be a list of numbers"),
        ({"family": ["power"]}, '"family" field'), (5, '"family" field')])
    def test_malformed_spec_named(self, spec, match):
        with pytest.raises(ValueError, match=match):
            lw.weight_from_spec(spec)
