"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import cmath
import math
import time

import numpy as np
import pytest

import logweight as lw
from logweight.construction import ConstructionParams
from reference_series import reference_log_ratio_samples, to_complex

T0 = 0.95
X0 = math.log(T0)

# Per-family construction settings used by the lemma suite: deep enough
# that every inequality family has non-vacuous sample sets, shallow
# enough to stay fast.  double_exp advances ~3e-7 per step at h = 2, so
# it is capped by k_max instead of a radius target.
LEMMA_RUNS = {
    "ramey_ullrich": dict(t_stop=1.0 - 1e-9, k_max=500),
    "power": dict(t_stop=0.99999, k_max=500),
    "exp_power": dict(t_stop=0.999, k_max=1000),
    "double_exp": dict(t_stop=0.999, k_max=12),
}


def build(family, h=2.0, t_stop=0.9999, k_max=500, params=()):
    w = lw.make_weight(family, params)
    state = lw.run_construction(
        w, ConstructionParams(x0=X0, h=h, t_stop=t_stop, k_max=k_max))
    return w, state


def sandwich_grid():
    return np.linspace(0.95, 0.9999, 2001)[1:]


def doubling_log_ratios(w, s_grid):
    """log omega(1 - s/2) / omega(1 - s) at every s of the grid."""
    return np.array([w.log_omega_one_minus(s / 2.0) - w.log_omega_one_minus(s)
                     for s in map(float, s_grid)])


def exponent_ratios(state):
    """Consecutive exponent ratios e_{k+1}/e_k of a construction."""
    es = state.es
    return [b / a for a, b in zip(es, es[1:])]


class TestAcceptance:
    def test_01_ramey_ullrich_sandwich(self):
        started = time.perf_counter()
        w, state = build("ramey_ullrich")
        pair = lw.split_parity(state)
        rep = lw.sandwich_check(pair, w, sandwich_grid(), theta_count=256)
        elapsed = time.perf_counter() - started
        assert rep.passed
        assert rep.lower_margin >= -1e-9 and rep.upper_margin >= -1e-9
        assert rep.t_count == 2000 and rep.theta_count == 256
        assert elapsed < 10.0
        print(f"\nPASS 1: 1/(1-t) sandwich on 2000x256 grid "
              f"(lower {rep.lower_margin:.3e}, upper {rep.upper_margin:.3e}, "
              f"{elapsed:.2f}s)")

    def test_02_non_doubling_exponential_weights(self):
        s_grid = np.geomspace(1e-6, 1.0, 200)
        ramey = doubling_log_ratios(lw.make_weight("ramey_ullrich"), s_grid)
        assert abs(math.exp(ramey.max()) - 2.0) < 1e-12
        margins = []
        for alpha in (0.5, 1.0, 2.0):
            w, state = build("exp_power", params=(alpha,), k_max=10000)
            # log omega(1-s/2)/omega(1-s) = (2^alpha - 1) s^-alpha: unbounded
            ratios = doubling_log_ratios(w, s_grid)
            assert ratios.max() > math.log(1e6)
            assert np.all(np.diff(ratios) < 0.0)
            pair = lw.split_parity(state)
            rep = lw.sandwich_check(pair, w, sandwich_grid(), theta_count=256)
            assert rep.passed, f"alpha={alpha}"
            margins.append((alpha, rep.lower_margin, rep.upper_margin))
        detail = ", ".join(f"a={a}: {lo:.1e}/{up:.1e}" for a, lo, up in margins)
        print(f"\nPASS 2: exp((1-t)^-a) sandwich for a in {{0.5, 1, 2}}; "
              f"doubling flags correct ({detail})")

    def test_03_lemma_suite(self):
        worst_overall = math.inf
        for family, run in LEMMA_RUNS.items():
            w, state = build(family, **run)
            rep = lw.verify_tangent_lemmas(state, w, samples_per_interval=50)
            assert rep.passed, family
            worst_overall = min(worst_overall,
                                min(c.worst_margin for c in rep.checks))
            for delta in (1.0, 0.1, 0.01):
                h = lw.h_for_delta(delta)
                wd, sd = build(family, h=h, **run)
                repd = lw.verify_tangent_lemmas(sd, wd,
                                                samples_per_interval=50,
                                                delta=delta)
                assert repd.passed, (family, delta)
                worst_overall = min(worst_overall,
                                    min(c.worst_margin for c in repd.checks))
        assert worst_overall >= -1e-9
        print(f"\nPASS 3: lemma suite on {list(LEMMA_RUNS)} incl. integer "
              f"exponents and delta in {{1, 0.1, 0.01}} "
              f"(worst margin {worst_overall:.3e})")

    def test_04_closed_form_tangent_oracle(self):
        w = lw.make_weight("inv_log")  # F(x) = -1/x
        line, x_next = lw.next_tangent(w, -1.0, 2.0)
        sqrt2 = math.sqrt(2.0)
        errs = (abs(line.xi - (1.0 - sqrt2)),
                abs(line.delta - (3.0 + 2.0 * sqrt2)),
                abs(x_next - (-(3.0 - 2.0 * sqrt2))))
        assert all(e <= 1e-10 for e in errs)
        print(f"\nPASS 4: closed-form tangent oracle for F(x) = -1/x "
              f"(errors {max(errs):.2e})")

    def test_05_weak_lacunarity_trend(self):
        w, state = build("exp_power", params=(1.0,), t_stop=0.999, k_max=1000)
        ratios = exponent_ratios(state)
        first3, last3 = np.mean(ratios[:3]), np.mean(ratios[-3:])
        assert last3 < first3
        _, ramey = build("ramey_ullrich", t_stop=1.0 - 1e-9)
        r_ratios = exponent_ratios(ramey)
        assert all(r > 1.05 for r in r_ratios)
        print(f"\nPASS 5: exponent ratios sink {first3:.3f} -> {last3:.3f} "
              f"for exp((1-t)^-1); 1/(1-t) stays above 1.05 "
              f"(min {min(r_ratios):.2f})")

    def test_06_envelope_decision(self):
        convex = [("ramey_ullrich", (), (-2.0, -0.005)),
                  ("power", (2.0,), (-2.0, -0.005)),
                  ("exp_power", (1.0,), (-2.0, -0.005)),
                  ("double_exp", (), (-2.0, -0.2)),
                  ("log_power", (2.0,), (-2.0, -0.005)),
                  ("inv_log", (), (-2.0, -0.005))]
        gaps = {}
        for family, params, (lo, hi) in convex:
            w = lw.make_weight(family, params)
            res = lw.log_convex_envelope(w, np.linspace(lo, hi, 1001))
            assert res.gap <= 1e-9, family
            assert res.equivalent
            gaps[family] = res.gap
        bump = lw.log_convex_envelope(lw.make_weight("perturbed_bump"),
                                      np.linspace(-2.0, -0.01, 200))
        assert 2.999 <= bump.gap <= 3.001
        assert bump.equivalent
        saw = lw.log_convex_envelope(
            lw.make_weight("perturbed_unbounded_sawtooth"),
            np.linspace(-2.0, -0.005, 2001))
        assert saw.gap > 10.0
        assert not saw.equivalent
        print(f"\nPASS 6: envelope gaps: convex families <= 1e-9, bump "
              f"{bump.gap:.6f} in [2.999, 3.001], sawtooth {saw.gap:.1f} > 10 "
              f"-> not equivalent")

    def test_07_hadamard_property_suite(self):
        polys = lw.random_polynomials(100, 30, seed=7)
        assert all(c[0] == 1.0 for c in polys)
        assert max(len(c) - 1 for c in polys) <= 30
        fs = [lw.polynomial_callable(c) for c in polys]
        rep = lw.hadamard_check(fs, np.geomspace(0.05, 0.95, 64))
        assert rep.passed
        assert rep.min_second_diff >= -1e-7
        print(f"\nPASS 7: 100 seeded polynomials, second differences of "
              f"log(sum M) >= {rep.min_second_diff:.3e} (tol -1e-7)")

    def test_08_zero_adjustment_constants(self):
        w, state = build("ramey_ullrich")
        pair = lw.split_parity(state)
        adj = lw.zero_adjust(pair, w, theta_count=720, inner_radii=100,
                             inner_angles=64, outer_t_points=2000,
                             outer_angles=256)
        assert adj.c_low > 0.0
        assert math.isfinite(adj.c_high)
        log_u, log_v = reference_log_ratio_samples(adj.f1, adj.f2, w, pair.t0, pair.t_last,
                                                   100, 64, 2000, 256)
        log_c1, log_c2 = float(np.min(log_v - log_u)), float(np.max(log_v - log_u))
        assert abs(log_c1 - adj.log_c_low) <= 1e-12
        assert abs(log_c2 - adj.log_c_high) <= 1e-12
        assert math.exp(log_c1) == pytest.approx(adj.c_low, rel=1e-12)
        assert math.exp(log_c2) == pytest.approx(adj.c_high, rel=1e-12)
        print(f"\nPASS 8: zero adjustment c_low {adj.c_low:.4g} > 0, c_high "
              f"{adj.c_high:.4g} < inf; sample log-ratio extremes match to 1e-12")

    def test_09_ball_reduction_and_negative_family(self):
        w, state = build("ramey_ullrich")
        pair = lw.split_parity(state)
        system = lw.build_ball_functions(state, lw.monomial_family())
        assert system.functions[0].terms == pair.g1.terms
        assert system.functions[1].terms == pair.g2.terms
        assert system.functions[-1].is_one
        rep = lw.ball_lower_bound_check(
            system, w, np.linspace(0.9501, 0.9999, 40), sphere_samples=128)
        assert rep.passed
        neg = lw.verify_family(lw.coordinate_family_d2(), [8],
                               sphere_samples=128)
        r8 = neg.degree(8)
        assert not neg.passed and not r8.min_ok
        assert abs(r8.min_of_max - 0.0625) <= 1e-12
        print(f"\nPASS 9: monomial family reproduces disk term data and the "
              f"ball bound (margin {rep.lower_margin:.3e}); coordinate d=2 "
              f"family rejected at degree 8 (min-of-max {r8.min_of_max:.12f})")

    def test_10_numeric_stability(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            es = np.sort(rng.choice(np.arange(0, 100), size=n, replace=False))
            lcs = rng.uniform(0.0, 10.0, size=n)
            s = lw.LacunarySeries(tuple(zip(map(float, lcs), map(int, es))))
            r = rng.uniform(0.05, 0.9)
            z = r * cmath.exp(2j * math.pi * rng.uniform())
            direct = sum(math.exp(lc) * z**e for lc, e in s.terms)
            mine = to_complex(lw.eval_series(s, z))
            worst = max(worst, abs(mine - direct) / abs(direct))
        assert worst <= 1e-12

        w, state = build("exp_power", params=(2.0,), t_stop=0.9965,
                         k_max=10000)
        pair = lw.split_parity(state)
        peak = max(abs(lc) for lc in pair.g1.log_coeffs + pair.g2.log_coeffs)
        assert peak > 1e5
        for t in (0.96, 0.99, 0.996):
            for th in (0.0, 1.0, 2.5):
                v = lw.eval_series(pair.g1, t * cmath.exp(1j * th))
                assert math.isfinite(v.log_abs)
                assert 1.0 <= abs(v.mantissa) < 2.0
        rep = lw.sandwich_check(pair, w,
                                np.linspace(0.9501, 0.9965, 300), 64)
        assert rep.passed
        print(f"\nPASS 10: 1000 seeded direct-sum comparisons (worst "
              f"{worst:.2e} rel) and overflow-free evaluation at log-scale "
              f"{peak:.3g}")
