"""The endpoint certificate of verify_tangent_lemmas against the sampled
reference verifier, the JSON path (states without tangency points), and
the basis a lemma report names."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import logweight as lw
from logweight.cli import main
from logweight.construction import ConstructionParams, _min_above_line
from logweight.weight_model import is_known_convex
from reference_lemmas import reference_verify_tangent_lemmas

X0 = math.log(0.95)

# name -> (family, family params, construction params, delta checked)
STATES = {
    "ramey_ullrich": ("ramey_ullrich", (), dict(t_stop=1.0 - 1e-9), None),
    "exp_power": ("exp_power", (1.0,), dict(t_stop=0.9999), None),
    "power_delta": ("power", (2.0,), dict(h=lw.h_for_delta(0.01), t_stop=1.0 - 1e-9), 0.01),
    "double_exp": ("double_exp", (), dict(k_max=200), None),
}


@functools.lru_cache(maxsize=None)
def built(name):
    family, params, kw, delta = STATES[name]
    w = lw.make_weight(family, params)
    return w, lw.run_construction(w, ConstructionParams(x0=X0, **kw)), delta


def tamper(state, k, **changes):
    lines = list(state.lines)
    lines[k - 1] = dataclasses.replace(lines[k - 1], **changes)
    return dataclasses.replace(state, lines=tuple(lines))


def from_json(state):
    return lw.ConstructionState.from_json_dict(json.loads(json.dumps(state.to_json_dict())))


class TestAgainstSampledReference:
    @pytest.mark.parametrize("samples", [2, 50])
    @pytest.mark.parametrize("name", list(STATES))
    def test_never_more_lenient(self, name, samples):
        w, state, delta = built(name)
        new = lw.verify_tangent_lemmas(state, w, samples, delta=delta)
        ref = reference_verify_tangent_lemmas(state, w, samples, delta=delta)
        assert new.passed and ref.passed
        assert [c.name for c in new.checks] == [c.name for c in ref.checks]
        for c_new, c_ref in zip(new.checks, ref.checks):
            assert c_new.passed == c_ref.passed, c_new.name
            assert c_new.worst_margin <= c_ref.worst_margin + 1e-12, c_new.name

    def test_nonvacuous_states(self):
        # the tails and delta checks above compare real sums, not empty ones
        assert [len(built(n)[1].lines) for n in STATES] == [4, 68, 4, 200]
        w, state, delta = built("power_delta")
        rep = lw.verify_tangent_lemmas(state, w, delta=delta)
        assert rep.check("segment_tail_delta").n_points > 0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), name=st.sampled_from(["ramey_ullrich", "exp_power", "power_delta"]),
           size=st.floats(0.5, 6.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_interior_tamper_fails_when_reference_fails(self, data, name, size, sign):
        w, state, delta = built(name)
        k = data.draw(st.integers(2, len(state.lines) - 1), label="k")
        bad = tamper(state, k, log_a=state.lines[k - 1].log_a + sign * size)
        ref = reference_verify_tangent_lemmas(bad, w, delta=delta)
        new = lw.verify_tangent_lemmas(bad, w, delta=delta)
        if not ref.passed:
            assert not new.passed
            failed = [c for c in new.checks if not c.passed]
            assert all(c.witness_x is not None and c.witness_k is not None for c in failed)

    def test_lowered_third_line_fails(self):
        # line 3 of the K=4 state lowered by 4: the chord gate (k = 1 and
        # K) cannot see it, the chord condition on I_3 can
        w, state, _ = built("ramey_ullrich")
        bad = tamper(state, 3, log_a=state.lines[2].log_a - 4.0)
        assert not reference_verify_tangent_lemmas(bad, w).passed
        rep = lw.verify_tangent_lemmas(bad, w)
        assert not rep.passed
        low = rep.check("segment_lower")
        assert not low.passed and low.witness_k == 3
        assert bad.xs[2] <= low.witness_x <= bad.xs[3]


class TestTangencyBound:
    @pytest.mark.parametrize("factor", [1e-3, 0.3, 0.9, 1.0, 1.1, 3.0, 1e30])
    def test_bound_below_dense_samples(self, factor):
        # Slopes moved off the tangency put the minimum of F - l at x0,
        # left of the line's interval, inside it, right of it, or past the
        # float floor of |x|; the certified bound must stay below a dense
        # sampling of F - l in every case.
        w, state, _ = built("exp_power")
        loaded = from_json(state)
        xs = loaded.xs
        grid = np.concatenate([np.linspace(xs[0], xs[-1], 20001),
                               xs[-1] * np.geomspace(0.5, 1e-3, 200)])
        f = np.array([w.big_f(float(x)) for x in grid])
        for k in (2, 30, 67):
            line = dataclasses.replace(loaded.lines[k - 1],
                                       delta=loaded.lines[k - 1].delta * factor)
            lb, c, f_c = _min_above_line(w, line, xs[k - 1], xs[k], xs[0],
                                         loaded.params.root_tol)
            sampled = np.min(f - line.value(grid))
            assert lb <= sampled + 1e-12 * max(1.0, abs(f_c))
            assert f_c == w.big_f(c)
            if factor == 1.0:
                assert lb == pytest.approx(0.0, abs=1e-9 * max(1.0, abs(f_c)))

    @pytest.mark.parametrize("name", list(STATES))
    def test_json_state_matches_in_memory(self, name):
        w, state, delta = built(name)
        loaded = from_json(state)
        assert all(line.xi is None for line in loaded.lines)
        mem = lw.verify_tangent_lemmas(state, w, delta=delta)
        disk = lw.verify_tangent_lemmas(loaded, w, delta=delta)
        assert disk.passed == mem.passed
        for c_disk, c_mem in zip(disk.checks, mem.checks):
            assert c_disk.name == c_mem.name
            assert c_disk.passed == c_mem.passed
            assert c_disk.worst_margin == pytest.approx(c_mem.worst_margin, rel=0, abs=1e-12)


class TestBasis:
    def test_known_convex_families(self):
        assert is_known_convex(lw.make_weight("ramey_ullrich"))
        assert is_known_convex(lw.make_weight("double_exp"))
        assert not is_known_convex(lw.make_weight("ramey_ullrich", deriv_mode="fd"))
        assert not is_known_convex(lw.make_weight("perturbed_sawtooth"))
        assert not is_known_convex(lw.make_weight("perturbed_bump"))

    def test_tabulated_knot_slopes(self):
        convex = [(-1.0, 0.0), (-0.5, 0.5), (-0.25, 1.0), (-0.1, 2.0)]
        assert is_known_convex(lw.weight_from_knots(convex))
        assert is_known_convex(lw.weight_from_knots(convex, strictify=1e-3))
        # slopes 1, 2, 2: convex but not strictly
        flat = [(-1.0, 0.0), (-0.5, 0.5), (-0.25, 1.0), (-0.125, 1.25)]
        assert not is_known_convex(lw.weight_from_knots(flat))
        dented = [(-1.0, 0.0), (-0.5, 1.0), (-0.25, 1.1), (-0.1, 2.0)]
        assert not is_known_convex(lw.weight_from_knots(dented))
        assert not is_known_convex(lw.weight_from_knots(convex, strictify=-1e-3))

    def test_report_names_basis(self):
        w, state, _ = built("ramey_ullrich")
        rep = lw.verify_tangent_lemmas(state, w)
        assert rep.basis == "convexity"
        assert rep.to_json_dict()["basis"] == "convexity"
        fd = lw.make_weight("ramey_ullrich", deriv_mode="fd")
        assert lw.verify_tangent_lemmas(state, fd).to_json_dict()["basis"] == "sampled"

    def test_cli_prints_basis(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        assert main(["construct", "--family", "ramey_ullrich", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "lemmas", "--state", str(path),
                     "--family", "ramey_ullrich", "--samples", "2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["basis"] == "convexity"
        assert "convexity" in captured.err
