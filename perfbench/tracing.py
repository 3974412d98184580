"""Spans and counters for the benchmark's traced run.

The tracer wraps logweight's public functions from outside the package:
every public module-level function of the seven modules becomes a span
(name, start, end, parent, iteration), and the functions called thousands
of times per iteration become counters with accumulated time instead.
Wrappers are rebound under every name that refers to the original, in
every logweight module, so calls between modules go through them too.
Nothing under src/ changes; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("weight_model", "construction", "series", "envelope",
           "ball_extension", "cli", "numerics")

# Hot leaves: counted and timed, never recorded as one span per call.
LEAF_FUNCTIONS = {
    "weight_model": ("big_F_eval", "omega_eval", "log_omega_eval"),
    "construction": ("next_tangent",),
    "series": ("eval_series", "modulus_sum"),
    "envelope": ("max_modulus", "max_modulus_adaptive", "max_modulus_profile"),
    "numerics": ("neumaier_sum", "logsumexp", "logaddexp", "triangle_wave"),
}
LEAF_METHODS = {
    "weight_model": {"WeightFunction": ("big_f", "big_f_prime", "log_omega",
                                        "log_omega_one_minus")},
    "ball_extension": {"BallFunctionSystem": ("eval",),
                       "PolynomialFamily": ("eval",)},
}

# Leaves sharing a group report busy time for outermost calls only
# (F' by finite differences calls F, log omega calls F for some families).
LEAF_GROUP = {name: "weight_model" for name in (
    "weight_model.WeightFunction.big_f", "weight_model.WeightFunction.big_f_prime",
    "weight_model.WeightFunction.log_omega",
    "weight_model.WeightFunction.log_omega_one_minus")}

# (unit, better) of every per-layer metric the tracer reports.
PER_LAYER = {
    "weight_model.big_f_calls": ("count", "lower"),
    "weight_model.big_f_prime_calls": ("count", "lower"),
    "weight_model.log_omega_calls": ("count", "lower"),
    "weight_model.busy_s": ("s", "lower"),
    "construction.run_construction_s": ("s", "lower"),
    "construction.lines": ("count", "lower"),
    "construction.next_tangent_calls": ("count", "lower"),
    "construction.f_evals_per_line": ("count", "lower"),
    "construction.verify_tangent_lemmas_s": ("s", "lower"),
    "construction.lemma_points": ("count", "lower"),
    "construction.lemma_us_per_point": ("us", "lower"),
    "construction.lemma_scaling_exponent": ("ratio", "lower"),
    "series.eval_series_grid_calls": ("count", "lower"),
    "series.eval_series_grid_s": ("s", "lower"),
    "series.grid_cells": ("count", "lower"),
    "series.term_cells": ("count", "lower"),
    "series.ns_per_term_cell": ("ns", "lower"),
    "series.sandwich_check_s": ("s", "lower"),
    "series.zero_adjust_s": ("s", "lower"),
    "series.sandwich_intervals_sampled": ("ratio", "higher"),
    "ball_extension.verify_family_s": ("s", "lower"),
    "ball_extension.build_ball_functions_s": ("s", "lower"),
    "ball_extension.ball_lower_bound_check_s": ("s", "lower"),
    "ball_extension.ball_eval_calls": ("count", "lower"),
    "ball_extension.provider_calls": ("count", "lower"),
    "ball_extension.us_per_ball_point": ("us", "lower"),
    "ball_extension.slice_calls": ("count", "lower"),
    "envelope.hadamard_check_s": ("s", "lower"),
    "envelope.max_modulus_calls": ("count", "lower"),
    "envelope.angles_evaluated": ("count", "lower"),
    "envelope.angle_efficiency": ("ratio", "higher"),
    "envelope.cap_hits": ("count", "lower"),
    "envelope.callable_calls": ("count", "lower"),
    "envelope.points_evaluated": ("count", "lower"),
    "envelope.log_convex_envelope_s": ("s", "lower"),
    "cli.construct_s": ("s", "lower"),
    "cli.verify_sandwich_s": ("s", "lower"),
    "cli.verify_lemmas_s": ("s", "lower"),
    "cli.verify_ball_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.render_json_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "numerics.logsumexp_calls": ("count", "lower"),
    "numerics.logsumexp_s": ("s", "lower"),
    # traced over plain pipeline_s; computed by the runner, not the tracer
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _bound_arguments(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans and counters of the logweight calls made while it is
    installed.  Spans stay in memory until `write_spans`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration]
        self.iteration = None
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = []
        # Wrappers keep references to these containers, so they are
        # cleared between iterations, never replaced.
        self.counts = defaultdict(float)
        self.times = defaultdict(float)
        self.lemma_runs = []  # (K, seconds)
        self.sandwich_shares = []
        self._pairs = {}  # id(SeriesPair) -> (pair, radii of its state)
        self._adaptive_values = []

    def _reset_counters(self):
        for box in (self.counts, self.times, self.lemma_runs,
                    self.sandwich_shares, self._pairs, self._adaptive_values):
            box.clear()

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, hook):
        tracer = self
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # direct recursion: one span
            index = len(tracer.spans)
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, tracer.iteration]
            tracer.spans.append(record)
            stack.append(index)
            before = dict(tracer.counts) if hook else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record[1], record[2] = start, end
            if hook:
                hook(tracer, _bound_arguments(sig, args, kwargs), result,
                     end - start, before)
            return result

        return wrapper

    def _leaf(self, name, fn, hook):
        counts, times, depth = self.counts, self.times, self._depth
        group = LEAF_GROUP.get(name, name)
        calls_key, busy_key = name + ".calls", group + ".busy"
        tracer = self
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            outer = depth[group] == 0
            depth[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[group] -= 1
                if outer:
                    times[busy_key] += elapsed
            if hook:
                hook(tracer, _bound_arguments(sig, args, kwargs), result,
                     elapsed, None)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the logweight modules and rebind
        the wrappers wherever the originals are referenced."""
        package = sys.modules["logweight"]
        modules = [sys.modules["logweight." + m] for m in MODULES]
        wrappers = {}
        for mod_name, mod in zip(MODULES, modules):
            leaves = LEAF_FUNCTIONS.get(mod_name, ())
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mod_name}.{attr}"
                make = self._leaf if attr in leaves else self._span
                wrappers[obj] = make(name, obj, _HOOKS.get(name))
            for cls_name, methods in LEAF_METHODS.get(mod_name, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    name = f"{mod_name}.{cls_name}.{meth}"
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._leaf(name, original, _HOOKS.get(name)))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap_callable(self, fn, kind):
        """Count calls and evaluated points of a callable handed to the
        converse checks; `kind` 'slice' also counts ball slices."""
        counts = self.counts

        def wrapper(z):
            counts["envelope.callable_calls"] += 1
            counts["envelope.points_evaluated"] += np.size(z)
            if kind == "slice":
                counts["ball_extension.slice_calls"] += 1
            return fn(z)

        return wrapper

    def add(self, key, value):
        self.counts[key] += value

    # -- iterations and metrics ---------------------------------------------

    def begin_iteration(self, iteration):
        self.iteration = iteration
        self._reset_counters()

    def end_iteration(self):
        """Per-layer metrics of the iteration just finished, and details:
        self time per span name, sandwich coverage and lemma time per K."""
        spans = {i: s for i, s in enumerate(self.spans) if s[4] == self.iteration}
        total = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _, _ in spans.values():
            total[name] += end - start
            calls[name] += 1
        c, t = self.counts, self.times

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        lines = c["construction.lines"]
        lemma_points = c["construction.lemma_points"]
        term_cells = c["series.term_cells"]
        ball_points = c["ball_extension.ball_points"]
        evaluated = c["envelope.angles_evaluated"]
        m = {
            "weight_model.big_f_calls": c["weight_model.WeightFunction.big_f.calls"],
            "weight_model.big_f_prime_calls":
                c["weight_model.WeightFunction.big_f_prime.calls"],
            "weight_model.log_omega_calls":
                c["weight_model.WeightFunction.log_omega.calls"],
            "weight_model.busy_s": t["weight_model.busy"],
            "construction.run_construction_s": total["construction.run_construction"],
            "construction.lines": lines,
            "construction.next_tangent_calls": c["construction.next_tangent.calls"],
            "construction.f_evals_per_line":
                ratio(c["construction.construct_f_evals"], lines),
            "construction.verify_tangent_lemmas_s":
                total["construction.verify_tangent_lemmas"],
            "construction.lemma_points": lemma_points,
            "construction.lemma_us_per_point":
                ratio(total["construction.verify_tangent_lemmas"], lemma_points, 1e6),
            "construction.lemma_scaling_exponent": _scaling_exponent(self.lemma_runs),
            "series.eval_series_grid_calls": calls["series.eval_series_grid"],
            "series.eval_series_grid_s": total["series.eval_series_grid"],
            "series.grid_cells": c["series.grid_cells"],
            "series.term_cells": term_cells,
            "series.ns_per_term_cell":
                ratio(total["series.eval_series_grid"], term_cells, 1e9),
            "series.sandwich_check_s": total["series.sandwich_check"],
            "series.zero_adjust_s": total["series.zero_adjust"],
            "series.sandwich_intervals_sampled":
                min((share for _, share in self.sandwich_shares), default=0.0),
            "ball_extension.verify_family_s": total["ball_extension.verify_family"],
            "ball_extension.build_ball_functions_s":
                total["ball_extension.build_ball_functions"],
            "ball_extension.ball_lower_bound_check_s":
                total["ball_extension.ball_lower_bound_check"],
            "ball_extension.ball_eval_calls":
                c["ball_extension.BallFunctionSystem.eval.calls"],
            "ball_extension.provider_calls":
                c["ball_extension.PolynomialFamily.eval.calls"],
            "ball_extension.us_per_ball_point":
                ratio(total["ball_extension.ball_lower_bound_check"], ball_points, 1e6),
            "ball_extension.slice_calls": c["ball_extension.slice_calls"],
            "envelope.hadamard_check_s": total["envelope.hadamard_check"],
            "envelope.max_modulus_calls": c["envelope.max_modulus.calls"],
            "envelope.angles_evaluated": evaluated,
            "envelope.angle_efficiency":
                ratio(c["envelope.final_angles"], evaluated),
            "envelope.cap_hits": c["envelope.cap_hits"],
            "envelope.callable_calls": c["envelope.callable_calls"],
            "envelope.points_evaluated": c["envelope.points_evaluated"],
            "envelope.log_convex_envelope_s": total["envelope.log_convex_envelope"],
            "cli.construct_s": total["cli.cmd_construct"],
            "cli.verify_sandwich_s": total["cli.cmd_verify_sandwich"],
            "cli.verify_lemmas_s": total["cli.cmd_verify_lemmas"],
            "cli.verify_ball_s": total["cli.cmd_verify_ball"],
            "cli.emit_s": total["cli.cmd_emit"],
            "cli.self_s": _cli_self_time(spans),
            "cli.render_json_s": total["cli.render_json"],
            "cli.output_bytes": c["cli.output_bytes"],
            "numerics.logsumexp_calls": c["numerics.logsumexp.calls"],
            "numerics.logsumexp_s": t["numerics.logsumexp.busy"],
        }
        extra = {"self_s": _self_times(spans),
                 "sandwich_shares_by_k": sorted(self.sandwich_shares),
                 "lemma_s_by_k": sorted(self.lemma_runs)}
        return m, extra

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, iteration in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "iteration": iteration}) + "\n")


def _scaling_exponent(runs):
    """log(time ratio) / log(K ratio) between the smallest and the largest
    K the lemma verifier saw in one iteration (0 with fewer than two K)."""
    if not runs:
        return 0.0
    small, large = min(runs), max(runs)
    if small[0] == large[0] or small[1] <= 0.0:
        return 0.0
    return math.log(large[1] / small[1]) / math.log(large[0] / small[0])


def _self_times(spans):
    """Per span name: duration minus the time its child spans cover.
    `spans` maps span index to span."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans.values():
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in spans.items():
        out[name] += (end - start) - child[i]
    return dict(out)


def _cli_self_time(spans):
    """Time of cli.main spans not covered by the library (non-cli) spans
    that cli code called directly."""
    main = sum(e - s for n, s, e, _, _ in spans.values() if n == "cli.main")
    library = sum(e - s for n, s, e, p, _ in spans.values()
                  if p in spans and not n.startswith("cli.")
                  and spans[p][0].startswith("cli."))
    return main - library


# -- hooks: counters computed from arguments and results ----------------------


def _after_run_construction(tr, a, result, elapsed, before):
    tr.counts["construction.lines"] += len(result.lines)
    evals = 0.0
    for key in ("weight_model.WeightFunction.big_f.calls",
                "weight_model.WeightFunction.big_f_prime.calls"):
        evals += tr.counts[key] - before.get(key, 0.0)
    tr.counts["construction.construct_f_evals"] += evals


def _after_lemmas(tr, a, result, elapsed, before):
    tr.counts["construction.lemma_points"] += sum(c.n_points for c in result.checks)
    tr.lemma_runs.append((len(a["state"].lines), elapsed))


def _after_split(tr, a, result, elapsed, before):
    tr._pairs[id(result)] = (result, np.asarray(a["state"].ts))


def _after_sandwich(tr, a, result, elapsed, before):
    entry = tr._pairs.get(id(a["pair"]))
    if entry is None or entry[0] is not a["pair"]:
        return
    radii = entry[1]
    grid = np.asarray(a["t_grid"], dtype=float)
    # interval k is (radii[k-1], radii[k]]; it is sampled when a grid radius
    # falls in it
    k = np.searchsorted(radii, grid, side="left")
    k = k[(k >= 1) & (k < radii.size)]
    tr.sandwich_shares.append((radii.size - 1, np.unique(k).size / (radii.size - 1)))


def _after_grid(tr, a, result, elapsed, before):
    cells = result.size
    tr.counts["series.grid_cells"] += cells
    tr.counts["series.term_cells"] += cells * len(a["s"].terms)


def _after_ball_check(tr, a, result, elapsed, before):
    tr.counts["ball_extension.ball_points"] += (
        np.size(a["t_grid"]) * a["sphere_samples"])


def _after_max_modulus(tr, a, result, elapsed, before):
    tr.counts["envelope.angles_evaluated"] += a["theta_count"]
    if tr._depth["envelope.max_modulus_adaptive"]:
        tr._adaptive_values.append(result)
    else:
        tr.counts["envelope.final_angles"] += a["theta_count"]


def _after_adaptive(tr, a, result, elapsed, before):
    _, n = result
    values = tr._adaptive_values
    tr.counts["envelope.final_angles"] += n
    # the refinement stops early only when two successive estimates agree
    if n >= a["cap"] and (len(values) < 2 or abs(values[-1] - values[-2]) >= a["tol"]):
        tr.counts["envelope.cap_hits"] += 1
    values.clear()


_HOOKS = {
    "construction.run_construction": _after_run_construction,
    "construction.verify_tangent_lemmas": _after_lemmas,
    "series.split_parity": _after_split,
    "series.sandwich_check": _after_sandwich,
    "series.eval_series_grid": _after_grid,
    "ball_extension.ball_lower_bound_check": _after_ball_check,
    "envelope.max_modulus": _after_max_modulus,
    "envelope.max_modulus_adaptive": _after_adaptive,
}
