"""Benchmark of logweight: construct -> verify on fixed workloads.

    python3 perfbench/run.py --workload deep_lemmas --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --all              # every workload, plain and traced
    python3 perfbench/run.py --selfcheck        # tiny sizes; shows the gate bites

One run is a closed loop: one process, one client, iterations back to
back, no worker threads, BLAS capped at the CPU count.  Every op declares
its expected outcome; a different outcome or an exception is a failed op.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics from wrapped logweight calls with --trace 1.
Details (quartiles, failed ops, report digest, provenance) go to
.bench_out/ in the checkout.  Exit code 1 when an outcome is unexpected,
2 when the logweight sources are missing.
"""

import os
import time

PROCESS_START = time.monotonic()
NPROC = len(os.sched_getaffinity(0))
# BLAS reads its thread caps when numpy loads, so they are set first.
BLAS_THREADS = NPROC
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("deep_lemmas", "cli_grid", "converse")
DEFAULT_SEED = 7
DEFAULT_SECONDS = 25
# Fresh processes timed from spawn to the end of set-up, per plain run.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "pipeline_s": "s",
    "certify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# ROADMAP item 1 single-run figures (seconds, low and high), with the op
# of this benchmark that measures the same stage.
ROADMAP_BASELINE = [
    ("construct", (0.0, 0.03), "cli_grid", "construct:exp_power_a1"),
    ("construct double_exp K=2000 (K=4000: 0.55)", None, "deep_lemmas",
     "construct:double_exp"),
    ("sandwich 2000x256", (0.04, 0.08), "deep_lemmas", "sandwich:exp_power_a2"),
    ("sandwich 2000x256 K=2000 (K=4000: 0.28)", None, "deep_lemmas",
     "sandwich:double_exp"),
    ("lemmas K=68 (CLI op: parse, load, render)", (0.02, 0.02), "cli_grid",
     "verify_lemmas:exp_power_a1"),
    ("lemmas K=601", (0.45, 0.45), "deep_lemmas", "lemmas:exp_power_a2"),
    ("lemmas K=2000 (K=1000: 1.0, K=4000: 10.4)", None, "deep_lemmas",
     "lemmas:double_exp"),
    ("zero_adjust", (0.24, 0.24), "cli_grid", "zero_adjust:exp_power_a1"),
    ("ball check 32x128 K=4 (CLI op, with verify_family)", (0.21, 0.21),
     "cli_grid", "verify_ball:ramey_ullrich"),
    ("ball check 32x128 K=68 (CLI op, with verify_family)", (0.21, 0.21),
     "cli_grid", "verify_ball:exp_power_a1"),
    ("hadamard", (2.4, 2.4), "converse", "hadamard:polys"),
]
# A single-run figure counts as reproduced within this relative band.
BASELINE_BAND = 0.2


def load_logweight():
    """Import logweight from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import logweight
    except ImportError as exc:
        print(f"error: cannot import logweight from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(logweight.__file__).resolve().parent != src / "logweight":
        print(f"error: logweight resolved to {logweight.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return logweight


# -- one run -------------------------------------------------------------------------


class Runner:
    """Times ops, applies the verdict gate and digests the reports."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.iterations = []
        self.op_times = defaultdict(list)

    def op(self, stage, subject, call, expect="ok", verdict=None, report=None,
           construct=False, known=None):
        """Run one op.  Returns its result when the outcome is the expected
        one, else None.  `known` names the outcome of a known
        defect: still a failed op, but not an unexpected one.  The report
        defaults to the result's JSON dict."""
        label = f"{stage}:{subject}"
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any exception is this op's failure
            elapsed = time.perf_counter() - start
            result, outcome, message = None, f"raises {type(exc).__name__}", str(exc)
        else:
            elapsed = time.perf_counter() - start
            outcome, message = (verdict(result) if verdict else "ok"), ""
        self.attempted += 1
        self._ops.append((construct, elapsed))
        self.op_times[label].append(elapsed)
        data = b""
        if result is not None:
            try:
                data = (report(result) if report
                        else json.dumps(result.to_json_dict()).encode())
            except OSError as exc:
                data = f"no report: {type(exc).__name__}".encode()
        self._hash.update(f"{label}:{outcome}\n".encode() + data)
        if outcome == expect:
            return result
        self.failures.append({
            "iteration": len(self.iterations), "stage": stage, "subject": subject,
            "expected": expect, "outcome": outcome, "message": message[:300],
            "known_defect": outcome == known,
        })
        return None

    def note_output(self, nbytes):
        if self.tracer is not None:
            self.tracer.add("cli.output_bytes", nbytes)

    def iteration(self, iterate, ctx):
        self._ops = []
        self._hash = hashlib.sha256()
        if self.tracer is not None:
            self.tracer.begin_iteration(len(self.iterations))
        iterate(ctx, self)
        rec = {
            "traced": self.tracer is not None,
            "pipeline_s": sum(t for _, t in self._ops),
            "construct_s": sum(t for c, t in self._ops if c),
            "certify_s": sum(t for c, t in self._ops if not c),
            "digest": self._hash.hexdigest(),
        }
        if self.tracer is not None:
            rec["layers"], rec["trace_detail"] = self.tracer.end_iteration()
        self.iterations.append(rec)

    def loop(self, iterate, ctx, seconds):
        """Iterations back to back until `seconds` have passed (at least one)."""
        end = time.perf_counter() + seconds
        while True:
            gc.collect()  # every iteration starts from a collected heap
            self.iteration(iterate, ctx)
            if time.perf_counter() >= end:
                return

    @property
    def unexpected(self):
        return [f for f in self.failures if not f["known_defect"]]


def summary(values):
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_probe_times(workload, seed, count):
    """Set-up time of `count` fresh processes, each timed from just before
    its spawn to the end of its set-up (import logweight, build inputs)."""
    times = []
    for _ in range(count):
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def make_workdir(workload):
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR)


def run_setup_probe(args):
    load_logweight()
    import workloads
    setup, _ = workloads.WORKLOADS[args.workload]
    workdir = make_workdir(args.workload)
    try:
        setup(args.seed, "full", workdir)
        elapsed = time.monotonic() - args.spawned_at
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def run_workload(args):
    load_logweight()
    import tracing
    import workloads
    setup, iterate = workloads.WORKLOADS[args.workload]
    runner = Runner()
    workdir = make_workdir(args.workload)
    tracer = None
    try:
        ctx = setup(args.seed, "full", workdir)
        setup_self_s = time.monotonic() - PROCESS_START
        if args.trace:
            # Untraced iterations first: their median is the base of
            # trace.overhead_ratio.
            runner.loop(iterate, ctx, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                runner.loop(iterate, ctx, args.seconds / 2)
            finally:
                tracer.uninstall()
        else:
            runner.loop(iterate, ctx, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [] if args.trace else setup_probe_times(args.workload, args.seed,
                                                     SETUP_PROBES)

    plain = [r for r in runner.iterations if not r["traced"]]
    traced = [r for r in runner.iterations if r["traced"]]
    timings = {key: summary(r[key] for r in plain)
               for key in ("pipeline_s", "construct_s", "certify_s")}
    digests = sorted({r["digest"] for r in runner.iterations})
    problems = [f"unexpected outcome {f['outcome']!r} (expected {f['expected']!r}) "
                f"at {f['stage']}:{f['subject']}" for f in runner.unexpected]
    if len(digests) > 1:
        problems.append(f"reports differ between iterations ({len(digests)} digests)")
    correct = not problems

    detail = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "trace": args.trace,
        "provenance": provenance(args),
        "iterations": {"plain": len(plain), "traced": len(traced)},
        "timings": timings,
        "setup_s": summary(probes) if probes else None,
        "setup_probes_s": probes,
        "setup_self_s": setup_self_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_attempted": runner.attempted,
        "ops_failed": len(runner.failures),
        "failed_ops_ratio": len(runner.failures) / runner.attempted,
        "failed_ops": runner.failures,
        "unexpected": problems,
        "report_digest": digests[0] if len(digests) == 1 else digests,
        "op_median_s": {k: statistics.median(v) for k, v in runner.op_times.items()},
    }
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            statistics.median(r["pipeline_s"] for r in traced)
            / statistics.median(r["pipeline_s"] for r in plain))
        self_s = defaultdict(list)
        for r in traced:
            for name, value in r["trace_detail"]["self_s"].items():
                self_s[name].append(value)
        ranking = sorted(((statistics.median(v), k) for k, v in self_s.items()),
                         reverse=True)
        detail["per_layer"] = layers
        detail["self_time_ranking_s"] = [[k, v] for v, k in ranking[:10]]
        last = traced[-1]["trace_detail"]
        detail["sandwich_shares_by_k"] = last["sandwich_shares_by_k"]
        detail["lemma_s_by_k"] = last["lemma_s_by_k"]
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
                   for name, value in layers.items()}
    else:
        values = {"pipeline_s": timings["pipeline_s"]["median"],
                  "certify_s": timings["certify_s"]["median"],
                  "setup_s": detail["setup_s"]["median"],
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail_path = OUT_DIR / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")
    print_human(detail, metrics)
    print(f"details: {detail_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


def print_human(detail, metrics):
    print(f"workload {detail['workload']} (trace {detail['trace']}): "
          f"{detail['iterations']['plain']} plain + {detail['iterations']['traced']} "
          "traced iterations")
    for name, t in detail["timings"].items():
        print(f"  {name:<40} {t['median']:.6g} s  [q1 {t['q1']:.6g}, "
              f"q3 {t['q3']:.6g}, n={t['n']}]")
    if detail["setup_s"]:
        t = detail["setup_s"]
        print(f"  {'setup_s':<40} {t['median']:.6g} s  [q1 {t['q1']:.6g}, "
              f"q3 {t['q3']:.6g}, n={t['n']}]")
    print(f"  {'peak_rss_mb':<40} {detail['peak_rss_mb']:.6g} MB")
    print(f"  {'failed_ops_ratio':<40} {detail['failed_ops_ratio']:.6g} ratio  "
          f"[ops_attempted {detail['ops_attempted']}, ops_failed {detail['ops_failed']}]")
    for f in {(f["stage"], f["subject"], f["outcome"], f["known_defect"])
              for f in detail["failed_ops"]}:
        print(f"  failed op {f[0]}:{f[1]}: {f[2]}"
              + (" (known defect)" if f[3] else ""))
    print(f"  report digest {detail['report_digest']}")
    if detail["trace"]:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        top = detail["self_time_ranking_s"][0]
        print(f"  largest self-time span: {top[0]} ({top[1]:.6g} s)")


def provenance(args):
    import numpy
    import scipy
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "closed loop: one process, one client, no worker threads",
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


# -- all workloads -------------------------------------------------------------------


def run_all(args):
    """Each workload in fresh processes, plain then traced; one summary."""
    import tracing
    OUT_DIR.mkdir(exist_ok=True)
    results, exit_code = {}, 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            if proc.returncode != 0:
                exit_code = 1
                print(f"{workload} trace {trace}: exit {proc.returncode}\n"
                      f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
            path = OUT_DIR / f"result-{workload}-trace{trace}-seed{args.seed}.json"
            if path.exists():
                results[(workload, trace)] = json.loads(path.read_text())

    print(f"{'workload':<12} {'metric':<44} {'value':>14} unit")
    for (workload, trace), d in results.items():
        rows = ([("pipeline_s", d["timings"]["pipeline_s"]["median"], "s"),
                 ("construct_s", d["timings"]["construct_s"]["median"], "s"),
                 ("certify_s", d["timings"]["certify_s"]["median"], "s"),
                 ("setup_s", d["setup_s"]["median"], "s"),
                 ("peak_rss_mb", d["peak_rss_mb"], "MB"),
                 ("failed_ops_ratio", d["failed_ops_ratio"], "ratio"),
                 ("ops_attempted", d["ops_attempted"], "count"),
                 ("ops_failed", d["ops_failed"], "count")]
                if not trace else
                [(k, v, tracing.PER_LAYER[k][0]) for k, v in d["per_layer"].items()]
                + [("largest_self_span", d["self_time_ranking_s"][0][0], "")])
        for name, value, unit in rows:
            shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
            print(f"{workload:<12} {name:<44} {shown:>14} {unit}")

    crosscheck = baseline_crosscheck(results)
    print("\nROADMAP item 1 baseline vs this run (plain op medians):")
    for row in crosscheck:
        print(f"  {row['stage']:<44} roadmap {row['roadmap_s']!s:<14} "
              f"measured {row['measured_s']:.4g} s  {row['note']}")
    known = known_defects(results)
    print("\nknown defects measured:")
    for line in known:
        print(f"  {line}")

    summary_doc = {
        "provenance": next(iter(results.values()))["provenance"] if results else None,
        "workloads": {w: {"why": results[(w, 0)]["why"]} for w in WORKLOAD_NAMES
                      if (w, 0) in results},
        "results": {f"{w}/trace{t}": d for (w, t), d in results.items()},
        "roadmap_crosscheck": crosscheck,
        "known_defects": known,
    }
    out = Path(args.out) if args.out else OUT_DIR / f"summary-seed{args.seed}.json"
    out.write_text(json.dumps(summary_doc, indent=1) + "\n")
    print(f"\nsummary: {out}")
    return exit_code


def baseline_crosscheck(results):
    rows = []
    for stage, span, workload, label in ROADMAP_BASELINE:
        d = results.get((workload, 0))
        if d is None or label not in d["op_median_s"]:
            continue
        measured = d["op_median_s"][label]
        if span is None:
            note = "no single ROADMAP figure at this K"
        else:
            lo, hi = span
            ok = lo * (1 - BASELINE_BAND) <= measured <= hi * (1 + BASELINE_BAND)
            note = "reproduced" if ok else f"NOT reproduced (outside +-{BASELINE_BAND:.0%})"
        rows.append({"stage": stage, "op": f"{workload}/{label}",
                     "roadmap_s": None if span is None else list(span),
                     "measured_s": measured, "note": note})
    return rows


def known_defects(results):
    lines = []
    deep = results.get(("deep_lemmas", 0))
    if deep:
        za = sorted({f"{f['subject']} {f['outcome']}" for f in deep["failed_ops"]
                     if f["known_defect"]})
        lines.append(f"deep_lemmas zero_adjust: {', '.join(za) or 'no failure'}; "
                     f"failed_ops_ratio {deep['failed_ops_ratio']:.4g}")
    conv = results.get(("converse", 1))
    if conv:
        lines.append(f"converse envelope.cap_hits {conv['per_layer']['envelope.cap_hits']:g}")
    grid = results.get(("cli_grid", 1))
    if grid:
        shares = ", ".join(f"K={k}: {share:.4g}" for k, share in grid["sandwich_shares_by_k"])
        lines.append(f"cli_grid share of construction intervals holding a sandwich "
                     f"radius: {shares}")
    return lines


# -- self-check ----------------------------------------------------------------------


def run_selfcheck(args):
    """Each workload once at tiny size, plain and traced, then a tampered
    state that the lemma verifier must reject."""
    lw = load_logweight()
    import tracing
    import workloads
    ok = True
    for name in WORKLOAD_NAMES:
        setup, iterate = workloads.WORKLOADS[name]
        runner = Runner()
        workdir = make_workdir(name)
        try:
            ctx = setup(args.seed, "tiny", workdir)
            runner.iteration(iterate, ctx)
            runner.tracer = tracing.Tracer()
            runner.tracer.install()
            try:
                runner.iteration(iterate, ctx)
            finally:
                runner.tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        same = runner.iterations[0]["digest"] == runner.iterations[1]["digest"]
        good = not runner.unexpected and same
        ok &= good
        print(f"{name}: {runner.attempted} ops, {len(runner.failures)} failed "
              f"({len(runner.unexpected)} unexpected), traced report digest "
              f"{'matches' if same else 'DIFFERS'}: {'ok' if good else 'FAIL'}")
        for f in runner.unexpected:
            print(f"  unexpected {f['outcome']!r} (expected {f['expected']!r}) at "
                  f"{f['stage']}:{f['subject']}")

    # Line 3's log a lowered by 4: the chord gate (k = 1 and K) still
    # passes, so only the lemma checks can see it.
    w = lw.make_weight("ramey_ullrich")
    state = lw.run_construction(w, lw.ConstructionParams(x0=workloads.X0,
                                                         t_stop=0.999999999))
    lines = list(state.lines)
    lines[2] = dataclasses.replace(lines[2], log_a=lines[2].log_a - 4.0)
    tampered = dataclasses.replace(state, lines=tuple(lines))
    runner = Runner()
    runner.iteration(lambda _, run: run.op(
        "lemmas", "tampered_ramey_ullrich", lambda: lw.verify_tangent_lemmas(tampered, w),
        expect="pass", verdict=workloads.verdict_passed), None)
    bites = [f["stage"] for f in runner.unexpected] == ["lemmas"]
    ok &= bites
    print(f"tampered state: verify_tangent_lemmas op counted as failed: "
          f"{'yes' if bites else 'NO'}")

    # The CLI-default sandwich grid is not a substitute for the lemma check.
    workdir = make_workdir("tamper")
    try:
        path = os.path.join(workdir, "state.json")
        with open(path, "w") as fh:
            json.dump(tampered.to_json_dict(), fh)
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = lw.cli.main(["verify", "sandwich", "--family", "ramey_ullrich",
                              "--state", path])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"tampered state: CLI-default verify sandwich exits {rc} "
          f"({'does not catch' if rc == 0 else 'catches'} the tamper)")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true",
                      help="run every workload plain and traced, print all metrics")
    mode.add_argument("--selfcheck", action="store_true",
                      help="tiny sizes: every op once, and a tampered state")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="summary file of --all")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return run_setup_probe(args)
    if args.all:
        return run_all(args)
    if args.selfcheck:
        return run_selfcheck(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
