"""Command-line front end: run constructions, verifications, and emit
machine-readable reports.

One binary, subcommand style.  Reports are JSON on stdout unless --out is
given; human summaries go to stderr.  Exit codes: 0 verification passed,
1 a verified bound failed, 2 input or precondition error.  All commands
are deterministic given their flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .ball_extension import (_BUILTIN_FAMILIES, ball_lower_bound_check,
                             build_ball_functions, verify_family)
from .construction import (ConstructionParams, ConstructionState,
                           check_state_matches, run_construction,
                           verify_tangent_lemmas)
from .envelope import (GAP_BOUND, hadamard_check, log_convex_envelope,
                       polynomial_callable, random_polynomials)
from .series import _sandwich_blocks, sandwich_check, split_parity
from .weight_model import WeightFunction, make_weight, weight_from_spec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EMIT_HEADER = "t,theta,log_g1_abs,log_g2_abs,log_sum,log_omega,lower_margin,upper_margin\n"


def render_json(obj, indent: int = 0) -> str:
    """JSON with floats rendered to 17 significant digits (round-trip
    exact for float64), so repeated runs are byte-identical."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return json.dumps(str(obj))
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _write(chunks, out_path):
    """Write the text chunks to out_path, or to stdout when it is not given."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _report(args, report: dict, passed: bool, summary: str) -> int:
    """Write the report's JSON to --out, or to stdout when it is not given,
    print the summary to stderr and return the exit code."""
    _write([render_json(report) + "\n"], args.out)
    print(summary, file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


def _load_weight(args) -> WeightFunction:
    if args.weight:
        with open(args.weight) as fh:
            return weight_from_spec(json.load(fh))
    if not args.family:
        raise ValueError("give --family (with optional --params) or --weight")
    params = [float(p) for p in args.params.split(",") if p != ""]
    return make_weight(args.family, params)


def _load_inputs(args) -> tuple:
    """(weight, state) from the weight flags and --state, after checking
    that the state was built for that weight."""
    w = _load_weight(args)
    with open(args.state) as fh:
        state = ConstructionState.from_json_dict(json.load(fh))
    check_state_matches(state, w)
    return w, state


def _t_grid(args, state: ConstructionState) -> np.ndarray:
    """--t-points radii evenly spaced over (--t-min, --t-max], which default
    to the state's (t0, t_last]; no radius when --t-points <= 0."""
    t_min = args.t_min if args.t_min is not None else state.t0
    t_max = args.t_max if args.t_max is not None else state.t_last
    return np.linspace(t_min, t_max, max(args.t_points, 0) + 1)[1:]


def cmd_construct(args) -> int:
    w = _load_weight(args)
    if args.x0 is None and not 0.0 < args.t0 < 1.0:
        raise ValueError(f"--t0 must lie in (0, 1), got {args.t0}")
    x0 = args.x0 if args.x0 is not None else math.log(args.t0)
    params = ConstructionParams(x0=x0, h=args.h, k_max=args.k_max,
                                t_stop=args.t_stop, auto_restart=args.auto_restart)
    state = run_construction(w, params)
    return _report(args, state.to_json_dict(), True,
                   f"constructed {len(state.lines)} lines, t range "
                   f"({state.t0:.17g}, {state.t_last:.17g}]")


def cmd_verify_sandwich(args) -> int:
    w, state = _load_inputs(args)
    report = sandwich_check(split_parity(state), w, _t_grid(args, state),
                            theta_count=args.angles)
    return _report(args, report.to_json_dict(), report.passed,
                   f"sandwich {'passed' if report.passed else 'FAILED'}: lower margin "
                   f"{report.lower_margin:.3e}, upper margin {report.upper_margin:.3e}")


def cmd_verify_lemmas(args) -> int:
    w, state = _load_inputs(args)
    report = verify_tangent_lemmas(state, w, samples_per_interval=args.samples,
                                   delta=args.delta)
    worst = min((c.worst_margin for c in report.checks), default=math.inf)
    return _report(args, report.to_json_dict(), report.passed,
                   f"lemmas {'passed' if report.passed else 'FAILED'}: "
                   f"worst margin {worst:.3e}, {report.basis} basis")


def cmd_verify_hadamard(args) -> int:
    polys = random_polynomials(args.random_polys, args.max_degree, args.seed)
    r_grid = np.geomspace(args.r_min, args.r_max, args.r_points)
    report = hadamard_check([polynomial_callable(c) for c in polys], r_grid)
    return _report(args, report.to_json_dict(), report.passed,
                   f"hadamard {'passed' if report.passed else 'FAILED'}: "
                   f"min second difference {report.min_second_diff:.3e}, "
                   f"{report.basis} basis (log width {report.log_bracket_width:.3g})")


def cmd_verify_envelope(args) -> int:
    w = _load_weight(args)
    x_grid = np.linspace(args.x_min, args.x_max, args.x_points)
    result = log_convex_envelope(w, x_grid, gap_bound=args.gap_bound)
    return _report(args, result.to_json_dict(), result.equivalent,
                   f"envelope gap {result.gap:.6g} "
                   f"({'equivalent' if result.equivalent else 'NOT equivalent'} to a "
                   "log-convex weight at this bound)")


def cmd_verify_ball(args) -> int:
    w, state = _load_inputs(args)
    fam = _BUILTIN_FAMILIES[args.poly_family]()
    if args.delta is not None:
        fam = dataclasses.replace(fam, delta_claimed=args.delta)
    fam_report = verify_family(fam, args.degrees or list(state.es),
                               sphere_samples=args.sphere_samples, seed=args.seed)
    if not fam_report.passed:
        return _report(args, fam_report.to_json_dict(), False,
                       "family conditions FAILED; see report")
    system = build_ball_functions(state, fam, family_report=fam_report)
    report = ball_lower_bound_check(system, w, _t_grid(args, state),
                                    sphere_samples=args.sphere_samples,
                                    seed=args.seed)
    return _report(args, {"family": fam_report.to_json_dict(),
                          "lower_bound": report.to_json_dict()}, report.passed,
                   f"ball lower bound {'passed' if report.passed else 'FAILED'}: "
                   f"margin {report.lower_margin:.3e}, C = {report.c_measured:.6g}")


def _emit_rows(t_grid, thetas, log_w, lo, hi, blocks):
    """The CSV text of emit, one string per radius, from the grid
    _sandwich_blocks streams: every column of every row, each value
    printed with %.17g.

    G1 and G2 have positive coefficients, so |G(conj z)| = |G(z)| and
    column N - j samples the true values of column j, N = thetas.size.
    Columns j = 0 .. N // 2 are formatted; a mirror column repeats its
    partner's text when its five values have the same bits, and is
    formatted itself otherwise.  Bits, not ==, decide, so 0.0 and -0.0
    are told apart."""
    n = thetas.size
    half = n // 2 + 1
    partners = slice(n - half, 0, -1)  # n - j for the columns j = half .. n - 1
    # t and log omega are formatted once per radius and theta once per
    # angle; %.17g prints as format(x, ".17g") does, inf and nan too.
    cell = "%.17g,%.17g,%.17g,{w},%.17g,%.17g"
    template = "".join("{t},%.17g,%%s\n" % th for th in thetas.tolist())
    for rows, g1, g2 in blocks:
        log_s = np.logaddexp(g1, g2)
        cells = np.stack([g1, g2, log_s, log_s - lo[rows, None], hi[rows, None] - log_s],
                         axis=2)
        bits = cells.view(np.int64)
        fresh = (bits[:, half:] != bits[:, partners]).any(axis=2)
        for r, (t, w_t) in enumerate(zip(t_grid[rows].tolist(), log_w[rows].tolist())):
            row_cell = cell.format(w="%.17g" % w_t)
            values = tuple(cells[r, :half].ravel().tolist())
            texts = ("\t".join([row_cell] * half) % values).split("\t")
            texts += texts[partners]
            for j in (half + np.flatnonzero(fresh[r])).tolist():
                texts[j] = row_cell % tuple(cells[r, j].tolist())
            yield template.format(t="%.17g" % t) % tuple(texts)


def cmd_emit(args) -> int:
    w, state = _load_inputs(args)
    t_grid = _t_grid(args, state)
    grid = _sandwich_blocks(split_parity(state), w, t_grid, args.angles)
    _write(itertools.chain([EMIT_HEADER], _emit_rows(t_grid, *grid)), args.out)
    print(f"emitted {t_grid.size * args.angles} rows", file=sys.stderr)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each command names
    its cmd_* function, which main looks up when it runs, so a function
    rebound on this module after the first call still takes effect."""
    parser = argparse.ArgumentParser(
        prog="logweight",
        description="Construct and certify lacunary series matching radial weights.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, declared once as argparse parents
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    weight = argparse.ArgumentParser(add_help=False, parents=[out])
    weight.add_argument("--family", help="builtin weight family name")
    weight.add_argument("--params", default="", help="comma-separated family parameters")
    weight.add_argument("--weight", help='JSON weight spec {"family":, "params":, "table":}')
    state = argparse.ArgumentParser(add_help=False, parents=[weight])
    state.add_argument("--state", required=True)

    def command(subparsers, name, func, parent, t_points=None, **kwargs):
        """A subcommand running `func` with the parent's flags.  --t-points
        and its range are added per command, not as a parent: parents share
        their actions, and so their defaults."""
        p = subparsers.add_parser(name, parents=[parent], **kwargs)
        p.set_defaults(func=func)
        if t_points is not None:
            p.add_argument("--t-points", type=int, default=t_points)
            p.add_argument("--t-min", type=float, default=None)
            p.add_argument("--t-max", type=float, default=None)
        return p

    pc = command(sub, "construct", "cmd_construct", weight,
                 help="run the tangent-line induction")
    pc.add_argument("--h", type=float, default=2.0)
    pc.add_argument("--t0", type=float, default=0.95)
    pc.add_argument("--x0", type=float, default=None, help="overrides --t0")
    pc.add_argument("--t-stop", type=float, default=0.9999)
    pc.add_argument("--k-max", type=int, default=500)
    pc.add_argument("--auto-restart", action="store_true")

    pv = sub.add_parser("verify", help="run a verification suite")
    vsub = pv.add_subparsers(dest="verifier", required=True)
    ps = command(vsub, "sandwich", "cmd_verify_sandwich", state, t_points=2000)
    ps.add_argument("--angles", type=int, default=256)

    pl = command(vsub, "lemmas", "cmd_verify_lemmas", state)
    pl.add_argument("--samples", type=int, default=50,
                    help="points per interval, endpoints included, for basis "
                         "'sampled'; basis 'convexity' uses the two endpoints")
    pl.add_argument("--delta", type=float, default=None)

    ph = command(vsub, "hadamard", "cmd_verify_hadamard", out)
    ph.add_argument("--random-polys", type=int, default=100)
    ph.add_argument("--seed", type=int, default=7)
    ph.add_argument("--max-degree", type=int, default=30)
    ph.add_argument("--r-points", type=int, default=64)
    ph.add_argument("--r-min", type=float, default=0.05)
    ph.add_argument("--r-max", type=float, default=0.95)

    pe = command(vsub, "envelope", "cmd_verify_envelope", weight)
    pe.add_argument("--x-points", type=int, default=2001)
    pe.add_argument("--x-min", type=float, default=-2.0)
    pe.add_argument("--x-max", type=float, default=-0.005)
    pe.add_argument("--gap-bound", type=float, default=GAP_BOUND)

    pb = command(vsub, "ball", "cmd_verify_ball", state, t_points=32)
    pb.add_argument("--poly-family", required=True, choices=list(_BUILTIN_FAMILIES))
    pb.add_argument("--delta", type=float, default=None,
                    help="override the family's claimed delta")
    pb.add_argument("--degrees", type=int, nargs="*", default=None)
    pb.add_argument("--sphere-samples", type=int, default=128)
    pb.add_argument("--seed", type=int, default=0)

    pm = command(sub, "emit", "cmd_emit", state, t_points=10,
                 help="emit a CSV of grid samples and margins")
    pm.add_argument("--angles", type=int, default=4)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[args.func]
    try:
        return command(args)
    except (ValueError, KeyError, OSError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
