"""Command-line front end: run scenarios, list the built-ins, trace a
single trajectory to CSV.

Exit codes: 0 all checks passed, 1 a check failed or the computation
errored on valid input, 2 the input itself was malformed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .errors import HeismodError, ScenarioError
from .foliation import trace_trajectory
from .heis import HPoint, legendrian_residual
from .qdiff import QuadDiff
from .scenarios import list_scenarios, load_scenario, run_scenario


def _write_report_json(report, stream):
    json.dump(report.to_json_dict(), stream, indent=2, sort_keys=True)
    stream.write("\n")


def _out_of_range(opts) -> bool:
    """Report the first (flag, value, lo, hi) whose value lies outside
    the open interval (lo, hi), NaN included; True if there is one."""
    for flag, v, lo, hi in opts:
        if v is not None and not lo < v < hi:
            print(f"error: {flag} must be in ({lo:g}, {hi:g}), got {v!r}",
                  file=sys.stderr)
            return True
    return False


def _unwritable(opts) -> bool:
    """Report the first (flag, path) whose path is a directory or a file
    this process may not create or write; True if there is one."""
    for flag, path in opts:
        folder = os.path.dirname(os.path.abspath(path or "."))
        target = path if path and os.path.exists(path) else folder
        if path and (os.path.isdir(path) or not os.path.isdir(folder)
                     or not os.access(target, os.W_OK)):
            print(f"error: cannot write {flag} {path}", file=sys.stderr)
            return True
    return False


def _cmd_run(args) -> int:
    if _out_of_range((("--tol", args.tol, 0.0, 1.0),
                      ("--rk-tol", args.rk_tol, 0.0, 1.0))) or _unwritable(
                          (("--report", args.report), ("--csv", args.csv))):
        return 2
    try:
        scn = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(scn, quad_tol=args.tol, rk_tol=args.rk_tol,
                              override_b2_check=args.override_b2_check)
    except HeismodError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.report:
        with open(args.report, "w") as fh:
            _write_report_json(report, fh)
        mod = report.to_json_dict()["modulus"]
        print(f"scenario {report.name}: modulus="
              f"{'n/a' if mod is None else repr(mod)}")
        for row in report.checks:
            print(f"  [{'PASS' if row['pass'] else 'FAIL'}] "
                  f"{row['name']}: value={row['value']:.6e} "
                  f"threshold={row['threshold']:.1e}")
    else:
        _write_report_json(report, sys.stdout)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tol", "value"])
            w.writerows(report.convergence)
    return 0 if report.passed else 1


def _cmd_list(_args) -> int:
    for name in list_scenarios():
        print(name)
    return 0


def _parse_start(text: str) -> HPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("start must be 're,im,t'")
    x, y, t = (float(p) for p in parts)
    return HPoint(complex(x, y), t)


def _cmd_trace(args) -> int:
    if _out_of_range((("--rk-tol", args.rk_tol, 0.0, 1.0),
                      ("--max-length", args.max_length, 0.0, math.inf))) \
            or _unwritable((("--csv", args.csv),)):
        return 2
    try:
        q = QuadDiff.from_string(args.q)
        start = _parse_start(args.start)
    except (HeismodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        path = trace_trajectory(q, start, args.orientation, args.rk_tol,
                                max_length=args.max_length)
    except HeismodError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["s", "re_z", "im_z", "t", "leg_residual"])
        for s, pt, tan in path.samples:
            w.writerow([repr(s), repr(pt.z.real), repr(pt.z.imag),
                        repr(pt.t), repr(legendrian_residual(pt.z, tan))])
    finally:
        if args.csv:
            out.close()
    print(f"traced {len(path.samples)} samples, stop: {path.stop_reason}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heismod",
        description="Moduli of legendrian curve families from quadratic "
                    "differentials")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or built-in")
    run.add_argument("scenario",
                     help="path to a scenario JSON or a built-in name")
    run.add_argument("--tol", type=float, default=None,
                     help="override the scenario quadrature tolerance")
    run.add_argument("--rk-tol", type=float, default=None,
                     help="override the tracer tolerance")
    run.add_argument("--report", help="write the JSON report here")
    run.add_argument("--csv", help="write the convergence table here")
    run.add_argument("--override-b2-check", action="store_true",
                     help="demote the B2 kernel gate to a warning")
    run.set_defaults(fn=_cmd_run)

    ls = sub.add_parser("list-scenarios", help="list built-in scenarios")
    ls.set_defaults(fn=_cmd_list)

    tr = sub.add_parser("trace", help="trace one horizontal trajectory")
    tr.add_argument("--q", required=True, help="differential expression")
    tr.add_argument("--start", required=True, help="start point 're,im,t'")
    tr.add_argument("--orientation", type=int, choices=(1, -1), default=1)
    tr.add_argument("--rk-tol", type=float, default=1e-9)
    tr.add_argument("--max-length", type=float, default=10.0)
    tr.add_argument("--csv", help="write the trace here (default stdout)")
    tr.set_defaults(fn=_cmd_trace)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
