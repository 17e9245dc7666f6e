"""Command-line interface.

Commands: check-law (BB-graph and cyclic-monotonicity screens), reconstruct
(max-affine potential from cyclically monotone samples), build (CSV probe
table of an infimum bipotential), verify (axiom, coverage, and BIC reports),
demo (named end-to-end scenarios). Reports are JSON on standard output with
sorted keys; diagnostics go to standard error. Exit codes: 0 success, 1
parse or usage error, 2 a mathematical check failed, 3 analytic mode on a
tabulated cover.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .bipotentials import (
    AnalyticFormUnavailableError,
    BInfinityBipotential,
    _embed_stack,
    build_inf,
    certify,
    verify_axioms,
)
from .convex import MaxAffine
from .covers import GRID_TOL, ClosedInterval, Cover, TabulatedFamily
from .demos import DEMO_NAMES, demo_setup, run_demo
from .formats import (
    FormatError,
    csv_header,
    dumps,
    function_to_data,
    load_cover,
    load_law,
    probe_rows,
)
from .laws import NotCyclicallyMonotoneError, bb_check, cyclic_monotonicity_check
from .laws import rockafellar_reconstruct
from .numerics import DEFAULT_TOL, ensure_tol


class CLIError(Exception):
    """Usage or input error; reported on standard error with exit code 1."""


def _parse_grid_spec(spec, what):
    fields = spec.split(":")
    if len(fields) != 3:
        raise CLIError(f"{what} must be lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
    except ValueError:
        raise CLIError(f"{what} must be lo:hi:count with numeric parts, got {spec!r}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise CLIError(f"{what} needs finite lo <= hi, got {spec!r}")
    if count < 2:
        raise CLIError(f"{what} needs at least 2 points, got {count}")
    with np.errstate(over="ignore", invalid="ignore"):
        # hi - lo can overflow even when both ends are finite
        nodes = np.linspace(lo, hi, count)
    if not np.isfinite(nodes).all():
        raise CLIError(f"{what} nodes must be finite, got {spec!r}")
    return nodes


def _probe_stacks(dim, spec):
    """The grid's nodes as primal and dual probes, placed on the axes that
    :func:`embed_primal` and :func:`embed_dual` use."""
    g = _parse_grid_spec(spec, "--probe-grid")
    return _embed_stack(g, dim), _embed_stack(g, dim, dual=True)


def _apply_lambda_grid(cover, spec):
    if spec is None:
        return cover
    if not isinstance(cover.domain, ClosedInterval):
        raise CLIError("--lambda-grid applies only to interval parameter domains")
    g = _parse_grid_spec(spec, "--lambda-grid")
    dom = cover.domain
    try:
        new_dom = ClosedInterval(dom.lo, dom.hi,
                                 includes_infinity=dom.includes_infinity,
                                 grid_points=g.size,
                                 grid_lo=float(g[0]), grid_hi=float(g[-1]))
    except ValueError as exc:
        raise CLIError(f"--lambda-grid: {exc}") from exc
    return Cover(new_dom, cover.family)


def _load(loader, path):
    """``loader(path)``, a file error becoming a :class:`CLIError` with its text."""
    try:
        return loader(path)
    except (FormatError, ValueError, OSError) as exc:
        raise CLIError(str(exc)) from exc


def _emit(data):
    print(dumps(data))


# ---------------------------------------------------------------------------
# commands


def cmd_check_law(args):
    law = _load(load_law, args.law)
    bb = bb_check(law, tol=args.tol)
    cyc = cyclic_monotonicity_check(law, tol=args.tol)
    _emit({"bb_report": bb, "cycle_report": cyc})
    return 0 if bb.is_bb_graph else 2


def cmd_reconstruct(args):
    law = _load(load_law, args.law)
    if not 0 <= args.base < len(law):
        raise CLIError(f"--base {args.base} out of range for {len(law)} samples")
    try:
        phi = rockafellar_reconstruct(law, base=args.base, tol=args.tol)
    except NotCyclicallyMonotoneError as exc:
        _emit({"error": "not-cyclically-monotone",
               "witness_cycle": list(exc.report.witness_cycle),
               "cycle_sum": exc.report.cycle_sum})
        print(str(exc), file=sys.stderr)
        return 2
    # pieces by slope, coordinate by coordinate, then by offset
    order = np.lexsort((phi.offsets, *phi.slopes.T[::-1]))
    _emit({**function_to_data(MaxAffine(phi.slopes[order], phi.offsets[order])),
           "dimension": law.dim, "base_index": args.base})
    return 0


def cmd_build(args):
    cover = _apply_lambda_grid(_load(load_cover, args.cover), args.lambda_grid)
    b = build_inf(cover, mode=args.mode)
    xs, ys = _probe_stacks(cover.dim, args.probe_grid)
    sys.stdout.write("\n".join([csv_header(cover.dim), *probe_rows(b, xs, ys), ""]))
    return 0


def _verify_law(law, tol):
    tol = DEFAULT_TOL if tol is None else tol
    reports = {}
    bb = bb_check(law, tol=tol)
    reports["bb_report"] = bb
    reports["cycle_report"] = cyclic_monotonicity_check(law, tol=tol)
    ok = bb.is_bb_graph
    if ok:
        b = BInfinityBipotential(law)
        xs = np.array(law.domain())
        ys = np.array(law.image())
        axioms = verify_axioms(b, xs, ys, tol=tol)
        reports["axioms"] = axioms
        ok &= axioms.is_bipotential
    return reports, ok


def _refuse_ignored(args, branch, names):
    given = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]
    if given:
        raise CLIError(f"verify {branch} does not take {', '.join(given)}")


def cmd_verify(args):
    if args.demo is not None:
        _refuse_ignored(args, "--demo",
                        ("cover", "law", "mode", "tol", "probe_grid", "lambda_grid"))
        setup = demo_setup(_demo_name(args.demo))
        cover, law, mode, tol = setup["cover"], setup["law"], setup["mode"], setup["tol"]
        xs, ys = setup["x_probes"], setup["y_probes"]
    elif args.cover is not None:
        cover = _apply_lambda_grid(_load(load_cover, args.cover), args.lambda_grid)
        law = _load(load_law, args.law) if args.law is not None else None
        if law is not None and law.dim != cover.dim:
            raise CLIError(f"cover dimension {cover.dim} != law dimension {law.dim}")
        mode = args.mode or ("grid" if isinstance(cover.family, TabulatedFamily)
                             else "analytic")
        tol = args.tol
        if tol is None:
            tol = GRID_TOL if mode == "grid" else DEFAULT_TOL
        xs, ys = _probe_stacks(cover.dim, args.probe_grid or "-2:2:21")
    elif args.law is not None:
        _refuse_ignored(args, "--law without --cover", ("mode", "probe_grid", "lambda_grid"))
        reports, ok = _verify_law(_load(load_law, args.law), args.tol)
        _emit(reports)
        return 0 if ok else 2
    else:
        raise CLIError("verify needs --cover, --law, or --demo")
    report = certify(cover, xs, ys, law=law, mode=mode, tol=tol)
    _emit(report.reports())
    return 0 if report.ok else 2


def _demo_name(name):
    """``name`` when it names a demo; otherwise a usage error."""
    if name not in DEMO_NAMES:
        raise CLIError(f"unknown demo {name!r}; known: {', '.join(DEMO_NAMES)}")
    return name


def cmd_demo(args):
    out_dir = args.out_dir or f"bipotkit-demo-{args.name}"
    return run_demo(_demo_name(args.name), out_dir, sys.stdout)


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="bipotkit",
        description="Bipotential toolkit: sampled laws, convex lagrangian "
                    "covers, and the constructions between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-law", help="BB-graph and cyclic-monotonicity screens")
    p.add_argument("law", help="law graph JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_check_law)

    p = sub.add_parser("reconstruct", help="max-affine potential from samples")
    p.add_argument("law", help="law graph JSON file")
    p.add_argument("--base", type=int, default=0,
                   help="sample index normalized to value zero")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("build", help="CSV probe table of the cover's bipotential")
    p.add_argument("cover", help="cover JSON file")
    p.add_argument("--mode", choices=("analytic", "grid"), default="analytic")
    p.add_argument("--probe-grid", default="-2:2:41", metavar="LO:HI:COUNT")
    p.add_argument("--lambda-grid", default=None, metavar="LO:HI:COUNT")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="axiom, coverage, and BIC reports")
    p.add_argument("--cover", default=None, help="cover JSON file")
    p.add_argument("--law", default=None, help="law graph JSON file")
    p.add_argument("--demo", default=None, help="named demo setup")
    p.add_argument("--mode", choices=("analytic", "grid"), default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--probe-grid", default=None, metavar="LO:HI:COUNT",
                   help="with --cover (default -2:2:21)")
    p.add_argument("--lambda-grid", default=None, metavar="LO:HI:COUNT")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("demo", help="end-to-end scenario with artifacts")
    p.add_argument("name", help="|".join(DEMO_NAMES))
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_demo)

    return parser


_GRID_FLAGS = ("--probe-grid", "--lambda-grid")


def _join_grid_flags(argv):
    # lets "--probe-grid -2:2:41" survive argparse, which would otherwise
    # read the leading dash as a new option
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GRID_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and ":" in argv[i + 1]:
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_grid_flags(list(argv)))
    try:
        if getattr(args, "tol", None) is not None:
            # the library's rule; argparse would exit 2 on a bad value, the
            # code of a failed check
            ensure_tol(args.tol, "--tol", CLIError)
        return args.fn(args)
    except (CLIError, AnalyticFormUnavailableError) as exc:
        print(str(exc), file=sys.stderr)
        return 3 if isinstance(exc, AnalyticFormUnavailableError) else 1


if __name__ == "__main__":
    sys.exit(main())
