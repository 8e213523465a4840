"""Command-line front end: sweeps, boundaries, cloner audits, claims report, study tables.

Exit codes: 0 success (all claim verdicts PASS or DISCREPANCY), 1 any FAIL
verdict, 2 usage or configuration error.
"""

import argparse
import functools
import math
import pathlib
import sys
from dataclasses import fields

from . import analysis, claims as claims_mod
from .analysis import (
    boundary_bisect,
    local_separable_predicate,
    nonlocal_inseparable_predicate,
)
from .cloner import (
    GramNotPSDError,
    MachineKind,
    OutOfRangeError,
    analysis_parameter,
    make_cloner_parameter,
    universality_report,
)
from .report import emit_rows
from .sweep import (
    ConfigError,
    parse_grid,
    run_sweep,
    study_tables,
)


@functools.cache
def _build_parser():
    """The top parser and each command's parser by name, built on first use
    and reused for every call.

    Reuse is safe: parsing leaves the parsers unchanged, and each repeatable
    option defaults to None, so argparse starts a new list on every call.
    """
    ap = argparse.ArgumentParser(
        prog="entbroadcast",
        description="Numerical laboratory for entanglement broadcasting with "
                    "tunable universal cloners.",
        allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        # allow_abbrev=False: an option is spelled in full, so "study --out"
        # is an error and not "--out-dir"
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_common(p, analysis_only=True):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default="-", help="output path, or - for stdout")
        if analysis_only:
            p.add_argument("--analysis-only", action="store_true",
                           help="permit xi outside the machine's admissible range")

    sp = add_command("sweep", "evaluate quantities over an (xi, alpha^2) grid")
    sp.add_argument("--xi", type=float, action="append", default=None)
    sp.add_argument("--xi-grid", help="lo:hi:n")
    sp.add_argument("--alpha-sq", type=float, action="append", default=None)
    sp.add_argument("--alpha-grid", help="alpha^2 grid, lo:hi:n")
    sp.add_argument("--quantity", action="append", choices=list(analysis.QUANTITIES),
                    help="repeatable; at least one required")
    add_common(sp)

    add_common(add_command("verify", "recompute and check every headline claim"),
               analysis_only=False)

    bp = add_command("boundary", "bisect a PPT boundary in alpha^2")
    bp.add_argument("--xi", type=float, required=True)
    bp.add_argument("--target", choices=["nonlocal", "local"], default="nonlocal")
    bp.add_argument("--side", choices=["lower", "upper", "both"], default="both")
    bp.add_argument("--tol", type=float, default=1e-10,
                    help="width of the final bisection bracket, not a bound on the error")
    add_common(bp)

    cp = add_command("clone-audit", "clone-fidelity universality report")
    cp.add_argument("--xi", type=float, required=True)
    cp.add_argument("--kind", choices=[k.value for k in MachineKind],
                    default=MachineKind.LITERAL_2D.value)
    cp.add_argument("--samples", type=int, default=64,
                    help="echoed in the samples column; the audit is exact and does not use it")
    add_common(cp)

    tp = add_command("study", "write the four summary tables as CSV files")
    tp.add_argument("--out-dir", default="study_out")
    tp.add_argument("--xi-points", type=int, default=25)
    return ap, sub.choices


def _parse_args(argv):
    """The namespace of the top parser's parse_args(argv), from one parse.

    When argv[0] names a command, its parser reads argv[1:] directly, and the
    top parser does not first read every string itself. The top parser takes
    any other argv, and re-parses one that leaves strings over, as only it
    reports them ("unrecognized arguments").
    """
    top, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return top.parse_args(argv)


def _require_at_least(flag, value, least):
    if value < least:
        raise ConfigError(f"{flag} must be >= {least}, got {value}")


def _cmd_sweep(args):
    xi_grid = tuple(args.xi or ())
    if args.xi_grid:
        xi_grid += parse_grid(args.xi_grid)
    a2_grid = tuple(args.alpha_sq or ())
    if args.alpha_grid:
        a2_grid += parse_grid(args.alpha_grid)
    emit_rows(run_sweep(xi_grid, a2_grid, tuple(args.quantity or ()), args.analysis_only),
              args.format, args.out)
    return 0


def _cmd_verify(args):
    results = claims_mod.verify_claims()
    for c in results:
        print(f"[{c.verdict}] {c.claim_id}: expected {c.expected:.12g}, "
              f"computed {c.computed:.12g} (tol {c.tolerance:g})", file=sys.stderr)
    discrepancies = [c for c in results if c.verdict == claims_mod.DISCREPANCY]
    if discrepancies:
        print("warning: documented discrepancies between the two machine readings:",
              file=sys.stderr)
        for c in discrepancies:
            print(f"  {c.claim_id}: {c.description}", file=sys.stderr)
    table = {f.name: [getattr(c, f.name) for c in results]
             for f in fields(claims_mod.ClaimResult)}
    emit_rows(table, args.format, args.out)
    return 1 if any(c.verdict == claims_mod.FAIL for c in results) else 0


def _cmd_boundary(args):
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    p = (analysis_parameter if args.analysis_only else make_cloner_parameter)(args.xi)
    if args.target == "nonlocal":
        pred = nonlocal_inseparable_predicate(p)
    else:
        pred = local_separable_predicate(p)
    sides = ["lower", "upper"] if args.side == "both" else [args.side]
    table = {"xi": [args.xi] * len(sides), "target": [args.target] * len(sides),
             "side": sides,
             "alpha_sq": [boundary_bisect(p, pred, side, tol=args.tol) for side in sides]}
    emit_rows(table, args.format, args.out)
    return 0


def _cmd_clone_audit(args):
    _require_at_least("--samples", args.samples, 2)
    p = (analysis_parameter if args.analysis_only else make_cloner_parameter)(args.xi)
    rep = universality_report(p, MachineKind(args.kind))
    table = {"xi": [args.xi], "kind": [args.kind], "samples": [args.samples],
             "min_fidelity": [rep.min_fidelity], "max_fidelity": [rep.max_fidelity],
             "spread": [rep.spread]}
    emit_rows(table, args.format, args.out)
    return 0


def _cmd_study(args):
    _require_at_least("--xi-points", args.xi_points, 1)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = study_tables(args.xi_points)
    for name, table in tables.items():
        emit_rows(table, "csv", str(out / name))
    print(f"wrote {len(tables)} tables to {out}/")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "boundary": _cmd_boundary,
    "clone-audit": _cmd_clone_audit,
    "study": _cmd_study,
}


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OutOfRangeError, GramNotPSDError, analysis.RangeUndefinedError,
            analysis.NoCrossingError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
