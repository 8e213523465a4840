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
    SweepConfig,
    parse_grid,
    run_sweep,
    study_tables,
)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused for every call.

    Reuse is safe: parsing leaves the parser unchanged, and each repeatable
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
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="Werner reconstruction tolerance")
    add_common(sp)

    vp = add_command("verify", "recompute and check every headline claim")
    vp.add_argument("--filter-budget", type=int, default=101,
                    help="grid points per filter-ratio axis")
    add_common(vp, analysis_only=False)

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
    cp.add_argument("--samples", type=int, default=64)
    add_common(cp)

    tp = add_command("study", "write the four summary tables as CSV files")
    tp.add_argument("--out-dir", default="study_out")
    tp.add_argument("--xi-points", type=int, default=25)
    tp.add_argument("--filter-budget", type=int, default=41)
    tp.add_argument("--samples", type=int, default=64)
    return ap


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
    cfg = SweepConfig(
        xi_grid=xi_grid,
        alpha_sq_grid=a2_grid,
        quantities=tuple(args.quantity or ()),
        analysis_only=args.analysis_only,
        werner_tol=args.tol,
    )
    emit_rows(run_sweep(cfg), args.format, args.out)
    return 0


def _cmd_verify(args):
    _require_at_least("--filter-budget", args.filter_budget, 1)
    results = claims_mod.verify_claims(filter_budget=args.filter_budget)
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
    return 1 if claims_mod.has_failures(results) else 0


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
    rep = universality_report(p, MachineKind(args.kind), args.samples)
    table = {"xi": [args.xi], "kind": [args.kind], "samples": [args.samples],
             "min_fidelity": [rep.min_fidelity], "max_fidelity": [rep.max_fidelity],
             "spread": [rep.spread]}
    emit_rows(table, args.format, args.out)
    return 0


def _cmd_study(args):
    _require_at_least("--xi-points", args.xi_points, 1)
    _require_at_least("--filter-budget", args.filter_budget, 1)
    _require_at_least("--samples", args.samples, 2)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = study_tables(args.xi_points, args.filter_budget, args.samples)
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
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OutOfRangeError, GramNotPSDError, analysis.RangeUndefinedError,
            analysis.NoCrossingError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
