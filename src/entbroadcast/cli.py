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
    """The top parser and each command's option table by name, built on
    first use and reused for every call.

    A table maps each option string of the command to the ``Action`` that
    ``add_argument`` returned and the ``action=`` kind it was given ("store",
    "append" or "store_true"). Reuse is safe: parsing leaves the parsers
    unchanged, and each repeatable option defaults to None, so every call
    starts a new list.
    """
    ap = argparse.ArgumentParser(
        prog="entbroadcast",
        description="Numerical laboratory for entanglement broadcasting with "
                    "tunable universal cloners.",
        allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    tables = {}

    def add_command(name, help):
        """The function that adds an option to the new command and records it
        in the command's table."""
        # allow_abbrev=False: an option is spelled in full, so "study --out"
        # is an error and not "--out-dir"
        parser = sub.add_parser(name, help=help, allow_abbrev=False)
        table = tables[name] = {}

        def add(*option_strings, action="store", **kwargs):
            recorded = parser.add_argument(*option_strings, action=action, **kwargs)
            table.update(dict.fromkeys(recorded.option_strings, (recorded, action)))
        return add

    def add_common(add, analysis_only=True):
        add("--format", choices=["csv", "json"], default="csv")
        add("--out", default="-", help="output path, or - for stdout")
        if analysis_only:
            add("--analysis-only", action="store_true",
                help="permit xi outside the machine's admissible range")

    sweep = add_command("sweep", "evaluate quantities over an (xi, alpha^2) grid")
    sweep("--xi", type=float, action="append", default=None)
    sweep("--xi-grid", help="lo:hi:n")
    sweep("--alpha-sq", type=float, action="append", default=None)
    sweep("--alpha-grid", help="alpha^2 grid, lo:hi:n")
    sweep("--quantity", action="append", choices=list(analysis.QUANTITIES),
          help="repeatable; at least one required")
    add_common(sweep)

    add_common(add_command("verify", "recompute and check every headline claim"),
               analysis_only=False)

    boundary = add_command("boundary", "bisect a PPT boundary in alpha^2")
    boundary("--xi", type=float, required=True)
    boundary("--target", choices=["nonlocal", "local"], default="nonlocal")
    boundary("--side", choices=["lower", "upper", "both"], default="both")
    boundary("--tol", type=float, default=1e-10,
             help="width of the final bisection bracket, not a bound on the error")
    add_common(boundary)

    audit = add_command("clone-audit", "clone-fidelity universality report")
    audit("--xi", type=float, required=True)
    audit("--kind", choices=[k.value for k in MachineKind],
          default=MachineKind.LITERAL_2D.value)
    audit("--samples", type=int, default=64,
          help="echoed in the samples column; the audit is exact and does not use it")
    add_common(audit)

    study = add_command("study", "write the four summary tables as CSV files")
    study("--out-dir", default="study_out")
    study("--xi-points", type=int, default=25)
    return ap, tables


@functools.cache
def _defaults(command):
    """The top parser's namespace values for ``command`` before any option is
    read. Every default is immutable, a repeatable option's being None, so a
    shallow copy per call shares nothing that a call can change."""
    _, tables = _build_parser()
    values = {"command": command}
    values.update((action.dest, action.default) for action, _ in tables[command].values())
    return values


def _read_options(command, table, args):
    """The top parser's namespace for ``[command, *args]``, read in one pass
    when ``args`` holds only options of the command's table, each spelled in
    full and, unless a flag, followed by a value that is "-" or does not
    start with "-" and that the option's type and choices take, with every
    required option given. None for any other ``args``."""
    values = _defaults(command).copy()
    seen = set()
    tokens = iter(args)
    for token in tokens:
        action, kind = table.get(token, (None, None))
        if action is None:
            return None
        if kind == "store_true":
            values[action.dest] = True
            seen.add(action)
            continue
        value = next(tokens, "--")  # no value: handed over, as "--" is
        if value.startswith("-") and value != "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        if kind == "append":
            if action not in seen:
                values[action.dest] = list(values[action.dest] or ())
            values[action.dest].append(value)
        else:
            values[action.dest] = value
        seen.add(action)
    if not all(action in seen for action, _ in table.values() if action.required):
        return None
    namespace = argparse.Namespace()
    vars(namespace).update(values)  # a third of the time of Namespace(**values)
    return namespace


def _parse_args(argv):
    """The namespace of the top parser's parse_args(argv), from one parse.

    A call made of a command and only its options, as ``_read_options``
    takes them, is read in one pass over argv; the top parser reads any
    other argv, and alone gives usage text, help and every usage error.
    """
    top, tables = _build_parser()
    args = None
    if argv and argv[0] in tables:
        args = _read_options(argv[0], tables[argv[0]], argv[1:])
    return top.parse_args(argv) if args is None else args


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
    lines = [f"[{c.verdict}] {c.claim_id}: expected {c.expected:.12g}, "
             f"computed {c.computed:.12g} (tol {c.tolerance:g})\n" for c in results]
    discrepancies = [c for c in results if c.verdict == claims_mod.DISCREPANCY]
    if discrepancies:
        lines.append("warning: documented discrepancies between the two machine readings:\n")
        lines.extend(f"  {c.claim_id}: {c.description}\n" for c in discrepancies)
    sys.stderr.write("".join(lines))
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


_KINDS = {k.value: k for k in MachineKind}  # --kind's choices, so every value is a key


def _cmd_clone_audit(args):
    _require_at_least("--samples", args.samples, 2)
    p = (analysis_parameter if args.analysis_only else make_cloner_parameter)(args.xi)
    rep = universality_report(p, _KINDS[args.kind])
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
