"""Deterministic CSV/JSON emission of sweep tables and claim reports.

Numbers are written with 17 significant digits so files round-trip to the
exact float64 values; output is fully deterministic (no timestamps).
"""

import csv
import io
import json
import math
import sys
from dataclasses import asdict


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def rows_to_csv(rows, fieldnames):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: _fmt(r[k]) for k in fieldnames})
    return buf.getvalue()


def rows_to_json(rows, fieldnames):
    data = [{k: _jsonable(r[k]) for k in fieldnames} for r in rows]
    return json.dumps(data, indent=2) + "\n"


def emit_rows(rows, fieldnames, fmt, destination):
    """Write rows as CSV or JSON to a path, or stdout when destination is '-'."""
    if fmt == "csv":
        text = rows_to_csv(rows, fieldnames)
    elif fmt == "json":
        text = rows_to_json(rows, fieldnames)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if destination == "-":
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write report to {destination}: {e}") from e


def claims_to_rows(claims):
    return [asdict(c) for c in claims]


CLAIM_FIELDS = ["claim_id", "description", "expected", "computed", "tolerance", "verdict"]
SWEEP_FIELDS = ["xi", "alpha_sq", "quantity", "value"]
