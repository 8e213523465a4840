"""Command-line outputs locked against the golden files in ``tests/golden/``.

Each case runs ``entbroadcast.cli.main`` in-process and compares what it
writes with the stored file: numbers within GOLDEN_ABS_TOL, every other field
(headers, claim ids, descriptions, verdicts, keys, row counts) exactly.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from entbroadcast.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Fixed when the golden files were added. Never widen it: a change that needs
# a looser tolerance changes the program's results.
GOLDEN_ABS_TOL = 1e-12

_QUANTITIES = []
for _q in ("pptNonlocal", "pptLocal", "bellM", "fidelity", "wernerX"):
    _QUANTITIES += ["--quantity", _q]

_SWEEP = ["sweep", "--xi-grid", "0.15:0.5:8", "--alpha-grid", "0:1:5", *_QUANTITIES]

CASES = {
    "verify.csv": ["verify"],
    "verify.json": ["verify", "--format", "json"],
    "sweep.csv": _SWEEP,
    "sweep.json": [*_SWEEP, "--format", "json"],  # nan wernerX is written as null
    "boundary_nonlocal.json": ["boundary", "--xi", "0.1666666666666667",
                               "--target", "nonlocal", "--format", "json"],
    "boundary_local.json": ["boundary", "--xi", "0.2", "--target", "local",
                            "--format", "json"],
    "clone_audit_literal.json": ["clone-audit", "--xi", "0.2", "--kind", "Literal2D",
                                 "--format", "json"],
    "clone_audit_abstract.json": ["clone-audit", "--xi", "0.3", "--kind", "AbstractBH",
                                  "--format", "json"],
}
STUDY_TABLES = ("ranges.csv", "quality.csv", "filtering.csv", "cloners.csv")


def _as_number(v):
    if isinstance(v, bool) or v is None:
        return None
    if isinstance(v, (int, float)):
        return float(v)
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _assert_same(got, want, where):
    g, w = _as_number(got), _as_number(want)
    if g is not None and w is not None:
        ok = (math.isnan(g) and math.isnan(w)) or abs(g - w) <= GOLDEN_ABS_TOL
        assert ok, f"{where}: {got!r} vs golden {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys"
        for k in want:
            _assert_same(got[k], want[k], f"{where}.{k}")
    else:
        assert got == want, f"{where}: {got!r} vs golden {want!r}"


def _load(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return list(csv.reader(text.splitlines()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    _assert_same(_load(out), _load(GOLDEN / name), name)


def test_study_tables_match_golden(tmp_path):
    assert main(["study", "--out-dir", str(tmp_path)]) == 0
    for name in STUDY_TABLES:
        _assert_same(_load(tmp_path / name), _load(GOLDEN / "study" / name), name)
