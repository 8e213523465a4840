import argparse
import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from entbroadcast import claims, cli
from entbroadcast.analysis import XI_NONLOCAL_MAX, Interval
from entbroadcast.cli import main
from entbroadcast.report import table_to_csv, table_to_json
from entbroadcast.sweep import QUANTITIES, ConfigError, parse_grid, run_sweep
from test_golden import CASES


class TestSweepConfig:
    def test_rejects_empty_quantities(self):
        with pytest.raises(ConfigError):
            run_sweep(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,), quantities=())

    @pytest.mark.parametrize("xi_grid, alpha_sq_grid, message", [
        ((), (0.5,), "xi grid is empty"), ((1 / 6,), (), "alpha^2 grid is empty")])
    def test_rejects_empty_grid(self, xi_grid, alpha_sq_grid, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_sweep(xi_grid=xi_grid, alpha_sq_grid=alpha_sq_grid, quantities=("bellM",))

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ConfigError):
            run_sweep(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,),
                      quantities=("negativity",))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            run_sweep(xi_grid=(1 / 6,), alpha_sq_grid=(1.5,),
                      quantities=("bellM",))

    def test_parse_grid(self):
        assert parse_grid("0:1:3") == (0.0, 0.5, 1.0)
        assert parse_grid("0.3:0.9:1") == (0.3,)
        # one point is lo itself, whatever hi is and whatever the sign of zero
        assert [math.copysign(1.0, x) for x in parse_grid("-0.0:1:1")] == [-1.0]
        assert parse_grid("0.2:nan:1") == parse_grid("0.2:inf:1") == (0.2,)
        with pytest.raises(ConfigError):
            parse_grid("0:1")
        with pytest.raises(ConfigError):
            parse_grid("0:1:0")


@pytest.mark.parametrize("flag, spec", [
    ("--xi-grid", "0.2:inf:2"), ("--alpha-grid", "0:inf:2"), ("--xi-grid", "1e308:-1e308:3"),
])
def test_non_finite_grid_is_one_error_line(flag, spec, capsys):
    """No numpy warning escapes, and the error names the spec, not a nan point."""
    argv = ["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM", flag, spec]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"error: grid spec {spec!r}: the points are not all finite\n"


def test_one_point_grid_ignores_an_infinite_end(capsys):
    assert main(["sweep", "--xi-grid", "0.2:inf:1", "--alpha-sq", "0.5",
                 "--quantity", "bellM"]) == 0
    grid = capsys.readouterr()
    assert main(["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM"]) == 0
    assert grid == capsys.readouterr()
    assert grid.err == ""


class TestRunSweep:
    def test_single_point_fidelity(self):
        table = run_sweep(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,),
                          quantities=("fidelity",))
        assert [len(grid) for grid in table.axes.values()] == [1, 1, 1]
        assert table.block.shape == (1, 1, 1)
        assert abs(table.block.item() - 13 / 18) <= 1e-12

    def test_single_point_bell_m(self):
        table = run_sweep(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,),
                          quantities=("bellM",))
        assert abs(table.block.item() - 32 / 81) <= 1e-12

    def test_row_order_is_xi_major(self):
        table = run_sweep(xi_grid=(1 / 6, 0.2), alpha_sq_grid=(0.3, 0.5),
                          quantities=("bellM", "fidelity"))
        header, *rows = csv.reader(io.StringIO(table_to_csv(table)))
        assert header == ["xi", "alpha_sq", "quantity", "value"]
        keys = [(float(xi), float(a2), q) for xi, a2, q, _ in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1]))
        assert keys == [(xi, a2, q) for xi in (1 / 6, 0.2) for a2 in (0.3, 0.5)
                        for q in ("bellM", "fidelity")]
        assert len(rows) == 8

    @pytest.mark.parametrize("xi_grid, alpha_sq_grid, quantities", [
        ((0.2,), (0.5,), ("bellM",)),
        ((1 / 6, 0.2), (0.3, 0.5, 0.7), ("bellM", "fidelity")),
        (tuple(np.linspace(0.15, 0.5, 50)), tuple(np.linspace(0.0, 1.0, 50)), QUANTITIES),
    ])
    def test_length_is_the_number_of_rows(self, xi_grid, alpha_sq_grid, quantities):
        table = run_sweep(xi_grid, alpha_sq_grid, quantities)
        assert len(table) == len(xi_grid) * len(alpha_sq_grid) * len(quantities)
        assert len(table) == table_to_csv(table).count("\n") - 1

    def test_werner_nan_off_center(self):
        table = run_sweep(xi_grid=(1 / 6,), alpha_sq_grid=(0.3,),
                          quantities=("wernerX",))
        assert math.isnan(table.block.item())


class TestEmission:
    TABLE = {"xi": [1 / 6], "alpha_sq": [0.5], "quantity": ["fidelity"],
             "value": [13 / 18]}

    def test_csv_shape(self):
        text = table_to_csv(self.TABLE)
        lines = text.splitlines()
        assert lines[0] == "xi,alpha_sq,quantity,value"
        assert len(lines) == 2
        assert text.endswith("\n")

    def test_json_empty_list(self):
        assert table_to_json({k: [] for k in self.TABLE}) == "[]\n"

    def test_csv_json_numeric_agreement(self):
        text_csv = table_to_csv(self.TABLE)
        text_json = table_to_json(self.TABLE)
        row_csv = next(csv.DictReader(text_csv.splitlines()))
        row_json = json.loads(text_json)[0]
        for k in ("xi", "alpha_sq", "value"):
            assert float(row_csv[k]) == row_json[k]

    def test_json_round_trip_exact(self):
        parsed = json.loads(table_to_json(self.TABLE))
        assert parsed[0]["value"] == 13 / 18


class TestCli:
    def test_sweep_to_stdout(self, capsys):
        rc = main(["sweep", "--xi", str(1 / 6), "--alpha-sq", "0.5",
                   "--quantity", "fidelity", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("xi,alpha_sq,quantity,value\n")
        assert abs(float(out.splitlines()[1].split(",")[-1]) - 13 / 18) <= 1e-12

    def test_sweep_grid_flags(self, tmp_path):
        dest = tmp_path / "sweep.json"
        rc = main(["sweep", "--xi-grid", "0.2:0.3:2", "--alpha-grid", "0.2:0.8:3",
                   "--quantity", "bellM", "--quantity", "fidelity",
                   "--format", "json", "--out", str(dest)])
        assert rc == 0
        data = json.loads(dest.read_text())
        assert len(data) == 2 * 3 * 2

    def test_sweep_requires_quantity(self, capsys):
        rc = main(["sweep", "--xi", "0.2", "--alpha-sq", "0.5"])
        assert rc == 2

    def test_sweep_rejects_out_of_range_xi(self, capsys):
        rc = main(["sweep", "--xi", "0.05", "--alpha-sq", "0.5",
                   "--quantity", "bellM"])
        assert rc == 2

    def test_sweep_analysis_only_permits_small_xi(self, capsys):
        rc = main(["sweep", "--xi", "0.05", "--alpha-sq", "0.5",
                   "--quantity", "bellM", "--analysis-only"])
        assert rc == 0
        val = float(capsys.readouterr().out.splitlines()[1].split(",")[-1])
        assert val > 1.0  # CHSH violation is possible below the machine range

    def test_boundary_command(self, capsys):
        rc = main(["boundary", "--xi", str(1 / 6), "--target", "nonlocal",
                   "--side", "lower"])
        assert rc == 0
        out = capsys.readouterr().out
        a2 = float(out.splitlines()[1].split(",")[-1])
        assert abs(a2 - (0.5 - math.sqrt(39) / 16)) <= 1e-8

    def test_boundary_at_a_degenerate_local_range(self, capsys):
        # the local range is the point 1/2 at xi = 1/4, where the same-site
        # eigenvalue is within rounding of 0 over a band of alpha^2: --tol
        # bounds the final bracket, and each end lies within 1e-8 of 1/2
        rc = main(["boundary", "--xi", "0.25", "--target", "local", "--format", "json"])
        assert rc == 0
        lo, hi = (rec["alpha_sq"] for rec in json.loads(capsys.readouterr().out))
        assert 0.5 - 1e-8 <= lo < 0.5 < hi <= 0.5 + 1e-8

    def test_clone_audit_command(self, capsys):
        rc = main(["clone-audit", "--xi", str(1 / 6), "--kind", "Literal2D",
                   "--samples", "16", "--format", "json"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)[0]
        assert rec["spread"] <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["sweep", "--xi-grid", "0.2:0.4:5", "--alpha-grid", "0.1:0.9:7",
         "--quantity", "fidelity"],
        ["verify"],
    ], ids=lambda argv: argv[0])
    def test_repeated_runs_byte_identical(self, argv, capsysbinary):
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append(capsysbinary.readouterr())
        assert runs[0].out and runs[0] == runs[1]  # stdout and stderr, as bytes


# (argv, declared exit code); tests/output_digest.py hashes these commands too
EXIT_CODE_CASES = [
    # usage errors of the top parser: no command, an unknown command, and an
    # option that the named command does not take
    ([], 2),
    (["bogus"], 2),
    (["boundary", "--xi", "0.2", "--bogus"], 2),
    (["clone-audit", "--xi", "0.15", "--kind", "AbstractBH"], 2),
    (["clone-audit", "--xi", "0.2", "--out", "/nonexistent/x.csv"], 2),
    (["clone-audit", "--xi", "0.2", "--samples", "1"], 2),
    # verify takes no --filter-budget, its filtering claims being exact: argparse exits 2
    (["verify", "--filter-budget", "0"], 2),
    (["boundary", "--xi", "0.2", "--tol", "0"], 2),
    (["boundary", "--xi", "0.2", "--tol", "-1"], 2),
    (["boundary", "--xi", "0.2", "--tol", "nan"], 2),
    (["boundary", "--xi", "0.2", "--tol", "1e-300"], 0),
    (["study", "--xi-points", "0"], 2),
    (["study", "--samples", "2"], 2),  # a usage error: study takes no --samples
    # study takes no --filter-budget, filtering.csv holding the exact
    # certificate: argparse exits 2, at the old default too
    (["study", "--filter-budget", "0"], 2),
    (["study", "--filter-budget", "41"], 2),
    *[(["sweep", "--analysis-only", "--xi=-0.01", "--alpha-sq", "0.3",
        "--quantity", q], 2) for q in QUANTITIES],
    (["sweep", "--analysis-only", "--xi", "0.7", "--alpha-sq", "0.3",
      "--quantity", "bellM"], 0),
    (["sweep", "--analysis-only", "--xi", "0.7", "--alpha-sq", "0.3",
      "--quantity", "pptLocal"], 2),
    # sweep takes no --tol, as wernerX is exact: argparse exits 2, at the old
    # default too
    (["sweep", "--xi", "0.2", "--alpha-sq", "0.3", "--quantity", "wernerX",
      "--tol", "1e-8"], 2),
    (["clone-audit", "--analysis-only", "--xi=-0.1"], 2),
    (["clone-audit", "--analysis-only", "--xi", "0.7"], 2),
    (["clone-audit", "--analysis-only", "--xi", "1e308", "--kind", "AbstractBH"], 2),
    (["boundary", "--xi", "0.2", "--tol", "inf"], 2),
    (["boundary", "--xi", "0.3", "--target", "local"], 2),  # no crossing
    (["boundary", "--xi", "0.2113248654051871", "--target", "nonlocal"], 2),  # no crossing
    # the bisection's edges: the same-site eigenvalue's near-zero band at xi =
    # 1/4, a bracket that stops at adjacent floats, and xi outside each state
    (["boundary", "--xi", "0.25", "--target", "local", "--format", "json"], 0),
    (["boundary", "--xi", "0.1464466094067262", "--target", "local", "--tol", "1e-300"], 0),
    (["boundary", "--analysis-only", "--xi", "1.05", "--target", "nonlocal"], 2),
    (["boundary", "--analysis-only", "--xi=-0.05", "--target", "local"], 2),
    (["boundary", "--analysis-only", "--xi", "0.6", "--target", "local"], 2),
    (["sweep", "--xi", "0.2", "--alpha-grid", "0:1:x", "--quantity", "bellM"], 2),
    (["sweep", "--alpha-sq", "0.5", "--quantity", "bellM"], 2),  # no xi
    (["sweep", "--xi", "0.2", "--quantity", "bellM"], 2),  # no alpha^2
    (["sweep", "--xi", "0.2", "--alpha-sq", "0.5"], 2),  # no quantity
    (["sweep", "--xi", "0.2", "--alpha-sq", "1.5", "--quantity", "bellM"], 2),
    *[(["sweep", "--xi-grid", grid, "--alpha-sq", "0.5", "--quantity", "bellM"], 2)
      for grid in ("0.2:0.3", "0.2:0.3:0", "0.2:inf:2")],
    (["sweep", "--xi-grid", "0.2:0.3:1", "--alpha-sq", "0.5", "--quantity", "bellM"], 0),
    # a negative xi is spelled --xi=-1e-12: argparse takes a bare -1e-12 for an option
    (["sweep", "--analysis-only", "--xi=-1e-12", "--xi", "0.5", "--xi", "0.5000000001",
      "--alpha-grid", "0:1:11", "--quantity", "pptLocal"], 0),
    (["sweep", "--analysis-only", "--xi=-1e-12", "--xi", "1e-300", "--xi", "0.5", "--xi", "1.0",
      "--alpha-grid", "0:1:11", *[t for q in ("pptNonlocal", "bellM", "fidelity", "wernerX")
                                  for t in ("--quantity", q)]], 0),
    # both signs of a zero xi: each state exists there, and the sign reaches the output
    (["sweep", "--analysis-only", "--xi=-0.0", "--xi", "0.0", "--alpha-grid", "0:1:11",
      *[t for q in QUANTITIES for t in ("--quantity", q)]], 0),
    # every class of CSV value: 1e-4 <= |v| < 1 of both signs and with trailing
    # zeros, |v| >= 1, 0 < |v| < 1e-4, zeros and nans
    (["sweep", "--analysis-only", "--xi-grid", "0:0.5:41", "--alpha-grid", "0:1:41",
      *[t for q in QUANTITIES for t in ("--quantity", q)]], 0),
    (["clone-audit", "--analysis-only", "--xi", "0"], 0),
    (["clone-audit", "--analysis-only", "--xi", "0.5", "--kind", "AbstractBH"], 0),
    (["clone-audit", "--xi", "0.2", "--samples", "64"], 0),
]


@pytest.mark.parametrize("argv, code", EXIT_CODE_CASES,
                         ids=[" ".join(argv) for argv, _ in EXIT_CODE_CASES])
def test_exit_codes_without_traceback(argv, code, capsys):
    try:
        rc, usage = main(argv), False
    except SystemExit as e:  # argparse rejects a usage error with status 2
        rc, usage = e.code, True
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if usage:  # argparse's own form: the usage, then "entbroadcast...: error: ..."
        last = err.splitlines()[-1]
        assert err.startswith("usage: entbroadcast ")
        assert last.startswith("entbroadcast") and ": error: " in last
    elif code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--xi", "inf", "--alpha-sq", "0.5", "--quantity", "bellM", "--analysis-only"],
    ["sweep", "--xi", "nan", "--alpha-sq", "0.5", "--quantity", "bellM"],
])
def test_non_finite_xi_is_reported_as_not_finite(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: xi={argv[2]} is not finite\n"


@pytest.mark.parametrize("command", ["sweep", "boundary", "clone-audit"])
def test_memory_error_is_an_input_error(command, monkeypatch, capsys):
    """A run too large for the machine's memory exits 2 with one error line."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.0 GiB for an array")

    for stage in ("run_sweep", "boundary_bisect", "universality_report"):
        monkeypatch.setattr(cli, stage, out_of_memory)
    argv = {"sweep": ["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM"],
            "boundary": ["boundary", "--xi", "0.2"],
            "clone-audit": ["clone-audit", "--xi", "0.2"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 6.0 GiB for an array\n"



def test_memory_error_in_the_writer_is_an_input_error(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.0 GiB for an array")

    monkeypatch.setattr(cli, "emit_rows", out_of_memory)
    assert main(["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM"]) == 2
    assert capsys.readouterr() == ("", "error: Unable to allocate 6.0 GiB for an array\n")

def test_verify_takes_no_analysis_only_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--analysis-only"])
    assert e.value.code == 2
    assert "unrecognized arguments: --analysis-only" in capsys.readouterr().err


def test_signed_zero_alpha_sq_keeps_its_sign(capsys):
    assert main(["sweep", "--xi", "0.2", "--alpha-sq", "-0.0", "--alpha-sq", "0.0",
                 "--quantity", "pptNonlocal"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["-0", "0"]


# -- fuzz over argument vectors ------------------------------------------------
# "TMP" in a token stands for the test's temporary directory, so that no run
# writes outside it.

FLOATS = ["nan", "inf", "-inf", "-0.0", "0", "-1", "-0.5", "-", "1e-300", "0.1", "0.15",
          "0.2", "0.25", "0.3", "0.5", "0.7", "1", "1.5", "1e308", "x"]
GRIDS = ["0:1:3", "0.2:0.3:2", "0.5:0.5:1", "1:0:2", "nan:1:2", "0:inf:2", "-1:0.5:2",
         "0:1:0", "0:1:-1", "0:1", "0:1:2.5", "a:b:c"]
COUNTS = ["-1", "0", "1", "2", "3", "1.5", "nan", "x"]  # small: keeps every run fast
OUTS = ["-", "TMP/out.csv", "TMP", "TMP/missing/out.csv", "TMP/blocker/out.csv"]
OUT_DIRS = ["TMP/study", "TMP/blocker/sub", "TMP/blocker"]
CHOICES = ["nonlocal", "local", "lower", "upper", "both", "csv", "json", "Literal2D",
           "AbstractBH", *QUANTITIES, "bogus"]
COMMON = {"--format": ["csv", "json"], "--out": OUTS}
MACHINE = {**COMMON, "--analysis-only": None}  # the commands that take an xi
FLAGS = {
    "sweep": {"--xi": FLOATS, "--xi-grid": GRIDS, "--alpha-sq": FLOATS,
              "--alpha-grid": GRIDS, "--quantity": list(QUANTITIES), **MACHINE},
    "verify": COMMON,
    "boundary": {"--xi": FLOATS, "--target": ["nonlocal", "local"],
                 "--side": ["lower", "upper", "both"], "--tol": FLOATS, **MACHINE},
    "clone-audit": {"--xi": FLOATS, "--kind": ["Literal2D", "AbstractBH"],
                    "--samples": COUNTS, **MACHINE},
    "study": {"--out-dir": OUT_DIRS, "--xi-points": COUNTS},
}
# Valid arguments to start from, so that most vectors get past argparse; a
# later flag of the same name overrides them. study always starts from them,
# so that it writes inside TMP, over two machines.
START = {"sweep": ["--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM"],
         "verify": [],
         "boundary": ["--xi", "0.2"],
         "clone-audit": ["--xi", "0.2", "--samples", "3"],
         "study": ["--xi-points", "2", "--out-dir", "TMP/study"]}
ALL_FLAGS = sorted({f for flags in FLAGS.values() for f in flags})
ALL_VALUES = sorted(set(FLOATS + GRIDS + COUNTS + CHOICES))


def one_in(draw, n):
    return draw(st.integers(1, n)) == n


@st.composite
def argvs(draw):
    """Calls of both kinds: those the one-pass reader takes, and those it
    hands to the top parser ("--opt=value", a value starting with "-", a
    stray value after a flag, an option with no value at the end, "--",
    "-h" and every foreign flag or value)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "study" or draw(st.booleans()):
        argv += START[command]
    for _ in range(draw(st.integers(0, 5))):
        if one_in(draw, 8):
            argv.append(draw(st.sampled_from(["--", "-h"])))
        # one flag or value in four from outside the command's own vocabulary
        flag = draw(st.sampled_from(ALL_FLAGS if one_in(draw, 4) else sorted(FLAGS[command])))
        own = FLAGS[command].get(flag, MACHINE.get(flag, FLOATS))
        if flag in ("--out", "--out-dir"):
            # paths stay inside TMP; study writes a directory, so it gets one
            value = draw(st.sampled_from(OUT_DIRS if command == "study" else OUTS))
        elif own is not None:
            value = draw(st.sampled_from(ALL_VALUES if one_in(draw, 4) else own))
        else:  # a flag, now and then followed by a stray value
            value = None
            argv.append(flag)
            if one_in(draw, 4):
                argv.append(draw(st.sampled_from(ALL_VALUES)))
        if value is not None:
            argv += [f"{flag}={value}"] if one_in(draw, 4) else [flag, value]
    if one_in(draw, 4):  # an option with no value at the end
        argv.append(draw(st.sampled_from(ALL_FLAGS)))
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(argv, tmp_path, capsys):
    (tmp_path / "blocker").write_text("")
    argv = [token.replace("TMP", str(tmp_path)) for token in argv]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a usage error with status 2
        code = e.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [
    ["study", "--xi-points", "2", "--out", "-"],
    ["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quant", "bellM"],
    ["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM", "--form", "json"],
])
def test_option_prefixes_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # study wrote no directory named "-"


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """Reusing the parser carries nothing over: the outputs equal those of a
    parser built afresh for each call, and repeatable options start empty."""
    calls = [
        ["sweep", "--xi", "0.2", "--xi", "0.3", "--alpha-sq", "0.5", "--alpha-sq", "0.1",
         "--quantity", "bellM", "--quantity", "fidelity"],
        ["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bogus"],  # usage error
        ["sweep", "--xi-grid", "0.2:0.3:2", "--alpha-grid", "0.1:0.9:3",
         "--quantity", "pptNonlocal", "--format", "json"],
        ["sweep", "--xi-grid", "0.25:0.25:1", "--alpha-grid", "0.7:0.7:1",
         "--quantity", "pptLocal"],
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            results.append((code, *capsys.readouterr()))
        return results

    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = run_all()
    assert [r[0] for r in fresh] == [0, 2, 0, 0]
    assert run_all() == fresh
    assert cli._build_parser() is cli._build_parser()
    args = cli._parse_args(calls[3])
    assert (args.command, args.xi, args.alpha_sq, args.quantity) == (
        "sweep", None, None, ["pptLocal"])


# shaped like a benchmark sweep op: 50 xi, 50 alpha^2 and every quantity
BENCHMARK_SWEEP = [
    "sweep", *[t for i in range(50) for t in ("--xi", repr(0.15 + 0.007 * i))],
    *[t for i in range(50) for t in ("--alpha-sq", repr(i / 49))],
    *[t for q in QUANTITIES for t in ("--quantity", q)], "--format", "csv", "--out", "-"]
# a call shaped like each of the benchmark's; tests/output_digest.py hashes them too
BENCHMARK_CALLS = [
    BENCHMARK_SWEEP,
    ["boundary", "--xi", "0.2", "--target", "nonlocal", "--side", "both",
     "--format", "json", "--out", "-"],
    ["clone-audit", "--xi", "0.3", "--kind", "AbstractBH", "--samples", "64",
     "--format", "json", "--out", "-"],
    ["verify", "--format", "csv", "--out", "-"],
]


def _names(args):
    """A namespace's repr per key: nan equals nan, -0.0 differs from 0.0."""
    return {k: repr(v) for k, v in vars(args).items()}


def _parse_outcome(parse, argv, capsys):
    """The namespace's ``_names``, or the exit code, with what the parse printed."""
    try:
        outcome = _names(parse(argv))
    except SystemExit as e:
        outcome = e.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    *[argv for argv, _ in EXIT_CODE_CASES], *CASES.values(),
    pytest.param(BENCHMARK_SWEEP, id="benchmark sweep"),
    ["-h"], ["sweep", "-h"], ["--format", "json", "verify"], ["verify", "sweep"],
    ["sweep", "--", "--xi", "0.2"], ["clone-audit", "--xi", "0.2", "0.3"],
    # each way the one-pass reader hands a call over, and calls it takes
    ["boundary", "--xi=0.2"], ["boundary", "--xi", "-0.5", "--analysis-only"],
    ["boundary", "--xi", "-inf"], ["boundary", "--xi", "-1e-13"], ["verify", "--out", "-h"],
    ["boundary", "--analysis-only", "0.3", "--xi", "0.2"], ["boundary", "--xi"],
    ["boundary", "--xi", "0.2", "--tol"], ["boundary", "--target", "local"],
    ["boundary", "--xi", "0.2", "--xi", "0.3", "--out", "-"],
    ["clone-audit", "--xi", "0.2", "--samples", "1.5"],
    ["sweep", "--quantity", "bellM", "--quantity", "bogus"],
    ["sweep", "--quantity", "bellM", "--analysis-only", "--quantity", "bellM"],
    ["study", "--xi-points", "2", "-h"], ["verify", "--out", "-", "--"],
], ids=" ".join)
def test_routed_parse_is_the_top_parsers(argv, capsys):
    """The one-pass reader, or the top parser it hands the call to, gives the
    top parser's namespace, command included, or its exit code, usage and
    message."""
    top, _ = cli._build_parser()
    assert (_parse_outcome(cli._parse_args, argv, capsys)
            == _parse_outcome(top.parse_args, argv, capsys))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_fuzzed_routed_parse_is_the_top_parsers(argv, capsys):
    top, _ = cli._build_parser()
    assert (_parse_outcome(cli._parse_args, argv, capsys)
            == _parse_outcome(top.parse_args, argv, capsys)), argv


def _option_values(action):
    """Tokens that ``action``'s type and choices take, none starting with "-"
    but "-" itself."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is float:
        return st.one_of(
            st.floats(min_value=0.0).map(repr),
            st.sampled_from(["nan", "inf", "Infinity", "+0.5", "1E-3", ".5", "5.", "1_0.5"]))
    if action.type is int:
        return st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["+3", "0_7"]))
    assert action.type is None, action
    return st.one_of(st.just("-"), st.text())


@st.composite
def well_formed_calls(draw):
    """(argv, the indices of its option values): a call of the shape the
    one-pass reader takes, drawn from the command's option table. Options
    are spelled in full and in any order; each value is one the option
    takes; a flag stands alone; repeatable and other options may be given
    more than once; every required option is present."""
    _, tables = cli._build_parser()
    command = draw(st.sampled_from(sorted(tables)))
    options = []
    for action, kind in dict.fromkeys(tables[command].values()):
        for _ in range(draw(st.integers(int(action.required), 3 if kind == "append" else 2))):
            option = [draw(st.sampled_from(action.option_strings))]
            if kind != "store_true":
                option.append(draw(_option_values(action).filter(
                    lambda token: token == "-" or not token.startswith("-"))))
            options.append(option)
    argv = [command]
    values = []
    for option in draw(st.permutations(options)):
        argv += option
        if len(option) == 2:
            values.append(len(argv) - 1)
    return argv, values


@settings(max_examples=300, deadline=None)
@given(call=well_formed_calls())
def test_fuzzed_well_formed_calls_are_read_in_one_pass(call):
    argv, _ = call
    top, tables = cli._build_parser()
    args = cli._read_options(argv[0], tables[argv[0]], argv[1:])
    assert args is not None, argv
    assert _names(args) == _names(top.parse_args(argv)), argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=well_formed_calls(), data=st.data())
def test_fuzzed_dash_value_is_handed_over(call, data, capsys):
    """A value that starts with "-", but is not "-", makes a well-formed call
    one the reader hands to the top parser, negative numbers included."""
    argv, values = call
    assume(values)
    at = data.draw(st.sampled_from(values))
    argv[at] = data.draw(st.one_of(
        st.sampled_from(["-inf", "-nan", "-0.5", "-0", "-1e-13", "-3", "--", "-h", "--xi"]),
        st.text(min_size=1).map("-".__add__)))
    top, tables = cli._build_parser()
    assert cli._read_options(argv[0], tables[argv[0]], argv[1:]) is None, argv
    assert (_parse_outcome(cli._parse_args, argv, capsys)
            == _parse_outcome(top.parse_args, argv, capsys)), argv


def test_cached_defaults_do_not_leak_between_calls():
    """A call's options, and changes made to its namespace, reach no later call."""
    top, _ = cli._build_parser()
    first = ["sweep", "--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM",
             "--format", "json", "--out", "x.json", "--analysis-only"]
    args = cli._parse_args(first)
    args.xi.append(0.3)
    args.quantity.append("fidelity")
    args.format = "bogus"
    args.alpha_grid = "0:1:3"
    again = ["sweep", "--xi", "0.25", "--quantity", "pptLocal"]
    args = cli._parse_args(again)
    assert (args.xi, args.alpha_sq, args.quantity, args.format, args.out,
            args.analysis_only, args.alpha_grid) == (
        [0.25], None, ["pptLocal"], "csv", "-", False, None)
    assert vars(args) == vars(top.parse_args(again))
    assert vars(cli._parse_args(first)) == vars(top.parse_args(first))


@pytest.mark.parametrize("argv", BENCHMARK_CALLS, ids=lambda argv: argv[0])
def test_benchmark_calls_are_read_in_one_pass(argv, monkeypatch):
    """The benchmark's calls never reach argparse's parsing: a reader that
    handed them over would fail here, and not only run slower."""
    top, _ = cli._build_parser()
    expected = vars(top.parse_args(argv))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a call of the one-pass reader's shape")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert vars(cli._parse_args(argv)) == expected


def test_main_without_argv_parses_sys_argv(monkeypatch, capsys):
    """The console script calls main() with no argument: it reads sys.argv[1:]."""
    argv = ["boundary", "--xi", "0.2", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr("sys.argv", ["entbroadcast", *argv])
    assert main() == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr("sys.argv", ["entbroadcast", "boundary"])
    with pytest.raises(SystemExit) as e:
        main()
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --xi\n")


def test_negative_xi_in_exponent_form_is_given_with_equals(capsys):
    """argparse reads "-1e-13" after "--xi" as an option, as its negative
    numbers have no exponent; "--xi=-1e-13" reaches the command."""
    assert main(["sweep", "--analysis-only", "--xi=-1e-13", "--alpha-sq", "0.5",
                 "--quantity", "bellM", "--format", "json"]) == 0
    assert [rec["xi"] for rec in json.loads(capsys.readouterr().out)] == [-1e-13]
    # the same-site state at xi < 0 is not separable at alpha^2 = 1/2: the
    # command's own error
    assert main(["boundary", "--analysis-only", "--xi=-1e-13", "--target", "local"]) == 2
    assert capsys.readouterr().err.startswith("error: predicate false at alpha^2=0.5")


@pytest.mark.parametrize("command", [
    ["sweep", "--alpha-sq", "0.5", "--quantity", "bellM"],
    ["boundary"],
])
def test_bare_negative_xi_in_exponent_form_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([command[0], "--analysis-only", "--xi", "-1e-13", *command[1:]])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "argument --xi: expected one argument" in err
    assert "Traceback" not in err


def test_study_out_dir_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["study", "--out-dir", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path, capsys):
        dest = tmp_path / "claims.json"
        rc = main(["verify", "--format", "json", "--out", str(dest)])
        assert rc == 0
        claims = json.loads(dest.read_text())
        verdicts = {c["verdict"] for c in claims}
        assert "FAIL" not in verdicts
        assert "DISCREPANCY" in verdicts
        err = capsys.readouterr().err
        assert "[PASS]" in err
        assert "warning: documented discrepancies" in err

    def test_a_failed_claim_exits_1(self, monkeypatch, capsys):
        real = claims.nonlocal_inseparability_range

        def defined_above_the_bound(p):
            if p.xi > XI_NONLOCAL_MAX:
                return Interval(0.5, 0.5)
            return real(p)

        monkeypatch.setattr(claims, "nonlocal_inseparability_range", defined_above_the_bound)
        assert main(["verify"]) == 1
        out, err = capsys.readouterr()
        assert "[FAIL] range.bound.undefined_above" in err
        verdicts = {row["claim_id"]: row["verdict"] for row in csv.DictReader(io.StringIO(out))}
        assert verdicts.pop("range.bound.undefined_above") == "FAIL"
        assert "FAIL" not in verdicts.values()

    def test_verify_csv_json_round_trip(self, tmp_path):
        a, b = tmp_path / "c.csv", tmp_path / "c.json"
        main(["verify", "--format", "csv", "--out", str(a)])
        main(["verify", "--format", "json", "--out", str(b)])
        rows_csv = list(csv.DictReader(a.read_text().splitlines()))
        rows_json = json.loads(b.read_text())
        assert len(rows_csv) == len(rows_json)
        for rc_, rj in zip(rows_csv, rows_json):
            assert rc_["claim_id"] == rj["claim_id"]
            assert float(rc_["computed"]) == rj["computed"]
