import csv
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entbroadcast import cli
from entbroadcast.cli import main
from entbroadcast.report import table_to_csv, table_to_json
from entbroadcast.sweep import QUANTITIES, ConfigError, SweepConfig, parse_grid, run_sweep


class TestSweepConfig:
    def test_rejects_empty_quantities(self):
        with pytest.raises(ConfigError):
            SweepConfig(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,), quantities=())

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ConfigError):
            SweepConfig(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,),
                        quantities=("negativity",))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            SweepConfig(xi_grid=(1 / 6,), alpha_sq_grid=(1.5,),
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
        cfg = SweepConfig(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,),
                          quantities=("fidelity",))
        table = run_sweep(cfg)
        assert [len(cells) for cells in table.values()] == [1, 1, 1, 1]
        assert abs(table["value"][0] - 13 / 18) <= 1e-12

    def test_single_point_bell_m(self):
        cfg = SweepConfig(xi_grid=(1 / 6,), alpha_sq_grid=(0.5,),
                          quantities=("bellM",))
        assert abs(run_sweep(cfg)["value"][0] - 32 / 81) <= 1e-12

    def test_row_order_is_xi_major(self):
        cfg = SweepConfig(xi_grid=(1 / 6, 0.2), alpha_sq_grid=(0.3, 0.5),
                          quantities=("bellM", "fidelity"))
        table = run_sweep(cfg)
        assert list(table) == ["xi", "alpha_sq", "quantity", "value"]
        keys = list(zip(table["xi"], table["alpha_sq"], table["quantity"]))
        assert keys == sorted(keys, key=lambda k: (k[0], k[1]))
        assert keys == [(xi, a2, q) for xi in (1 / 6, 0.2) for a2 in (0.3, 0.5)
                        for q in ("bellM", "fidelity")]
        assert len(table["value"]) == 8

    def test_werner_nan_off_center(self):
        cfg = SweepConfig(xi_grid=(1 / 6,), alpha_sq_grid=(0.3,),
                          quantities=("wernerX",))
        assert math.isnan(run_sweep(cfg)["value"][0])


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

    def test_repeated_runs_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            main(["sweep", "--xi-grid", "0.2:0.4:5", "--alpha-grid", "0.1:0.9:7",
                  "--quantity", "fidelity", "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["clone-audit", "--xi", "0.15", "--kind", "AbstractBH"], 2),
    (["clone-audit", "--xi", "0.2", "--out", "/nonexistent/x.csv"], 2),
    (["clone-audit", "--xi", "0.2", "--samples", "1"], 2),
    (["verify", "--filter-budget", "0"], 2),
    (["boundary", "--xi", "0.2", "--tol", "0"], 2),
    (["boundary", "--xi", "0.2", "--tol", "-1"], 2),
    (["boundary", "--xi", "0.2", "--tol", "nan"], 2),
    (["boundary", "--xi", "0.2", "--tol", "1e-300"], 0),
    (["study", "--xi-points", "0"], 2),
    (["study", "--samples", "1"], 2),
    (["study", "--filter-budget", "0"], 2),
    *[(["sweep", "--analysis-only", "--xi=-0.01", "--alpha-sq", "0.3",
        "--quantity", q], 2) for q in QUANTITIES],
    (["sweep", "--analysis-only", "--xi", "0.7", "--alpha-sq", "0.3",
      "--quantity", "bellM"], 0),
    (["sweep", "--analysis-only", "--xi", "0.7", "--alpha-sq", "0.3",
      "--quantity", "pptLocal"], 2),
    *[(["sweep", "--xi", "0.2", "--alpha-sq", "0.3", "--quantity", "wernerX",
        "--tol", tol], 2) for tol in ("0", "-1", "nan", "inf")],
    (["clone-audit", "--analysis-only", "--xi=-0.1"], 2),
    (["clone-audit", "--analysis-only", "--xi", "0.7"], 2),
    (["clone-audit", "--analysis-only", "--xi", "1e308", "--kind", "AbstractBH"], 2),
    (["boundary", "--xi", "0.2", "--tol", "inf"], 2),
])
def test_exit_codes_without_traceback(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


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


def test_verify_takes_no_analysis_only_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--filter-budget", "1", "--analysis-only"])
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

FLOATS = ["nan", "inf", "-inf", "-0.0", "0", "-1", "1e-300", "0.1", "0.15", "0.2",
          "0.25", "0.3", "0.5", "0.7", "1", "1.5", "1e308", "x"]
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
              "--alpha-grid": GRIDS, "--quantity": list(QUANTITIES), "--tol": FLOATS,
              **MACHINE},
    "verify": {"--filter-budget": COUNTS, **COMMON},
    "boundary": {"--xi": FLOATS, "--target": ["nonlocal", "local"],
                 "--side": ["lower", "upper", "both"], "--tol": FLOATS, **MACHINE},
    "clone-audit": {"--xi": FLOATS, "--kind": ["Literal2D", "AbstractBH"],
                    "--samples": COUNTS, **MACHINE},
    "study": {"--out-dir": OUT_DIRS, "--xi-points": COUNTS, "--filter-budget": COUNTS,
              "--samples": COUNTS},
}
# Valid arguments to start from, so that most vectors get past argparse; a
# later flag of the same name overrides them. verify and study always start
# from them, since their default budgets take a large share of a second.
START = {"sweep": ["--xi", "0.2", "--alpha-sq", "0.5", "--quantity", "bellM"],
         "verify": ["--filter-budget", "3"],
         "boundary": ["--xi", "0.2"],
         "clone-audit": ["--xi", "0.2", "--samples", "3"],
         "study": ["--xi-points", "2", "--filter-budget", "3", "--samples", "2",
                   "--out-dir", "TMP/study"]}
ALL_FLAGS = sorted({f for flags in FLAGS.values() for f in flags})
ALL_VALUES = sorted(set(FLOATS + GRIDS + COUNTS + CHOICES))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command in ("verify", "study") or draw(st.booleans()):
        argv += START[command]
    for _ in range(draw(st.integers(0, 5))):
        # one flag or value in four from outside the command's own vocabulary
        foreign = draw(st.integers(0, 3)) == 3
        flag = draw(st.sampled_from(ALL_FLAGS if foreign else sorted(FLAGS[command])))
        argv.append(flag)
        own = FLAGS[command].get(flag, MACHINE.get(flag, FLOATS))
        if flag in ("--out", "--out-dir"):
            # paths stay inside TMP; study writes a directory, so it gets one
            argv.append(draw(st.sampled_from(OUT_DIRS if command == "study" else OUTS)))
        elif own is not None:
            foreign = draw(st.integers(0, 3)) == 3
            argv.append(draw(st.sampled_from(ALL_VALUES if foreign else own)))
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
    ["study", "--xi-points", "2", "--filter-budget", "3", "--samples", "2", "--out", "-"],
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
    args = cli._build_parser().parse_args(calls[3])
    assert (args.xi, args.alpha_sq, args.quantity) == (None, None, ["pptLocal"])


def test_study_out_dir_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["study", "--out-dir", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path, capsys):
        dest = tmp_path / "claims.json"
        # small filter budget keeps this test fast; the full budget runs in
        # the acceptance suite
        rc = main(["verify", "--filter-budget", "11", "--format", "json",
                   "--out", str(dest)])
        assert rc == 0
        claims = json.loads(dest.read_text())
        verdicts = {c["verdict"] for c in claims}
        assert "FAIL" not in verdicts
        assert "DISCREPANCY" in verdicts
        err = capsys.readouterr().err
        assert "[PASS]" in err
        assert "warning: documented discrepancies" in err

    def test_verify_at_filter_budget_401(self, tmp_path):
        dest = tmp_path / "claims.json"
        assert main(["verify", "--filter-budget", "401", "--format", "json",
                     "--out", str(dest)]) == 0
        verdicts = {c["claim_id"]: c["verdict"] for c in json.loads(dest.read_text())}
        assert verdicts.pop("universality.literal_below_one_sixth") == "DISCREPANCY"
        assert set(verdicts.values()) == {"PASS"}

    def test_verify_csv_json_round_trip(self, tmp_path):
        a, b = tmp_path / "c.csv", tmp_path / "c.json"
        main(["verify", "--filter-budget", "5", "--format", "csv", "--out", str(a)])
        main(["verify", "--filter-budget", "5", "--format", "json", "--out", str(b)])
        rows_csv = list(csv.DictReader(a.read_text().splitlines()))
        rows_json = json.loads(b.read_text())
        assert len(rows_csv) == len(rows_json)
        for rc_, rj in zip(rows_csv, rows_json):
            assert rc_["claim_id"] == rj["claim_id"]
            assert float(rc_["computed"]) == rj["computed"]
