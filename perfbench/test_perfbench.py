"""Self-tests of the benchmark: its checks catch faults, its generators are sound.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import COUNTERS  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

ROOT = HERE.parent
CLI = run.load_cli()


def first_ops(name, seed, n):
    return list(itertools.islice(WORKLOADS[name].ops(seed), n))


def argvs(ops):
    return [[argv for argv, _ in op] for op in ops]


def bench(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def outputs(op):
    return [run.call(CLI, argv)[2] for argv, _ in op]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_argv(name):
    assert argvs(first_ops(name, 7, 5)) == argvs(first_ops(name, 7, 5))
    if name != "verify":  # verify has fixed inputs
        assert argvs(first_ops(name, 7, 5)) != argvs(first_ops(name, 8, 5))


@pytest.mark.parametrize("name,seeds,n", [
    ("verify", [0], 1),
    ("sweep", [0, 1], 1),
    ("boundary-audit", range(25), 4),
])
def test_generated_ops_pass(name, seeds, n):
    """No generated argv is rejected (exit code 2) and every output checks out."""
    for seed in seeds:
        for op in first_ops(name, seed, n):
            seconds, rows, problem = run.run_op(CLI, op)
            assert problem is None
            assert rows > 0


VALUE_KEYS = {"boundary": "alpha_sq", "clone-audit": "min_fidelity"}


def perturb(command, text):
    """Shift the first result value of a JSON list or a sweep CSV by 1e-6."""
    if command in VALUE_KEYS:
        rows = json.loads(text)
        rows[0][VALUE_KEYS[command]] += 1e-6
        return json.dumps(rows)
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    return "\n".join([header, ",".join(cells), rest])


@pytest.mark.parametrize("name", ["sweep", "boundary-audit"])
def test_perturbed_value_fails(name):
    op = first_ops(name, 3, 1)[0]
    for (argv, check), text in zip(op, outputs(op)):
        check(text)
        with pytest.raises(CheckError):
            check(perturb(argv[0], text))


def test_wrong_verdict_fails():
    ((_, check),) = op = first_ops("verify", 0, 1)[0]
    (text,) = outputs(op)
    check(text)
    assert text.count(",PASS\n") == 22
    for wrong in (text.replace(",DISCREPANCY\n", ",PASS\n"),
                  text.replace(",PASS\n", ",FAIL\n", 1)):
        with pytest.raises(CheckError):
            check(wrong)


def raise_error(argv):
    raise RuntimeError("injected")


def usage_error(argv):
    raise SystemExit(2)


@pytest.mark.parametrize("main", [raise_error, usage_error, lambda argv: 1])
def test_failed_call_counts_as_failed(main):
    r = run.Run(SimpleNamespace(main=main))
    r.op(first_ops("boundary-audit", 0, 1)[0])
    assert (r.attempted, r.failed) == (1, 1)


def test_traced_counts_repeat_and_cover_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "boundary-audit", "--seed", "5", "--seconds", "0.5", "--trace", "1"]
    first, second = bench(*args), bench(*args)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = [name for name, m in first["metrics"].items() if m["unit"] not in ("s", "s/op")]
    assert set(COUNTERS) < set(counts)
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = bench("--workload", "boundary-audit", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_bare_directory_exits_nonzero(tmp_path):
    """Without the package's sources there is nothing to run: no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
