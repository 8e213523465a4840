"""Benchmark of the entbroadcast command line, run from the repository root.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with one client: it calls
``entbroadcast.cli.main(argv)`` in-process and starts the next op only when
the previous one has returned. The argument vectors come from the seed
(``workloads.py``); every op's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics, with times at reference machine
speed (``calibration.py``). ``--trace 1`` alternates untraced and traced ops
over whole cycles of the workload's first ops, prints the per-layer metrics of
the traced ones (``spans.py``) and writes the spans to ``perfbench/out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in a child process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from calibration import CAL_REF_S, calibrate  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PACKAGE = "entbroadcast"

# Fresh-interpreter imports per run, after one discarded warm-up, spread over
# the run as the ops are. Each is followed by calibration loops in the same
# interpreter, which give its time at reference speed.
SETUP_REPEATS = 9
SETUP_SCRIPT = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import entbroadcast.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import calibration_loop\n"
    "print(t, sorted(calibration_loop() for _ in range(3))[1])\n"
)
P90_MIN_OPS = 100  # below this, fewer than 10 samples lie beyond the 90th percentile
CAL_SHARE = 0.25  # calibration time after each op, as a share of the op's time

def load_cli():
    """Import the package under test from this checkout's ``src``."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise SystemExit(f"error: no {SRC / PACKAGE / 'cli.py'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import entbroadcast.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's package")
    return cli


def import_seconds():
    """Wall time of ``import entbroadcast.cli`` in a fresh interpreter, and
    the median time of three calibration loops run there after it."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, loop = map(float, done.stdout.split())
    return seconds, loop


def call(cli, argv):
    """Run ``cli.main(argv)`` with captured output: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects a usage error this way
            rc = e.code
        except Exception:  # the op fails; the run goes on and reports it
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
    if rc != 0 and error is None:
        error = f"exit code {rc!r}: {err.getvalue()[-500:]}"
    return seconds, rc, out.getvalue(), error


def run_op(cli, op):
    """One op: its calls back to back. Returns (seconds, rows, problem or None).

    Only the calls are timed; the checks run after them.
    """
    results = [call(cli, argv) for argv, _ in op]
    seconds = sum(r[0] for r in results)
    rows = 0
    for (argv, check), (_, _, stdout, error) in zip(op, results):
        if error is None:
            try:
                rows += check(stdout)
            except (CheckError, ValueError, KeyError, IndexError, TypeError) as e:
                error = f"check failed: {e}"
        if error is not None:
            return seconds, rows, f"{' '.join(argv)[:200]}: {error}"
    return seconds, rows, None


class Run:
    """Counts of one run: attempted and failed ops, timed seconds and rows."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = self.failed = self.rows = 0
        self.times = []

    def op(self, op, timed=True):
        seconds, rows, problem = run_op(self.cli, op)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"op failed: {problem}", file=sys.stderr)
        if timed:
            self.times.append(seconds)
            self.rows += rows
        return seconds


def environment():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS}


def untraced(cli, workload, seed, seconds):
    ops = workload.ops(seed)
    run = Run(cli)
    run.op(next(ops), timed=False)  # warm-up: lazy imports and caches
    import_seconds()
    imports, cal, ref_times = [], [], []
    before = calibrate(0.0)
    t_start = time.perf_counter()
    while (now := time.perf_counter()) < t_start + seconds:
        if now >= t_start + seconds * len(imports) / SETUP_REPEATS:
            imports.append(import_seconds())
        op_s = run.op(next(ops))
        after = calibrate(CAL_SHARE * op_s)
        # the op at reference speed, by the loops just before and after it
        ref_times.append(op_s * CAL_REF_S / statistics.mean(before + after))
        cal += after
        before = after
    while len(imports) < SETUP_REPEATS:
        imports.append(import_seconds())
    n = len(run.times)
    metrics = {
        "setup_s": (statistics.median(t * CAL_REF_S / loop for t, loop in imports), "s"),
        "op_ref_s_p50": (statistics.median(ref_times), "s"),
        "rows_per_ref_s": (run.rows / sum(ref_times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"{n} timed ops; setup_s is the median of {SETUP_REPEATS} fresh imports",
             f"wall time: setup_s {statistics.median(t for t, _ in imports):.6g} s, "
             f"op_s_p50 {statistics.median(run.times):.6g} s, "
             f"rows_per_s {run.rows / sum(run.times):.6g} 1/s",
             f"calibration loop: median {statistics.median(cal):.6g} s over {len(cal)} "
             f"loops after ops; reference speed is {CAL_REF_S} s a loop"]
    # op_s_p90 needs 10 samples beyond it, so 100 ops. Only boundary-audit
    # runs that many, and a result metric must exist on every workload, so the
    # 90th percentile is printed here and is not a result metric.
    if n >= P90_MIN_OPS:
        notes.append(f"op_s_p90 {statistics.quantiles(run.times, n=10)[-1]:.6g} s wall time, "
                     f"{statistics.quantiles(ref_times, n=10)[-1]:.6g} s at reference speed")
    else:
        notes.append(f"op_s_p90 omitted: {n} ops, fewer than {P90_MIN_OPS}")
    return run, metrics, notes


def traced(cli, workload, seed, seconds):
    from spans import Tracer

    tracer = Tracer()
    tracer.install(PACKAGE)
    cycle = list(itertools.islice(workload.ops(seed), workload.cycle))
    run = Run(cli)
    run.op(cycle[0], timed=False)  # warm-up
    plain, traced_times = [], []
    t_end = time.perf_counter() + seconds
    while not traced_times or time.perf_counter() < t_end:
        # whole cycles only, so that per-op counts repeat exactly
        for op in cycle:
            plain.append(run.op(op))
            tracer.op_id += 1
            tracer.patch()
            try:
                traced_times.append(run.op(op))
            finally:
                tracer.unpatch()
    metrics = tracer.metrics(len(traced_times))
    p50, p50_plain = statistics.median(traced_times), statistics.median(plain)
    metrics["trace.traced_op_s_p50"] = (p50, "s")
    metrics["trace.untraced_op_s_p50"] = (p50_plain, "s")
    metrics["trace.overhead_s"] = (p50 - p50_plain, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(path)
    notes = [f"{len(traced_times)} traced and {len(plain)} untraced ops, "
             f"cycles of {workload.cycle}", f"spans written to {path.relative_to(ROOT)}"]
    return run, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    mode = traced if args.trace else untraced
    run, metrics, notes = mode(cli, workload, args.seed, args.seconds)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {run.attempted} ops "
          f"attempted, {run.failed} failed, failed_ratio {run.failed / run.attempted:g}")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
