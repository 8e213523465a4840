"""SHA-256 digests of the command line's outputs, to show a change byte-identical.

Run from the repository root, at two commits, and compare what it prints:

    PYTHONPATH=src python tests/output_digest.py

or, with the parent's combined digest, check a change in one command:

    PYTHONPATH=src python tests/output_digest.py --expect HEX

which also exits 1, printing both digests, when the combined digest is not HEX.

Each entry of the manifest runs ``entbroadcast.cli.main`` in-process, in a fresh
temporary working directory, so the relative paths the commands print are the
same from run to run. One line per entry gives the SHA-256 of its standard
output, a NUL, its standard error, a NUL and its exit code (argparse's
``SystemExit`` counts as one); a ``study NAME`` line gives that of one table
``study`` wrote at its defaults. The last line is the SHA-256 of the JSON dump
(sorted keys) of the label -> digest map. The digests depend on the numpy build,
so none is kept in the repository: take HEX from a run of the parent on the
same machine. The exit codes do not depend on it, and the script exits 1 if
any entry's code differs from its declared code.

The manifest is built from lists the tests already hold: the golden commands
(``verify`` among them, in CSV and JSON), ``study``, and the exit-code table
and the benchmark-shaped calls of ``test_cli.py``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from test_cli import BENCHMARK_CALLS, EXIT_CODE_CASES
from test_golden import CASES, STUDY_TABLES

from entbroadcast import cli

MANIFEST = [
    *[(argv, 0) for argv in CASES.values()],
    (["study"], 0),
    *EXIT_CODE_CASES,
    *[(argv, 0) for argv in BENCHMARK_CALLS],
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    """(stdout, stderr, exit code) of one in-process run of the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return out.getvalue().encode(), err.getvalue().encode(), code


def digests():
    """(label -> digest map, labels whose exit code differs from the declared one)."""
    found, wrong = {}, []
    for argv, declared in MANIFEST:
        label = " ".join(argv)
        if label in found:
            raise ValueError(f"manifest entry listed twice: {label}")
        out, err, code = _run(argv)
        found[label] = _sha256(out + b"\0" + err + b"\0" + str(code).encode())
        if code != declared:
            wrong.append(f"{label}: exit code {code}, declared {declared}")
        if argv == ["study"]:
            for name in STUDY_TABLES:
                with open(os.path.join("study_out", name), "rb") as fh:
                    found[f"study {name}"] = _sha256(fh.read())
    return found, wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--expect", metavar="HEX",
                    help="the combined digest to expect, as this script prints it")
    args = ap.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            found, wrong = digests()
        finally:
            os.chdir(cwd)
    for label, digest in found.items():
        print(f"{digest}  {label}")
    combined = _sha256(json.dumps(found, sort_keys=True).encode())
    print(f"{combined}  combined")
    if args.expect is not None and combined != args.expect:
        wrong.append(f"combined digest {combined}, expected {args.expect}")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
