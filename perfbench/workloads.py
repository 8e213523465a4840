"""Seeded workloads of the entbroadcast benchmark and the checks of their outputs.

A workload turns a seed into an endless sequence of operations ("ops"). An op
is a list of calls, each an argument vector for ``entbroadcast.cli.main`` with
the function that checks that call's standard output. The same seed always
gives the same argument vectors.

The checks compare against closed forms kept in this file. They share no code
with the package: both pair states are X-states, whose partial-transpose
eigenvalues and correlation tensor have closed forms (Yu & Eberly,
Quantum Inf. Comput. 7, 459 (2007)).
"""

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Machine-parameter limits, restated from the paper rather than imported, so
# that the generators and checks do not depend on the code they measure.
XI_LOWER = 0.5 - 0.5 / math.sqrt(2.0)  # admissible machines: XI_LOWER <= xi <= 1/2
XI_NONLOCAL_MAX = 0.5 - 0.5 / math.sqrt(3.0)  # cross-site PPT interval exists below
XI_LOCAL_MAX = 0.25  # same-site PPT interval exists below
XI_ABSTRACT_MIN = 1.0 / 6.0  # the abstract (universal) machine exists above
# Boundary xi is drawn from the first 98% of its interval: at the far end the
# interval shrinks to the point alpha^2 = 1/2 and bisection has no crossing.
BOUNDARY_XI_SHARE = 0.98

QUANTITIES = ("pptNonlocal", "pptLocal", "bellM", "fidelity", "wernerX")
SWEEP_POINTS = 50  # xi values and alpha^2 values per sweep op
AUDIT_SAMPLES = 64

VALUE_TOL = 1e-12  # sweep values and audit fidelities vs closed form
BOUNDARY_TOL = 1e-9  # bisection endpoints (the CLI bisects to 1e-10) vs closed form

# Claim ids of ``verify`` in report order; all PASS except the documented
# discrepancy between the two machine readings.
VERIFY_CLAIMS = (
    "range.optimal.numeric.lower",
    "range.optimal.numeric.upper",
    "range.optimal.closed.lower",
    "range.optimal.closed.upper",
    "range.widest.numeric.lower",
    "range.widest.numeric.upper",
    "range.widest.closed.lower",
    "range.widest.closed.upper",
    "range.bound.undefined_above",
    "range.bound.degenerate",
    "bell.threshold_xi",
    "bell.no_interval_in_machine_range",
    "bell.unfiltered_max",
    "bell.filtered.widest",
    "bell.filtered.optimal_offcenter",
    "werner.x.optimal",
    "fidelity.optimal",
    "werner.x.widest",
    "fidelity.widest",
    "werner.only_maximally_entangled",
    "oracle.equivalence",
    "universality.literal_at_optimal",
    "universality.literal_below_one_sixth",
)
VERIFY_DISCREPANCIES = frozenset({"universality.literal_below_one_sixth"})


class CheckError(AssertionError):
    """A call's output disagrees with the reference."""


# -- closed forms -------------------------------------------------------------

def sweep_reference(xi, alpha_sq):
    """The five sweep quantities at one point, keyed by quantity name.

    Cross-site pair: diagonal (A, C, C, B), corner D between |00> and |11>.
    Same-site pair: diagonal (a^2 eta, xi, xi, b^2 eta), coherence xi
    between |01> and |10>.
    """
    eta = 1.0 - 2.0 * xi
    a2, b2 = alpha_sq, 1.0 - alpha_sq
    big_a = a2 * eta + xi * xi
    big_b = b2 * eta + xi * xi
    big_c = xi * (1.0 - xi)
    big_d = math.sqrt(a2 * b2) * eta * eta
    # partial transpose: blocks A, B and [[C, D], [D, C]]
    ppt_nonlocal = min(big_a, big_b, big_c - abs(big_d))
    # correlation tensor T = diag(2D, -2D, A + B - 2C)
    t = (2.0 * big_d, -2.0 * big_d, big_a + big_b - 2.0 * big_c)
    squares = sorted(x * x for x in t)
    bell_m = squares[1] + squares[2]
    fidelity = 0.5 * (1.0 + sum(abs(x) for x in t) / 3.0)
    # same-site partial transpose: blocks [[a^2 eta, xi], [xi, b^2 eta]] and xi, xi
    half_gap = math.hypot(0.5 * (a2 - b2) * eta, xi)
    ppt_local = min(xi, 0.5 * eta - half_gap)
    werner_x = eta * eta if alpha_sq == 0.5 else math.nan
    return {"pptNonlocal": ppt_nonlocal, "pptLocal": ppt_local, "bellM": bell_m,
            "fidelity": fidelity, "wernerX": werner_x}


def boundary_reference(xi, target):
    """Closed (lower, upper) alpha^2 endpoints of the PPT interval."""
    eta = 1.0 - 2.0 * xi
    if target == "nonlocal":
        radicand = 0.25 - (xi * (1.0 - xi)) ** 2 / eta**4
    else:
        radicand = 0.25 - (xi / eta) ** 2
    r = math.sqrt(radicand)
    return 0.5 - r, 0.5 + r


def audit_reference(xi, kind):
    """(min, max) single-clone fidelity over the audit's sample states.

    The abstract machine is universal: 1 - xi for every input. For the literal
    machine, an input with |c0|^2 |c1|^2 = pq has fidelity
    (1 - xi) + pq (4 xi - 2 + 4 sqrt(eta xi)); the samples include the z axis
    (pq = 0) and the x axis (pq = 1/4), so both extremes occur.
    """
    base = 1.0 - xi
    if kind == "AbstractBH":
        return base, base
    quarter_k = xi - 0.5 + math.sqrt((1.0 - 2.0 * xi) * xi)
    return base + min(0.0, quarter_k), base + max(0.0, quarter_k)


# -- output checks ------------------------------------------------------------

def _expect(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, tol):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol


def check_verify(stdout):
    """The claims CSV lists the expected claims with the expected verdicts."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    ids = tuple(r["claim_id"] for r in rows)
    _expect(ids == VERIFY_CLAIMS, f"claim ids differ: {ids}")
    for r in rows:
        want = "DISCREPANCY" if r["claim_id"] in VERIFY_DISCREPANCIES else "PASS"
        _expect(r["verdict"] == want,
                f"{r['claim_id']}: verdict {r['verdict']}, expected {want}")
    return len(rows)


def check_sweep(xis, alpha_sqs, stdout):
    """Every row matches the closed form, in xi, alpha^2, quantity order."""
    rows = list(csv.reader(io.StringIO(stdout)))
    _expect(rows and rows[0] == ["xi", "alpha_sq", "quantity", "value"],
            f"bad header {rows[:1]}")
    body = rows[1:]
    _expect(len(body) == len(xis) * len(alpha_sqs) * len(QUANTITIES),
            f"{len(body)} rows")
    it = iter(body)
    for xi in xis:
        for a2 in alpha_sqs:
            ref = sweep_reference(xi, a2)
            for q in QUANTITIES:
                r = next(it)
                _expect(float(r[0]) == xi and float(r[1]) == a2 and r[2] == q,
                        f"row {r} out of order, expected ({xi!r}, {a2!r}, {q})")
                _expect(_close(float(r[3]), ref[q], VALUE_TOL),
                        f"{q} at xi={xi!r}, alpha^2={a2!r}: {r[3]} vs {ref[q]!r}")
    return len(body)


def check_boundary(xi, target, stdout):
    rows = json.loads(stdout)
    lo, hi = boundary_reference(xi, target)
    _expect([(r["xi"], r["target"], r["side"]) for r in rows]
            == [(xi, target, "lower"), (xi, target, "upper")],
            f"unexpected rows {rows}")
    for r, want in zip(rows, (lo, hi)):
        _expect(abs(r["alpha_sq"] - want) <= BOUNDARY_TOL,
                f"{target} {r['side']} at xi={xi!r}: {r['alpha_sq']!r} vs {want!r}")
    return len(rows)


def check_audit(xi, kind, stdout):
    rows = json.loads(stdout)
    _expect(len(rows) == 1, f"{len(rows)} rows")
    r = rows[0]
    lo, hi = audit_reference(xi, kind)
    _expect((r["xi"], r["kind"], r["samples"]) == (xi, kind, AUDIT_SAMPLES),
            f"unexpected row {r}")
    _expect(_close(r["min_fidelity"], lo, VALUE_TOL)
            and _close(r["max_fidelity"], hi, VALUE_TOL)
            and _close(r["spread"], r["max_fidelity"] - r["min_fidelity"], VALUE_TOL),
            f"{kind} at xi={xi!r}: {r} vs ({lo!r}, {hi!r})")
    return 1


# -- generators ---------------------------------------------------------------

def verify_ops(seed):
    """The inputs of ``verify`` are fixed, so the seed is unused."""
    del seed
    call = (["verify", "--format", "csv", "--out", "-"], check_verify)
    while True:
        yield [call]


def sweep_ops(seed):
    rng = random.Random(seed)
    while True:
        xis = [rng.uniform(XI_LOWER, 0.5) for _ in range(SWEEP_POINTS)]
        alpha_sqs = [rng.random() for _ in range(SWEEP_POINTS - 1)]
        alpha_sqs.insert(rng.randrange(SWEEP_POINTS), 0.5)  # the Werner path that succeeds
        argv = ["sweep"]
        for xi in xis:
            argv += ["--xi", repr(xi)]
        for a2 in alpha_sqs:
            argv += ["--alpha-sq", repr(a2)]
        for q in QUANTITIES:
            argv += ["--quantity", q]
        argv += ["--format", "csv", "--out", "-"]
        yield [(argv, partial(check_sweep, xis, alpha_sqs))]


def boundary_audit_ops(seed):
    rng = random.Random(seed)
    combos = list(itertools.product(("nonlocal", "local"), ("Literal2D", "AbstractBH")))
    while True:
        # every block of four ops holds each (target, kind) pair once, in seeded
        # order, so the mix does not vary from seed to seed
        rng.shuffle(combos)
        for target, kind in combos:
            xi_max = XI_NONLOCAL_MAX if target == "nonlocal" else XI_LOCAL_MAX
            xb = XI_LOWER + rng.random() * BOUNDARY_XI_SHARE * (xi_max - XI_LOWER)
            xa_min = XI_ABSTRACT_MIN if kind == "AbstractBH" else XI_LOWER
            xa = rng.uniform(xa_min, 0.5)
            yield [
                (["boundary", "--xi", repr(xb), "--target", target, "--side", "both",
                  "--format", "json", "--out", "-"],
                 partial(check_boundary, xb, target)),
                (["clone-audit", "--xi", repr(xa), "--kind", kind,
                  "--samples", str(AUDIT_SAMPLES), "--format", "json", "--out", "-"],
                 partial(check_audit, xa, kind)),
            ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable  # seed -> endless iterator of ops
    cycle: int  # ops the traced run repeats, so its counts repeat exactly


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify",
        "The headline command. About 80% of an op is the two 101x101 filter "
        "searches (20,402 scalar 4x4 eigvalsh calls of 22,689), so filter and "
        "CHSH kernel work shows here; bulk per-point validation and CSV "
        "emission barely run.",
        verify_ops, cycle=1),
    Workload(
        "sweep",
        "The per-point bulk path: state construction, validation, "
        "PPT/M/fidelity/Werner, the sweep loop and CSV emission over 12,500 "
        "rows. It runs no filter search and no cloner.",
        sweep_ops, cycle=1),
    Workload(
        "boundary-audit",
        "The PPT layer used as a chain of about 140 dependent scalar calls "
        "(bisection) instead of bulk calls, plus the cloner audit, JSON "
        "emission and the fixed cost of each invocation. A batched core that "
        "taxes single calls shows here as a regression.",
        boundary_audit_ops, cycle=4),
)}
