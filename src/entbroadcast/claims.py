"""Quantitative claims report.

Every headline number of the broadcast protocol is recomputed here by an
independent route (bisection against numeric PPT, exact certificates, oracle
vs closed form) and compared against its expected value at a pinned tolerance.
Verdicts are PASS, FAIL, or DISCREPANCY; DISCREPANCY marks documented
internal conflicts of the protocol's two machine readings, not failures of
this implementation.

Claims come in groups, one generator each, that ``verify_claims`` lists once
in report order. A claim is added as one group in that tuple plus its rows in
``tests/golden/verify.{csv,json}``; its id also goes into the benchmark's own
list, ``VERIFY_CLAIMS`` in ``perfbench/workloads.py``, a benchmark change.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, cloner
from .analysis import (
    RangeUndefinedError,
    bell_violated_predicate,
    bisect,
    boundary_bisect,
    dense_quantities,
    evaluate,
    filter_certificate,
    nonlocal_inseparability_range,
    nonlocal_inseparable_predicate,
)
from .broadcast import local_entries, nonlocal_entries, oracle_states
from .cloner import (
    MachineKind,
    make_cloner_parameter,
    universality_report,
)

PASS, FAIL, DISCREPANCY = "PASS", "FAIL", "DISCREPANCY"

XI_OPTIMAL = 1.0 / 6.0
XI_BOUNDARY = cloner.XI_LOWER  # largest-range machine, 1/2 - 1/(2 sqrt 2)


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    expected: float
    computed: float
    tolerance: float
    verdict: str


def _equal(claim_id, description, expected, computed, tol):
    ok = abs(expected - computed) <= tol
    return ClaimResult(claim_id, description, float(expected), float(computed), tol,
                       PASS if ok else FAIL)


def _upper_bound(claim_id, description, bound, computed, tol):
    ok = computed <= bound + tol
    return ClaimResult(claim_id, description, float(bound), float(computed), tol,
                       PASS if ok else FAIL)


def _lower_bound(claim_id, description, bound, computed, tol):
    ok = computed >= bound - tol
    return ClaimResult(claim_id, description, float(bound), float(computed), tol,
                       PASS if ok else FAIL)


def _bool(claim_id, description, ok):
    return ClaimResult(claim_id, description, 1.0, 1.0 if ok else 0.0, 0.0,
                       PASS if ok else FAIL)


def _ranges():
    """Inseparability ranges of the two distinguished machines, by two routes each."""
    for tag, xi, half in (("optimal", XI_OPTIMAL, math.sqrt(39.0) / 16.0),
                          ("widest", XI_BOUNDARY, math.sqrt(3.0) / 4.0)):
        p = make_cloner_parameter(xi)
        pred = nonlocal_inseparable_predicate(p)
        numeric = [boundary_bisect(p, pred, side, tol=1e-10) for side in ("lower", "upper")]
        closed = nonlocal_inseparability_range(p)
        desc = f"cross-site inseparability range of alpha^2 at xi={xi:.8f}"
        for route, how, ends, tol in (
                ("numeric", "numeric PPT bisection", numeric, 1e-8),
                ("closed", "closed form", (closed.lo, closed.hi), 1e-12)):
            for side, expect, end in zip(("lower", "upper"), (0.5 - half, 0.5 + half), ends):
                yield _equal(f"range.{tag}.{route}.{side}", f"{desc} ({how})", expect, end, tol)


def _range_bound():
    """Validity bound of the nonlocal range."""
    xi_bound = analysis.XI_NONLOCAL_MAX
    try:
        nonlocal_inseparability_range(make_cloner_parameter(xi_bound + 1e-6))
        above_undefined = False
    except RangeUndefinedError:
        above_undefined = True
    yield _bool("range.bound.undefined_above",
                "nonlocal range undefined just above xi = 1/2 - 1/(2 sqrt 3)",
                above_undefined)
    rng = nonlocal_inseparability_range(make_cloner_parameter(xi_bound))
    yield _upper_bound("range.bound.degenerate",
                       "nonlocal range degenerates to a point at the bound",
                       0.0, rng.width, 1e-6)


def _bell():
    """Unfiltered CHSH: the Bell threshold in xi, and M at most 1/2 on admissible machines."""
    # Bell threshold in xi (analysis-only; below the machine's range), bisected
    # between xi = 0, where M exceeds 1, and 0.2, where it does not, to
    # adjacent floats (a tol below one ulp): 54 steps. Argmax
    # certificate: T = diag(2D, -2D, t_z) with t_z = A + B - 2C = eta^2 and
    # 4D^2 = 4 a^2 b^2 eta^4 <= eta^4, so M = eta^4 (1 + 4 a^2 b^2), which is
    # largest over alpha^2 at alpha^2 = 1/2; some alpha^2 violates CHSH at xi
    # exactly when alpha^2 = 1/2 does. As eta^4 falls in xi, M over the
    # admissible machines is largest at xi = XI_LOWER, alpha^2 = 1/2
    yield _equal("bell.threshold_xi",
                 "largest xi admitting any CHSH-violating alpha^2",
                 analysis.XI_BELL_MAX,
                 bisect(bell_violated_predicate(0.5), 0.0, 0.2, 1e-300),
                 1e-16)
    max_m = evaluate({"bellM"}, XI_BOUNDARY, 0.5)["bellM"]
    yield _bool("bell.no_interval_in_machine_range",
                "no CHSH-violating alpha^2 interval for any admissible machine",
                max_m <= 1.0)
    yield _upper_bound("bell.unfiltered_max",
                       "Horodecki quantity M (no filter) at its certified argmax "
                       f"alpha^2=0.5, xi={XI_BOUNDARY:.8f}",
                       0.5, max_m, 1e-9)


def _filtering():
    """Filtering cannot push M past 1."""
    # Exact over every diagonal filter, not a grid: with s = rm rp and
    # rm^2 + rp^2 >= 2s, 1 - t_x^2 - t_z^2 >= 0 for all filters iff g1 >= 0, and
    # 1 - 2 t_x^2 >= 0 iff g2 >= 0, both tight at rm = rp = (B/A)^(1/4)
    for cid, a2, xi in (("bell.filtered.widest", 0.5, XI_BOUNDARY),
                        ("bell.filtered.optimal_offcenter", 0.2, XI_OPTIMAL)):
        yield _lower_bound(
            cid, f"filter certificate min(g1, g2) at alpha^2={a2}, xi={xi:.8f} "
                 "(>= 0: no diagonal local filter pushes M past 1)",
            0.0, filter_certificate(a2, xi), 0.0)


def _werner_fidelity():
    """Werner weights and teleportation fidelities at alpha = 1/sqrt(2)."""
    half = evaluate({"wernerX", "fidelity"}, np.array([XI_OPTIMAL, XI_BOUNDARY]), 0.5)
    for k, (cid, xi, x_expect, f_expect) in enumerate((
            ("optimal", XI_OPTIMAL, 4.0 / 9.0, 13.0 / 18.0),
            ("widest", XI_BOUNDARY, 0.5, 0.75))):
        yield _equal(f"werner.x.{cid}",
                     f"Werner weight of the cross-site state at xi={xi:.8f}",
                     x_expect, half["wernerX"][k], 1e-12)
        yield _equal(f"fidelity.{cid}",
                     f"teleportation fidelity of the cross-site state at xi={xi:.8f}",
                     f_expect, half["fidelity"][k], 1e-12)
    # certificate: a Werner state has A = B, and asym = A - B = (a^2 - b^2) eta
    off_half = nonlocal_entries(np.array([0.3, 0.45, 0.55]), XI_OPTIMAL)
    yield _bool("werner.only_maximally_entangled",
                "Werner form unattainable off alpha^2 = 1/2",
                bool(np.all(off_half.asym != 0.0)))


def _oracle():
    """One oracle call: its pair states and their dense measures against the closed forms."""
    xis, a2 = (XI_OPTIMAL, 0.20, 0.30, 0.45), np.arange(0.1, 0.95, 0.1)
    pairs = oracle_states(a2, [make_cloner_parameter(xi) for xi in xis])
    dense = dense_quantities(pairs["a1b1"], pairs["a1b2"])
    xi = np.array(xis)[:, None]
    # every entry of each 4x4, the zeros off the X included, in float64
    same, cross = (e.matrix().real for e in (local_entries(a2, xi), nonlocal_entries(a2, xi)))
    want = {"a1b1": same, "a2b2": same, "a1b2": cross, "a2b1": cross,
            **evaluate(dense.keys(), xi, a2)}
    dev = max(float(abs(v - want[k]).max()) for k, v in (pairs | dense).items())
    yield _upper_bound("oracle.equivalence",
                       "state-vector oracle vs closed forms: max deviation of its states, "
                       "and of their dense measures from evaluate",
                       0.0, dev, 1e-12)


def _universality():
    """The literal machine is not universal away from xi = 1/6 and 1/2: a DISCREPANCY."""
    rep_opt = universality_report(make_cloner_parameter(XI_OPTIMAL), MachineKind.LITERAL_2D)
    yield _upper_bound("universality.literal_at_optimal",
                       "fidelity spread of the literal machine at xi=1/6",
                       0.0, rep_opt.spread, 1e-12)
    low = make_cloner_parameter(XI_BOUNDARY)
    rep_low = universality_report(low, MachineKind.LITERAL_2D)
    # the literal machine's equator and pole fidelities differ by |eta - 2 sqrt(eta xi)|/2
    spread_want = abs(low.eta - 2.0 * math.sqrt(low.eta * low.xi)) / 2.0
    spread_ok = abs(rep_low.spread - spread_want) <= 1e-12
    yield ClaimResult(
        "universality.literal_below_one_sixth",
        "literal machine is input-dependent at the lower xi bound "
        "(universal abstract machine does not exist there)",
        spread_want, rep_low.spread, 1e-12,
        DISCREPANCY if spread_ok else FAIL)


def verify_claims():
    """Recompute and check every headline claim; returns a list of ClaimResult."""
    groups = (_ranges(), _range_bound(), _bell(), _filtering(),
              _werner_fidelity(), _oracle(), _universality())
    return [claim for group in groups for claim in group]
