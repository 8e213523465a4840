"""Acceptance suite: every headline quantitative claim at its pinned tolerance.

Each test prints one PASS line on success (run with -s or -v to see them).
"""

import csv
import json
import math

import numpy as np
import pytest

from entbroadcast.analysis import (
    XI_NONLOCAL_MAX,
    FilterParams,
    RangeUndefinedError,
    bell_quantity_m,
    bell_violation_range,
    boundary_bisect,
    filter_certificate,
    gisin_filter,
    local_separability_range,
    local_separable_predicate,
    nonlocal_inseparability_range,
    nonlocal_inseparable_predicate,
    ppt_test,
    teleportation_fidelity,
    werner_decompose,
)
from entbroadcast.broadcast import (
    EntangledInput,
    local_state,
    nonlocal_state,
    oracle_broadcast,
)
from entbroadcast.cli import main
from entbroadcast.cloner import (
    XI_LOWER,
    GramNotPSDError,
    MachineKind,
    abstract_machine_vectors,
    analysis_parameter,
    literal_isometry,
    make_cloner_parameter,
    single_clone_density,
    universality_report,
)
from entbroadcast.linalg import dag, outer

OPTIMAL = make_cloner_parameter(1 / 6)
WIDEST = make_cloner_parameter(XI_LOWER)
HALF = EntangledInput.from_alpha_sq(0.5)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_01_inseparability_range_optimal_cloner():
    lo_expect = 0.5 - math.sqrt(39) / 16
    hi_expect = 0.5 + math.sqrt(39) / 16
    pred = nonlocal_inseparable_predicate(OPTIMAL)
    assert abs(boundary_bisect(OPTIMAL, pred, "lower", 1e-10) - lo_expect) <= 1e-8
    assert abs(boundary_bisect(OPTIMAL, pred, "upper", 1e-10) - hi_expect) <= 1e-8
    rng = nonlocal_inseparability_range(OPTIMAL)
    assert abs(rng.lo - lo_expect) <= 1e-12
    assert abs(rng.hi - hi_expect) <= 1e-12
    _report("01 inseparability range at xi=1/6")


def test_02_inseparability_range_widest_cloner():
    lo_expect = 0.5 - math.sqrt(3) / 4
    hi_expect = 0.5 + math.sqrt(3) / 4
    pred = nonlocal_inseparable_predicate(WIDEST)
    assert abs(boundary_bisect(WIDEST, pred, "lower", 1e-10) - lo_expect) <= 1e-8
    assert abs(boundary_bisect(WIDEST, pred, "upper", 1e-10) - hi_expect) <= 1e-8
    rng = nonlocal_inseparability_range(WIDEST)
    assert abs(rng.lo - lo_expect) <= 1e-12
    assert abs(rng.hi - hi_expect) <= 1e-12
    _report("02 inseparability range at the lower xi bound")


def test_03_range_validity_bound():
    with pytest.raises(RangeUndefinedError):
        nonlocal_inseparability_range(make_cloner_parameter(XI_NONLOCAL_MAX + 1e-6))
    rng = nonlocal_inseparability_range(make_cloner_parameter(XI_NONLOCAL_MAX))
    assert rng.width <= 1e-6
    _report("03 nonlocal range validity bound")


def test_04_oracle_equivalence():
    worst = 0.0
    for xi in (1 / 6, 0.20, 0.30, 0.45):
        p = make_cloner_parameter(xi)
        for a2 in np.arange(0.1, 0.95, 0.1):
            inp = EntangledInput.from_alpha_sq(float(a2))
            out = oracle_broadcast(inp, p)
            worst = max(
                worst,
                float(np.max(np.abs(out.local_state - local_state(inp, p)))),
                float(np.max(np.abs(out.nonlocal_state - nonlocal_state(inp, p)))),
            )
    assert worst <= 1e-12
    _report(f"04 oracle equivalence over 36 cases (max dev {worst:.2e})")


def test_05_complementarity():
    rng_states = np.random.default_rng(2024)
    for xi in np.linspace(XI_LOWER, XI_NONLOCAL_MAX, 20):
        p = make_cloner_parameter(float(xi))
        nl = nonlocal_inseparability_range(p)
        loc = local_separability_range(p)
        assert nl.subset_of(loc, slack=1e-12)
    p = make_cloner_parameter(0.18)
    nl = nonlocal_inseparability_range(p)
    for a2 in rng_states.uniform(nl.lo + 1e-6, nl.hi - 1e-6, size=50):
        inp = EntangledInput.from_alpha_sq(float(a2))
        assert not ppt_test(nonlocal_state(inp, p)).separable
        assert ppt_test(local_state(inp, p)).separable
    _report("05 complementarity of local/nonlocal separability")


def test_06_bell_non_violation_and_threshold():
    max_m = max(
        bell_quantity_m(nonlocal_state(EntangledInput.from_alpha_sq(float(a2)),
                                       make_cloner_parameter(float(xi))))
        for xi in np.linspace(XI_LOWER, 0.5, 20)
        for a2 in np.linspace(0.0, 1.0, 200)
    )
    assert max_m <= 0.5 + 1e-9
    for xi in np.linspace(XI_LOWER, 0.5, 20):
        assert bell_violation_range(analysis_parameter(float(xi))) is None
    # bisect the xi threshold below which a violation interval exists
    lo, hi = 0.0, 0.2
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if bell_violation_range(analysis_parameter(mid)) is not None:
            lo = mid
        else:
            hi = mid
    thr = 0.5 * (lo + hi)
    assert abs(thr - (0.5 - 2 ** (-1.25))) <= 1e-9
    _report(f"06 Bell non-violation (max M {max_m:.6f}, threshold xi {thr:.9f})")


def test_07_filtering_cannot_rescue_bell():
    # filter_certificate >= 0: no diagonal local filter pushes M past 1; the
    # dense filter rm = rp = (B/A)^(1/4), where the bound is tight, agrees
    for alpha_sq, p in ((0.5, WIDEST), (0.2, OPTIMAL)):
        assert filter_certificate(alpha_sq, p.xi) >= 0.0
        rho = nonlocal_state(EntangledInput.from_alpha_sq(alpha_sq), p)
        r = (rho[3, 3].real / rho[0, 0].real) ** 0.25
        assert bell_quantity_m(gisin_filter(rho, FilterParams(r, 1.0, r, 1.0))) <= 1.0
    _report("07 filtering cannot induce Bell violation (filter certificate >= 0)")


def test_08_werner_decomposition():
    for xi in (1 / 6, XI_LOWER, 0.2, 0.3, 0.45):
        p = make_cloner_parameter(xi)
        dec = werner_decompose(nonlocal_state(HALF, p), tol=1e-8)
        assert dec is not None
        assert abs(dec.x - p.eta**2) <= 1e-12
    for a2 in (0.3, 0.45, 0.55):
        rho = nonlocal_state(EntangledInput.from_alpha_sq(a2), OPTIMAL)
        assert werner_decompose(rho, tol=1e-8) is None
    assert abs(werner_decompose(nonlocal_state(HALF, OPTIMAL)).x - 4 / 9) <= 1e-12
    assert abs(werner_decompose(nonlocal_state(HALF, WIDEST)).x - 0.5) <= 1e-12
    _report("08 Werner decomposition (x = 4/9 and 1/2 at the distinguished machines)")


def test_09_teleportation_fidelity():
    assert abs(teleportation_fidelity(nonlocal_state(HALF, OPTIMAL)) - 13 / 18) <= 1e-12
    assert abs(teleportation_fidelity(nonlocal_state(HALF, WIDEST)) - 0.75) <= 1e-12
    for xi in np.linspace(XI_LOWER, 0.5, 20):
        p = make_cloner_parameter(float(xi))
        for a2 in np.linspace(0.0, 1.0, 20):
            inp = EntangledInput.from_alpha_sq(float(a2))
            f = teleportation_fidelity(nonlocal_state(inp, p))
            closed = 0.5 * (1 + p.eta**2 * (1 + 4 * inp.alpha * inp.beta) / 3)
            assert abs(f - closed) <= 1e-12
    _report("09 teleportation fidelity (13/18 and 3/4; closed form on 20x20 grid)")


def test_10_cloner_audits():
    for xi in np.linspace(XI_LOWER, 0.5, 15):
        v = literal_isometry(make_cloner_parameter(float(xi)))
        assert np.max(np.abs(dag(v) @ v - np.eye(2))) <= 1e-14
    rng = np.random.default_rng(7)
    for xi in (1 / 6, 0.25, 0.4):
        p = make_cloner_parameter(xi)
        for _ in range(100):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            rho_in = outer(v)
            rho_a = single_clone_density(rho_in, p, MachineKind.ABSTRACT_BH)
            assert np.max(np.abs(rho_a - (p.eta * rho_in + p.xi * np.eye(2)))) <= 1e-12
    for xi in (0.147, 0.16):
        with pytest.raises(GramNotPSDError):
            abstract_machine_vectors(make_cloner_parameter(xi))
    for xi in (1 / 6, 0.2):
        abstract_machine_vectors(make_cloner_parameter(xi))
    rep_opt = universality_report(OPTIMAL, MachineKind.LITERAL_2D)
    assert rep_opt.spread <= 1e-12
    rep_low = universality_report(WIDEST, MachineKind.LITERAL_2D)
    # documented discrepancy, not a failure: the pole and equator fidelities differ
    eta, xi = WIDEST.eta, WIDEST.xi
    assert abs(rep_low.spread - abs(eta - 2 * math.sqrt(eta * xi)) / 2) <= 1e-12
    _report(f"10 cloner audits (literal spread at lower bound {rep_low.spread:.4f})")


def test_11_cli_verify_and_round_trip(tmp_path):
    json_path = tmp_path / "claims.json"
    csv_path = tmp_path / "claims.csv"
    assert main(["verify", "--format", "json", "--out", str(json_path)]) == 0
    assert main(["verify", "--format", "csv", "--out", str(csv_path)]) == 0
    claims = json.loads(json_path.read_text())
    assert all(c["verdict"] in ("PASS", "DISCREPANCY") for c in claims)
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == len(claims)
    for r, c in zip(rows, claims):
        assert r["claim_id"] == c["claim_id"]
        for k in ("expected", "computed", "tolerance"):
            assert float(r[k]) == c[k]
    second = tmp_path / "claims2.json"
    assert main(["verify", "--format", "json", "--out", str(second)]) == 0
    assert second.read_bytes() == json_path.read_bytes()
    _report("11 CLI verify exits clean; CSV/JSON round-trip; byte-identical reruns")
