import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbroadcast import analysis, claims
from entbroadcast.analysis import bisect, dense_quantities, evaluate
from entbroadcast.broadcast import local_entries, nonlocal_entries, oracle_states
from entbroadcast.cloner import XI_LOWER, XI_UPPER, make_cloner_parameter


def _claim(claim_id):
    (claim,) = [c for c in claims.verify_claims() if c.claim_id == claim_id]
    return claim


def test_bell_threshold_does_not_use_the_closed_form(monkeypatch):
    # the closed-form range contains the expected 1/2 - 2^(-5/4) and is empty
    # over the machine's range; both Bell claims must come from the numeric M
    # alone, so each reads the same with the closed form made to fail
    def bell_claims():
        return [c for c in claims.verify_claims() if c.claim_id in
                ("bell.threshold_xi", "bell.no_interval_in_machine_range")]

    expected = bell_claims()

    def closed_form(p):
        raise AssertionError("the closed-form Bell range was read")

    monkeypatch.setattr(analysis, "bell_violation_range", closed_form)
    monkeypatch.setattr(claims, "bell_violation_range", closed_form, raising=False)
    got = bell_claims()
    assert got == expected and len(got) == 2
    assert all(c.verdict == claims.PASS for c in got)


def _bell_violated(xi):
    """The scalar reference, with no argmax assumed: True when the numeric M
    of the cross-site state at xi exceeds 1 somewhere on an alpha^2 grid."""
    return bool(np.max(evaluate({"bellM"}, xi, np.linspace(0.0, 1.0, 101))["bellM"]) > 1.0)


def test_bell_threshold_is_the_scalar_bisection():
    """To adjacent floats (tol 1e-300), 2 ulps below XI_BELL_MAX."""
    want = bisect(_bell_violated, 0.0, 0.2, 1e-300)
    assert want == float.fromhex("0x1.45d819a94b14ap-4")
    assert _claim("bell.threshold_xi").computed == want


# dense on [0, 1], and within 1e-7 of 1/2
_ARGMAX_ALPHA_SQ = np.concatenate([np.linspace(0.0, 1.0, 2001),
                                   0.5 + np.linspace(-1e-7, 1e-7, 201)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([0.0, analysis.XI_BELL_MAX, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_bell_m_is_largest_at_half(xi):
    """The Bell claims' argmax certificate: M = eta^4 (1 + 4 a^2 b^2) is at
    most M at alpha^2 = 1/2. The slack is rounding only: at 576 of 2,001
    evenly spaced xi, M on this grid exceeds M at 1/2 by up to 2 eps."""
    m = evaluate({"bellM"}, xi, _ARGMAX_ALPHA_SQ)["bellM"]
    assert np.max(m) <= evaluate({"bellM"}, xi, 0.5)["bellM"] + 8 * np.finfo(float).eps


def test_unfiltered_max_is_the_admissible_maximum():
    """bell.unfiltered_max reads M at its certified argmax: no point of a
    401x2001 admissible (xi, alpha^2) grid, ends included, exceeds it by more
    than rounding (the grid holds the argmax, and its maximum is that M)."""
    xi = np.linspace(XI_LOWER, XI_UPPER, 401)[:, None]
    grid_max = np.max(evaluate({"bellM"}, xi, np.linspace(0.0, 1.0, 2001))["bellM"])
    assert _claim("bell.unfiltered_max").computed >= grid_max - 8 * np.finfo(float).eps


def test_oracle_block_deviation_is_the_per_xi_loop():
    """The claim's (4, 9) block of oracle states, measures and closed forms
    gives, bit for bit, the deviation of one xi at a time."""
    dev = 0.0
    a2 = np.arange(0.1, 0.95, 0.1)
    for xi in (1.0 / 6.0, 0.20, 0.30, 0.45):
        pairs = oracle_states(a2, make_cloner_parameter(xi))
        dense = dense_quantities(pairs["a1b1"], pairs["a1b2"])
        same, cross = local_entries(a2, xi).matrix(), nonlocal_entries(a2, xi).matrix()
        want = {"a1b1": same, "a2b2": same, "a1b2": cross, "a2b1": cross,
                **evaluate(dense.keys(), xi, a2)}
        dev = max(dev, *(float(np.max(np.abs(v - want[k]))) for k, v in (pairs | dense).items()))
    claim = _claim("oracle.equivalence")
    assert claim.computed == dev
    assert claim.verdict == claims.PASS


@pytest.mark.parametrize("entry", range(16))
@pytest.mark.parametrize("name", ["a1b1", "a2b2", "a1b2", "a2b1"])
def test_oracle_equivalence_sees_every_entry_of_every_pair(monkeypatch, name, entry):
    """A deviation of 1e-9 in any one of the 16 entries of one oracle state,
    a zero off the X included, fails the claim."""
    def perturbed(alpha_sq, p):
        pairs = oracle_states(alpha_sq, p)
        pairs[name][2, 5].flat[entry] += 1e-9
        return pairs

    monkeypatch.setattr(claims, "oracle_states", perturbed)
    (claim,) = claims._oracle()
    assert claim.claim_id == "oracle.equivalence"
    assert claim.verdict == claims.FAIL
    assert claim.computed >= 1e-9 - 1e-15


@pytest.mark.parametrize("quantity", ["pptLocal", "pptNonlocal", "bellM", "fidelity"])
def test_oracle_equivalence_sees_every_closed_form_measure(monkeypatch, quantity):
    """The expected measures come from the entries that also give the
    expected states: a closed-form value moved by 1e-9 at one point fails
    the claim."""
    def perturbed(*args):
        values = analysis.entry_quantities(*args)
        values[quantity][2, 5] += 1e-9
        return values

    monkeypatch.setattr(claims, "entry_quantities", perturbed)
    (claim,) = claims._oracle()
    assert claim.verdict == claims.FAIL
    assert claim.computed >= 1e-9 - 1e-15


def test_verify_claims_are_the_groups_in_order():
    """One tuple lists the groups in report order; the report is their claims."""
    assert [g.__name__ for g in claims.CLAIM_GROUPS] == [
        "_ranges", "_range_bound", "_bell", "_filtering", "_werner_fidelity", "_oracle",
        "_universality"]
    assert claims.verify_claims() == [c for g in claims.CLAIM_GROUPS for c in g()]
