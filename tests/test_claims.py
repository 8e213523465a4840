import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entbroadcast import claims
from entbroadcast.analysis import bisect, dense_quantities, evaluate
from entbroadcast.broadcast import local_entries, nonlocal_entries, oracle_states
from entbroadcast.cloner import make_cloner_parameter


def _claim(claim_id):
    (claim,) = [c for c in claims.verify_claims(filter_budget=1) if c.claim_id == claim_id]
    return claim


def test_bell_threshold_does_not_use_the_closed_form(monkeypatch):
    # the closed-form range contains the expected 1/2 - 2^(-5/4); the claim
    # must find it from the numeric M alone
    expected = _claim("bell.threshold_xi")
    monkeypatch.setattr(claims, "bell_violation_range", lambda p: None)
    got = _claim("bell.threshold_xi")
    assert got.computed == expected.computed
    assert got.verdict == claims.PASS


def _bell_violated(xi):
    """The scalar reference: True when the numeric M of the cross-site state
    at xi exceeds 1 somewhere on the claim's alpha^2 grid."""
    return bool(np.max(evaluate({"bellM"}, xi, claims._BELL_ALPHA_SQ)["bellM"]) > 1.0)


def test_bell_threshold_is_the_scalar_bisection():
    want = bisect(_bell_violated, 0.0, 0.2, 1e-9)
    assert bisect(claims._tree_predicate(claims._bell_violated, 0.0, 0.2), 0.0, 0.2, 1e-9) == want
    assert _claim("bell.threshold_xi").computed == want
    xi = np.linspace(0.0, 0.2, 41)
    assert list(claims._bell_violated(xi)) == [_bell_violated(float(x)) for x in xi]


def _threshold_predicate(inside, outside, at):
    """The elementwise predicate that holds on the ``inside`` side of a
    threshold at the fraction ``at`` of the way from inside to outside."""
    threshold = inside + at * (outside - inside)
    if inside < outside:
        return lambda x: x <= threshold
    return lambda x: x >= threshold


ends = st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(ends, ends, st.floats(0.0, 1.0), st.sampled_from([1e-300, 1e-12, 1e-3]))
def test_block_walk_takes_the_steps_of_bisect(inside, outside, at, tol):
    """Both orders of the ends; tol 1e-300 ends at adjacent floats."""
    assume(inside != outside)
    holds = _threshold_predicate(inside, outside, at)
    visited, calls = [], []

    def scalar(x):
        visited.append(x)
        return bool(holds(x))

    def block(xs):
        calls.append(xs.tolist())
        return holds(xs)

    want = bisect(scalar, inside, outside, tol)
    assert bisect(claims._tree_predicate(block, inside, outside), inside, outside, tol) == want
    assert set(visited) <= {x for points in calls for x in points}
    # one tree of 2^levels - 1 points per up to ``levels`` steps
    levels = claims._TREE_LEVELS
    assert len(calls) == -(-len(visited) // levels)
    assert all(len(points) == 2**levels - 1 for points in calls)


@settings(max_examples=100, deadline=None)
@given(ends, ends, st.floats(1.0, 1e3))
def test_block_walk_decides_nothing_within_tol(inside, outside, widen):
    assume(inside != outside)
    tol = abs(outside - inside) * widen

    def never(x):
        raise AssertionError("the predicate was called")

    tree = claims._tree_predicate(never, inside, outside)
    assert bisect(tree, inside, outside, tol) == bisect(never, inside, outside, tol)


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
