"""The closed forms of ``evaluate`` against the dense 4x4 measures, and the
stack-aware dense measures against themselves, one state at a time.

``evaluate`` computes every sweep quantity from the entries of the X-states;
on the dense states built from the same entries, the dense measures must
give the same values within a stated absolute tolerance, and ``wernerX``
must follow the analytic rule. Every dense measure but the Werner fit, which
fits one matrix, takes one state or a stack of states; on a stack it must
give, for each state, exactly the value it gives for that state alone. The
filter search, which computes M over its grid from the entries, must find
what a plain double loop over the dense filter and the dense M finds; the
bisection predicates, which decide from the entries by ``evaluate``'s
partial-transpose eigenvalue, must find the boundaries that the dense
eigenvalue finds.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entbroadcast import analysis, broadcast
from entbroadcast.analysis import (
    XI_LOCAL_MAX,
    XI_NONLOCAL_MAX,
    DegenerateFilterError,
    FilterParams,
    _bell_m,
    _correlation,
    _fidelity,
    _min_pt_eigenvalue,
    bell_quantity_m,
    boundary_bisect,
    dense_quantities,
    evaluate,
    filter_search_max_m,
    gisin_filter,
    local_separable_predicate,
    nonlocal_inseparable_predicate,
    werner_decompose,
)
from entbroadcast.broadcast import (
    EntangledInput,
    local_entries,
    local_state,
    local_states,
    nonlocal_entries,
    CrossSiteEntries,
    nonlocal_state,
    nonlocal_state_entries,
    nonlocal_states,
)
from entbroadcast.cloner import (
    XI_LOWER,
    OutOfRangeError,
    analysis_parameter,
    make_cloner_parameter,
)

alpha_sqs = st.one_of(st.just(0.5), st.floats(0.0, 1.0))


def _points(xi_hi):
    return st.lists(st.tuples(st.floats(0.0, xi_hi), alpha_sqs), min_size=1, max_size=12)


def _density_stacks():
    """Random 4x4 density matrices, mixed with Werner states and I/4."""
    entries = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2), st.just(4),
                                           st.just(4)),
                     elements=st.floats(-1.0, 1.0))
    return st.tuples(entries, st.floats(0.0, 1.0))


def _as_states(raw, werner_x):
    a = raw[:, 0] + 1j * raw[:, 1]
    rho = a @ np.swapaxes(a, -1, -2).conj() + 1e-3 * np.eye(4)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    werner = werner_x * np.outer(phi, phi) + (1.0 - werner_x) / 4.0 * np.eye(4)
    return np.concatenate([rho, [werner, np.eye(4) / 4.0]]).astype(complex)


def _assert_each_equal(fn, states):
    """fn(states)[k] == fn(states[k]) exactly, nan where nan."""
    got = np.asarray(fn(states))
    want = np.array([fn(rho) for rho in states])
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def _check_measures(states):
    _assert_each_equal(_min_pt_eigenvalue, states)
    _assert_each_equal(_correlation, states)
    t = _correlation(states).real
    _assert_each_equal(_bell_m, t)
    _assert_each_equal(_fidelity, t)


@settings(max_examples=60, deadline=None)
@given(_points(1.0))
def test_nonlocal_stack_matches_scalar_path(points):
    xi, a2 = np.array(points).T
    stack = nonlocal_states(a2, xi)
    for k, rho in enumerate(stack):
        single = nonlocal_state(EntangledInput.from_alpha_sq(a2[k]), analysis_parameter(xi[k]))
        np.testing.assert_array_equal(rho, single)
    _check_measures(stack)


@settings(max_examples=40, deadline=None)
@given(_points(0.5))
def test_local_stack_matches_scalar_path(points):
    xi, a2 = np.array(points).T
    stack = local_states(a2, xi)
    for k, rho in enumerate(stack):
        single = local_state(EntangledInput.from_alpha_sq(a2[k]), analysis_parameter(xi[k]))
        np.testing.assert_array_equal(rho, single)
    _assert_each_equal(_min_pt_eigenvalue, stack)


@settings(max_examples=60, deadline=None)
@given(_density_stacks())
def test_general_states_match_scalar_path(drawn):
    states = _as_states(*drawn)
    _check_measures(states)
    # more than one leading axis
    np.testing.assert_array_equal(_min_pt_eigenvalue(states[None])[0],
                                  _min_pt_eigenvalue(states))
    # the partial transpose on the second qubit, written out entry by entry
    pt = np.empty_like(states)
    for i0, i1, j0, j1 in itertools.product(range(2), repeat=4):
        pt[:, 2 * i0 + i1, 2 * j0 + j1] = states[:, 2 * i0 + j1, 2 * j0 + i1]
    np.testing.assert_array_equal(_min_pt_eigenvalue(states), np.linalg.eigvalsh(pt)[:, 0])


# evaluate's closed forms against the dense measures of the dense states
CLOSED_FORM_TOL = 1e-13  # absolute
# alpha^2 at 1/2 exactly, anywhere, and within 1e-6 of 1/2
closed_alpha_sqs = st.one_of(st.just(0.5), st.floats(0.0, 1.0),
                             st.floats(0.5 - 1e-6, 0.5 + 1e-6))


def _closed_points(xi_hi):
    return st.lists(st.tuples(st.floats(0.0, xi_hi), closed_alpha_sqs),
                    min_size=1, max_size=12)


def _assert_close(got, want):
    for q, v in want.items():
        np.testing.assert_allclose(got[q], v, rtol=0.0, atol=CLOSED_FORM_TOL, err_msg=q)


@settings(max_examples=150, deadline=None)
@given(_closed_points(1.0))
def test_cross_site_closed_forms_match_dense_measures(points):
    xi, a2 = np.array(points).T
    rho = nonlocal_states(a2, xi)
    t = _correlation(rho).real
    _assert_close(evaluate({"pptNonlocal", "bellM", "fidelity"}, xi, a2),
                  {"pptNonlocal": _min_pt_eigenvalue(rho), "bellM": _bell_m(t),
                   "fidelity": _fidelity(t)})


@settings(max_examples=150, deadline=None)
@given(_closed_points(0.5))
def test_all_closed_forms_match_dense_measures(points):
    xi, a2 = np.array(points).T
    want = dense_quantities(local_states(a2, xi), nonlocal_states(a2, xi))
    assert set(want) == {"pptNonlocal", "pptLocal", "bellM", "fidelity"}
    _assert_close(evaluate(want, xi, a2), want)


# Off alpha^2 = 1/2 by at least 1e-6, the top eigenvector's cos^2 is at least
# about 1e-6 from 1/2, far beyond the default Werner tolerance of 1e-8.
werner_alpha_sqs = st.one_of(st.just(0.5),
                             st.floats(0.0, 1.0).filter(lambda a: abs(a - 0.5) >= 1e-6))
werner_xis = st.one_of(st.floats(0.0, 1.0),
                       st.floats(0.5 - 1e-4, 0.5, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(werner_xis, werner_alpha_sqs), min_size=1, max_size=12))
def test_werner_weight_follows_the_analytic_rule(points):
    """eta^2 at alpha^2 = 1/2, else nan, wherever the weight of the top
    eigenvalue resolves the state from I/4."""
    xi, a2 = np.array(points).T
    got = evaluate({"wernerX"}, xi, a2)["wernerX"]
    eta = 1.0 - 2.0 * xi
    at_half = a2 == 0.5
    np.testing.assert_allclose(got[at_half], eta[at_half] ** 2, rtol=0.0, atol=1e-12)
    # (4 lambda_max - 1)/3 in exact terms: (eta^2 + 4 hypot((A - B)/2, D))/3
    top = (eta**2 + 2.0 * np.hypot((2.0 * a2 - 1.0) * eta,
                                   2.0 * np.sqrt(a2 * (1.0 - a2)) * eta**2)) / 3.0
    off = ~at_half
    assert np.all(np.isnan(got[off & (top > 1e-14)]))
    # below that the state is I/4 to the precision of its entries
    assert np.all(~(got[off & (top <= 1e-14)] > 1e-14))


def test_evaluate_builds_no_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a dense matrix was built or decomposed")

    monkeypatch.setattr(broadcast, "_x_stack", no_matrix)
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_matrix)
    with pytest.raises(AssertionError):
        nonlocal_states([0.5], [0.2])  # the patch is live
    xi = np.linspace(XI_LOWER, 0.5, 7)[:, None]
    a2 = np.linspace(0.0, 1.0, 5)[None, :]
    values = evaluate(("pptNonlocal", "pptLocal", "bellM", "fidelity"), xi, a2)
    assert {v.shape for v in values.values()} == {(7, 5)}
    x = evaluate({"wernerX"}, xi, a2)["wernerX"]
    assert x.shape == (7, 5)
    assert not np.isnan(x[:, 2]).any() and np.isnan(x[:-1, [0, 1, 3, 4]]).all()


def test_dense_fit_and_evaluate_agree_on_a_mixed_stack():
    a2 = np.array([0.5, 0.3, 0.5, 0.7])
    xi = np.array([1 / 6, 1 / 6, 0.3, 0.3])
    fits = [werner_decompose(rho, 1e-8) for rho in nonlocal_states(a2, xi)]
    x = np.array([math.nan if fit is None else fit.x for fit in fits])
    assert np.isnan(x).tolist() == [False, True, False, True]
    got = evaluate({"wernerX"}, xi, a2)["wernerX"]
    np.testing.assert_array_equal(np.isnan(got), np.isnan(x))
    assert np.nanmax(np.abs(got - x)) <= 1e-15
    assert got[0] == evaluate({"wernerX"}, 1 / 6, 0.5)["wernerX"]


def test_stacks_raise_at_first_unphysical_point():
    xi = np.array([0.2, 0.7, -0.3, 1.5])
    with pytest.raises(OutOfRangeError, match=r"xi=0\.7 outside \[0\.0, 0\.5\]"):
        local_states(np.full(4, 0.3), xi)
    with pytest.raises(OutOfRangeError, match=r"xi=-0\.3 outside \[0\.0, 1\.0\]"):
        nonlocal_states(np.full(4, 0.3), xi)
    with pytest.raises(OutOfRangeError):
        nonlocal_states([0.3], [math.nan])
    with pytest.raises(ValueError):
        nonlocal_states([1.5], [0.2])
    # the entry functions, and so evaluate, check the same points the same way
    with pytest.raises(OutOfRangeError, match=r"xi=0\.7 outside \[0\.0, 0\.5\]"):
        local_entries(np.full(4, 0.3), xi)
    with pytest.raises(OutOfRangeError, match=r"xi=-0\.3 outside \[0\.0, 1\.0\]"):
        nonlocal_entries(np.full(4, 0.3), xi)
    with pytest.raises(OutOfRangeError, match=r"xi=0\.7 outside \[0\.0, 0\.5\]"):
        evaluate({"pptLocal", "bellM"}, xi, 0.3)
    with pytest.raises(OutOfRangeError, match=r"xi=-0\.3 outside \[0\.0, 1\.0\]"):
        evaluate({"wernerX"}, xi, 0.3)


def _grid_search(inp, p, budget):
    """The filter search as a plain double loop over the public dense measures."""
    rho = nonlocal_state(inp, p)
    ratios = [1.0] if budget == 1 else np.logspace(-3.0, 3.0, budget).tolist()
    best_m, best_f, ties = -math.inf, None, 0
    for rm in ratios:
        for rp in ratios:
            m = bell_quantity_m(gisin_filter(rho, FilterParams(rm, 1.0, rp, 1.0)))
            if m > best_m:
                best_m, best_f, ties = m, FilterParams(rm, 1.0, rp, 1.0), 1
            elif m == best_m:
                ties += 1
    return best_m, best_f, ties


def _search_grid(inp, p, budget):
    """The ratios and the M values that the search itself computes."""
    ratios = np.array([1.0]) if budget == 1 else np.logspace(-3.0, 3.0, budget)
    m = analysis._filtered_bell_m(nonlocal_state_entries(inp, p),
                                  ratios[:, None], ratios[None, :])
    return ratios, m


@pytest.mark.parametrize("budget", [1, 7, 21])
@pytest.mark.parametrize("alpha_sq, xi, tied", [
    (0.5, 0.5 - 0.5 / math.sqrt(2.0), False), (0.2, 1 / 6, False), (0.35, 0.2, False),
    (0.5, 0.2, True),  # A = B: the first and the last grid point tie
    (0.2, 0.5, True),  # eta = 0: the four grid corners tie
])
def test_filter_search_matches_double_loop(alpha_sq, xi, tied, budget):
    inp, p = EntangledInput.from_alpha_sq(alpha_sq), make_cloner_parameter(xi)
    best_m, best_f, ties = _grid_search(inp, p, budget)
    res = filter_search_max_m(inp, p, budget=budget)
    assert abs(res["max_m"] - best_m) <= 1e-15
    if not (tied and budget > 1):
        assert res["argmax"] == best_f  # the earliest grid point of the maximum
        return
    assert ties >= 2  # the tie is exact on the dense route
    # rounding may break the tie either way on the search's route: its point
    # must attain the dense maximum, and be the earliest of its own maximum
    rho = nonlocal_state(inp, p)
    assert abs(bell_quantity_m(gisin_filter(rho, res["argmax"])) - best_m) <= 1e-15
    ratios, m = _search_grid(inp, p, budget)
    row, col = divmod(int(np.flatnonzero(m == m.max())[0]), budget)
    assert res["max_m"] == m.max()
    assert res["argmax"] == FilterParams(ratios[row], 1.0, ratios[col], 1.0)


# The maxima of the dense route, bit for bit, pinned while it was the search;
# the dense double loop must still reproduce them at budget 101.
FILTER_PINS = [
    (0.5, 0.5 - 0.5 / math.sqrt(2.0), "0x1.ffffa6858db6ap-1", 1e3, 1e3),
    (0.2, 1 / 6, "0x1.ffffbd8e3fb2dp-1", 1e-3, 1e-3),
    (0.2, 0.5, "0x1.fffef390cc533p-1", 1e-3, 1e3),
]


@pytest.mark.parametrize("alpha_sq, xi, max_m, m1, p1", FILTER_PINS)
def test_dense_double_loop_keeps_the_pinned_results(alpha_sq, xi, max_m, m1, p1):
    best_m, best_f, _ = _grid_search(EntangledInput.from_alpha_sq(alpha_sq),
                                     make_cloner_parameter(xi), 101)
    assert best_m == float.fromhex(max_m)
    assert best_f == FilterParams(m1, 1.0, p1, 1.0)


@pytest.mark.parametrize("budget", [101, 401])
@pytest.mark.parametrize("alpha_sq, xi, max_m, m1, p1", FILTER_PINS)
def test_filter_search_keeps_its_results(alpha_sq, xi, max_m, m1, p1, budget):
    """The search from the entries stays within 4 ulps of the dense pins."""
    res = filter_search_max_m(EntangledInput.from_alpha_sq(alpha_sq),
                              make_cloner_parameter(xi), budget=budget)
    pin = float.fromhex(max_m)
    assert abs(res["max_m"] - pin) <= 4 * math.ulp(pin)
    if xi == 0.5:  # eta = 0: the four corners tie, and rounding picks one
        assert {res["argmax"].m1, res["argmax"].p1} <= {1e-3, 1e3}
    else:
        assert res["argmax"] == FilterParams(m1, 1.0, p1, 1.0)


log_ratios = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(alpha_sqs, st.floats(0.0, 1.0), log_ratios, log_ratios)
def test_filtered_closed_form_matches_dense_reference(alpha_sq, xi, rm, rp):
    inp, p = EntangledInput.from_alpha_sq(alpha_sq), analysis_parameter(xi)
    rho = nonlocal_state(inp, p)
    # unfiltered, through the public search at its one-point grid
    dense = bell_quantity_m(gisin_filter(rho, FilterParams(1.0, 1.0, 1.0, 1.0)))
    assert abs(filter_search_max_m(inp, p, budget=1)["max_m"] - dense) <= 1e-14
    dense = bell_quantity_m(gisin_filter(rho, FilterParams(rm, 1.0, rp, 1.0)))
    got = analysis._filtered_bell_m(nonlocal_state_entries(inp, p), rm, rp)
    assert abs(got - dense) <= 1e-14


def test_filter_search_reads_its_grid_row_major(monkeypatch):
    """m1/m2 indexes the rows and p1/p2 the columns; of tied maxima, the
    earliest in row-major order wins."""
    monkeypatch.setattr(analysis, "_filtered_bell_m",
                        lambda e, rm, rp: np.where((rm > 1.0) & (rp < 1.0), 2.0, 0.0))
    res = filter_search_max_m(EntangledInput.from_alpha_sq(0.3), make_cloner_parameter(0.2),
                              budget=7)
    assert res == {"max_m": 2.0, "argmax": FilterParams(10.0, 1.0, 1e-3, 1.0)}


def test_filter_search_builds_no_matrix(monkeypatch):
    inp, p = EntangledInput.from_alpha_sq(0.2), make_cloner_parameter(1 / 6)
    want = filter_search_max_m(inp, p, budget=101)

    def no_matrix(*args, **kwargs):
        raise AssertionError("a dense matrix was built or decomposed")

    monkeypatch.setattr(broadcast, "_x_stack", no_matrix)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_matrix)
    for name in ("_correlation", "_bell_m", "gisin_filter"):
        monkeypatch.setattr(analysis, name, no_matrix)
    with pytest.raises(AssertionError):
        nonlocal_state(inp, p)  # the patch is live
    assert filter_search_max_m(inp, p, budget=101) == want


def test_degenerate_filters_raise():
    zero = CrossSiteEntries(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateFilterError):
        analysis._filtered_bell_m(zero, np.ones((2, 1)), np.ones((1, 3)))
    rho = nonlocal_state(EntangledInput.from_alpha_sq(0.5), make_cloner_parameter(0.2))
    with pytest.raises(DegenerateFilterError):
        gisin_filter(rho, FilterParams(1e-80, 1e-80, 1e-80, 1e-80))


# The bisection predicates decide from the entries, by ``evaluate``'s closed
# forms; the dense partial-transpose eigenvalue of the dense states is their
# reference, with the same raw sign tests.

def _dense_nonlocal_predicate(p):
    return lambda a2: _min_pt_eigenvalue(nonlocal_state(EntangledInput.from_alpha_sq(a2), p)) < 0.0


def _dense_local_predicate(p):
    return lambda a2: _min_pt_eigenvalue(local_state(EntangledInput.from_alpha_sq(a2), p)) >= 0.0


# target -> (predicate, its dense reference, the quantity and test it reads,
# the end of the target's xi range)
PREDICATES = {
    "nonlocal": (nonlocal_inseparable_predicate, _dense_nonlocal_predicate,
                 "pptNonlocal", lambda v: v < 0.0, XI_NONLOCAL_MAX),
    "local": (local_separable_predicate, _dense_local_predicate,
              "pptLocal", lambda v: v >= 0.0, XI_LOCAL_MAX),
}


@pytest.mark.parametrize("target", sorted(PREDICATES))
def test_bisection_endpoints_match_the_dense_route(target):
    """Bit for bit at tol 1e-10, and for the cross-site state at every tol;
    within 1e-14 at smaller tols. Over the first 98% of each xi range, as
    the benchmark draws it: toward xi = 1/4 the same-site eigenvalue is
    within rounding of 0 over a band of alpha^2, and the two routes' ends
    there differ by a few 1e-9."""
    pred, dense, _, _, xi_max = PREDICATES[target]
    for xi in XI_LOWER + np.linspace(0.0, 0.98, 25) * (xi_max - XI_LOWER):
        p = make_cloner_parameter(float(xi))
        for side, tol in itertools.product(("lower", "upper"), (1e-10, 1e-14, 1e-300)):
            got = boundary_bisect(p, pred(p), side, tol)
            want = boundary_bisect(p, dense(p), side, tol)
            if target == "nonlocal" or tol == 1e-10:
                assert got == want, (xi, side, tol)
            else:
                assert abs(got - want) <= 1e-14, (xi, side, tol)


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.1, 1.1), alpha_sqs)
def test_predicates_decide_as_evaluate(xi, alpha_sq):
    """Each predicate is evaluate's closed form and sign test, bit for bit,
    and raises OutOfRangeError exactly where the dense builder raises it."""
    p = analysis_parameter(xi)
    for pred, dense, quantity, test, _ in PREDICATES.values():
        try:
            dense(p)(alpha_sq)
        except OutOfRangeError:
            with pytest.raises(OutOfRangeError):
                pred(p)(alpha_sq)
            with pytest.raises(OutOfRangeError):
                evaluate({quantity}, xi, alpha_sq)
        else:
            assert pred(p)(alpha_sq) is test(evaluate({quantity}, xi, alpha_sq)[quantity])


def test_bisection_builds_no_matrix(monkeypatch):
    machines = (make_cloner_parameter(1 / 6), make_cloner_parameter(XI_LOWER))
    cases = [(p, pred, side) for p in machines for pred, *_ in PREDICATES.values()
             for side in ("lower", "upper")]
    want = [boundary_bisect(p, pred(p), side) for p, pred, side in cases]

    def no_matrix(*args, **kwargs):
        raise AssertionError("a dense matrix was built or decomposed")

    monkeypatch.setattr(broadcast, "_x_stack", no_matrix)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_matrix)
    with pytest.raises(AssertionError):
        _dense_local_predicate(cases[0][0])(0.5)  # the patch is live
    assert [boundary_bisect(p, pred(p), side) for p, pred, side in cases] == want
