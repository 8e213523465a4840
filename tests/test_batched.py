"""The closed forms of ``evaluate`` against the dense 4x4 measures, and the
stack-aware dense measures against themselves, one state at a time.

``evaluate`` computes every sweep quantity from the entries of the X-states;
on the dense states built from the same entries, the dense measures must
give the same values within a stated absolute tolerance, and ``wernerX``
must be exactly nan off alpha^2 = 1/2 and xi = 1/2, whatever the entries
round to. Every dense measure but the Werner fit, which fits one matrix,
takes one state or a stack of states; on a stack it must give, for each
state, exactly the value it gives for that state alone. M
after a diagonal filter, computed from the entries, must match the dense
filter and the dense M, and obey the filter certificate's bound; the
bisection predicates, which decide from the entries by ``evaluate``'s
partial-transpose eigenvalue, must find the boundaries that the dense
eigenvalue finds.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entbroadcast import broadcast
from entbroadcast.analysis import (
    XI_BELL_MAX,
    XI_LOCAL_MAX,
    XI_NONLOCAL_MAX,
    DegenerateFilterError,
    FilterParams,
    _bell_m,
    _correlation,
    _fidelity,
    _least_pt_cross,
    _least_pt_same,
    _min_pt_eigenvalue,
    bell_quantity_m,
    bell_violated_predicate,
    bell_violation_range,
    bisect,
    boundary_bisect,
    dense_quantities,
    evaluate,
    filter_certificate,
    gisin_filter,
    local_separability_range,
    local_separable_predicate,
    nonlocal_inseparability_range,
    nonlocal_inseparable_predicate,
    werner_decompose,
)
from entbroadcast.broadcast import (
    EntangledInput,
    local_entries,
    local_state,
    nonlocal_entries,
    nonlocal_state,
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
    stack = nonlocal_entries(a2, xi).matrix()
    for k, rho in enumerate(stack):
        single = nonlocal_state(EntangledInput.from_alpha_sq(a2[k]), analysis_parameter(xi[k]))
        np.testing.assert_array_equal(rho, single)
    _check_measures(stack)


@settings(max_examples=40, deadline=None)
@given(_points(0.5))
def test_local_stack_matches_scalar_path(points):
    xi, a2 = np.array(points).T
    stack = local_entries(a2, xi).matrix()
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
    rho = nonlocal_entries(a2, xi).matrix()
    t = _correlation(rho).real
    _assert_close(evaluate({"pptNonlocal", "bellM", "fidelity"}, xi, a2),
                  {"pptNonlocal": _min_pt_eigenvalue(rho), "bellM": _bell_m(t),
                   "fidelity": _fidelity(t)})


@settings(max_examples=150, deadline=None)
@given(_closed_points(0.5))
def test_all_closed_forms_match_dense_measures(points):
    xi, a2 = np.array(points).T
    want = dense_quantities(local_entries(a2, xi).matrix(), nonlocal_entries(a2, xi).matrix())
    assert set(want) == {"pptNonlocal", "pptLocal", "bellM", "fidelity"}
    _assert_close(evaluate(want, xi, a2), want)


werner_alpha_sqs = st.one_of(st.just(0.5), st.floats(0.0, 1.0))
# xi in [1/2 - 1e-7, 1/2] puts eta below 1.5e-8, the one band where the A - B
# of alpha^2 = 1/2, a few ulps, could move hypot((A - B)/2, d) off |d|
WERNER_BAND = (0.5 - 1e-7, 0.5)
werner_xis = st.one_of(st.just(0.5), st.floats(0.0, 1.0),
                       st.floats(0.5 - 1e-4, 0.5, exclude_max=True), st.floats(*WERNER_BAND))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(werner_xis, werner_alpha_sqs), min_size=1, max_size=12))
# the next float above 1/2 gives the state of alpha^2 = 1/2 bit for bit, but
# its input is not maximally entangled; xi = 1/2 - 2^-54 gives a state within
# rounding of I/4, off the line
@example([(1 / 6, math.nextafter(0.5, 1.0))])
@example([(0.5 - 2.0**-54, 0.3)])
@example([(x, 0.5) for x in np.linspace(*WERNER_BAND, 12)])
@example([(0.5 - k * 2.0**-54, 0.5) for k in range(12)])
def test_werner_weight_follows_the_analytic_rule(points):
    """eta^2 at alpha^2 = 1/2, 0 at xi = 1/2, and nan everywhere else."""
    xi, a2 = np.array(points).T
    got = evaluate({"wernerX"}, xi, a2)["wernerX"]
    eta = 1.0 - 2.0 * xi
    at_half = a2 == 0.5
    np.testing.assert_allclose(got[at_half], eta[at_half] ** 2, rtol=0.0, atol=1e-12)
    assert np.all(got[xi == 0.5] == 0.0)
    assert np.all(np.isnan(got[~at_half & (xi != 0.5)]))


def test_evaluate_builds_no_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a dense matrix was built or decomposed")

    monkeypatch.setattr(broadcast.XStateEntries, "matrix", no_matrix)
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_matrix)
    with pytest.raises(AssertionError):
        nonlocal_entries([0.5], [0.2]).matrix()  # the patch is live
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
    fits = [werner_decompose(rho, 1e-8) for rho in nonlocal_entries(a2, xi).matrix()]
    x = np.array([math.nan if fit is None else fit.x for fit in fits])
    assert np.isnan(x).tolist() == [False, True, False, True]
    got = evaluate({"wernerX"}, xi, a2)["wernerX"]
    np.testing.assert_array_equal(np.isnan(got), np.isnan(x))
    assert np.nanmax(np.abs(got - x)) <= 1e-15
    assert got[0] == evaluate({"wernerX"}, 1 / 6, 0.5)["wernerX"]


def test_stacks_raise_at_first_unphysical_point():
    # the entry functions, and so the matrices and evaluate, check the points in order
    xi = np.array([0.2, 0.7, -0.3, 1.5])
    with pytest.raises(OutOfRangeError, match=r"xi=0\.7 outside \[0\.0, 0\.5\]"):
        local_entries(np.full(4, 0.3), xi)
    with pytest.raises(OutOfRangeError, match=r"xi=-0\.3 outside \[0\.0, 1\.0\]"):
        nonlocal_entries(np.full(4, 0.3), xi)
    with pytest.raises(OutOfRangeError, match=r"xi=nan is not finite"):
        nonlocal_entries([0.3], [math.nan])
    with pytest.raises(ValueError):
        nonlocal_entries([1.5], [0.2])
    # alpha^2 is checked in order too, and the message names the first bad value
    for entries in (nonlocal_entries, local_entries):
        with pytest.raises(ValueError, match=r"alpha\^2=1\.5 outside"):
            entries([0.3, 1.5, -1.0], 0.2)
        with pytest.raises(ValueError, match=r"alpha\^2=nan"):
            entries(math.nan, 0.2)
    with pytest.raises(ValueError, match=r"alpha\^2=1\.5 outside"):
        broadcast.oracle_states(np.array([0.3, 1.5]), make_cloner_parameter(0.3))
    with pytest.raises(OutOfRangeError, match=r"xi=0\.7 outside \[0\.0, 0\.5\]"):
        evaluate({"pptLocal", "bellM"}, xi, 0.3)
    with pytest.raises(OutOfRangeError, match=r"xi=-0\.3 outside \[0\.0, 1\.0\]"):
        evaluate({"wernerX"}, xi, 0.3)


log_ratios = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


def _filtered_bell_m_reference(e, rm, rp):
    """M of the X-state with entries ``e`` after the diagonal filter with
    ratios rm = m1/m2, rp = p1/p2, elementwise over floats or arrays: the
    scale (rm rp, rm, rp, 1) gives N = A s^2 + C rm^2 + C rp^2 + B,
    t_x = 2 D s / N and t_z = (A s^2 + B - C rm^2 - C rp^2) / N, s = rm rp."""
    s = rm * rp
    big_a, c_m, c_p = e.big_a * (s * s), e.c * (rm * rm), e.c * (rp * rp)
    n = big_a + c_m + c_p + e.big_b
    t_x_sq, t_z = (2.0 * e.d * s / n) ** 2, (big_a + e.big_b - c_m - c_p) / n
    return t_x_sq + np.maximum(t_x_sq, t_z * t_z)


@settings(max_examples=300, deadline=None)
@given(alpha_sqs, st.floats(0.0, 1.0), log_ratios, log_ratios)
def test_filtered_closed_form_matches_dense_reference(alpha_sq, xi, rm, rp):
    inp, p = EntangledInput.from_alpha_sq(alpha_sq), analysis_parameter(xi)
    rho, e = nonlocal_state(inp, p), nonlocal_entries(inp.alpha_sq, p.xi)
    # unfiltered: the identity filter
    dense = bell_quantity_m(gisin_filter(rho, FilterParams(1.0, 1.0, 1.0, 1.0)))
    assert abs(_filtered_bell_m_reference(e, 1.0, 1.0) - dense) <= 1e-14
    dense = bell_quantity_m(gisin_filter(rho, FilterParams(rm, 1.0, rp, 1.0)))
    assert abs(_filtered_bell_m_reference(e, rm, rp) - dense) <= 1e-14


def _ratio_grid(budget):
    """The filter ratios: the identity alone, or a log grid over [1e-3, 1e3]."""
    return np.array([1.0]) if budget == 1 else np.logspace(-3.0, 3.0, budget)


def _grid_search(inp, p, budget):
    """M over the ratio grid as a plain double loop over the public dense
    measures: the maximum, the earliest filter in row-major order (m1/m2 the
    row, p1/p2 the column) that attains it, and how many filters attain it."""
    rho = nonlocal_state(inp, p)
    best_m, best_f, ties = -math.inf, None, 0
    for rm in _ratio_grid(budget).tolist():
        for rp in _ratio_grid(budget).tolist():
            m = bell_quantity_m(gisin_filter(rho, FilterParams(rm, 1.0, rp, 1.0)))
            if m > best_m:
                best_m, best_f, ties = m, FilterParams(rm, 1.0, rp, 1.0), 1
            elif m == best_m:
                ties += 1
    return best_m, best_f, ties


def _closed_form_grid(alpha_sq, xi, budget):
    """The ratios and M over the whole grid from the entries, in one call."""
    ratios = _ratio_grid(budget)
    e = nonlocal_entries(alpha_sq, xi)
    return ratios, _filtered_bell_m_reference(e, ratios[:, None], ratios[None, :])


FILTER_CASES = [
    (0.5, 0.5 - 0.5 / math.sqrt(2.0), False), (0.2, 1 / 6, False), (0.35, 0.2, False),
    (0.5, 0.2, True),  # A = B: the first and the last grid point tie
    (0.2, 0.5, True),  # eta = 0: the four grid corners tie
]


@pytest.mark.parametrize("budget", [1, 7, 21])
@pytest.mark.parametrize("alpha_sq, xi, tied", FILTER_CASES)
def test_closed_form_grid_matches_dense_double_loop(alpha_sq, xi, tied, budget):
    inp, p = EntangledInput.from_alpha_sq(alpha_sq), make_cloner_parameter(xi)
    best_m, best_f, ties = _grid_search(inp, p, budget)
    ratios, m = _closed_form_grid(alpha_sq, p.xi, budget)
    row, col = divmod(int(np.argmax(m)), budget)  # the earliest of the maxima
    found = FilterParams(ratios[row], 1.0, ratios[col], 1.0)
    assert abs(m.max() - best_m) <= 1e-15
    if not (tied and budget > 1):
        assert found == best_f
        return
    assert ties >= 2  # the tie is exact on the dense route
    # rounding may break the tie either way on the closed form: its filter
    # must attain the dense maximum
    rho = nonlocal_state(inp, p)
    assert abs(bell_quantity_m(gisin_filter(rho, found)) - best_m) <= 1e-15


# The maxima of the dense route at budget 101, bit for bit, with the filter
# that attains them.
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
def test_closed_form_grid_keeps_the_pinned_results(alpha_sq, xi, max_m, m1, p1, budget):
    """The closed form stays within 4 ulps of the dense pins, on their grid
    and on the finer one that holds it."""
    ratios, m = _closed_form_grid(alpha_sq, make_cloner_parameter(xi).xi, budget)
    row, col = divmod(int(np.argmax(m)), budget)
    pin = float.fromhex(max_m)
    assert abs(m.max() - pin) <= 4 * math.ulp(pin)
    if xi == 0.5:  # eta = 0: the four corners tie, and rounding picks one
        assert {ratios[row], ratios[col]} <= {1e-3, 1e3}
    else:
        assert (ratios[row], ratios[col]) == (m1, p1)


@pytest.mark.parametrize("budget", [1, 21, 101])
@pytest.mark.parametrize("alpha_sq, xi", [(alpha_sq, xi) for alpha_sq, xi, _ in FILTER_CASES])
def test_certificate_bounds_m_on_the_filter_grid(alpha_sq, xi, budget):
    """1 - M >= 4 s^2 min(g1, g2) / N^2, s = rm rp, at every filter of the
    grid, with equality at the tight filter rm = rp = (B/A)^(1/4); at these
    points the certificate is >= 0, so no filter of the grid gives M > 1."""
    p = make_cloner_parameter(xi)
    cert, e = filter_certificate(alpha_sq, p.xi), nonlocal_entries(alpha_sq, p.xi)
    assert cert >= 0.0
    ratios, m = _closed_form_grid(alpha_sq, p.xi, budget)
    rm, rp = ratios[:, None], ratios[None, :]
    s = rm * rp
    n = e.big_a * s * s + e.c * (rm * rm + rp * rp) + e.big_b
    assert np.all(1.0 - m >= 4.0 * s * s * cert / (n * n) - 1e-15)
    assert m.max() <= 1.0
    r = (e.big_b / e.big_a) ** 0.25
    n = e.big_a * r**4 + 2.0 * e.c * r * r + e.big_b
    tight = bell_quantity_m(gisin_filter(e.matrix(), FilterParams(r, 1.0, r, 1.0)))
    assert abs((1.0 - tight) - 4.0 * r**4 * cert / (n * n)) <= 1e-14


def test_degenerate_filters_raise():
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


# Each predicate is a kernel that does a step's work in one frame on floats.
# Its reference is the route it replaces: the state's entries, then
# ``evaluate``'s quantity on them and the same raw sign test. A kernel must
# decide as its reference everywhere, raise what it raises, and so give the
# same bisection ends, bit for bit.

def _entries_nonlocal_predicate(p):
    return lambda a2: bool(_least_pt_cross(nonlocal_entries(a2, p.xi)) < 0.0)


def _entries_local_predicate(p):
    return lambda a2: bool(_least_pt_same(local_entries(a2, p.xi)) >= 0.0)


def _entries_bell_predicate(alpha_sq):
    return lambda xi: bool(evaluate({"bellM"}, xi, alpha_sq)["bellM"] > 1.0)


# target -> (kernel, its reference, the closed-form alpha^2 range its sign bounds)
KERNELS = {
    "nonlocal": (nonlocal_inseparable_predicate, _entries_nonlocal_predicate,
                 nonlocal_inseparability_range),
    "local": (local_separable_predicate, _entries_local_predicate, local_separability_range),
}


def _outcome(fn, x):
    """fn(x), or the type and message of the ValueError it raises
    (OutOfRangeError and NoCrossingError among them)."""
    try:
        return fn(x)
    except ValueError as e:
        return type(e), str(e)


def _ulps_from(x, k):
    """The float k ulps above the positive float x (below it for k < 0)."""
    return float((np.float64(x).view(np.int64) + k).view(np.float64))


def _near(rng, end, ulps, drawn):
    """Within ``ulps`` of the closed-form range's ``end`` ("lo" or "hi"), or
    ``drawn`` where there is no range or no end is asked for."""
    if rng is None or end == "drawn" or getattr(rng, end) <= 0.0:
        return drawn
    return _ulps_from(getattr(rng, end), ulps)


def _closed_range(closed, p):
    try:
        return closed(p)
    except ValueError:  # undefined at this xi, or xi outside the state's domain
        return None


# xi over and beyond each state's domain, the range ends' machines, and the
# neighbours of xi = 1/4; alpha^2 also in the band around 1/2 where the
# same-site eigenvalue at xi = 1/4 is within rounding of 0
_KERNEL_XIS = st.one_of(
    st.floats(-0.1, 1.1),
    st.sampled_from([-0.0, 0.0, XI_LOWER, 1 / 6, XI_LOCAL_MAX, XI_NONLOCAL_MAX, 0.5, 1.0]),
    st.integers(-4, 4).map(lambda k: _ulps_from(0.25, k)),
    st.floats(allow_nan=False, allow_infinity=False))
_KERNEL_ALPHA_SQS = st.one_of(st.floats(0.0, 1.0), st.floats(0.5 - 2e-8, 0.5 + 2e-8),
                              st.sampled_from([0.0, 0.5, 1.0]))
_ENDS = st.sampled_from(["drawn", "lo", "hi"])


@settings(max_examples=1000, deadline=None)
@given(_KERNEL_XIS, _KERNEL_ALPHA_SQS, _ENDS, st.integers(-2000, 2000))
@example(0.25, 0.5, "drawn", 0)
@example(0.25, 0.4999999925203156, "drawn", 0)
@example(1.05, 0.5, "drawn", 0)
@example(-0.05, 0.5, "drawn", 0)
@example(0.6, 0.5, "drawn", 0)
@example(0.2, 1.0000000000000002, "drawn", 0)
@example(0.2, -0.0, "drawn", 0)
@example(-2e-9, 0.5, "drawn", 0)
@example(1 + 2e-9, 0.5, "drawn", 0)
@example(0.5 + 2e-9, 0.5, "drawn", 0)
def test_kernels_decide_as_their_reference(xi, alpha_sq, end, ulps):
    """Each PPT kernel decides as its reference, bit for bit, or raises the
    same error (OutOfRangeError outside the state's domain, ValueError
    outside alpha^2 in [0, 1]), within 2000 ulps of each closed-form range
    end among other points. Just outside each state's xi domain, where a
    kernel hands the step to ``evaluate``, the reference raises."""
    p = analysis_parameter(xi)
    for kernel, reference, closed in KERNELS.values():
        a2 = _near(_closed_range(closed, p), end, ulps, alpha_sq)
        assert _outcome(kernel(p), a2) == _outcome(reference(p), a2), (xi, a2)


@settings(max_examples=1000, deadline=None)
@given(_KERNEL_XIS, _KERNEL_ALPHA_SQS, st.sampled_from(["drawn", "lo", "hi", "threshold"]),
       st.integers(-2000, 2000))
@example(XI_BELL_MAX, 0.5, "drawn", 0)
@example(1.05, 0.5, "drawn", 0)
@example(0.05, 1.0000000000000002, "drawn", 0)
@example(-2e-9, 0.5, "drawn", 0)
@example(1 + 2e-9, 0.5, "drawn", 0)
def test_bell_kernel_decides_as_its_reference(xi, alpha_sq, end, ulps):
    """The Bell kernel decides as its reference, bit for bit, or raises the
    same error: within 2000 ulps of the threshold XI_BELL_MAX at alpha^2 = 1/2
    and of each end of the closed-form alpha^2 range, among other points. It
    checks alpha^2 once, where it is made; the reference at each call."""
    if end == "threshold":
        xi, a2 = _ulps_from(XI_BELL_MAX, ulps), 0.5
    else:
        a2 = _near(_closed_range(bell_violation_range, analysis_parameter(xi)), end, ulps,
                   alpha_sq)
    got = _outcome(lambda x: bell_violated_predicate(a2)(x), xi)
    assert got == _outcome(_entries_bell_predicate(a2), xi), (xi, a2)


@pytest.mark.parametrize("target", sorted(KERNELS))
def test_bisection_ends_are_the_reference_ends(target):
    """Bit for bit, or the same error, at 25 xi over each target's machine
    range, its end included, both sides, and tols 1e-10, 1e-14 and 1e-300
    (adjacent floats)."""
    kernel, reference, _ = KERNELS[target]
    xi_max = PREDICATES[target][-1]
    for xi in XI_LOWER + np.linspace(0.0, 1.0, 25) * (xi_max - XI_LOWER):
        p = make_cloner_parameter(float(xi))
        for side, tol in itertools.product(("lower", "upper"), (1e-10, 1e-14, 1e-300)):
            got = _outcome(lambda s: boundary_bisect(p, kernel(p), s, tol), side)
            want = _outcome(lambda s: boundary_bisect(p, reference(p), s, tol), side)
            assert got == want, (xi, side, tol)


@pytest.mark.parametrize("alpha_sq", [0.5, 0.02, 0.3, 0.9])
@pytest.mark.parametrize("tol", [1e-9, 1e-300])
def test_bell_threshold_is_the_reference_bisection(alpha_sq, tol):
    """The Bell threshold in xi, bit for bit, at the claim's first tol and
    at adjacent floats."""
    got = bisect(bell_violated_predicate(alpha_sq), 0.0, 0.2, tol)
    assert got == bisect(_entries_bell_predicate(alpha_sq), 0.0, 0.2, tol)


def test_bell_alpha_sq_ends_are_the_reference_ends():
    """The ends of the CHSH-violating alpha^2 interval, bisected with a Bell
    kernel per step, bit for bit at 25 xi below XI_BELL_MAX, both sides and
    tols 1e-10, 1e-14 and 1e-300: near an end, M is within rounding of 1,
    where the order of each product shows."""
    for xi in np.linspace(0.0, 1.0, 25, endpoint=False) * XI_BELL_MAX:
        xi = float(xi)
        for outside, tol in itertools.product((0.0, 1.0), (1e-10, 1e-14, 1e-300)):
            got = bisect(lambda a2: bell_violated_predicate(a2)(xi), 0.5, outside, tol)
            want = bisect(lambda a2: _entries_bell_predicate(a2)(xi), 0.5, outside, tol)
            assert got == want, (xi, outside, tol)


def _route_points(xi_hi):
    return st.lists(st.tuples(st.floats(0.0, xi_hi), st.floats(0.0, 1.0)),
                    min_size=32, max_size=64)


@settings(max_examples=100, deadline=None)
@given(_route_points(1.0), _route_points(0.5))
def test_least_pt_float_route_is_the_array_route(cross, same):
    """One state's least partial-transpose eigenvalue, from its float
    entries, is, bit for bit and in the sign of a zero, its value in an
    array of states. Every draw holds the ends of both ranges and xi = 1/4.
    The bisection kernels take it with builtin min/abs instead; the kernel
    tests above hold them to this route."""
    for quantity, points, xi_hi in (("pptNonlocal", cross, 1.0), ("pptLocal", same, 0.5)):
        points = points + list(itertools.product((-0.0, 0.0, 0.25, xi_hi), (0.0, 0.5, 1.0)))
        xi, a2 = np.array(points).T
        stack = evaluate({quantity}, xi, a2)[quantity]
        each = [evaluate({quantity}, x, a)[quantity] for x, a in points]
        assert np.array(each).tobytes() == stack.tobytes(), quantity


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0, 0.0)
@example(0.0, -0.0)
@example(-0.0, -0.0)
@example(5e-324, 5e-324)
@example(1e308, 1e308)
def test_complex_abs_is_np_hypot(x, y):
    """The same-site kernel's hypot, abs(complex(x, y)), is np.hypot(x, y) in
    its raw bytes over finite floats, signed zeros included; where the hypot
    overflows, complex abs raises OverflowError instead of returning inf."""
    with np.errstate(over="ignore"):
        want = np.hypot(x, y)
    if np.isinf(want):
        with pytest.raises(OverflowError):
            abs(complex(x, y))
    else:
        assert np.float64(abs(complex(x, y))).tobytes() == want.tobytes()


def _bisection_ends():
    """Both ends for both targets at xi = 1/6 and at XI_LOWER, and the Bell
    threshold at tols 1e-9 and 1e-300."""
    return ([boundary_bisect(p, pred(p), side)
             for p in (make_cloner_parameter(1 / 6), make_cloner_parameter(XI_LOWER))
             for pred, *_ in PREDICATES.values() for side in ("lower", "upper")]
            + [bisect(bell_violated_predicate(0.5), 0.0, 0.2, tol) for tol in (1e-9, 1e-300)])


def test_bisection_builds_no_matrix(monkeypatch):
    want = _bisection_ends()

    def no_matrix(*args, **kwargs):
        raise AssertionError("a dense matrix was built or decomposed")

    monkeypatch.setattr(broadcast.XStateEntries, "matrix", no_matrix)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_matrix)
    with pytest.raises(AssertionError):
        _dense_local_predicate(make_cloner_parameter(1 / 6))(0.5)  # the patch is live
    assert _bisection_ends() == want


def test_bisection_steps_call_no_numpy(monkeypatch):
    """A step on one state's floats stays in float arithmetic: with np.hypot,
    np.minimum, np.maximum and np.asarray raising, both targets' ends and
    the Bell threshold are unchanged."""
    want = _bisection_ends()

    def no_numpy(*args, **kwargs):
        raise AssertionError("a numpy function was called")

    for name in ("hypot", "minimum", "maximum", "asarray"):
        monkeypatch.setattr(np, name, no_numpy)
    with pytest.raises(AssertionError):
        local_entries(np.array([0.5]), 0.2)  # the patch is live
    assert _bisection_ends() == want
