"""The stack-aware measures against themselves, one state at a time.

Every measure takes one state or a stack of states. On a stack it must give,
for each state, exactly the value it gives for that state alone; the Werner
fit, which diagonalises only the states its screen lets through, must give
what the unscreened fit gives; the filter search, which evaluates its grid in
fixed-size blocks, must find what a plain double loop over the grid finds.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entbroadcast import analysis
from entbroadcast.analysis import (
    FilterParams,
    _bell_m,
    _correlation,
    _fidelity,
    _filter,
    _min_pt_eigenvalue,
    _werner,
    _werner_fit,
    bell_quantity_m,
    filter_search_max_m,
    gisin_filter,
)
from entbroadcast.broadcast import (
    STATE_TOL,
    EntangledInput,
    local_state,
    local_states,
    nonlocal_state,
    nonlocal_states,
)
from entbroadcast.cloner import OutOfRangeError, analysis_parameter, make_cloner_parameter

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
    for tol in (1e-8, 1e-3):
        _assert_each_equal(lambda s: _werner(s, tol)[0], states)
        _assert_each_equal(lambda s: _werner(s, tol)[1], states)
    scale = np.array([2.0, 0.5, 3.0, 1.0])
    _assert_each_equal(lambda s: _filter(s, scale), states)


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


def test_werner_nan_pattern_on_a_mixed_stack():
    a2 = np.array([0.5, 0.3, 0.5, 0.7])
    x, _ = _werner(nonlocal_states(a2, np.full(4, 1 / 6)), 1e-8)
    assert np.isnan(x).tolist() == [False, True, False, True]
    assert x[0] == x[2] == _werner(nonlocal_state(EntangledInput.from_alpha_sq(0.5),
                                                  make_cloner_parameter(1 / 6)), 1e-8)[0]


@st.composite
def _screen_cases(draw):
    """A Werner tolerance and a stack of density operators: random states,
    Werner states of a random maximally entangled psi with traceless Hermitian
    noise of tol in its largest entry (kept where the sum is still a density
    operator), and cross-site states within 1e-6 of xi = 1/2, near I/4."""
    tol = draw(st.sampled_from([1e-15, 1e-8, 1e-3, 0.3]))
    randoms = _as_states(*draw(_density_stacks()))
    n = len(randoms)
    unit = st.floats(0.0, 1.0)
    u = draw(arrays(np.float64, (n, 2, 2, 2), elements=st.floats(-1.0, 1.0)))
    # (U x I)|Phi+> for a unitary U: the amplitudes, as a 2x2 matrix, are U / sqrt(2)
    psi = (np.linalg.qr(u[:, 0] + 1j * u[:, 1])[0] / math.sqrt(2.0)).reshape(n, 4)
    x = draw(arrays(np.float64, n, elements=unit))[:, None, None]
    werner = x * (psi[:, :, None] * psi[:, None, :].conj()) + (1.0 - x) / 4.0 * np.eye(4)
    h = draw(arrays(np.float64, (n, 2, 4, 4),
                    elements=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)))
    e = (h[:, 0] + 1j * h[:, 1]) / math.sqrt(2.0)
    e = (e + np.swapaxes(e, -1, -2).conj()) / 2.0
    e -= np.trace(e, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    # largest entry exactly tol, the most noise the fit tolerates
    e /= np.maximum(np.max(np.abs(e), axis=(-2, -1)), 1e-300)[:, None, None]
    noisy = werner + tol * e
    noisy = noisy[np.linalg.eigvalsh(noisy)[:, 0] >= -STATE_TOL]
    xi = 0.5 + draw(arrays(np.float64, n, elements=st.floats(-1e-6, 1e-6)))
    near_mixed = nonlocal_states(draw(arrays(np.float64, n, elements=unit)), xi)
    return tol, np.concatenate([randoms, noisy, near_mixed])


@settings(max_examples=150, deadline=None)
@given(_screen_cases())
def test_werner_screen_drops_no_fit(case):
    tol, states = case
    x, psi = _werner(states, tol)
    want_x, want_psi = _werner_fit(states, tol)
    np.testing.assert_array_equal(x, want_x)
    fit = ~np.isnan(want_x)
    np.testing.assert_array_equal(psi[fit], want_psi[fit])
    # every fitted state has reductions within (2 + x) tol <= 3 tol of I/2, up
    # to rounding: the screen's 4 tol leaves a whole tol to spare
    half = np.eye(2) / 2.0
    for reduced in (states[:, ::2, ::2] + states[:, 1::2, 1::2],
                    states[:, :2, :2] + states[:, 2:, 2:]):
        dev = np.max(np.abs(reduced - half), axis=(-2, -1))
        assert np.all(dev[fit] <= 3.0 * tol + 1e-15)


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


def _grid_search(inp, p, budget):
    """The filter search as a plain double loop over the public scalar measures."""
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


@pytest.mark.parametrize("budget", [1, 7, 21])
@pytest.mark.parametrize("alpha_sq, xi, tied", [
    (0.5, 0.5 - 0.5 / math.sqrt(2.0), False), (0.2, 1 / 6, False), (0.35, 0.2, False),
    (0.5, 0.2, True),  # maximum at both the first and the last grid point
    (0.2, 0.5, True),  # maximum at the two off-diagonal corners
])
def test_filter_search_matches_double_loop(alpha_sq, xi, tied, budget, monkeypatch):
    # blocks of 5 points: a grid of 7 or 21 ratios spans many blocks, most of
    # them across row ends, and the tied maxima sit in the first and last blocks
    monkeypatch.setattr(analysis, "_FILTER_BLOCK", 5)
    inp, p = EntangledInput.from_alpha_sq(alpha_sq), make_cloner_parameter(xi)
    best_m, best_f, ties = _grid_search(inp, p, budget)
    res = filter_search_max_m(inp, p, budget=budget)
    assert abs(res["max_m"] - best_m) <= 1e-15
    assert res["argmax"] == best_f  # the earliest grid point of the maximum
    if tied and budget > 1:
        assert ties >= 2  # the tie-break is exercised


@pytest.mark.parametrize("budget", [101, 401])
@pytest.mark.parametrize("alpha_sq, xi, max_m, m1, p1", [
    (0.5, 0.5 - 0.5 / math.sqrt(2.0), "0x1.ffffa6858db6ap-1", 1e3, 1e3),
    (0.2, 1 / 6, "0x1.ffffbd8e3fb2dp-1", 1e-3, 1e-3),
    (0.2, 0.5, "0x1.fffef390cc533p-1", 1e-3, 1e3),
])
def test_filter_search_keeps_its_results(alpha_sq, xi, max_m, m1, p1, budget):
    """The values a row-at-a-time search found, bit for bit, at the default block."""
    res = filter_search_max_m(EntangledInput.from_alpha_sq(alpha_sq),
                              make_cloner_parameter(xi), budget=budget)
    assert res["max_m"] == float.fromhex(max_m)
    assert res["argmax"] == FilterParams(m1, 1.0, p1, 1.0)
