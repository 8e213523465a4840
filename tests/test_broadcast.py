import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entbroadcast.broadcast import (
    _ORACLE_PAIRS,
    STATE_TOL,
    EntangledInput,
    XStateEntries,
    _global_states,
    _pair_reduction,
    _require_x_state,
    local_entries,
    local_state,
    nonlocal_entries,
    nonlocal_state,
    oracle_broadcast,
    oracle_states,
)
from entbroadcast.cloner import (
    XI_LOWER,
    GramNotPSDError,
    MachineKind,
    OutOfRangeError,
    analysis_parameter,
    literal_isometry,
    machine_isometry,
    make_cloner_parameter,
)
from entbroadcast.linalg import (
    SIGMA_X,
    is_density_operator,
    outer,
    partial_trace,
)


class TestEntangledInput:
    def test_beta_derived(self):
        inp = EntangledInput(0.6)
        assert math.isclose(inp.beta, 0.8)
        assert math.isclose(inp.alpha_sq + inp.beta**2, 1.0, abs_tol=1e-15)

    def test_from_alpha_sq(self):
        assert math.isclose(EntangledInput.from_alpha_sq(0.25).alpha, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(2.0**-1022, 1.0)), st.floats(0.0, 0.5))
    def test_states_from_alpha_sq_round_trip_bit_for_bit(self, alpha_sq, xi):
        # alpha_sq an ulp off (0.5 comes back as 0.5000000000000001) has the
        # same square root, so both states' entries are the same floats
        back = EntangledInput.from_alpha_sq(alpha_sq).alpha_sq
        for entries in (nonlocal_entries, local_entries):
            assert [float(v).hex() for v in entries(back, xi)] == \
                [float(v).hex() for v in entries(alpha_sq, xi)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EntangledInput(1.5)
        with pytest.raises(ValueError):
            EntangledInput.from_alpha_sq(-0.1)

    def test_every_route_rejects_alpha_just_above_one(self):
        # one domain: alpha in [0, 1], alpha^2 in [0, 1], on every route
        p = make_cloner_parameter(0.3)
        for route in (EntangledInput, lambda x: nonlocal_entries(x, 0.2),
                      lambda x: local_entries(x, 0.2), lambda x: oracle_states(x, p)):
            with pytest.raises(ValueError):
                route(1 + 1e-15)


class TestClosedForms:
    def test_nonlocal_entries_at_optimal(self):
        rho = nonlocal_state(EntangledInput.from_alpha_sq(0.5),
                             make_cloner_parameter(1 / 6))
        assert np.isclose(rho[0, 0], 13 / 36)
        assert np.isclose(rho[3, 3], 13 / 36)
        assert np.isclose(rho[1, 1], 5 / 36)
        assert np.isclose(rho[0, 3], 2 / 9)

    def test_nonlocal_no_coherence_for_basis_input(self):
        p = make_cloner_parameter(0.3)
        rho = nonlocal_state(EntangledInput(1.0), p)
        xi = p.xi
        assert np.allclose(np.diag(rho),
                           [1 - 2 * xi + xi**2, xi * (1 - xi), xi * (1 - xi), xi**2])
        assert rho[0, 3] == 0

    def test_nonlocal_is_werner_at_optimal(self):
        rho = nonlocal_state(EntangledInput.from_alpha_sq(0.5),
                             make_cloner_parameter(1 / 6))
        phi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        werner = (5 / 9) / 4 * np.eye(4) + (4 / 9) * np.outer(phi, phi)
        assert np.max(np.abs(rho - werner)) <= 1e-15

    def test_local_eigenvalues_for_basis_input(self):
        rho = local_state(EntangledInput(1.0), make_cloner_parameter(1 / 6))
        assert np.allclose(np.linalg.eigvalsh(rho), [0, 0, 1 / 3, 2 / 3],
                           atol=1e-12)

    def test_local_state_at_xi_half(self):
        rho = local_state(EntangledInput.from_alpha_sq(0.5),
                          make_cloner_parameter(0.5))
        plus = np.zeros(4, dtype=complex)
        plus[1] = plus[2] = 1 / math.sqrt(2)
        assert np.allclose(rho, np.outer(plus, plus))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.floats(XI_LOWER, 0.5))
    def test_traces_are_one(self, alpha_sq, xi):
        inp = EntangledInput.from_alpha_sq(alpha_sq)
        p = analysis_parameter(xi)
        assert abs(np.trace(local_state(inp, p)).real - 1) <= 1e-15
        assert abs(np.trace(nonlocal_state(inp, p)).real - 1) <= 1e-15

    def test_alpha_beta_swap_symmetry(self):
        p = make_cloner_parameter(0.2)
        a2 = 0.3
        rho = nonlocal_state(EntangledInput.from_alpha_sq(a2), p)
        rho_swapped = nonlocal_state(EntangledInput.from_alpha_sq(1 - a2), p)
        xx = np.kron(SIGMA_X, SIGMA_X)
        assert np.max(np.abs(xx @ rho @ xx - rho_swapped)) <= 1e-13

    def test_closed_forms_psd_on_grid(self):
        # valid density operators over the whole parameter range, even where
        # the machine embedding is unphysical
        for a2 in np.linspace(0, 1, 50):
            for xi in np.linspace(XI_LOWER, 0.5, 50):
                inp = EntangledInput.from_alpha_sq(float(a2))
                p = analysis_parameter(float(xi))
                for rho in (local_state(inp, p), nonlocal_state(inp, p)):
                    assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def _x_states(xi, alpha):
    """Cross-site and same-site states written out entry by entry from alpha,
    beta = sqrt(1 - alpha^2) and xi, each product in the closed forms' order."""
    beta, eta = math.sqrt(max(0.0, 1.0 - alpha * alpha)), 1.0 - 2.0 * xi
    a2, b2 = alpha * alpha, beta * beta
    cross = np.diag([a2 * eta + xi * xi, xi * (1.0 - xi), xi * (1.0 - xi), b2 * eta + xi * xi])
    cross[0, 3] = cross[3, 0] = alpha * beta * eta * eta
    same = np.diag([a2 * eta, xi, xi, b2 * eta])
    same[1, 2] = same[2, 1] = xi
    return cross, same


@settings(max_examples=200, deadline=None)
@given(st.floats(2.0**-511, 1.0), st.floats(XI_LOWER, 0.5))
def test_entangled_input_route_is_the_x_state_from_alpha(alpha, xi):
    # sqrt(fl(alpha^2)) == alpha from 2**-511 up, so the alpha^2 route loses
    # nothing of alpha
    inp, p = EntangledInput(alpha), make_cloner_parameter(xi)
    cross, same = _x_states(xi, alpha)
    assert np.array_equal(nonlocal_state(inp, p), cross)
    assert np.array_equal(local_state(inp, p), same)
    if xi >= 1 / 6:  # the oracle's abstract machine exists
        out = oracle_broadcast(inp, p)
        assert np.max(np.abs(out.nonlocal_state - cross)) <= 1e-12
        assert np.max(np.abs(out.local_state - same)) <= 1e-12


def test_one_state_entries_have_shape_empty():
    # one point takes the array route as shape (), and matrix() sizes from it
    for entries in (nonlocal_entries(0.3, 0.2), local_entries(0.3, 0.2)):
        assert all(np.shape(v) == () for v in entries), entries
        rho = entries.matrix()
        assert rho.shape == (4, 4) and rho.dtype == complex


# The one X-state check, on entries neither builder makes: d and w both nonzero.
# A point within 1e-12 of the check's threshold is skipped, as the closed form
# and eigvalsh may round to either side of it.
_X_ENTRIES = st.tuples(*[st.floats(-0.1, 1.0)] * 3, *[st.floats(-1.0, 1.0)] * 2)  # A, B, C, d, w


def _dense_least_eigenvalue(entries):
    return np.linalg.eigvalsh(XStateEntries(*entries, 0.0).matrix())[0]


@settings(max_examples=300, deadline=None)
@given(_X_ENTRIES)
def test_x_state_check_is_the_least_eigenvalue(entries):
    least = _dense_least_eigenvalue(entries)
    assume(abs(least + STATE_TOL) > 1e-12)
    if least >= -STATE_TOL:
        assert _require_x_state(*entries, 0.2, 1.0) is None
    else:
        with pytest.raises(OutOfRangeError, match=r"xi=0\.2 outside \[0\.0, 1\.0\]"):
            _require_x_state(*entries, 0.2, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(_X_ENTRIES, min_size=1, max_size=8))
def test_x_state_check_raises_at_the_first_bad_point_of_a_stack(points):
    least = [_dense_least_eigenvalue(e) for e in points]
    assume(all(abs(x + STATE_TOL) > 1e-12 for x in least))
    columns = [np.array(column) for column in zip(*points)]
    xi = np.arange(len(points), dtype=float)  # names each point by its index
    bad = [k for k, x in enumerate(least) if x < -STATE_TOL]
    if not bad:
        assert _require_x_state(*columns, xi, 0.5) is None
    else:
        with pytest.raises(OutOfRangeError) as raised:
            _require_x_state(*columns, xi, 0.5)
        assert (raised.value.xi, raised.value.hi) == (bad[0], 0.5)


@settings(max_examples=100, deadline=None)
@given(_X_ENTRIES)
def test_x_state_matrix_places_every_entry(entries):
    big_a, big_b, c, d, w = entries
    want = np.array([[big_a, 0, 0, d], [0, c, w, 0], [0, w, c, 0], [d, 0, 0, big_b]],
                    dtype=complex)
    assert np.array_equal(XStateEntries(*entries, 0.0).matrix(), want)
    stack = XStateEntries(*(np.full(3, v) for v in entries), 0.0).matrix()
    assert stack.shape == (3, 4, 4) and all(np.array_equal(rho, want) for rho in stack)


def _raises_out_of_range(build, inp, p):
    try:
        build(inp, p)
    except OutOfRangeError:
        return True
    return False


# xi in [-0.2, 1.2], kept 1e-7 away from the domain edges 0, 1/2 and 1, where
# the smallest eigenvalue crosses zero; points just beside each edge included
_EDGES = (0.0, 0.5, 1.0)
_CHECK_XIS = sorted(
    {float(x) for x in np.linspace(-0.2, 1.2, 281) if min(abs(x - e) for e in _EDGES) > 1e-7}
    | {e + d for e in _EDGES for d in (-1e-6, -2e-7, 2e-7, 1e-6)})


class TestConstructionCheck:
    def test_raises_exactly_when_not_a_density_operator(self):
        for xi in _CHECK_XIS:
            p = analysis_parameter(xi)
            for a2 in np.linspace(0, 1, 21):
                inp = EntangledInput.from_alpha_sq(float(a2))
                cross, same = _x_states(xi, math.sqrt(a2))
                for build, rho in ((nonlocal_state, cross), (local_state, same)):
                    rejected = not is_density_operator(rho, 1e-9, 1e-9)
                    assert _raises_out_of_range(build, inp, p) == rejected, (
                        build.__name__, xi, a2)

    def test_domains(self):
        inp = EntangledInput.from_alpha_sq(0.3)
        for xi in (-1e-6, 1 + 1e-6):
            with pytest.raises(OutOfRangeError):
                nonlocal_state(inp, analysis_parameter(xi))
        for xi in (-1e-6, 0.5 + 1e-6):
            with pytest.raises(OutOfRangeError):
                local_state(inp, analysis_parameter(xi))
        for xi in (0.0, 0.5):
            local_state(inp, analysis_parameter(xi))
            nonlocal_state(inp, analysis_parameter(xi))
        nonlocal_state(inp, analysis_parameter(1.0))


def _abstract_global_state(inp, p):
    return _global_states(inp.alpha, inp.beta, machine_isometry(p, MachineKind.ABSTRACT_BH))


# partial_trace keeps the factors of each pair in ascending order, and so
# (b1, a2) for "a2b1"; the swap reads that as (a2, b1)
_KEPT_FACTORS = {"a1b1": [0, 1], "a2b2": [3, 4], "a1b2": [0, 4], "a2b1": [1, 3]}
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _partial_traces(psi):
    """The four pair states of the global tensor ``psi`` by ``partial_trace``
    of its dense density matrix, over the factor dims of its shape."""
    rho, dims = outer(psi.reshape(-1)), list(psi.shape)
    pairs = {name: partial_trace(rho, dims, keep) for name, keep in _KEPT_FACTORS.items()}
    pairs["a2b1"] = _SWAP @ pairs["a2b1"] @ _SWAP
    return pairs


class TestOracle:
    def test_global_state_normalized(self):
        inp = EntangledInput.from_alpha_sq(0.4)
        psi = _abstract_global_state(inp, make_cloner_parameter(0.3))
        assert psi.shape == (2, 2, 4, 2, 2, 4)
        assert abs(np.linalg.norm(psi) - 1) <= 1e-13

    def test_oracle_matches_closed_forms_at_optimal(self):
        inp = EntangledInput.from_alpha_sq(0.5)
        p = make_cloner_parameter(1 / 6)
        out = oracle_broadcast(inp, p)
        assert np.max(np.abs(out.nonlocal_state - nonlocal_state(inp, p))) <= 1e-12
        assert np.max(np.abs(out.local_state - local_state(inp, p))) <= 1e-12

    def test_oracle_basis_input(self):
        inp = EntangledInput.from_alpha_sq(0.0)
        p = make_cloner_parameter(0.25)
        out = oracle_broadcast(inp, p)
        assert np.max(np.abs(out.local_state - local_state(inp, p))) <= 1e-12

    def test_oracle_rejects_unphysical_machine(self):
        with pytest.raises(GramNotPSDError):
            oracle_broadcast(EntangledInput.from_alpha_sq(0.5),
                             make_cloner_parameter(XI_LOWER))

    def test_pair_symmetries(self):
        pairs = oracle_states(0.3, make_cloner_parameter(0.2))
        assert np.max(np.abs(pairs["a1b1"] - pairs["a2b2"])) <= 1e-13
        assert np.max(np.abs(pairs["a1b2"] - pairs["a2b1"])) <= 1e-13

    @pytest.mark.parametrize("alpha_sq, xi", [(0.3, 0.2), (0.5, 1 / 6), (0.0, 0.25),
                                              (0.9, 0.5)])
    def test_reductions_match_partial_trace_of_global_density(self, alpha_sq, xi):
        inp, p = EntangledInput.from_alpha_sq(alpha_sq), make_cloner_parameter(xi)
        expected = _partial_traces(_abstract_global_state(inp, p))
        pairs = oracle_states(inp.alpha_sq, p)
        for name, want in expected.items():
            assert np.max(np.abs(pairs[name] - want)) <= 1e-15, name
        out = oracle_broadcast(inp, p)
        assert np.array_equal(out.local_state, pairs["a1b1"])
        assert np.array_equal(out.nonlocal_state, pairs["a1b2"])

    def test_single_qubit_reduction_is_shrunk_input(self):
        inp = EntangledInput.from_alpha_sq(0.3)
        p = make_cloner_parameter(0.2)
        out = oracle_broadcast(inp, p)
        target = p.eta * np.diag([0.3, 0.7]) + p.xi * np.eye(2)
        for rho in (out.local_state, out.nonlocal_state):
            assert np.max(np.abs(partial_trace(rho, [2, 2], [0]) - target)) <= 1e-12


@pytest.mark.parametrize("xi", [1 / 6, 0.2, 0.3, 0.45])
def test_oracle_states_equal_the_one_point_oracles(xi):
    p = make_cloner_parameter(xi)
    alpha_sq = np.array([0.0, *np.arange(0.1, 0.95, 0.1), 0.5, 1.0])
    stack = oracle_states(alpha_sq, p)
    assert all(rho.shape == alpha_sq.shape + (4, 4) for rho in stack.values())
    for k, a2 in enumerate(alpha_sq):
        pairs = oracle_states(float(a2), p)
        for name, rho in pairs.items():
            assert rho.shape == (4, 4)
            assert np.array_equal(stack[name][k], rho), (a2, name)
        out = oracle_broadcast(EntangledInput.from_alpha_sq(a2), p)
        assert np.array_equal(stack["a1b1"][k], out.local_state)
        assert np.array_equal(stack["a1b2"][k], out.nonlocal_state)
    grid = oracle_states(alpha_sq.reshape(2, -1), p)
    assert all(np.array_equal(grid[name].reshape(stack[name].shape), stack[name])
               for name in stack)


def test_oracle_states_over_machines_stack_the_one_machine_calls():
    machines = [make_cloner_parameter(xi) for xi in (1 / 6, 0.2, 0.3, 0.45)]
    for alpha_sq in (0.3, np.arange(0.1, 0.95, 0.1), np.linspace(0.0, 1.0, 12).reshape(3, 4)):
        stacked = oracle_states(alpha_sq, machines)
        assert list(stacked) == list(_ORACLE_PAIRS)
        for name, rho in stacked.items():
            assert rho.shape == (len(machines),) + np.shape(alpha_sq) + (4, 4)
            want = np.stack([oracle_states(alpha_sq, p)[name] for p in machines])
            assert np.array_equal(rho, want), (alpha_sq, name)
    for below in (XI_LOWER, 0.16):
        with pytest.raises(GramNotPSDError):
            oracle_states(0.3, (machines[0], make_cloner_parameter(below), machines[2]))


def test_oracle_runs_in_float64():
    """Both readings' machine vectors are real, so the isometries, the global
    states and their reductions are float64. On ``oracle.equivalence``'s
    (4, 9) block, each float64 reduction is the complex128 reduction of the
    same states within 2 eps: the two einsums may sum in another order."""
    for kind, xi in ((MachineKind.LITERAL_2D, XI_LOWER), (MachineKind.LITERAL_2D, 0.3),
                     (MachineKind.ABSTRACT_BH, 1 / 6), (MachineKind.ABSTRACT_BH, 0.3)):
        assert machine_isometry(make_cloner_parameter(xi), kind).dtype == np.float64
    machines = [make_cloner_parameter(xi) for xi in (1 / 6, 0.2, 0.3, 0.45)]
    alpha_sq = np.arange(0.1, 0.95, 0.1)
    pairs = oracle_states(alpha_sq, machines)
    out = oracle_broadcast(EntangledInput.from_alpha_sq(0.3), machines[1])
    assert out.local_state.dtype == out.nonlocal_state.dtype == np.float64
    a = np.sqrt(alpha_sq)
    psis = _global_states(a, np.sqrt(1.0 - a * a),
                          np.stack([machine_isometry(p, MachineKind.ABSTRACT_BH) for p in machines]))
    assert psis.dtype == np.float64
    for name, pair in _ORACLE_PAIRS.items():
        assert pairs[name].dtype == np.float64
        assert np.array_equal(_pair_reduction(psis, pair), pairs[name]), name
        want = _pair_reduction(psis.astype(complex), pair)
        assert np.max(np.abs(pairs[name] - want)) <= 2 * np.finfo(float).eps, name


def _global_states_reference(a, b, v):
    """The global states as the factor tensors' broadcast product: each
    image t_k x t_k on the six factor axes, then a t_0 x t_0 + b t_1 x t_1."""
    t = v.reshape(v.shape[:-2] + (1,) * np.ndim(a) + (2, 2, -1, 2))
    images = t[..., None, None, None, :] * t[..., None, None, None, :, :, :, :]
    a, b = (np.reshape(x, np.shape(x) + (1,) * 6) for x in (a, b))
    return a * images[..., 0] + b * images[..., 1]


def _assert_global_states_are_the_reference(alpha_sq, v):
    a = np.sqrt(alpha_sq)
    b = np.sqrt(1.0 - a * a)
    got, want = _global_states(a, b, v), _global_states_reference(a, b, v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_global_states_are_the_reference_on_the_claims_block():
    v = np.stack([machine_isometry(make_cloner_parameter(xi), MachineKind.ABSTRACT_BH)
                  for xi in (1 / 6, 0.2, 0.3, 0.45)])
    _assert_global_states_are_the_reference(np.arange(0.1, 0.95, 0.1), v)


@pytest.mark.parametrize("kind, xi", [(MachineKind.ABSTRACT_BH, 0.3),
                                      (MachineKind.LITERAL_2D, XI_LOWER)])
@pytest.mark.parametrize("alpha_sq", [np.float64(0.3), np.array(0.7),
                                      np.linspace(0.0, 1.0, 12).reshape(3, 4)])
def test_global_states_are_the_reference_on_any_alpha_sq_shape(kind, xi, alpha_sq):
    _assert_global_states_are_the_reference(alpha_sq, machine_isometry(make_cloner_parameter(xi), kind))


@settings(max_examples=100, deadline=None)
@given(st.floats(1 / 6, 0.5), st.floats(0.0, 1.0))
def test_global_states_are_the_reference_for_one_machine(xi, alpha_sq):
    v = machine_isometry(make_cloner_parameter(xi), MachineKind.ABSTRACT_BH)
    _assert_global_states_are_the_reference(alpha_sq, v)
    _assert_global_states_are_the_reference(np.linspace(0.0, 1.0, 9), v)


def test_pair_reduction_conjugates_complex_states():
    """The reduction still conjugates: global states given a local phase on
    each basis state of each factor, one at a time and as a stack, reduce to
    ``partial_trace``'s pair states of their dense density matrices."""
    rng = np.random.default_rng(2024)
    psis = np.stack([_abstract_global_state(EntangledInput.from_alpha_sq(a2),
                                            make_cloner_parameter(xi))
                     for a2, xi in ((0.3, 0.2), (0.5, 1 / 6), (0.9, 0.45))])
    for axis, dim in enumerate(psis.shape[1:], start=1):
        shape = [1] * psis.ndim
        shape[axis] = dim
        psis = psis * np.exp(2j * math.pi * rng.random(dim)).reshape(shape)
    for name, pair in _ORACLE_PAIRS.items():
        stack = _pair_reduction(psis, pair)
        assert stack.dtype == complex
        for k, psi in enumerate(psis):
            want = _partial_traces(psi)[name]
            assert np.max(np.abs(want.imag)) > 1e-3  # the phases reach the pair state
            alone = _pair_reduction(psi, pair)
            assert np.max(np.abs(alone - want)) <= 1e-15, (name, k)
            assert np.array_equal(stack[k], alone), (name, k)


class TestLiteralOracle:
    """The oracle's reductions on the literal machine's isometry, whose
    machine dimension is 2, built through the same global-state builder."""

    ALPHA_SQS = np.linspace(0.0, 1.0, 11)

    def _pairs(self, xi):
        a = np.sqrt(self.ALPHA_SQS)
        psis = _global_states(a, np.sqrt(1.0 - a * a), literal_isometry(analysis_parameter(xi)))
        assert psis.shape == self.ALPHA_SQS.shape + (2, 2, 2, 2, 2, 2)
        return psis, {name: _pair_reduction(psis, pair) for name, pair in _ORACLE_PAIRS.items()}

    @pytest.mark.parametrize("xi", [0.0, XI_LOWER, 1 / 6, 0.3, 0.5])
    def test_reductions_match_partial_trace_of_global_density(self, xi):
        psis, pairs = self._pairs(xi)
        for k, psi in enumerate(psis):
            for name, want in _partial_traces(psi).items():
                assert np.max(np.abs(pairs[name][k] - want)) <= 1e-15, (name, k)

    @pytest.mark.parametrize("xi", [0.0, XI_LOWER, 0.16, 1 / 6, 0.25, 0.4, 0.5])
    def test_same_site_pairs_are_the_closed_form_at_every_xi(self, xi):
        # the same-site state does not depend on <Q0|Y1>, where the readings differ
        _, pairs = self._pairs(xi)
        same = local_entries(self.ALPHA_SQS, xi).matrix()
        for name in ("a1b1", "a2b2"):
            assert np.max(np.abs(pairs[name] - same)) <= 1e-15, name

    @pytest.mark.parametrize("xi", [1 / 6, 0.5])
    def test_cross_site_pairs_are_the_closed_form_where_the_readings_agree(self, xi):
        _, pairs = self._pairs(xi)
        cross = nonlocal_entries(self.ALPHA_SQS, xi).matrix()
        for name in ("a1b2", "a2b1"):
            assert np.max(np.abs(pairs[name] - cross)) <= 1e-15, name
