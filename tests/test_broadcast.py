import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbroadcast.broadcast import (
    ORACLE_DIMS,
    EntangledInput,
    global_broadcast_vector,
    local_state,
    nonlocal_state,
    oracle_broadcast,
    oracle_states,
)
from entbroadcast.cloner import (
    XI_LOWER,
    GramNotPSDError,
    OutOfRangeError,
    analysis_parameter,
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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EntangledInput(1.5)
        with pytest.raises(ValueError):
            EntangledInput.from_alpha_sq(-0.1)


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


def _x_states(xi, alpha_sq):
    """Cross-site and same-site states written out entry by entry."""
    eta, a2, b2 = 1 - 2 * xi, alpha_sq, 1 - alpha_sq
    cross = np.diag([a2 * eta + xi**2, xi * (1 - xi), xi * (1 - xi), b2 * eta + xi**2])
    cross[0, 3] = cross[3, 0] = math.sqrt(a2 * b2) * eta**2
    same = np.diag([a2 * eta, xi, xi, b2 * eta])
    same[1, 2] = same[2, 1] = xi
    return cross, same


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
                cross, same = _x_states(xi, float(a2))
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


class TestOracle:
    def test_global_state_normalized(self):
        psi = global_broadcast_vector(EntangledInput.from_alpha_sq(0.4),
                                      make_cloner_parameter(0.3))
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
        rho = outer(global_broadcast_vector(inp, p))
        swap = np.eye(4)[[0, 2, 1, 3]]  # partial_trace keeps (b1, a2); read as (a2, b1)
        expected = {
            "a1b1": partial_trace(rho, ORACLE_DIMS, keep=[0, 1]),
            "a2b2": partial_trace(rho, ORACLE_DIMS, keep=[3, 4]),
            "a1b2": partial_trace(rho, ORACLE_DIMS, keep=[0, 4]),
            "a2b1": swap @ partial_trace(rho, ORACLE_DIMS, keep=[1, 3]) @ swap,
        }
        pairs = oracle_states(inp.alpha_sq, p)
        for name, want in expected.items():
            assert np.max(np.abs(pairs[name] - want)) <= 1e-15, name
        out = oracle_broadcast(inp, p)
        assert np.array_equal(out.local_state, pairs["a1b1"])
        assert np.array_equal(out.nonlocal_state, pairs["a1b2"])

    def test_oracle_broadcast_takes_alpha_just_above_one(self):
        # EntangledInput admits alpha = 1 + 1e-15; its square is above 1, which
        # oracle_states rejects, so oracle_broadcast reads alpha and beta
        inp, p = EntangledInput(1 + 1e-15), make_cloner_parameter(0.3)
        with pytest.raises(ValueError):
            oracle_states(inp.alpha_sq, p)
        out = oracle_broadcast(inp, p)
        assert np.max(np.abs(out.local_state - local_state(inp, p))) <= 1e-12
        assert np.max(np.abs(out.nonlocal_state - nonlocal_state(inp, p))) <= 1e-12

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
