import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entbroadcast import linalg
from entbroadcast.linalg import (
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    is_density_operator,
    partial_trace,
)

I2 = np.eye(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def small_complex(n):
    elems = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
    return arrays(np.complex128, (n, n), elements=elems)


def test_kron_identities():
    assert np.array_equal(np.kron(I2, I2), np.eye(4))
    assert np.array_equal(np.kron(SIGMA_X, SIGMA_X), np.fliplr(np.eye(4)))


def test_kron_basis_bookkeeping():
    # |0><0| x |1><1| sits at row/col 1 in the |00>,|01>,|10>,|11> ordering
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    out = np.kron(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(out, expected)


@settings(max_examples=30, deadline=None)
@given(small_complex(2), small_complex(2), small_complex(2))
def test_kron_bilinear_and_associative(a, b, c):
    scale = max(1.0, np.max(np.abs(a)) * max(np.max(np.abs(b)), np.max(np.abs(c))))
    assert np.max(np.abs(np.kron(a, b + c) - np.kron(a, b) - np.kron(a, c))) / scale <= 1e-13
    scale3 = max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)) * np.max(np.abs(c)))
    lhs = np.kron(np.kron(a, b), c)
    rhs = np.kron(a, np.kron(b, c))
    assert np.max(np.abs(lhs - rhs)) / scale3 <= 1e-13


def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    out = partial_trace(rho, [2, 2], keep=[0])
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_partial_trace_bell_state():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    out = partial_trace(rho, [2, 2], keep=[0])
    assert np.allclose(out, I2 / 2)
    assert np.isclose(np.trace(out), np.trace(rho))


def test_partial_trace_six_factor_broadcast():
    # tracing out (b1, m1, a2, m2) of the full broadcast state must reproduce
    # the closed-form cross-site matrix with entries 13/36, 5/36, 2/9
    from entbroadcast.cloner import MachineKind, machine_isometry, make_cloner_parameter

    v = machine_isometry(make_cloner_parameter(1 / 6), MachineKind.ABSTRACT_BH)
    psi = (np.kron(v[:, 0], v[:, 0]) + np.kron(v[:, 1], v[:, 1])) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    out = partial_trace(rho, [2, 2, 4, 2, 2, 4], keep=[0, 4])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 13 / 36
    expected[1, 1] = expected[2, 2] = 5 / 36
    expected[0, 3] = expected[3, 0] = 2 / 9
    assert np.max(np.abs(out - expected)) <= 1e-14


def test_partial_trace_composes():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    step = partial_trace(partial_trace(m, [2, 2, 2], keep=[0, 2]), [2, 2], keep=[0])
    direct = partial_trace(m, [2, 2, 2], keep=[0])
    assert np.max(np.abs(step - direct)) <= 1e-14


@pytest.mark.parametrize("dims, keep, error", [
    ([2, 4], [0], DimensionError),  # the layout is not the matrix's dimension
    ([2, 2], [], ValueError),  # nothing kept
    ([2, 2], [2], DimensionError),  # no third factor
])
def test_partial_trace_layout_mismatch(dims, keep, error):
    with pytest.raises(error):
        partial_trace(np.eye(4), dims, keep=keep)


def test_hermitian_eigenvalues_basic():
    assert np.allclose(np.linalg.eigvalsh(SIGMA_Z.astype(complex)), [-1, 1])
    assert np.allclose(np.linalg.eigvalsh(np.eye(4) / 4), [0.25] * 4)


def test_hermitian_eigenvalues_local_broadcast_state():
    # alpha = 1, xi = 1/6: 2/3 on |00> plus (1/3)|+><+| has spectrum {0,0,1/3,2/3}
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 2 / 3
    rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = 1 / 6
    assert np.allclose(np.linalg.eigvalsh(rho), [0, 0, 1 / 3, 2 / 3], atol=1e-12)


@pytest.mark.parametrize("m, error", [
    (np.ones(4) / 4, DimensionError),  # not 2-d
    (np.diag([0.5, np.nan]), ValueError),  # a non-finite entry
])
def test_density_operator_check_rejects_malformed_input(m, error):
    with pytest.raises(error):
        is_density_operator(m)


def test_density_operator_rejects_non_hermitian():
    # unit trace, and its lower triangle (all eigvalsh reads) is I/2
    rho = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    assert not is_density_operator(rho)
    assert is_density_operator(np.tril(rho))


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (a + a.conj().T) / 2
    assert abs(np.sum(np.linalg.eigvalsh(h)) - np.trace(h).real) <= 1e-12 * 6


def test_tensor_product_spectrum_is_pairwise_products():
    rng = np.random.default_rng(5)
    def rand_density(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = a @ a.conj().T
        return rho / np.trace(rho)
    r1, r2 = rand_density(2), rand_density(3)
    ev = np.linalg.eigvalsh(np.kron(r1, r2))
    prods = np.sort(np.outer(np.linalg.eigvalsh(r1), np.linalg.eigvalsh(r2)).ravel())
    assert np.max(np.abs(ev - prods)) <= 1e-11
