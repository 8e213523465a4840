"""Dense complex linear algebra on small matrices.

Everything here operates on plain numpy arrays (dtype complex128). Matrices
are small (dimension <= 256), so dense routines are always appropriate.
Basis ordering is lexicographic throughout: |00>, |01>, |10>, |11>, the
order ``np.kron`` builds. The functions here check what they are given; the
analysis measures, which only ever see validated states, call numpy directly.
"""

import numpy as np

HERMITICITY_TOL = 1e-12

# Pauli matrices, used all over the analysis layer.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class DimensionError(ValueError):
    """Matrix shape is inconsistent with the requested tensor layout."""


def _as_matrix(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return a


def _check_layout(m, dims):
    d = int(np.prod(dims))
    if m.shape != (d, d):
        raise DimensionError(
            f"layout {list(dims)} implies dimension {d}, matrix is {m.shape}"
        )


def partial_trace(m, dims, keep):
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` gives the local dimension of each tensor factor; ``keep`` is a
    collection of factor indices to retain (order of the result follows
    ascending factor index). The trace of the result equals the trace of
    the input.
    """
    m = _as_matrix(m)
    dims = list(dims)
    _check_layout(m, dims)
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must be a non-empty set of factor indices")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionError(f"keep {keep} out of range for {len(dims)} factors")

    n = len(dims)
    t = m.reshape(dims + dims)
    # Contract row and column indices of every traced factor.
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        axis = i - offset  # axes shift as factors are contracted away
        nleft = t.ndim // 2
        t = np.trace(t, axis1=axis, axis2=axis + nleft)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d_keep, d_keep)


def dag(m):
    return np.asarray(m).conj().T


def outer(psi):
    """Density matrix |psi><psi| of a (not necessarily normalized) vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def is_density_operator(rho, trace_tol=1e-12, psd_tol=1e-10):
    """True when rho is Hermitian (max |rho - rho^dagger| <= 1e-12), unit trace
    and PSD within tolerances.

    Raises DimensionError unless rho is 2-d, and ValueError for a non-finite entry.
    """
    rho = _as_matrix(rho)
    if abs(np.trace(rho) - 1.0) > trace_tol:
        return False
    if np.max(np.abs(rho - dag(rho))) > HERMITICITY_TOL:
        return False
    return bool(np.linalg.eigvalsh(rho)[0] >= -psd_tol)
