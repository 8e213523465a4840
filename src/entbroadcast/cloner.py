"""The xi-parameterized family of universal cloning machines.

Two readings of the machine are implemented:

* ``Literal2D`` -- the transformation with a two-dimensional ancilla whose
  basis vectors are literally orthonormal. This is a valid isometry for
  every xi in the allowed range, but direct computation shows its clone
  fidelity is input-dependent except at xi = 1/6.
* ``AbstractBH`` -- machine vectors Q0, Y0, Q1, Y1 whose inner products are
  fixed so the single-clone channel is the universal shrinking map
  rho -> (1-2 xi) rho + xi I. The required Gram matrix is positive
  semidefinite only for xi >= 1/6, so this machine does not exist below
  that point.

Both are exposed; discrepancies between them are reported, not hidden.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import dag, partial_trace

XI_LOWER = 0.5 - 0.5 / math.sqrt(2.0)  # ~0.146447
XI_UPPER = 0.5
XI_SLACK = 1e-12  # closed interval with slack: both endpoints are used as distinguished values

XI_ABSTRACT_MIN = 1.0 / 6.0  # Gram matrix PSD boundary

GRAM_PSD_TOL = 1e-10


class OutOfRangeError(ValueError):
    """Machine parameter outside the allowed closed interval."""

    def __init__(self, xi, lo=XI_LOWER, hi=XI_UPPER):
        self.xi, self.lo, self.hi = xi, lo, hi
        super().__init__(f"xi={xi} outside [{lo}, {hi}]")


class GramNotPSDError(ValueError):
    """No physical machine with the required inner products exists at this xi."""

    def __init__(self, xi, min_eigenvalue):
        self.xi, self.min_eigenvalue = xi, min_eigenvalue
        super().__init__(
            f"machine Gram matrix at xi={xi} has eigenvalue {min_eigenvalue:.3e} < 0"
        )


class MachineKind(enum.Enum):
    LITERAL_2D = "Literal2D"
    ABSTRACT_BH = "AbstractBH"


@dataclass(frozen=True)
class ClonerParameter:
    """Machine parameter xi with derived eta = 1 - 2 xi.

    ``analysis_only=True`` skips range validation; analysis-layer operations
    accept such parameters, protocol-level operations should not be handed
    them.
    """

    xi: float
    analysis_only: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise OutOfRangeError(self.xi)
        if not self.analysis_only:
            if self.xi < XI_LOWER - XI_SLACK or self.xi > XI_UPPER + XI_SLACK:
                raise OutOfRangeError(self.xi)

    @property
    def eta(self):
        return 1.0 - 2.0 * self.xi


def make_cloner_parameter(xi):
    """Validated machine parameter; raises OutOfRangeError outside the allowed range."""
    return ClonerParameter(xi)


def analysis_parameter(xi):
    """Unchecked parameter for analysis-only sweeps outside the machine range."""
    return ClonerParameter(xi, analysis_only=True)


# |+> = (|01> + |10>)/sqrt(2) in the two-clone space
_PLUS = np.zeros(4, dtype=complex)
_PLUS[1] = _PLUS[2] = 1.0 / math.sqrt(2.0)

_E2 = np.eye(2, dtype=complex)
_E4 = np.eye(4, dtype=complex)


def literal_isometry(p):
    """8x2 isometry of the literal machine, factor order (a, b, machine).

    Column k is the image of basis input |k>:
    |0> -> sqrt(1-2xi)|00>|up> + sqrt(2xi)|+>|down>
    |1> -> sqrt(1-2xi)|11>|down> + sqrt(2xi)|+>|up>

    Raises OutOfRangeError for xi outside [0, 1/2] (beyond XI_SLACK), where
    these columns are not orthonormal.
    """
    eta, xi = p.eta, p.xi
    if not (-XI_SLACK <= xi <= XI_UPPER + XI_SLACK):
        raise OutOfRangeError(xi, 0.0, XI_UPPER)
    s_eta, s_2xi = math.sqrt(max(eta, 0.0)), math.sqrt(max(2.0 * xi, 0.0))
    up, down = _E2[:, 0], _E2[:, 1]
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    e11 = np.zeros(4, dtype=complex)
    e11[3] = 1.0
    col0 = s_eta * np.kron(e00, up) + s_2xi * np.kron(_PLUS, down)
    col1 = s_eta * np.kron(e11, down) + s_2xi * np.kron(_PLUS, up)
    return np.stack([col0, col1], axis=1)


def gram_matrix(p):
    """4x4 Gram matrix of the machine vectors in order (Q0, Y0, Q1, Y1)."""
    eta, xi = p.eta, p.xi
    g = np.zeros((4, 4))
    g[0, 0] = g[2, 2] = eta
    g[1, 1] = g[3, 3] = xi
    g[0, 3] = g[3, 0] = eta / 2.0
    g[2, 1] = g[1, 2] = eta / 2.0
    return g


def abstract_machine_vectors(p):
    """Machine vectors Q0, Y0, Q1, Y1 as rows of a 4x4 real matrix.

    Any factorization of the Gram matrix is acceptable; this one uses the
    eigendecomposition square root. Raises GramNotPSDError when the Gram
    matrix has an eigenvalue below -1e-10 (no physical machine exists).
    """
    g = gram_matrix(p)
    if not np.isfinite(g).all():  # 2 xi overflowed: eta = -inf on the diagonal
        raise GramNotPSDError(p.xi, -math.inf)
    w, v = np.linalg.eigh(g)
    if w[0] < -GRAM_PSD_TOL:
        raise GramNotPSDError(p.xi, w[0])
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)  # rows L[i] satisfy L @ L.T = g


def abstract_isometry(p):
    """16x2 isometry of the abstract machine, factor order (a, b, machine).

    The machine lives in the 4-dimensional span of (Q0, Y0, Q1, Y1).
    Column k: |k> -> |kk> Q_k + (|01> + |10>) Y_k.
    """
    vecs = abstract_machine_vectors(p).astype(complex)
    q0, y0, q1, y1 = vecs
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    e11 = np.zeros(4, dtype=complex)
    e11[3] = 1.0
    sym = np.zeros(4, dtype=complex)
    sym[1] = sym[2] = 1.0  # |01> + |10>, unnormalized
    col0 = np.kron(e00, q0) + np.kron(sym, y0)
    col1 = np.kron(e11, q1) + np.kron(sym, y1)
    return np.stack([col0, col1], axis=1)


def machine_isometry(p, kind):
    if kind is MachineKind.LITERAL_2D:
        return literal_isometry(p)
    if kind is MachineKind.ABSTRACT_BH:
        return abstract_isometry(p)
    raise ValueError(f"unknown machine kind {kind!r}")


def _clone_pair(rho_in, v):
    """4x4 two-clone state of machine isometry ``v`` after tracing the machine out."""
    out = v @ rho_in @ dag(v)
    return partial_trace(out, [2, 2, v.shape[0] // 4], keep=[0, 1])


def _fidelities(psis, v):
    """<psi| rho_a |psi> of each row of the (n, 2) stack ``psis`` under the
    machine isometry ``v``, as an array of shape (n,).

    Read v|psi> as out[a, r], with a the first clone and r the rest (second
    clone and machine); the fidelity is sum_r |sum_a conj(psi_a) out[a, r]|^2.
    Only elementwise products and sums of a fixed number of terms are used, so
    a row's value does not depend on the other rows; einsum or @ may sum in
    another order for another number of rows.
    """
    cols = v.reshape(2, -1, 2)  # cols[a, :, k]: the amplitudes of v|k> with clone a in |a>
    p0, p1 = psis[:, 0, None], psis[:, 1, None]
    overlap = (p0.conj() * (p0 * cols[0, :, 0] + p1 * cols[0, :, 1])
               + p1.conj() * (p0 * cols[1, :, 0] + p1 * cols[1, :, 1]))
    sq = overlap.real * overlap.real + overlap.imag * overlap.imag
    return sum(sq[:, r] for r in range(sq.shape[1]))


def clone_density(rho_in, p, kind):
    """4x4 two-clone state after applying the machine and tracing it out."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (2, 2):
        raise ValueError("input must be a 2x2 density operator")
    return _clone_pair(rho_in, machine_isometry(p, kind))


def single_clone_density(rho_in, p, kind):
    """2x2 reduced state of one clone."""
    rho_ab = clone_density(rho_in, p, kind)
    return partial_trace(rho_ab, [2, 2], keep=[0])


def clone_fidelity(psi, p, kind):
    """<psi| rho_a |psi> for a normalized pure input."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise ValueError("input must be a 2-vector")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"input not normalized (norm {nrm})")
    return float(_fidelities(psi[None, :], machine_isometry(p, kind))[0])


_AXIS_STATES = np.array([
    [1.0, 0.0],  # +z
    [0.0, 1.0],  # -z
    [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)],  # +x
    [1.0 / math.sqrt(2), -1.0 / math.sqrt(2)],  # -x
    [1.0 / math.sqrt(2), 1.0j / math.sqrt(2)],  # +y
    [1.0 / math.sqrt(2), -1.0j / math.sqrt(2)],  # -y
], dtype=complex)
_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Sample states per block of an audit, so that its memory does not grow with
# the sample count.
_AUDIT_CHUNK = 2048


def _bloch_chunks(count):
    """The rows of ``bloch_sample_states(count)`` in consecutive blocks of at
    most _AUDIT_CHUNK Fibonacci-sphere points; the first block also holds the
    six axis states, even when count is 0."""
    for start in range(0, max(count, 1), _AUDIT_CHUNK):
        i = np.arange(start, min(start + _AUDIT_CHUNK, count))
        z = 1.0 - 2.0 * (i + 0.5) / count
        half_theta = 0.5 * np.arccos(np.clip(z, -1.0, 1.0))
        phi = (2.0 * math.pi * i / _GOLDEN_RATIO) % (2.0 * math.pi)
        block = np.stack([np.cos(half_theta) + 0j, np.exp(1j * phi) * np.sin(half_theta)],
                         axis=1)
        yield np.concatenate([_AXIS_STATES, block]) if start == 0 else block


def bloch_sample_states(count):
    """Deterministic pure-state sweep, shape (count + 6, 2): the 6 axis states,
    then a Fibonacci sphere of ``count`` points."""
    return np.concatenate(list(_bloch_chunks(count)))


@dataclass(frozen=True)
class UniversalityReport:
    min_fidelity: float
    max_fidelity: float
    spread: float


def universality_report(p, kind, sample_count=64):
    """Clone-fidelity spread over a deterministic Bloch-sphere sweep.

    The machine isometry is built once and applied to the samples a block at
    a time, so memory stays bounded for any sample count.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    v = machine_isometry(p, kind)
    lo, hi = math.inf, -math.inf
    for states in _bloch_chunks(sample_count):
        fids = _fidelities(states, v)
        lo, hi = min(lo, float(fids.min())), max(hi, float(fids.max()))
    return UniversalityReport(min_fidelity=lo, max_fidelity=hi, spread=hi - lo)
