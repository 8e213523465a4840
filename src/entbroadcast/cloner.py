"""The xi-parameterized family of universal cloning machines.

A machine maps |k> -> |kk> Q_k + (|01> + |10>) Y_k and is given by its machine
vectors (Q0, Y0, Q1, Y1), the rows of a real matrix. The two readings differ
only in <Q0|Y1> = <Q1|Y0>:

* ``Literal2D`` -- a two-dimensional ancilla with orthonormal basis vectors,
  where it is sqrt(eta xi). A valid isometry for every allowed xi, but its
  clone fidelity is input-dependent except at xi = 1/6 and xi = 1/2.
* ``AbstractBH`` -- the Buzek-Hillery machine, where it is eta/2, so a single
  clone sees the universal shrinking map rho -> (1-2 xi) rho + xi I. It
  exists only for xi >= eta/4, i.e. xi >= 1/6.

Both are exposed; discrepancies between them are reported, not hidden.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dag, is_density_operator, partial_trace

XI_LOWER = 0.5 - 0.5 / math.sqrt(2.0)  # ~0.146447
XI_UPPER = 0.5
XI_SLACK = 1e-12  # closed interval with slack: both endpoints are used as distinguished values

GRAM_PSD_TOL = 1e-10


class OutOfRangeError(ValueError):
    """Machine parameter outside the allowed closed interval, or not finite."""

    def __init__(self, xi, lo=XI_LOWER, hi=XI_UPPER):
        self.xi, self.lo, self.hi = xi, lo, hi
        super().__init__(f"xi={xi} outside [{lo}, {hi}]" if math.isfinite(xi)
                         else f"xi={xi} is not finite")


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
    """Machine parameter xi with derived eta = 1 - 2 xi. It checks only that xi
    is finite; ``make_cloner_parameter`` checks the admissible range."""

    xi: float

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise OutOfRangeError(self.xi)

    @property
    def eta(self):
        return 1.0 - 2.0 * self.xi


def make_cloner_parameter(xi):
    """Validated machine parameter; raises OutOfRangeError outside the allowed range."""
    p = ClonerParameter(xi)
    if p.xi < XI_LOWER - XI_SLACK or p.xi > XI_UPPER + XI_SLACK:
        raise OutOfRangeError(xi)
    return p


def analysis_parameter(xi):
    """Unchecked parameter for analysis-only sweeps outside the machine range."""
    return ClonerParameter(xi)


def literal_machine_vectors(p):
    """Literal machine vectors (Q0, Y0, Q1, Y1) as rows of a 4x2 real matrix over
    the ancilla basis (up, down): Q0 = sqrt(eta)|up>, Q1 = sqrt(eta)|down>,
    Y0 = sqrt(xi)|down>, Y1 = sqrt(xi)|up>.

    Raises OutOfRangeError for xi outside [0, 1/2] (beyond XI_SLACK), where
    the isometry's columns are not orthonormal.
    """
    eta, xi = p.eta, p.xi
    if not (-XI_SLACK <= xi <= XI_UPPER + XI_SLACK):
        raise OutOfRangeError(xi, 0.0, XI_UPPER)
    # y is sqrt(2 xi) times the |01> amplitude of |+>, the product the isometry holds
    q, y = math.sqrt(max(eta, 0.0)), math.sqrt(max(2.0 * xi, 0.0)) * (1.0 / math.sqrt(2.0))
    return np.array([[q, 0.0], [0.0, y], [0.0, q], [y, 0.0]])


def gram_matrix(p):
    """4x4 Gram matrix of the abstract machine vectors in order (Q0, Y0, Q1, Y1)."""
    eta, xi = p.eta, p.xi
    g = np.zeros((4, 4))
    g[0, 0] = g[2, 2] = eta
    g[1, 1] = g[3, 3] = xi
    g[0, 3] = g[3, 0] = eta / 2.0
    g[2, 1] = g[1, 2] = eta / 2.0
    return g


def abstract_machine_vectors(p):
    """Abstract machine vectors (Q0, Y0, Q1, Y1) as rows of a 4x4 real matrix
    with Gram matrix ``gram_matrix(p)``: Q0 = sqrt(eta) e1, Q1 = sqrt(eta) e3,
    Y1 = sqrt(eta)/2 e1 + r e2, Y0 = sqrt(eta)/2 e3 + r e4, r = sqrt(xi - eta/4).

    Raises GramNotPSDError when the least Gram eigenvalue, that of the block
    [[eta, eta/2], [eta/2, xi]], is below -GRAM_PSD_TOL: no machine exists.
    Within that tolerance, a negative eta or r^2 is taken as 0.
    """
    eta, xi = p.eta, p.xi
    h = eta / 2.0  # halving first keeps h +- xi/2 finite wherever eta is
    least = h + xi / 2.0 - math.hypot(h - xi / 2.0, h)
    if not least >= -GRAM_PSD_TOL:  # also rejects the -inf or nan of an overflowed 2 xi
        raise GramNotPSDError(xi, least)
    q, r = math.sqrt(max(eta, 0.0)), math.sqrt(max(xi - eta / 4.0, 0.0))
    return np.array([[q, 0.0, 0.0, 0.0],
                     [0.0, 0.0, q / 2.0, r],
                     [0.0, 0.0, q, 0.0],
                     [q / 2.0, r, 0.0, 0.0]])


def _isometry(vecs):
    """(4 d)x2 isometry, factor order (a, b, machine), of the machine vectors
    ``vecs`` (rows Q0, Y0, Q1, Y1 of dimension d): column k is the image
    |kk> Q_k + (|01> + |10>) Y_k of the input |k>. Float64, as the machine
    vectors of both kinds are real."""
    q0, y0, q1, y1 = vecs
    v = np.zeros((4, len(q0), 2))  # v[ab, machine, k]
    v[0, :, 0], v[3, :, 1] = q0, q1
    v[1, :, 0] = v[2, :, 0] = y0
    v[1, :, 1] = v[2, :, 1] = y1
    return v.reshape(-1, 2)


def literal_isometry(p):
    """8x2 float64 isometry of the literal machine, factor order (a, b, machine).

    Column k is the image of basis input |k>:
    |0> -> sqrt(1-2xi)|00>|up> + sqrt(2xi)|+>|down>
    |1> -> sqrt(1-2xi)|11>|down> + sqrt(2xi)|+>|up>
    """
    return _isometry(literal_machine_vectors(p))


def machine_isometry(p, kind):
    if kind is MachineKind.LITERAL_2D:
        return literal_isometry(p)
    if kind is MachineKind.ABSTRACT_BH:
        return _isometry(abstract_machine_vectors(p))
    raise ValueError(f"unknown machine kind {kind!r}")


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
    if rho_in.shape != (2, 2) or not is_density_operator(rho_in):
        raise ValueError("input must be a 2x2 density operator")
    v = machine_isometry(p, kind)
    return partial_trace(v @ rho_in @ dag(v), [2, 2, v.shape[0] // 4], keep=[0, 1])


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


def _fibonacci_points(count, start, stop):
    """Points start, ..., stop - 1 of the Fibonacci sphere of ``count`` points,
    as rows (cos(theta/2), e^(i phi) sin(theta/2))."""
    i = np.arange(start, stop)
    z = 1.0 - 2.0 * (i + 0.5) / count
    half_theta = 0.5 * np.arccos(np.clip(z, -1.0, 1.0))
    phi = (2.0 * math.pi * i / _GOLDEN_RATIO) % (2.0 * math.pi)
    return np.stack([np.cos(half_theta) + 0j, np.exp(1j * phi) * np.sin(half_theta)], axis=1)


@functools.lru_cache(maxsize=4)
def _first_bloch_block(count, chunk):
    """The six axis states, then the first min(count, chunk) Fibonacci points;
    read-only, as every audit at ``count`` shares it."""
    block = np.concatenate([_AXIS_STATES, _fibonacci_points(count, 0, min(chunk, count))])
    block.flags.writeable = False
    return block


def _bloch_chunks(count):
    """The rows of ``bloch_sample_states(count)`` in consecutive blocks of at
    most _AUDIT_CHUNK Fibonacci-sphere points; the first block also holds the
    six axis states, even when count is 0.

    The first block, all of it for counts up to _AUDIT_CHUNK, is built once
    per count and shared, read-only, by the audits at that count: a process
    audits at one count or a few (64 for ``verify``, ``--samples`` for
    ``clone-audit`` and ``study``), so a small cache keeps every one.
    """
    yield _first_bloch_block(count, _AUDIT_CHUNK)
    for start in range(_AUDIT_CHUNK, count, _AUDIT_CHUNK):
        yield _fibonacci_points(count, start, min(start + _AUDIT_CHUNK, count))


def bloch_sample_states(count):
    """Deterministic pure-state sweep, shape (count + 6, 2): the 6 axis states,
    then a Fibonacci sphere of ``count`` points. A new, writeable array on
    every call."""
    return np.concatenate(list(_bloch_chunks(count)))


@dataclass(frozen=True)
class UniversalityReport:
    min_fidelity: float
    max_fidelity: float
    spread: float


def universality_report(p, kind, sample_count=64):
    """Clone-fidelity spread over a deterministic Bloch-sphere sweep.

    The machine isometry is built once and applied to the samples a block at
    a time, so memory stays bounded for any sample count. The first block of
    samples is built once per sample count and reused by later reports at
    that count; nothing that depends on ``p`` or ``kind`` is kept.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    v = machine_isometry(p, kind)
    lo, hi = math.inf, -math.inf
    for states in _bloch_chunks(sample_count):
        fids = _fidelities(states, v)
        lo, hi = min(lo, float(fids.min())), max(hi, float(fids.max()))
    return UniversalityReport(min_fidelity=lo, max_fidelity=hi, spread=hi - lo)
