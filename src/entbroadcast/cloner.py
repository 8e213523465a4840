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
``universality_report`` reads a machine's single-clone channel as its Bloch
matrix and gives the exact least and greatest clone fidelity over all pure
inputs.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, is_density_operator

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
    return np.array([q, 0.0, 0.0, 0.0, 0.0, 0.0, q / 2.0, r,
                     0.0, 0.0, q, 0.0, q / 2.0, r, 0.0, 0.0]).reshape(4, 4)


def _isometry(vecs):
    """(4 d)x2 isometry, factor order (a, b, machine), of the machine vectors
    ``vecs`` (rows Q0, Y0, Q1, Y1 of dimension d): column k is the image
    |kk> Q_k + (|01> + |10>) Y_k of the input |k>. Float64, as the machine
    vectors of both kinds are real."""
    q0, y0, q1, y1 = vecs.tolist()
    zero = [0.0] * len(q0)
    v = [0.0] * (8 * len(q0))  # v[2 (d ab + machine) + k]
    v[::2], v[1::2] = q0 + y0 + y0 + zero, zero + y1 + y1 + q1  # the two columns
    return np.array(v).reshape(-1, 2)


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


def clone_density(rho_in, p, kind):
    """4x4 two-clone state after applying the machine and tracing it out."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (2, 2) or not is_density_operator(rho_in):
        raise ValueError("input must be a 2x2 density operator")
    t = machine_isometry(p, kind).reshape(4, -1, 2)  # t[ab, machine, k], real
    return np.einsum("imk,kl,jml->ij", t, rho_in, t)


def single_clone_density(rho_in, p, kind):
    """2x2 reduced state of one clone."""
    return np.einsum("ibjb->ij", clone_density(rho_in, p, kind).reshape(2, 2, 2, 2))


def clone_fidelity(psi, p, kind):
    """<psi| rho_a |psi> for a normalized pure input."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise ValueError("input must be a 2-vector")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"input not normalized (norm {nrm})")
    out = (machine_isometry(p, kind) @ psi).reshape(2, -1)  # out[a, r]: clone a, rest r
    return float(np.sum(np.abs(psi.conj() @ out) ** 2))


# _BLOCH_FORM[3 i + j, (a, k, b, l)] = Re(sigma_i[b, a] sigma_j[k, l]) / 2: against
# the single-clone channel on the input operators, Phi(|k><l|)[a, b] over
# (a, k, b, l), it gives the Bloch matrix entry Tr(sigma_i Phi(sigma_j))/2.
# Both kinds' isometries are real, so Phi(|k><l|) is real too, and the
# imaginary part of the Pauli products would add only an imaginary part.
_BLOCH_FORM = np.einsum("iba,jkl->ijakbl", PAULIS, PAULIS).real.reshape(9, 16) / 2.0


@dataclass(frozen=True)
class UniversalityReport:
    min_fidelity: float
    max_fidelity: float
    spread: float


def universality_report(p, kind):
    """Exact least and greatest clone fidelity over all pure inputs, read off
    the machine isometry through the single-clone Bloch matrix
    Lambda_ij = Tr(sigma_i Phi(sigma_j))/2."""
    # the real isometry as a matrix m[(a, k), r], a the first clone, k the
    # input and r the rest, so that (m m^T)[(a, k), (b, l)] = Phi(|k><l|)[a, b]
    m = machine_isometry(p, kind).reshape(2, -1, 2).transpose(0, 2, 1).reshape(4, -1)
    bloch = (_BLOCH_FORM @ (m @ m.T).reshape(16)).reshape(3, 3)
    # Both kinds are unital, Phi(I) = I, as <Q_k|Y_k> = 0 in both readings: a
    # pure input with Bloch vector n leaves the clone with Lambda n, so its
    # fidelity is (1 + n.Lambda n)/2, and the extremes are set by the least and
    # greatest eigenvalue of Lambda's symmetric part. A non-unital machine would
    # add a translation t, and the extremes of (1 + t.n + n.Lambda n)/2 on the
    # sphere would need the secular equation instead.
    ev = np.linalg.eigvalsh((bloch + bloch.T) / 2.0)
    lo, hi = (1.0 + float(ev[0])) / 2.0, (1.0 + float(ev[-1])) / 2.0
    return UniversalityReport(min_fidelity=lo, max_fidelity=hi, spread=hi - lo)
