"""Two-qubit states produced by locally cloning each half of an entangled pair.

Closed forms of the local (same-site clone pair) and nonlocal (cross-site
pair) density operators, valid for any machine parameter, plus a full
state-vector oracle that builds the global 256-dimensional pure state
(two clones and a 4-dimensional machine per site) and obtains the same
matrices by partial tracing. The oracle requires the abstract machine, so
it is only defined for xi >= 1/6.

Both states are X-states, fixed by a few real entries. One entry function
per state computes them and validates the state from its closed-form
smallest eigenvalue, so no later query needs to check it again; the matrix
builders fill their matrices from those entries.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cloner import ClonerParameter, MachineKind, OutOfRangeError, machine_isometry

STATE_TOL = 1e-9  # least eigenvalue and trace deviation a density operator may show


@dataclass(frozen=True)
class EntangledInput:
    """Input pair alpha|00> + beta|11>, with alpha, beta >= 0.

    Negative beta only flips the sign of the coherence term, which no
    criterion in this package is sensitive to, so the sign is canonicalized
    away.
    """

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 + 1e-15):
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")

    @property
    def beta(self):
        return math.sqrt(max(0.0, 1.0 - self.alpha * self.alpha))

    @property
    def alpha_sq(self):
        return self.alpha * self.alpha

    @classmethod
    def from_alpha_sq(cls, alpha_sq):
        if not (0.0 <= alpha_sq <= 1.0):
            raise ValueError(f"alpha^2={alpha_sq} outside [0, 1]")
        return cls(math.sqrt(alpha_sq))


@dataclass(frozen=True)
class BroadcastOutputs:
    local_state: np.ndarray  # rho of a clone pair at one site
    nonlocal_state: np.ndarray  # rho of a cross-site pair


# The entries of one state (floats) or of a stack of states (arrays).

class CrossSiteEntries(NamedTuple):
    """The cross-site state's entries: diagonal (A, C, C, B) and the real
    coherence D between |00> and |11>, with asym = A - B = (a^2 - b^2) eta
    computed directly, not as the difference of the rounded A and B."""

    big_a: object
    big_b: object
    c: object
    d: object
    asym: object


class SameSiteEntries(NamedTuple):
    """The same-site state's entries: diagonal (a^2 eta, xi, xi, b^2 eta) and
    the real coherence xi between |01> and |10>."""

    big_a: object
    big_b: object
    xi: object


def _require_physical(physical, xi, hi):
    """Raises OutOfRangeError at the first point, in order, that ``physical``
    marks as not a density operator."""
    if physical is True:  # one state from floats: skip numpy's cost on a bool
        return
    physical = np.asarray(physical)
    if not physical.all():
        xi = np.broadcast_to(xi, physical.shape).flat[np.argmin(physical)]
        raise OutOfRangeError(float(xi), 0.0, hi)


def _x_stack(entries):
    """The states with these entries, {(i, j): value}: shape (4, 4), or
    (..., 4, 4) for values of broadcast shape (...), the shape of A."""
    # not np.shape, which costs about as much as the rest of a one-state build
    rho = np.zeros(getattr(entries[0, 0], "shape", ()) + (4, 4), dtype=complex)
    for (i, j), v in entries.items():
        rho[..., i, j] = v
    return rho


# One entry function and one builder per state. The entry functions are plain
# arithmetic, so ``a``, ``b`` and ``xi`` may be floats, for one state, or arrays
# that broadcast together, for a stack over their broadcast shape (...); they
# check the state once, from its closed-form eigenvalues. The builders fill
# (4, 4) or (..., 4, 4) matrices from the entries, in the shape they come in.

def _cross_site_entries(a, b, xi):
    eta = 1.0 - 2.0 * xi
    big_a, big_b = a * a * eta + xi * xi, b * b * eta + xi * xi
    c, d = xi * (1.0 - xi), a * b * eta * eta
    # eigenvalues: C twice, and (A + B)/2 +- hypot((A - B)/2, D)
    h = 0.5 * (big_a - big_b)
    physical = ((c >= -STATE_TOL)
                & (0.5 * (big_a + big_b) - (h * h + d * d) ** 0.5 >= -STATE_TOL))
    _require_physical(physical, xi, 1.0)
    return CrossSiteEntries(big_a, big_b, c, d, (a * a - b * b) * eta)


def _same_site_entries(a, b, xi):
    eta = 1.0 - 2.0 * xi
    big_a, big_b = a * a * eta, b * b * eta
    # eigenvalues: a^2 eta, b^2 eta, 2 xi, and 0 on (|01> - |10>)/sqrt(2)
    physical = (big_a >= -STATE_TOL) & (big_b >= -STATE_TOL) & (2.0 * xi >= -STATE_TOL)
    _require_physical(physical, xi, 0.5)
    return SameSiteEntries(big_a, big_b, xi)


def _cross_site_matrix(e: CrossSiteEntries):
    return _x_stack({(0, 0): e.big_a, (3, 3): e.big_b, (1, 1): e.c, (2, 2): e.c,
                     (0, 3): e.d, (3, 0): e.d})


def _same_site_matrix(e: SameSiteEntries):
    # 2 xi |+><+| spread over |01>, |10>
    return _x_stack({(0, 0): e.big_a, (3, 3): e.big_b, (1, 1): e.xi, (2, 2): e.xi,
                     (1, 2): e.xi, (2, 1): e.xi})


def nonlocal_state(inp: EntangledInput, p: ClonerParameter):
    """Cross-site pair state: X-form with diagonal (A, C, C, B), coherence D.

    A = alpha^2 (1-2xi) + xi^2, B = beta^2 (1-2xi) + xi^2, C = xi(1-xi),
    D = alpha beta (1-2xi)^2 between |00> and |11>. Raises OutOfRangeError
    when this is not a density operator (xi outside [0, 1]).
    """
    return _cross_site_matrix(nonlocal_state_entries(inp, p))


def nonlocal_state_entries(inp: EntangledInput, p: ClonerParameter) -> CrossSiteEntries:
    """The entries of ``nonlocal_state(inp, p)``, from the same a, b and xi."""
    return _cross_site_entries(inp.alpha, inp.beta, p.xi)


def local_state(inp: EntangledInput, p: ClonerParameter):
    """Same-site clone pair: (1-2xi)(a^2 |00><00| + b^2 |11><11|) + 2xi |+><+|.

    Raises OutOfRangeError when this is not a density operator (xi outside
    [0, 1/2]).
    """
    return _same_site_matrix(local_state_entries(inp, p))


def local_state_entries(inp: EntangledInput, p: ClonerParameter) -> SameSiteEntries:
    """The entries of ``local_state(inp, p)``, from the same a, b and xi."""
    return _same_site_entries(inp.alpha, inp.beta, p.xi)


def _stack_inputs(alpha_sq, xi):
    alpha_sq = np.asarray(alpha_sq, dtype=float)
    if not ((alpha_sq >= 0.0) & (alpha_sq <= 1.0)).all():
        raise ValueError("alpha^2 outside [0, 1]")
    a = np.sqrt(alpha_sq)
    return a, np.sqrt(np.maximum(0.0, 1.0 - a * a)), np.asarray(xi, dtype=float)


def nonlocal_states(alpha_sq, xi):
    """Stack of cross-site states at the points (alpha_sq[k], xi[k]).

    Shape (..., 4, 4) for arrays that broadcast to shape (...); entry k equals
    ``nonlocal_state`` at that point. ``xi`` is not held to the machine's
    range here (``make_cloner_parameter`` does that); raises OutOfRangeError
    at the first point where the state is not a density operator.
    """
    return _cross_site_matrix(nonlocal_entries(alpha_sq, xi))


def local_states(alpha_sq, xi):
    """Stack of same-site states at the points (alpha_sq[k], xi[k]); as
    ``nonlocal_states``, with entry k equal to ``local_state`` there."""
    return _same_site_matrix(local_entries(alpha_sq, xi))


def nonlocal_entries(alpha_sq, xi) -> CrossSiteEntries:
    """The entries of the cross-site states at the points (alpha_sq, xi), each
    of their broadcast shape (or a float); validated as ``nonlocal_states``
    validates, from the same arithmetic, with no matrix built."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge xi fails the check
        return _cross_site_entries(*_stack_inputs(alpha_sq, xi))


def local_entries(alpha_sq, xi) -> SameSiteEntries:
    """The entries of the same-site states at the points (alpha_sq, xi); as
    ``nonlocal_entries``, validated as ``local_states`` validates."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _same_site_entries(*_stack_inputs(alpha_sq, xi))


def _global_vectors(a, b, p):
    """Global pure states alpha|00> + beta|11>, each half cloned: shape (256,)
    for floats a, b, or (..., 256) for arrays of one shape (...). The machine
    isometry is built once for all of them."""
    v = machine_isometry(p, MachineKind.ABSTRACT_BH)  # 16x2, raises GramNotPSD below 1/6
    return (np.multiply.outer(a, np.kron(v[:, 0], v[:, 0]))
            + np.multiply.outer(b, np.kron(v[:, 1], v[:, 1])))


def global_broadcast_vector(inp: EntangledInput, p: ClonerParameter):
    """Global pure state on factors (a1, b1, m1, a2, b2, m2), dims (2,2,4,2,2,4)."""
    return _global_vectors(inp.alpha, inp.beta, p)


ORACLE_DIMS = [2, 2, 4, 2, 2, 4]
_ORACLE_FACTORS = "abmcdn"  # (a1, b1, m1, a2, b2, m2), one letter per factor
# name -> factor letters, in the order the reduced state reads
_ORACLE_PAIRS = {"a1b1": "ab", "a2b2": "cd", "a1b2": "ad", "a2b1": "cb"}


def _pair_reduction(psis, pair):
    """Reduced states of |psi><psi| on two qubit factors, named by their
    letters, for a stack of global vectors of shape (..., 256).

    The result, of shape (..., 4, 4), reads in the order of ``pair``: "cb"
    gives (a2, b1). One einsum contracts each psi with its conjugate over
    every other factor.
    """
    bra = "".join(f.upper() if f in pair else f for f in _ORACLE_FACTORS)
    t = psis.reshape(psis.shape[:-1] + tuple(ORACLE_DIMS))
    rho = np.einsum(f"...{_ORACLE_FACTORS},...{bra}->...{pair}{pair.upper()}", t, t.conj())
    return rho.reshape(psis.shape[:-1] + (4, 4))


def _oracle_pairs(a, b, p):
    """All four pair reductions of the global states ``_global_vectors(a, b, p)``,
    keyed by factor names, each of shape a.shape + (4, 4)."""
    psis = _global_vectors(a, b, p)
    return {name: _pair_reduction(psis, pair) for name, pair in _ORACLE_PAIRS.items()}


def oracle_states(alpha_sq, p: ClonerParameter):
    """All four pair reductions of the global states at alpha^2 (a float, or
    an array), by brute-force partial tracing, keyed by factor names ("a1b1",
    "a2b2", "a1b2", "a2b1"), each of shape alpha_sq.shape + (4, 4).

    Independent of the closed forms above; agreement with them is the test.
    """
    a, b, _ = _stack_inputs(alpha_sq, p.xi)
    return _oracle_pairs(a, b, p)


def oracle_broadcast(inp: EntangledInput, p: ClonerParameter):
    """Broadcast outputs of ``global_broadcast_vector`` by brute-force partial
    tracing: the same-site pair (a1, b1) and the cross-site pair (a1, b2).

    Takes ``inp``'s own alpha and beta, not alpha^2: ``EntangledInput``
    admits alpha up to 1 + 1e-15, whose square ``oracle_states`` rejects."""
    pairs = _oracle_pairs(inp.alpha, inp.beta, p)
    return BroadcastOutputs(local_state=pairs["a1b1"], nonlocal_state=pairs["a1b2"])
