"""Two-qubit states produced by locally cloning each half of an entangled pair.

Closed forms of the local (same-site clone pair) and nonlocal (cross-site
pair) density operators, valid for any machine parameter, plus a full
state-vector oracle that builds the global pure state (two clones and a
machine per site) and obtains the same matrices by partial tracing. The
oracle takes the machine's dimension from its isometry; it uses the
abstract machine, so it is only defined for xi >= 1/6.

Both states are X-states, held by one type, ``XStateEntries``, of five real
entries each. Each state has one entry function, ``nonlocal_entries(alpha_sq,
xi)`` or ``local_entries(alpha_sq, xi)``, on arrays over the broadcast shape of
its arguments (shape () for one state): it checks alpha^2, holds xi to the
state's domain, [0, 1] cross-site and [0, 1/2] same-site, where its
eigenvalues are non-negative, by ``require_xi``, and computes the entries, so
no later query needs to check the state again. The entries' ``matrix()``
fills the state's matrix or stack of matrices; ``nonlocal_state``/
``local_state`` build it at an ``EntangledInput``'s alpha^2 and a
``ClonerParameter``'s xi.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cloner import ClonerParameter, MachineKind, machine_isometry, require_xi


@dataclass(frozen=True)
class EntangledInput:
    """Input pair alpha|00> + beta|11>, with alpha, beta >= 0.

    Negative beta only flips the sign of the coherence term, which no
    criterion in this package is sensitive to, so the sign is canonicalized
    away.
    """

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")

    @property
    def beta(self):
        return math.sqrt(1.0 - self.alpha * self.alpha)

    @property
    def alpha_sq(self):
        return self.alpha * self.alpha

    @classmethod
    def from_alpha_sq(cls, alpha_sq):
        """The input of ``alpha = sqrt(alpha_sq)``. Its ``alpha_sq`` may be an
        ulp off, but for ``alpha_sq`` 0 or at least 2^-1022 its square root
        is ``alpha`` again, so the states built from it are bit for bit
        those at ``alpha_sq``."""
        if not (0.0 <= alpha_sq <= 1.0):
            raise ValueError(f"alpha^2={alpha_sq} outside [0, 1]")
        return cls(math.sqrt(alpha_sq))


@dataclass(frozen=True)
class BroadcastOutputs:
    local_state: np.ndarray  # rho of a clone pair at one site
    nonlocal_state: np.ndarray  # rho of a cross-site pair


class XStateEntries(NamedTuple):
    """The entries of an X-state or a stack of them (arrays, shape () for one):
    diagonal (A, C, C, B), the real coherence d between |00> and |11> and the
    real coherence w between |01> and |10>: five real numbers per state."""

    big_a: object
    big_b: object
    c: object
    d: object
    w: object

    def matrix(self):
        """The state, of shape (..., 4, 4) for entries of shape (...), the
        shape of A: (4, 4) for one state."""
        rho = np.zeros(np.shape(self.big_a) + (4, 4), dtype=complex)
        rho[..., 0, 0], rho[..., 3, 3] = self.big_a, self.big_b
        rho[..., 1, 1] = rho[..., 2, 2] = self.c
        rho[..., 0, 3] = rho[..., 3, 0] = self.d
        rho[..., 1, 2] = rho[..., 2, 1] = self.w
        return rho


def _amplitudes(alpha_sq):
    """a = sqrt(alpha^2) and b = sqrt(1 - a^2), of alpha_sq's shape: numpy
    scalars for one alpha^2, as numpy's functions return them for a 0-d
    array. Raises ValueError at the first alpha^2, in order, outside [0, 1]."""
    alpha_sq = np.asarray(alpha_sq, dtype=float)
    in_range = (alpha_sq >= 0.0) & (alpha_sq <= 1.0)
    if not in_range.all():
        bad = float(alpha_sq.flat[np.argmin(in_range)])
        raise ValueError(f"alpha^2={bad} outside [0, 1]")
    a = np.sqrt(alpha_sq)
    return a, np.sqrt(1.0 - a * a)


def _entries(state, hi, alpha_sq, xi):
    """``state(a, b, xi)`` over the broadcast shape of ``alpha_sq`` and ``xi``,
    once alpha^2 is checked and xi held to the state's domain [0, hi].
    One xi goes in as a numpy scalar (``[()]``), whose arithmetic skips the
    ufunc dispatch that a 0-d array pays for each operation."""
    a, b = _amplitudes(alpha_sq)
    xi = np.asarray(xi, dtype=float)[()]
    require_xi(xi, 0.0, hi)
    return state(a, b, xi)


# The closed forms of the two states: array arithmetic, shape () for one
# state. analysis's bisection predicates repeat these expressions in this
# operation order on floats, and the tests hold them to these functions.

def _cross_site_entries(a, b, xi):
    eta = 1.0 - 2.0 * xi
    return XStateEntries(a * a * eta + xi * xi, b * b * eta + xi * xi,
                         xi * (1.0 - xi), a * b * eta * eta, 0.0)


def _same_site_entries(a, b, xi):
    """(1 - 2 xi)(a^2 |00><00| + b^2 |11><11|) + 2 xi |+><+|, so C = w = xi."""
    eta = 1.0 - 2.0 * xi
    return XStateEntries(a * a * eta, b * b * eta, xi, 0.0, xi)


def nonlocal_entries(alpha_sq, xi) -> XStateEntries:
    """The entries of the cross-site states at the points (alpha_sq, xi),
    arrays of their broadcast shape: shape () for one point.

    ``xi`` is not held to the machine's range here (``make_cloner_parameter``
    does that). Raises ValueError at the first alpha^2 outside [0, 1], then
    OutOfRangeError at the first xi outside the state's domain [0, 1], where
    it is not a density operator.
    """
    return _entries(_cross_site_entries, 1.0, alpha_sq, xi)


def local_entries(alpha_sq, xi) -> XStateEntries:
    """The entries of the same-site states at the points (alpha_sq, xi); as
    ``nonlocal_entries``, with the state's domain xi in [0, 1/2]."""
    return _entries(_same_site_entries, 0.5, alpha_sq, xi)


def nonlocal_state(inp: EntangledInput, p: ClonerParameter):
    """The cross-site state for one input pair and one machine parameter."""
    return nonlocal_entries(inp.alpha_sq, p.xi).matrix()


def local_state(inp: EntangledInput, p: ClonerParameter):
    """The same-site state for one input pair and one machine parameter."""
    return local_entries(inp.alpha_sq, p.xi).matrix()


def _global_states(a, b, v):
    """Global pure states alpha|00> + beta|11>, each half cloned by the
    isometry ``v`` ((4 d)x2, factor order (a, b, machine)), as tensors on
    factors (a1, b1, m1, a2, b2, m2) of dims (2, 2, d, 2, 2, d), after the
    shape (...) of the arrays a, b: that shape alone for 0-d a, b. A
    stack of isometries, of shape (m...) + ((4 d), 2), puts (m...) first."""
    # t_k: the image of input |k>, with a's axes as 1s between the stack's
    # and the flat (a, b, machine) axis; t_k x t_k is their (4 d)x(4 d) outer
    # product, which the reshape splits into the six factors
    t = v.reshape(v.shape[:-2] + (1,) * np.ndim(a) + v.shape[-2:])
    t0, t1 = t[..., 0], t[..., 1]
    a, b = (np.reshape(x, np.shape(x) + (1, 1)) for x in (a, b))
    psis = a * (t0[..., :, None] * t0[..., None, :]) + b * (t1[..., :, None] * t1[..., None, :])
    d = v.shape[-2] // 4
    return psis.reshape(psis.shape[:-2] + (2, 2, d, 2, 2, d))


_ORACLE_FACTORS = "abmcdn"  # (a1, b1, m1, a2, b2, m2), one letter per factor
# name -> factor letters, in the order the reduced state reads
_ORACLE_PAIRS = {"a1b1": "ab", "a2b2": "cd", "a1b2": "ad", "a2b1": "cb"}
# pair -> the factor axes from the end: its two, then the other four in order
_PAIR_AXES = {pair: tuple(_ORACLE_FACTORS.index(f) - 6 for f in
                          pair + "".join(f for f in _ORACLE_FACTORS if f not in pair))
              for pair in _ORACLE_PAIRS.values()}


def _pair_reduction(psis, pair):
    """Reduced states of |psi><psi| on two qubit factors, named by their
    letters, for a stack of global states of shape (...) + 6 factor axes.

    The result, of shape (..., 4, 4), reads in the order of ``pair``: "cb"
    gives (a2, b1). A transpose by ``_PAIR_AXES[pair]`` puts the pair's axes
    first, so each psi reads as a 4 x K matrix x, its rows the pair's basis
    states and its K = 4 d^2 columns those of the other four factors; the
    partial trace over them is rho_ij = sum_k x_ik conj(x_jk), one 2-D
    contraction per state (a plain einsum, with no BLAS call, so a state in
    a stack reduces exactly as it does alone). The result has the dtype of
    ``psis``: on real states conj returns x itself; the sum runs in float64.
    """
    x = psis.transpose(*range(psis.ndim - 6), *_PAIR_AXES[pair]).reshape(psis.shape[:-6] + (4, -1))
    return np.einsum("...ik,...jk->...ij", x, x.conj())


def oracle_states(alpha_sq, p):
    """All four pair reductions of the global states at alpha^2 (a float, or
    an array), by brute-force partial tracing, keyed by factor names ("a1b1",
    "a2b2", "a1b2", "a2b1"), each a float64 array of shape
    alpha_sq.shape + (4, 4): the machine's isometry and the input's
    amplitudes are real, so the global states are too. ``p`` is a
    ClonerParameter, or a sequence of them, which puts a leading machine axis
    on each state: shape (len(p),) + alpha_sq.shape + (4, 4). Raises
    ValueError for alpha^2 outside [0, 1].

    Independent of the closed forms above; agreement with them is the test.
    """
    kind = MachineKind.ABSTRACT_BH  # its isometry raises GramNotPSDError below 1/6
    v = (machine_isometry(p, kind) if isinstance(p, ClonerParameter)
         else np.stack([machine_isometry(q, kind) for q in p]))
    psis = _global_states(*_amplitudes(alpha_sq), v)
    return {name: _pair_reduction(psis, pair) for name, pair in _ORACLE_PAIRS.items()}


def oracle_broadcast(inp: EntangledInput, p: ClonerParameter):
    """Broadcast outputs by brute-force partial tracing: the same-site pair
    (a1, b1) and the cross-site pair (a1, b2) of ``oracle_states``."""
    pairs = oracle_states(inp.alpha_sq, p)
    return BroadcastOutputs(local_state=pairs["a1b1"], nonlocal_state=pairs["a1b2"])
