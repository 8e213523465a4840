"""State-quality criteria for the broadcast pairs.

PPT separability (numeric and closed-form alpha^2 ranges), the Horodecki
Bell quantity M with and without local diagonal filtering, Werner-form
decomposition, teleportation fidelity, numeric boundary location by
bisection, and ``evaluate``, which computes the sweep quantities at many
(xi, alpha^2) points at once.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .broadcast import STATE_TOL, local_entries, nonlocal_entries
from .cloner import XI_SLACK, ClonerParameter, OutOfRangeError
from .linalg import PAULIS, is_density_operator

PPT_TOL = 1e-10
WERNER_TOL = 1e-8  # werner_decompose's default

# Machine-parameter bounds of the closed-form ranges
XI_NONLOCAL_MAX = 0.5 - 0.5 / math.sqrt(3.0)  # radicand of the nonlocal range
XI_LOCAL_MAX = 0.25  # radicand of the local range
XI_BELL_MAX = 0.5 - 2.0 ** (-1.25)  # Bell-violation range exists only below this


class RangeUndefinedError(ValueError):
    """The alpha^2 range's radicand is negative at this xi."""


class NoCrossingError(ValueError):
    """Bisection predicate is constant on the searched half-interval."""


class DegenerateFilterError(ValueError):
    """Filter normalization underflows."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"lo={self.lo} > hi={self.hi}")

    @property
    def width(self):
        return self.hi - self.lo

    def subset_of(self, other, slack=0.0):
        return other.lo - slack <= self.lo and self.hi <= other.hi + slack


@dataclass(frozen=True)
class PptResult:
    separable: bool
    min_pt_eigenvalue: float


@dataclass(frozen=True)
class FilterParams:
    """Diagonal local filter M = diag(m1, m2), P = diag(p1, p2)."""

    m1: float
    m2: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("m1", "m2", "p1", "p2"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"filter entry {name}={v} must be positive and finite")


@dataclass(frozen=True)
class WernerDecomposition:
    x: float  # weight of the pure maximally entangled part
    psi: np.ndarray  # the pure 4-vector


_PAULI_PAIRS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])


def _require_state(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density operator")
    if not is_density_operator(rho, trace_tol=STATE_TOL, psd_tol=STATE_TOL):
        raise ValueError("input is not a valid density operator")
    return rho


# One implementation per measure, trusting its input: broadcast validates the
# states it builds, and the public functions check a matrix from outside first.
# Each takes one state, shape (4, 4), or a stack of them, shape (..., 4, 4),
# and acts on every state of a stack exactly as it would on that state alone.

def _value(x):
    """A float for one state, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _min_pt_eigenvalue(rho):
    """Least eigenvalue of the partial transpose on the second qubit."""
    lead = rho.shape[:-2]
    # rows (i0, i1), columns (j0, j1): swap i1 with j1
    pt = np.swapaxes(rho.reshape(lead + (2, 2, 2, 2)), -1, -3).reshape(lead + (4, 4))
    return _value(np.linalg.eigvalsh(pt)[..., 0])


def _correlation(rho):
    """t_ij = Tr(rho sigma_i x sigma_j) before the real part is taken."""
    return np.einsum("ijkl,...lk->...ij", _PAULI_PAIRS, rho)


def _bell_m(t):
    """Sum of the two largest eigenvalues of T^T T for a real tensor t."""
    ev = np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)
    return _value(ev[..., -1] + ev[..., -2])


def _fidelity(t):
    return _value(0.5 * (1.0 + np.sum(np.linalg.svd(t, compute_uv=False), axis=-1) / 3.0))


QUANTITIES = ("pptNonlocal", "pptLocal", "bellM", "fidelity", "wernerX")

# The partial transpose of an X-state swaps d and w; a formula per state
# keeps hypot off the cross-site state.

def _least_pt_cross(e):
    """Least eigenvalue of the cross-site partial transpose: A, B, [[C, d], [d, C]]."""
    return np.minimum(np.minimum(e.big_a, e.big_b), e.c - np.abs(e.d))


def _least_pt_same(s):
    """Least eigenvalue of the same-site partial transpose: [[A, w], [w, B]], C = w = xi."""
    return np.minimum(s.w, 0.5 * (s.big_a + s.big_b) - np.hypot(0.5 * (s.big_a - s.big_b), s.w))


def evaluate(quantities, xi, alpha_sq):
    """The named quantities at the points (xi, alpha_sq), as {name: values}.

    ``xi`` and ``alpha_sq`` are floats or arrays that broadcast together; each
    value has their broadcast shape, and is a float when both are floats.
    Each quantity is computed elementwise from the entries of the states it
    needs, with no matrix built (``dense_quantities`` is the reference);
    ``xi`` is not held to the machine's range here. Raises ValueError for a
    name not in QUANTITIES, and OutOfRangeError at the first point, in order,
    where a needed state is not a density operator. The same-site state is
    checked first: wherever the cross-site state fails, it fails too.

    ``wernerX`` is the weight x = (4 lambda_max - 1)/3 of the cross-site state
    written as ((1-x)/4) I + x |phi+><phi+|. A - B = (a^2 - b^2) eta gives that
    form exactly where alpha_sq == 1/2 or xi == 1/2; elsewhere it is nan.
    """
    wanted = set(quantities)
    if not wanted <= set(QUANTITIES):
        raise ValueError(f"unknown quantities {sorted(wanted - set(QUANTITIES))}; "
                         f"choose from {QUANTITIES}")
    values = {}
    if "pptLocal" in wanted:
        values["pptLocal"] = _least_pt_same(local_entries(alpha_sq, xi))
    if wanted - {"pptLocal"}:
        e = nonlocal_entries(alpha_sq, xi)
        if "pptNonlocal" in wanted:
            values["pptNonlocal"] = _least_pt_cross(e)
        # correlation tensor T = diag(2D, -2D, A + B - 2C)
        t_xy_sq = 4.0 * e.d * e.d
        t_z = e.big_a + e.big_b - 2.0 * e.c
        if "bellM" in wanted:
            values["bellM"] = t_xy_sq + np.maximum(t_xy_sq, t_z * t_z)
        if "fidelity" in wanted:
            values["fidelity"] = 0.5 * (1.0 + (4.0 * np.abs(e.d) + np.abs(t_z)) / 3.0)
        if "wernerX" in wanted:
            # top eigenvalue (A + B)/2 + hypot((A - B)/2, d), with A = B on the lines; the
            # inputs, not the entries, decide them: the next float above 1/2 gives the same entries
            top = 0.5 * (e.big_a + e.big_b) + np.abs(e.d)
            on_line = np.equal(alpha_sq, 0.5) | np.equal(xi, 0.5)
            values["wernerX"] = np.where(on_line, (4.0 * top - 1.0) / 3.0, math.nan)
    return {q: _value(v) for q, v in values.items()}


def dense_quantities(same_site, cross_site):
    """``pptLocal``, ``pptNonlocal``, ``bellM`` and ``fidelity`` of stacks of
    same-site and cross-site density operators, by the dense 4x4 measures
    (eigenvalues, correlation tensor, singular values).

    The independent reference for ``evaluate``'s closed forms; the states
    are trusted, as the measures trust them.
    """
    t = _correlation(cross_site).real
    return {"pptLocal": _min_pt_eigenvalue(same_site),
            "pptNonlocal": _min_pt_eigenvalue(cross_site),
            "bellM": _bell_m(t), "fidelity": _fidelity(t)}


def ppt_test(rho, tol=PPT_TOL):
    """Peres-Horodecki test; exact separability criterion for two qubits."""
    lam = _min_pt_eigenvalue(_require_state(rho))
    return PptResult(separable=lam >= -tol, min_pt_eigenvalue=lam)


def _centred_range(p: ClonerParameter, hi, radicand):
    """The alpha^2 interval 1/2 +- sqrt(radicand(xi, eta)), clamped to [0, 1],
    or None where the radicand is negative; it tends to -inf as eta -> 0, and
    is -inf there. A radicand above 1/4 comes only from an xi in the slack
    outside [0, 1], where |eta| > 1.

    Raises OutOfRangeError for xi outside [0, hi] (beyond XI_SLACK), its
    state's bounds; inside, |eta| <= 1, so no eta^4 overflows.
    """
    xi, eta = p.xi, p.eta
    if not (-XI_SLACK <= xi <= hi + XI_SLACK):
        raise OutOfRangeError(xi, 0.0, hi)
    r = radicand(xi, eta) if eta != 0.0 else -math.inf
    if r < 0.0:
        return None
    s = math.sqrt(r)
    return Interval(max(0.0, 0.5 - s), min(1.0, 0.5 + s))


def nonlocal_inseparability_range(p: ClonerParameter) -> Interval:
    """Closed alpha^2 interval on which the cross-site pair is inseparable;
    OutOfRangeError for xi outside [0, 1], RangeUndefinedError if empty."""
    rng = _centred_range(p, 1.0, lambda xi, eta: 0.25 - (xi * (1.0 - xi)) ** 2 / eta**4)
    if rng is None:
        raise RangeUndefinedError(f"nonlocal range undefined at xi={p.xi} "
                                  f"(above {XI_NONLOCAL_MAX})")
    return rng


def local_separability_range(p: ClonerParameter) -> Interval:
    """Closed alpha^2 interval on which the same-site pair is separable;
    OutOfRangeError for xi outside [0, 1/2], RangeUndefinedError if empty."""
    rng = _centred_range(p, 0.5, lambda xi, eta: 0.25 - (xi / eta) ** 2)
    if rng is None:
        raise RangeUndefinedError(f"local range undefined at xi={p.xi} (above {XI_LOCAL_MAX})")
    return rng


def correlation_tensor(rho):
    """Real 3x3 matrix t_ij = Tr(rho sigma_i x sigma_j): the real part, as a
    state that passes the check is Hermitian up to its tolerance."""
    return _correlation(_require_state(rho)).real


def bell_quantity_m(rho):
    """Sum of the two largest eigenvalues of T^T T; CHSH violated iff > 1."""
    return _bell_m(correlation_tensor(rho))


def bell_violation_range(p: ClonerParameter) -> Optional[Interval]:
    """Closed-form alpha^2 interval of Bell violation, or None when empty.

    Empty for every xi the cloning machine actually admits; the radicand is
    non-negative only below xi = 1/2 - 2^(-5/4) ~ 0.07955. Raises
    OutOfRangeError for xi outside [0, 1].
    """
    return _centred_range(p, 1.0, lambda xi, eta: 0.5 - 1.0 / (4.0 * eta**4))


def gisin_filter(rho, f: FilterParams):
    """(M x P) rho (M x P)^dagger / N with diagonal M, P; N the new trace."""
    scale = np.array([f.m1 * f.p1, f.m1 * f.p2, f.m2 * f.p1, f.m2 * f.p2])
    rho_f = _require_state(rho) * np.outer(scale, scale)
    n = np.trace(rho_f).real
    if n <= 1e-300:
        raise DegenerateFilterError(f"filter trace underflow N={n}")
    return rho_f / n


def filter_certificate(alpha_sq, xi):
    """min(g1, g2) of the cross-site state at (alpha_sq, xi), floats or arrays
    as in ``nonlocal_entries``: >= 0 exactly when no diagonal local filter
    pushes M = t_x^2 + max(t_x^2, t_z^2) past 1.

    g1 = 4 C sqrt(AB) - D^2 and g2 = (sqrt(AB) + C)^2 - 2 D^2. After the
    diagonal filter of ``gisin_filter``, with rm = m1/m2 and rp = p1/p2,
    s = rm rp and rm^2 + rp^2 >= 2s give
    N^2 (1 - t_x^2 - t_z^2) >= 4 s^2 g1, as A s + B/s >= 2 sqrt(AB), and
    N^2 (1 - 2 t_x^2) >= 4 s^2 g2; both are equalities at rm = rp = (B/A)^(1/4).
    ``tests/test_certificate.py`` derives each step in exact arithmetic.
    """
    e = nonlocal_entries(alpha_sq, xi)
    root_ab = np.sqrt(e.big_a * e.big_b)
    d_sq = e.d * e.d
    g1 = 4.0 * e.c * root_ab - d_sq
    g2 = (root_ab + e.c) ** 2 - 2.0 * d_sq
    return _value(np.minimum(g1, g2))


_BELL_PHI = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
_HALF = np.eye(2) / 2.0


def werner_decompose(rho, tol=WERNER_TOL) -> Optional[WernerDecomposition]:
    """Try to write rho as ((1-x)/4) I + x |psi><psi| with psi maximally entangled.

    psi is taken from the top eigenvector; x from its eigenvalue. Returns
    None unless psi's reduced states are both I/2 within tol and the
    reconstruction matches rho entrywise within tol.
    """
    rho = _require_state(rho)
    w, v = np.linalg.eigh(rho)
    x, psi = (4.0 * w[-1] - 1.0) / 3.0, v[:, -1]
    if x < tol:  # maximally mixed: the pure part carries no weight, any psi works
        devs, x, psi = [rho - np.eye(4) / 4.0], np.maximum(x, 0.0), _BELL_PHI.copy()
    else:  # psi maximally entangled, and the reconstruction matches rho
        m = psi.reshape(2, 2)
        m_dag = m.conj().T
        recon = ((1.0 - x) / 4.0) * np.eye(4) + x * np.outer(psi, psi.conj())
        devs = [m @ m_dag - _HALF, m_dag @ m - _HALF, rho - recon]
    if max(np.max(np.abs(d)) for d in devs) > tol:
        return None
    return WernerDecomposition(x=float(x), psi=psi)


def teleportation_fidelity(rho):
    """Best standard-scheme average fidelity: (1/2)(1 + Tr sqrt(T^T T) / 3)."""
    return _fidelity(correlation_tensor(rho))


def boundary_bisect(p: ClonerParameter, predicate, side, tol=1e-10):
    """Locate the alpha^2 where ``predicate`` flips, by bisection.

    ``predicate`` maps alpha^2 to bool and must be true on a single interval
    around alpha^2 = 1/2. ``side`` selects which edge of that interval to
    find: 'lower' searches [0, 1/2], 'upper' searches [1/2, 1].

    ``tol`` bounds the final bracket, not the error: where the predicate's
    quantity is within rounding of 0 over a band of alpha^2, as the same-site
    eigenvalue is at xi = 1/4, the ends may lie anywhere in that band.
    """
    if side == "lower":
        out_pt, in_pt = 0.0, 0.5
    elif side == "upper":
        out_pt, in_pt = 1.0, 0.5
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    if not predicate(in_pt):
        raise NoCrossingError(f"predicate false at alpha^2=0.5 for xi={p.xi}")
    if predicate(out_pt):
        raise NoCrossingError(f"predicate true at alpha^2={out_pt} for xi={p.xi}")
    return bisect(predicate, in_pt, out_pt, tol)


def bisect(predicate, inside, outside, tol):
    """Midpoint of the last bracket of a bisection between ``inside``, where
    ``predicate`` holds, and ``outside``, where it does not.

    The bracket is halved until it is no wider than ``tol`` or its ends are
    adjacent floats. The predicate is called once per step, in walk order, at
    that step's midpoint ``0.5 * (lo + hi)``, and never at the two ends.
    Raises ValueError unless ``tol`` is positive and finite.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"bisection tolerance must be positive and finite, got {tol}")
    lo, hi = outside, inside
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent floats: no smaller bracket exists
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# The bisection predicates. A step, one state's floats, does its whole work in
# one frame: the state's entries by the expressions and operation order of
# broadcast's closed forms, and the raw sign of ``evaluate``'s quantity, so each
# decides as that route does. On the state's xi domain, [0, 1] cross-site and
# [0, 1/2] same-site, its eigenvalues are non-negative and ``_require_x_state``
# cannot fail (``tests/test_certificate.py``), so a step skips it; off the
# domain, ``evaluate`` takes the step, raising where the entries raise.
# A constant of the machine or of the input is bound only where its float
# stays the same: a b eta eta is (a b eta) eta. Builtin min/max/abs replace
# numpy's ufuncs, which cost several times the arithmetic on floats;
# np.minimum(x, y) and np.maximum(x, y) keep y on a tie, so min and max list
# them in reverse, signed zeros included. hypot(h, w) is abs(complex(h, w)):
# CPython's complex abs is the C library's hypot, and so is np.hypot on
# float64 (math.hypot rounds its own way, off in the last bit). Complex abs
# raises OverflowError where hypot overflows; same-site entries on the
# domain are at most 1, so it cannot here.

def nonlocal_inseparable_predicate(p: ClonerParameter):
    """alpha^2 -> True when the cross-site pair fails PPT (is entangled):
    ``evaluate``'s pptNonlocal below 0, its raw sign, as bisection needs the
    exact zero crossing, not the -1e-10 classification threshold.
    ``oracle.equivalence`` ties that closed form to eigvalsh. Raises as
    ``nonlocal_entries``: off xi in [0, 1], each call is ``evaluate``'s."""
    xi = float(p.xi)
    if not 0.0 <= xi <= 1.0:
        return lambda alpha_sq: evaluate({"pptNonlocal"}, xi, alpha_sq)["pptNonlocal"] < 0.0
    eta, xi_sq, c = 1.0 - 2.0 * xi, xi * xi, xi * (1.0 - xi)

    def pred(alpha_sq):
        if not 0.0 <= alpha_sq <= 1.0:
            raise ValueError(f"alpha^2={alpha_sq} outside [0, 1]")
        a = math.sqrt(alpha_sq)
        a_sq = a * a
        b = math.sqrt(1.0 - a_sq)
        big_a, big_b, d = a_sq * eta + xi_sq, b * b * eta + xi_sq, a * b * eta * eta
        return min(c - abs(d), big_b, big_a) < 0.0

    return pred


def local_separable_predicate(p: ClonerParameter):
    """alpha^2 -> True when the same-site pair passes PPT (is separable):
    ``evaluate``'s pptLocal at least 0. ``oracle.equivalence`` ties that
    closed form to eigvalsh. Raises as ``local_entries``: off xi in [0, 1/2],
    each call is ``evaluate``'s."""
    xi = float(p.xi)
    if not 0.0 <= xi <= 0.5:
        return lambda alpha_sq: evaluate({"pptLocal"}, xi, alpha_sq)["pptLocal"] >= 0.0
    eta = 1.0 - 2.0 * xi

    def pred(alpha_sq):
        if not 0.0 <= alpha_sq <= 1.0:
            raise ValueError(f"alpha^2={alpha_sq} outside [0, 1]")
        a = math.sqrt(alpha_sq)
        a_sq = a * a
        b = math.sqrt(1.0 - a_sq)
        big_a, big_b = a_sq * eta, b * b * eta
        h, mean = 0.5 * (big_a - big_b), 0.5 * (big_a + big_b)
        return min(mean - abs(complex(h, xi)), xi) >= 0.0

    return pred


def bell_violated_predicate(alpha_sq):
    """xi -> True when the cross-site pair at (xi, alpha_sq) violates CHSH:
    ``evaluate``'s bellM above 1. Raises ValueError here for alpha^2 outside
    [0, 1]; a call whose xi is outside [0, 1] is ``evaluate``'s, so raises as
    ``nonlocal_entries``."""
    if not 0.0 <= alpha_sq <= 1.0:
        raise ValueError(f"alpha^2={alpha_sq} outside [0, 1]")
    a = math.sqrt(alpha_sq)
    a_sq = a * a
    b = math.sqrt(1.0 - a_sq)
    b_sq, ab = b * b, a * b

    def pred(xi):
        if not 0.0 <= xi <= 1.0:
            return evaluate({"bellM"}, xi, alpha_sq)["bellM"] > 1.0
        eta, xi_sq, c = 1.0 - 2.0 * xi, xi * xi, xi * (1.0 - xi)
        big_a, big_b, d = a_sq * eta + xi_sq, b_sq * eta + xi_sq, ab * eta * eta
        # T = diag(2d, -2d, t_z), as in evaluate
        t_xy_sq, t_z = 4.0 * d * d, big_a + big_b - 2.0 * c
        return t_xy_sq + max(t_z * t_z, t_xy_sq) > 1.0

    return pred
