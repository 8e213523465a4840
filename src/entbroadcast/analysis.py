"""State-quality criteria for the broadcast pairs.

PPT separability (numeric and closed-form alpha^2 ranges), the Horodecki
Bell quantity M with and without local diagonal filtering, Werner-form
decomposition, teleportation fidelity, numeric boundary location by
bisection, and ``evaluate``, which computes the sweep quantities at many
(xi, alpha^2) points at once.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .broadcast import (
    STATE_TOL,
    EntangledInput,
    local_entries,
    local_state_entries,
    nonlocal_entries,
    nonlocal_state_entries,
)
from .cloner import XI_SLACK, ClonerParameter, OutOfRangeError
from .linalg import PAULIS, is_density_operator

PPT_TOL = 1e-10

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

    def contains(self, x, slack=0.0):
        return self.lo - slack <= x <= self.hi + slack

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

# A Werner weight this close to 0 is 0 up to the rounding of (4 lambda - 1)/3
# with lambda near 1/4: a few ulps of 1.
_MIXED_ULPS = 8 * np.finfo(float).eps


def _max_abs(*diffs):
    """max |d| over ``diffs``, elementwise over their broadcast shape."""
    return functools.reduce(np.maximum, map(np.abs, diffs))


def _least_pt_cross(e):
    """Least eigenvalue of the cross-site partial transpose: A, B, [[C, D], [D, C]]."""
    return np.minimum(np.minimum(e.big_a, e.big_b), e.c - np.abs(e.d))


def _least_pt_same(s):
    """Least eigenvalue of the same-site partial transpose: [[a^2 eta, xi], [xi, b^2 eta]], xi."""
    return np.minimum(s.xi, 0.5 * (s.big_a + s.big_b) - np.hypot(0.5 * (s.big_a - s.big_b), s.xi))


def _werner_x(e, tol):
    """The Werner weight of cross-site states from their entries, nan where
    there is no Werner form within ``tol``; the rule is ``evaluate``'s.

    The top eigenpair of an X-state with diagonal (A, C, C, B) and corner D
    lies in the {|00>, |11>} block when its eigenvalue (A + B)/2 + h, with
    h = hypot((A - B)/2, D), is at least C; the eigenvector is
    cos|00> + sin|11> with cos^2 = 1/2 + (A - B)/(4h) and cos sin = D/(2h).
    """
    h = np.hypot(0.5 * e.asym, e.d)
    top = 0.5 * (e.big_a + e.big_b) + h
    x = (4.0 * top - 1.0) / 3.0
    inv_2h = 0.5 / np.where(h > 0.0, h, 1.0)  # h = 0 only at I/4, where x = 0
    tilt = 0.5 * e.asym * inv_2h  # cos^2 - 1/2
    # (1-x)/4 I + x psi psi^dag, entry by entry against the state
    base = 0.25 * (1.0 - x)
    dev = _max_abs(base + x * (0.5 + tilt) - e.big_a, base + x * (0.5 - tilt) - e.big_b,
                   base - e.c, x * e.d * inv_2h - e.d)
    ok = (np.abs(tilt) <= tol) & (top >= e.c) & (dev <= tol)
    # maximally mixed: the pure part carries no weight, any psi works
    mixed = np.abs(x) <= _MIXED_ULPS
    quarter = _max_abs(e.big_a - 0.25, e.big_b - 0.25, e.c - 0.25, e.d) <= tol
    ok = np.where(mixed, quarter, ok)
    return np.where(ok, np.where(mixed, np.maximum(x, 0.0), x), math.nan)


def evaluate(quantities, xi, alpha_sq, werner_tol=1e-8):
    """The named quantities at the points (xi, alpha_sq), as {name: values}.

    ``xi`` and ``alpha_sq`` are floats or arrays that broadcast together; each
    value has their broadcast shape, and is a float when both are floats.
    Each quantity is computed elementwise from the entries of the states it
    needs, with no matrix built (``dense_quantities`` is the reference);
    ``xi`` is not held to the machine's range here. Raises ValueError for a
    name not in QUANTITIES, and OutOfRangeError at the first point, in order,
    where a needed state is not a density operator. The same-site state is
    checked first: wherever the cross-site state fails, it fails too.

    ``wernerX`` is the weight x of the cross-site state written as
    ((1-x)/4) I + x |psi><psi| with psi maximally entangled, and nan where it
    has no such form: psi is the top eigenvector, which must be maximally
    entangled within ``werner_tol`` (|cos^2 - 1/2| <= werner_tol), and the
    reconstruction must match every entry within ``werner_tol``. When x is 0
    up to rounding (a few ulps), the state is taken as maximally mixed, and
    it is accepted, with weight max(x, 0), if every entry lies within
    ``werner_tol`` of I/4. A state near I/4 with a weight above rounding,
    however small, must pass the first test: only alpha^2 = 1/2 gives it.
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
            values["wernerX"] = _werner_x(e, werner_tol)
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
    """The alpha^2 interval 1/2 +- sqrt(radicand(xi, eta)), or None where the
    radicand is negative; it tends to -inf as eta -> 0, and is -inf there.

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
    return Interval(0.5 - s, 0.5 + s)


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
    """Real 3x3 matrix t_ij = Tr(rho sigma_i x sigma_j)."""
    t = _correlation(_require_state(rho))
    if np.max(np.abs(t.imag)) > 1e-12:
        raise ValueError("correlation tensor has non-negligible imaginary part")
    return t.real


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


def _filtered_bell_m(e, rm, rp):
    """``filter_search_max_m``'s M, elementwise over entries ``e`` and ratios rm, rp."""
    s = rm * rp
    big_a, c_m, c_p = e.big_a * (s * s), e.c * (rm * rm), e.c * (rp * rp)
    n = big_a + c_m + c_p + e.big_b
    if np.any(n <= 1e-300):
        raise DegenerateFilterError(f"filter trace underflow N={np.min(n)}")
    t_x_sq, t_z = (2.0 * e.d * s / n) ** 2, (big_a + e.big_b - c_m - c_p) / n
    return t_x_sq + np.maximum(t_x_sq, t_z * t_z)


def filter_search_max_m(inp: EntangledInput, p: ClonerParameter, budget=101):
    """Maximize M over a deterministic log grid of filter ratios.

    Only rm = m1/m2 and rp = p1/p2 matter (overall scales cancel): the grid
    is [1e-3, 1e3]^2 with ``budget`` points per axis, or (1, 1) at budget 1.
    ``argmax`` is the earliest grid point, row-major, where M is ``max_m``.

    A diagonal filter keeps an X-state, so M comes from the entries,
    elementwise, with no matrix (``gisin_filter`` and ``bell_quantity_m`` are
    the dense reference). The scale (rm rp, rm, rp, 1) gives the diagonal
    (A rm^2 rp^2, C rm^2, C rp^2, B)/N and the corner D rm rp/N, with
    N = A rm^2 rp^2 + C (rm^2 + rp^2) + B, so t_x = 2 D rm rp/N,
    t_z = (A rm^2 rp^2 + B - C rm^2 - C rp^2)/N and M = t_x^2 + max(t_x^2, t_z^2).
    Memory grows as budget^2: about 0.6 MB at 101, 9 MB at 401.

    At every admissible point searched so far the maximum is on a grid corner
    (the product-state limit), so budgets 21, 101 and 401 give the same value.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ratios = np.array([1.0]) if budget == 1 else np.logspace(-3.0, 3.0, budget)
    m = _filtered_bell_m(nonlocal_state_entries(inp, p), ratios[:, None], ratios[None, :])
    row, col = divmod(int(np.argmax(m)), budget)  # C order: the earliest maximum
    return {"max_m": float(m[row, col]),
            "argmax": FilterParams(float(ratios[row]), 1.0, float(ratios[col]), 1.0)}


_BELL_PHI = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
_HALF = np.eye(2) / 2.0


def werner_decompose(rho, tol=1e-8) -> Optional[WernerDecomposition]:
    """Try to write rho as ((1-x)/4) I + x |psi><psi| with psi maximally entangled.

    psi is taken from the top eigenvector; x from its eigenvalue. Returns
    None unless psi's reduced states are both I/2 within tol and the
    reconstruction matches rho entrywise within tol.

    Within tol of I/4 this dense fit is looser than ``evaluate``'s
    ``wernerX``: it takes any rho with x < tol as maximally mixed, and
    accepts it, with weight max(x, 0), when rho lies within tol of I/4
    entrywise. So a cross-site state near xi = 1/2 but off alpha^2 = 1/2
    gets a small weight here and nan from ``evaluate``. The dense fit cannot
    take ``evaluate``'s narrower rule: so near I/4 the top eigenvalue is
    nearly degenerate, and the error of eigh's eigenvector exceeds tol.
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
    adjacent floats. The predicate is not evaluated at the two ends. Raises
    ValueError unless ``tol`` is positive and finite.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"bisection tolerance must be positive and finite, got {tol}")
    lo, hi = outside, inside
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # lo and hi are adjacent floats: no smaller bracket exists
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def nonlocal_inseparable_predicate(p: ClonerParameter):
    """alpha^2 -> True when the cross-site pair fails PPT (is entangled), by the
    closed form of ``evaluate``'s pptNonlocal; ``oracle.equivalence`` ties it to eigvalsh."""

    def pred(alpha_sq):
        e = nonlocal_state_entries(EntangledInput.from_alpha_sq(alpha_sq), p)
        # raw eigenvalue sign: bisection needs the exact zero crossing, not
        # the -1e-10 classification threshold
        return bool(_least_pt_cross(e) < 0.0)

    return pred


def local_separable_predicate(p: ClonerParameter):
    """alpha^2 -> True when the same-site pair passes PPT (is separable), by the
    closed form of ``evaluate``'s pptLocal; ``oracle.equivalence`` ties it to eigvalsh."""

    def pred(alpha_sq):
        s = local_state_entries(EntangledInput.from_alpha_sq(alpha_sq), p)
        return bool(_least_pt_same(s) >= 0.0)

    return pred
