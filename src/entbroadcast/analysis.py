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

from .broadcast import (
    STATE_TOL,
    EntangledInput,
    local_state,
    local_states,
    nonlocal_state,
    nonlocal_states,
)
from .cloner import ClonerParameter
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


def _filter(rho, scale):
    """rho_ij s_i s_j / N, the diagonal local filter with diagonal ``scale``.

    ``scale`` has shape (..., 4): a stack of scales filters ``rho`` once each.
    """
    rho_f = rho * (scale[..., :, None] * scale[..., None, :])
    n = np.trace(rho_f, axis1=-2, axis2=-1).real
    if np.any(n <= 1e-300):
        raise DegenerateFilterError(f"filter trace underflow N={np.min(n)}")
    return rho_f / n[..., None, None]


_BELL_PHI = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _max_dev(a, b):
    """max |a - b| over the last two axes."""
    return np.max(np.abs(a - b), axis=(-2, -1))


# Every state _werner_fit accepts has both one-qubit reductions near I/2.
# Non-mixed: each reduction of rho - recon is a sum of two entries within tol,
# and recon's reduction is I/2 + x (psi's reduction - I/2), within x tol, so
# the total is within (2 + x) tol <= 3 tol: x = (4 lambda_max - 1)/3 is at
# most 1 + 16/3 STATE_TOL for a density operator. Mixed: within tol of I/4
# entrywise, so within 2 tol. The screen rejects beyond 4 tol plus an
# allowance for the few roundings (each below an ulp of an entry of size at
# most 1) in forming recon, psi's reductions and the two sums.
_WERNER_SCREEN_ULPS = 16 * np.finfo(float).eps
_HALF = np.eye(2) / 2.0


def _werner(rho, tol):
    """Werner weight x and pure part psi; x is nan where rho has no Werner form.

    ``rho`` is a density operator or a stack of them. Only the states whose
    two one-qubit reductions lie within 4 tol (plus a few ulps) of I/2 can
    have Werner form, so only those are diagonalised; every other state gets
    x = nan and psi = |Phi+>. Every step of the fit acts on each matrix
    alone, so a state gets the same bits whether or not its neighbours were
    screened out.
    """
    lead = rho.shape[:-2]
    dev = np.maximum(_max_dev(rho[..., ::2, ::2] + rho[..., 1::2, 1::2], _HALF),
                     _max_dev(rho[..., :2, :2] + rho[..., 2:, 2:], _HALF))
    near = dev <= 4.0 * tol + _WERNER_SCREEN_ULPS
    x = np.full(lead, math.nan)
    psi = np.broadcast_to(_BELL_PHI, lead + (4,)).copy()
    x[near], psi[near] = _werner_fit(rho[near], tol)
    return _value(x), psi


def _werner_fit(rho, tol):
    """The unscreened Werner fit of a stack: top eigenpair, then the checks."""
    w, v = np.linalg.eigh(rho)
    x = (4.0 * w[..., -1] - 1.0) / 3.0
    psi = v[..., :, -1]
    # maximal entanglement of the pure part
    m = psi.reshape(psi.shape[:-1] + (2, 2))
    m_dag = np.swapaxes(m, -1, -2).conj()
    ok = (_max_dev(m @ m_dag, _HALF) <= tol) & (_max_dev(m_dag @ m, _HALF) <= tol)
    xs = x[..., None, None]
    recon = ((1.0 - xs) / 4.0) * np.eye(4) + xs * (psi[..., :, None] * psi[..., None, :].conj())
    ok &= _max_dev(rho, recon) <= tol
    # maximally mixed: the pure part carries no weight, any psi works
    mixed = x < tol
    ok = np.where(mixed, _max_dev(rho, np.eye(4) / 4.0) <= tol, ok)
    psi = np.where(mixed[..., None], _BELL_PHI, psi)
    x = np.where(ok, np.where(mixed, np.maximum(x, 0.0), x), math.nan)
    return x, psi


QUANTITIES = ("pptNonlocal", "pptLocal", "bellM", "fidelity", "wernerX")


def evaluate(quantities, xi, alpha_sq, werner_tol=1e-8):
    """The named quantities at the points (xi, alpha_sq), as {name: values}.

    ``xi`` and ``alpha_sq`` are floats or arrays that broadcast together; each
    value has their broadcast shape, and is a float when both are floats.
    Only the states the quantities need are built, each as one stack; ``xi``
    is not held to the machine's range here. Raises ValueError for a name not
    in QUANTITIES, and OutOfRangeError at the first point, in order, where a
    needed state is not a density operator. The same-site state is checked
    first: wherever the cross-site state fails, it fails too.
    """
    wanted = set(quantities)
    if not wanted <= set(QUANTITIES):
        raise ValueError(f"unknown quantities {sorted(wanted - set(QUANTITIES))}; "
                         f"choose from {QUANTITIES}")
    values = {}
    if "pptLocal" in wanted:
        values["pptLocal"] = _min_pt_eigenvalue(local_states(alpha_sq, xi))
    if wanted - {"pptLocal"}:
        rho = nonlocal_states(alpha_sq, xi)
        if "pptNonlocal" in wanted:
            values["pptNonlocal"] = _min_pt_eigenvalue(rho)
        if wanted & {"bellM", "fidelity"}:
            t = _correlation(rho).real
            if "bellM" in wanted:
                values["bellM"] = _bell_m(t)
            if "fidelity" in wanted:
                values["fidelity"] = _fidelity(t)
        if "wernerX" in wanted:
            values["wernerX"] = _werner(rho, werner_tol)[0]
    return values


def ppt_test(rho, tol=PPT_TOL):
    """Peres-Horodecki test; exact separability criterion for two qubits."""
    lam = _min_pt_eigenvalue(_require_state(rho))
    return PptResult(separable=lam >= -tol, min_pt_eigenvalue=lam)


def nonlocal_inseparability_range(p: ClonerParameter) -> Interval:
    """Closed alpha^2 interval on which the cross-site pair is inseparable."""
    xi, eta = p.xi, p.eta
    # eta -> 0 (xi -> 1/2) sends the radicand to -inf
    radicand = 0.25 - (xi * (1.0 - xi)) ** 2 / eta**4 if eta != 0.0 else -math.inf
    if radicand < 0.0:
        raise RangeUndefinedError(
            f"nonlocal range undefined at xi={xi} (above {XI_NONLOCAL_MAX})"
        )
    r = math.sqrt(radicand)
    return Interval(0.5 - r, 0.5 + r)


def local_separability_range(p: ClonerParameter) -> Interval:
    """Closed alpha^2 interval on which the same-site pair is separable."""
    xi, eta = p.xi, p.eta
    radicand = 0.25 - (xi / eta) ** 2 if eta != 0.0 else -math.inf
    if radicand < 0.0:
        raise RangeUndefinedError(
            f"local range undefined at xi={xi} (above {XI_LOCAL_MAX})"
        )
    s = math.sqrt(radicand)
    return Interval(0.5 - s, 0.5 + s)


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
    non-negative only below xi = 1/2 - 2^(-5/4) ~ 0.07955.
    """
    if p.eta**4 <= 0.0:
        return None  # eta = 0: correlations vanish, no violation possible
    radicand = 0.5 - 1.0 / (4.0 * p.eta**4)
    if radicand < 0.0:
        return None
    q = math.sqrt(radicand)
    return Interval(0.5 - q, 0.5 + q)


def gisin_filter(rho, f: FilterParams):
    """(M x P) rho (M x P)^dagger / N with diagonal M, P; N the new trace."""
    scale = np.array([f.m1 * f.p1, f.m1 * f.p2, f.m2 * f.p1, f.m2 * f.p2])
    return _filter(_require_state(rho), scale)


# Grid points filtered and evaluated per stack by filter_search_max_m: large
# enough that the Python loop costs little, small enough that a search holds
# about 1.4 MB of arrays at any budget (one 401x401 stack of states is 41 MB).
_FILTER_BLOCK = 2048


def filter_search_max_m(inp: EntangledInput, p: ClonerParameter, budget=101):
    """Maximize M over a deterministic log grid of filter ratios.

    Only the ratios m1/m2 and p1/p2 matter (overall scales cancel in the
    normalization), so the grid covers (m1/m2, p1/p2) in [1e-3, 1e3]^2 with
    ``budget`` points per axis. The grid is taken in row-major order (m1/m2
    major, then p1/p2) in blocks of a fixed number of points, each filtered
    and evaluated as one stack of states. ``argmax`` is the earliest grid
    point at which M attains ``max_m``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rho = nonlocal_state(inp, p)
    if budget == 1:
        ratios = np.array([1.0])
    else:
        ratios = np.logspace(-3.0, 3.0, budget)
    points = budget * budget
    best_m, best_f = -np.inf, None
    for start in range(0, points, _FILTER_BLOCK):
        row, col = np.divmod(np.arange(start, min(start + _FILTER_BLOCK, points)), budget)
        rm, rp = ratios[row], ratios[col]
        scale = np.stack([rm * rp, rm, rp, np.ones_like(rp)], axis=-1)
        m = _bell_m(_correlation(_filter(rho, scale)).real)
        j = int(np.argmax(m))
        if m[j] > best_m:  # strict: an earlier block keeps a tied maximum
            best_m = float(m[j])
            best_f = FilterParams(m1=float(rm[j]), m2=1.0, p1=float(rp[j]), p2=1.0)
    return {"max_m": best_m, "argmax": best_f}


def werner_decompose(rho, tol=1e-8) -> Optional[WernerDecomposition]:
    """Try to write rho as ((1-x)/4) I + x |psi><psi| with psi maximally entangled.

    psi is taken from the top eigenvector; x from its eigenvalue. Returns
    None unless psi's reduced states are both I/2 within tol and the
    reconstruction matches rho entrywise within tol.
    """
    x, psi = _werner(_require_state(rho), tol)
    return None if math.isnan(x) else WernerDecomposition(x=x, psi=psi)


def teleportation_fidelity(rho):
    """Best standard-scheme average fidelity: (1/2)(1 + Tr sqrt(T^T T) / 3)."""
    return _fidelity(correlation_tensor(rho))


def boundary_bisect(p: ClonerParameter, predicate, side, tol=1e-10):
    """Locate the alpha^2 where ``predicate`` flips, by bisection.

    ``predicate`` maps alpha^2 to bool and must be true on a single interval
    around alpha^2 = 1/2. ``side`` selects which edge of that interval to
    find: 'lower' searches [0, 1/2], 'upper' searches [1/2, 1].
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
    """alpha^2 -> True when the cross-site pair fails PPT (is entangled)."""

    def pred(alpha_sq):
        rho = nonlocal_state(EntangledInput.from_alpha_sq(alpha_sq), p)
        # raw eigenvalue sign: bisection needs the exact zero crossing, not
        # the -1e-10 classification threshold
        return _min_pt_eigenvalue(rho) < 0.0

    return pred


def local_separable_predicate(p: ClonerParameter):
    """alpha^2 -> True when the same-site pair passes PPT (is separable)."""

    def pred(alpha_sq):
        rho = local_state(EntangledInput.from_alpha_sq(alpha_sq), p)
        return _min_pt_eigenvalue(rho) >= 0.0

    return pred
