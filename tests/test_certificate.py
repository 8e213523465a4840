"""Exact certificates of the Bell claims: the argmax of M over the admissible
machines, and the bound on M under diagonal local filtering.

The cross-site state is derived in exact arithmetic from its definition,
(L x L)(|psi><psi|) with |psi> = a|00> + b|11> and each site's clone map
L(rho) = eta rho + xi Tr(rho) I, eta = 1 - 2 xi. Its correlation tensor
T_ij = Tr(rho sigma_i x sigma_j) then gives M = eta^4 (1 + 4 a^2 b^2), whose
largest value over alpha^2 = a^2 is at alpha^2 = 1/2 for every xi, and over
the admissible machines at the lower xi bound, and the teleportation
fidelity F, with F - 2/3 = (2/3)(|D| - C): the pair beats the classical
bound 2/3 exactly when it fails the PPT test. Filtering that
X-state diagonally keeps M <= 1 for every filter exactly when
``analysis.filter_certificate``'s min(g1, g2) is >= 0. Its |00> and |11>
diagonal entries differ by (2a^2 - 1) eta, and a Werner state's are equal,
so it has Werner form only at alpha^2 = 1/2 or xi = 1/2, where it does.

The same-site state is derived from the machine's Gram entries. Each
closed-form alpha^2 range, cross-site inseparability (C = |D|), same-site
separability (AB = w^2) and Bell violation (4 D^2 + t_z^2 = 1), is the root
pair of a zero condition on the entries, 1/2 +- the square root of a
radicand, and the radicand's root in xi is the range's machine bound.

On its xi domain, [0, 1] cross-site and [0, 1/2] same-site, each state's
X-state eigenvalues are non-negative, so the state check cannot fail there
and the bisection kernels skip it.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entbroadcast.analysis import (
    XI_BELL_MAX,
    XI_LOCAL_MAX,
    XI_NONLOCAL_MAX,
    bell_violation_range,
    evaluate,
    filter_certificate,
    local_separability_range,
    nonlocal_inseparability_range,
)
from entbroadcast.broadcast import local_entries, nonlocal_entries
from entbroadcast.cloner import XI_LOWER, analysis_parameter

a, xi = sp.symbols("a xi", positive=True)
b = sp.sqrt(1 - a**2)
eta = 1 - 2 * xi
PAULI = [sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
         sp.Matrix([[1, 0], [0, -1]])]


def _clone_map(rho):
    return eta * rho + xi * rho.trace() * sp.eye(2)


def _unit(i, j):
    e = sp.zeros(2)
    e[i, j] = 1
    return e


def _cross_site_state():
    """(L x L)(|psi><psi|), applied to each matrix unit |i><j| x |k><m|."""
    psi = [a, 0, 0, b]  # amplitudes of |00>, |01>, |10>, |11>
    rho = sp.zeros(4)
    for i, j, k, m in product((0, 1), repeat=4):
        weight = psi[2 * i + k] * psi[2 * j + m]
        if weight != 0:
            rho += weight * sp.kronecker_product(_clone_map(_unit(i, j)), _clone_map(_unit(k, m)))
    return rho.applyfunc(sp.expand)


RHO = _cross_site_state()
T = sp.Matrix(3, 3, lambda i, j: sp.expand(
    (RHO * sp.kronecker_product(PAULI[i], PAULI[j])).trace()))


def _zero(expr):
    return sp.simplify(sp.expand(expr)) == 0


def test_state_is_a_normalized_x_state():
    assert _zero(RHO.trace() - 1)
    assert RHO == RHO.T and _zero(RHO[1, 1] - RHO[2, 2])
    assert all(RHO[i, j] == 0 for i in range(4) for j in range(4) if i != j and i + j != 3)


def test_correlation_tensor_is_diagonal():
    want = sp.diag(2 * a * b * eta**2, -2 * a * b * eta**2, eta**2)
    assert all(_zero(e) for e in T - want)


def test_bell_quantity_is_largest_at_half():
    t_z, d = T[2, 2], RHO[0, 3]
    assert _zero(T[0, 0] - 2 * d) and _zero(T[1, 1] + 2 * d)
    # T^T T = diag(4d^2, 4d^2, t_z^2), and t_z^2 - 4d^2 is a square, so the
    # two largest of its eigenvalues are t_z^2 and 4d^2
    assert all(_zero(e) for e in T.T * T - sp.diag(4 * d**2, 4 * d**2, t_z**2))
    assert _zero(t_z**2 - 4 * d**2 - eta**4 * (2 * a**2 - 1) ** 2)
    m = t_z**2 + 4 * d**2
    assert _zero(m - eta**4 * (1 + 4 * a**2 * b**2))
    m_half = m.subs(a, 1 / sp.sqrt(2))
    gap = sp.factor(sp.expand(m_half - m))
    assert _zero(gap - eta**4 * (2 * a**2 - 1) ** 2)
    assert gap.is_nonnegative


def test_bell_quantity_is_largest_at_the_lower_xi_bound():
    # M at alpha^2 = 1/2 is 2 eta^4, which falls on [0, 1/2] as eta = 1 - 2 xi
    # does; with the gap above, (XI_LOWER, 1/2) is the argmax of M over the
    # admissible box XI_LOWER <= xi <= 1/2, 0 <= alpha^2 <= 1
    m_half = (T[2, 2] ** 2 + 4 * RHO[0, 3] ** 2).subs(a, 1 / sp.sqrt(2))
    assert _zero(m_half - 2 * eta**4)
    slope = sp.diff(m_half, xi)
    assert _zero(slope + 16 * eta**3)
    assert sp.maximum(slope, xi, sp.Interval(0, sp.Rational(1, 2))) == 0


def _ulps(got, exact, scale=0.0):
    """|got - exact| in units of the last place of exact, or of scale when larger."""
    return abs(got - float(exact)) / math.ulp(max(abs(float(exact)), scale))


POINTS = [(Fraction(p), Fraction(q)) for p, q in [
    ("0", "0"), ("1", "0"), ("1/2", "0"), ("1/2", "1/6"), ("1/2", "1/5"), ("1/2", "1/2"),
    ("1/3", "1/6"), ("1/5", "1/6"), ("7/20", "1/5"), ("1/10", "3/20"), ("9/10", "1/4"),
    ("1/4", "3/10"), ("3/4", "1/3"), ("2/3", "2/5"), ("1/7", "1/8"), ("5/8", "7/16"),
    ("99/100", "1/100"), ("1/100", "49/100"), ("3/10", "1/2"), ("1", "1/6"), ("0", "1/5"),
]]


@pytest.mark.parametrize("alpha_sq, x", POINTS, ids=[f"{p}-{q}" for p, q in POINTS])
def test_entries_match_the_exact_state(alpha_sq, x):
    # the exact state at the floats the closed form is given
    at = {a: sp.sqrt(sp.Rational(float(alpha_sq))), xi: sp.Rational(float(x))}
    big_a, big_b, c, d, w = (sp.N(RHO[i, j].subs(at), 40)
                             for i, j in ((0, 0), (3, 3), (1, 1), (0, 3), (1, 2)))
    got = nonlocal_entries(float(alpha_sq), float(x))
    for g, e in zip(got, (big_a, big_b, c, d, w)):
        assert _ulps(g, e) <= 4, (got, e)


# F = (1 + (sum of the singular values of T) / 3) / 2; T is diagonal, so its
# singular values are |T_ii|
FIDELITY = (1 + sum(sp.Abs(sp.factor(T[i, i])) for i in range(3)) / 3) / 2


def test_fidelity_gap_is_the_entanglement_margin():
    d, c = RHO[0, 3], RHO[1, 1]
    assert _zero(T[2, 2] - eta**2)  # t_z = eta^2 >= 0
    assert _zero(1 - eta**2 - 4 * c)  # 1 - eta^2 = 4 xi (1 - xi) = 4C
    # so F - 2/3 = (4|D| + eta^2 - 1)/6 = (2/3)(|D| - C). As A, B >= 0, the
    # least partial-transpose eigenvalue min(A, B, C - |D|) is negative
    # exactly when |D| > C, that is when F > 2/3
    gap = FIDELITY - sp.Rational(2, 3) - sp.Rational(2, 3) * (sp.Abs(sp.factor(d)) - c)
    assert _zero(gap)


@pytest.mark.parametrize("alpha_sq, x", POINTS, ids=[f"{p}-{q}" for p, q in POINTS])
def test_fidelity_matches_the_exact_state(alpha_sq, x):
    at = {a: sp.sqrt(sp.Rational(float(alpha_sq))), xi: sp.Rational(float(x))}
    exact = sp.N(FIDELITY.subs(at), 40)
    got = evaluate({"fidelity", "pptNonlocal"}, float(x), float(alpha_sq))
    assert _ulps(got["fidelity"], exact) <= 4, (got, exact)
    # useful for teleportation exactly when inseparable, away from the PPT edge
    if abs(got["pptNonlocal"]) > 1e-12:
        assert (got["fidelity"] > 2 / 3) == (got["pptNonlocal"] < 0.0), got


# -- the Werner certificate ---------------------------------------------------
# ``evaluate``'s wernerX and the claim werner.only_maximally_entangled rest on
# these: A - B = (a^2 - b^2) eta, and A = B for every Werner state.

PHI_PLUS = sp.Matrix([1, 0, 0, 1]) / sp.sqrt(2)


def _werner(weight):
    return (1 - weight) / 4 * sp.eye(4) + weight * PHI_PLUS * PHI_PLUS.T


def test_werner_states_have_equal_outer_diagonal_entries():
    state = _werner(sp.Symbol("x", real=True))
    assert _zero(state[0, 0] - state[3, 3])


def test_outer_diagonal_gap_is_the_werner_certificate():
    assert _zero(RHO[0, 0] - RHO[3, 3] - (2 * a**2 - 1) * eta)
    # it vanishes only at alpha^2 = 1/2 or xi = 1/2, and there the state is
    # Werner, of weight eta^2 (0 at xi = 1/2, where it is I/4)
    assert all(_zero(e) for e in RHO.subs(a, 1 / sp.sqrt(2)) - _werner(eta**2))
    assert all(_zero(e) for e in RHO.subs(xi, sp.Rational(1, 2)) - sp.eye(4) / 4)


# -- the filtering certificate ------------------------------------------------
# A diagonal local filter diag(rm, 1) x diag(rp, 1) on an X-state with
# diagonal (A, C, C, B) and corner D, the cross-site state's form: every
# diagonal filter acts so, up to a scale that the normalization removes.

big_a, big_b, big_c, big_d, rm, rp = sp.symbols("A B C D r_m r_p", positive=True)
S, Q = rm * rp, rm**2 + rp**2
ROOT_AB = sp.sqrt(big_a * big_b)
G1 = 4 * big_c * ROOT_AB - big_d**2
G2 = (ROOT_AB + big_c) ** 2 - 2 * big_d**2
CROSS_SITE = {big_a: RHO[0, 0], big_b: RHO[3, 3], big_c: RHO[1, 1], big_d: RHO[0, 3]}


def _filtered():
    """(N, N T): the trace of the unnormalized filtered state, and N times
    the correlation tensor T of the filtered (normalized) state."""
    rho = sp.diag(big_a, big_c, big_c, big_b)
    rho[0, 3] = rho[3, 0] = big_d
    k = sp.kronecker_product(sp.diag(rm, 1), sp.diag(rp, 1))
    unnormalized = k * rho * k
    n_t = sp.Matrix(3, 3, lambda i, j: sp.expand(
        (unnormalized * sp.kronecker_product(PAULI[i], PAULI[j])).trace()))
    return sp.expand(unnormalized.trace()), n_t


N, N_T = _filtered()
# M = t_x^2 + max(t_x^2, t_z^2) <= 1 exactly when both margins are >= 0
MARGIN_XZ = N**2 - N_T[0, 0] ** 2 - N_T[2, 2] ** 2  # N^2 (1 - t_x^2 - t_z^2)
MARGIN_XY = N**2 - 2 * N_T[0, 0] ** 2  # N^2 (1 - 2 t_x^2)


def test_filtered_tensor_is_diagonal():
    want = sp.diag(2 * big_d * S, -2 * big_d * S, big_a * S**2 + big_b - big_c * Q)
    assert all(_zero(e) for e in N_T - want)
    assert _zero(N - (big_a * S**2 + big_c * Q + big_b))


def test_margins_are_bounded_by_the_certificate():
    assert _zero(MARGIN_XZ - 4 * (big_c * Q * (big_a * S**2 + big_b) - big_d**2 * S**2))
    # each margin is 4 s^2 g plus a sum of squares times positive factors:
    # q - 2s = (rm - rp)^2 and A s^2 + B - 2 s sqrt(AB) = (sqrt(A) s - sqrt(B))^2
    square = (sp.sqrt(big_a) * S - sp.sqrt(big_b)) ** 2
    assert _zero(MARGIN_XZ - 4 * S**2 * G1
                 - 4 * big_c * ((rm - rp) ** 2 * (big_a * S**2 + big_b) + 2 * S * square))
    gap = square + big_c * (rm - rp) ** 2  # N - 2 s (sqrt(AB) + C)
    assert _zero(MARGIN_XY - 4 * S**2 * G2 - gap * (gap + 4 * S * (ROOT_AB + big_c)))


def test_certificate_is_tight():
    # at rm = rp = (B/A)^(1/4), s^2 = B/A and both sums of squares vanish:
    # each margin is 4 B/A > 0 times its g, whatever C and D
    r = (big_b / big_a) ** sp.Rational(1, 4)
    for margin, g in ((MARGIN_XZ, G1), (MARGIN_XY, G2)):
        assert _zero(margin.subs({rm: r, rp: r}) - 4 * big_b / big_a * g)


@pytest.mark.parametrize("alpha_sq, x", POINTS, ids=[f"{p}-{q}" for p, q in POINTS])
def test_certificate_matches_the_exact_state(alpha_sq, x):
    at = {a: sp.sqrt(sp.Rational(float(alpha_sq))), xi: sp.Rational(float(x))}
    exact = sp.N(sp.Min(G1, G2).subs(CROSS_SITE).subs(at), 40)
    got = filter_certificate(float(alpha_sq), float(x))
    # g1 and g2 cancel terms of size at most 1: their rounding is in units of 1
    assert _ulps(got, exact, 1.0) <= 8, (got, exact)


def test_widest_certificate_is_one_eighth():
    """At alpha^2 = 1/2 and xi = 1/2 - 1/(2 sqrt 2): A = B = 3/8, C = 1/8,
    D = 1/4, so g1 = g2 = 1/8, the computed value of bell.filtered.widest."""
    at = {a: 1 / sp.sqrt(2), xi: sp.Rational(1, 2) - 1 / (2 * sp.sqrt(2))}
    assert [sp.nsimplify(sp.simplify(e.subs(at))) for e in CROSS_SITE.values()] == [
        sp.Rational(3, 8), sp.Rational(3, 8), sp.Rational(1, 8), sp.Rational(1, 4)]
    assert all(_zero(g.subs(CROSS_SITE).subs(at) - sp.Rational(1, 8)) for g in (G1, G2))
    assert _ulps(filter_certificate(0.5, XI_LOWER), sp.Rational(1, 8), 1.0) <= 4


# -- the range radicands ------------------------------------------------------
# With s = alpha^2, each range's zero condition is quadratic in s, with roots
# 1/2 +- sqrt(r): the radicand r is the squared half distance of the roots,
# and the range exists while r >= 0, up to r's root in xi.

s = sp.Symbol("s", positive=True)  # alpha^2


def _same_site_state():
    """The clone pair of the first site. Tracing out the second site leaves
    its input diag(a^2, b^2), and tracing the machine out of the image
    |kk> Q_k + (|01> + |10>) Y_k of |k> leaves the Gram entries
    <Q_k|Q_k> = eta, <Y_k|Y_k> = xi and <Q_k|Y_k> = 0."""
    gram = {("Q", "Q"): eta, ("Y", "Y"): xi, ("Q", "Y"): 0, ("Y", "Q"): 0}
    rho = sp.zeros(4)
    for k, weight in ((0, a**2), (1, b**2)):
        ket = {"Q": sp.eye(4)[:, 3 * k], "Y": sp.Matrix([0, 1, 1, 0])}
        for u, v in product("QY", repeat=2):
            rho += weight * gram[u, v] * ket[u] * ket[v].T
    return rho.applyfunc(sp.expand)


SAME_SITE = _same_site_state()


@pytest.mark.parametrize("alpha_sq, x", POINTS, ids=[f"{p}-{q}" for p, q in POINTS])
def test_same_site_entries_match_the_exact_state(alpha_sq, x):
    at = {a: sp.sqrt(sp.Rational(float(alpha_sq))), xi: sp.Rational(float(x))}
    big_a, big_b, c, d, w = (sp.N(SAME_SITE[i, j].subs(at), 40)
                             for i, j in ((0, 0), (3, 3), (1, 1), (0, 3), (1, 2)))
    got = local_entries(float(alpha_sq), float(x))
    # B = (1 - a^2) eta cancels: its rounding is in units of eta
    scales = (0.0, float(1 - 2 * x), 0.0, 0.0, 0.0)
    for g, e, scale in zip(got, (big_a, big_b, c, d, w), scales):
        assert _ulps(g, e, scale) <= 4, (got, e)


# (zero condition, range function, machine bound): the least partial-transpose
# eigenvalue C - |D| of the cross-site pair and the determinant AB - w^2 of
# the same-site pair's partial-transpose outer block change sign there, and
# M = 4 D^2 + t_z^2 (t_z^2 >= 4 D^2) crosses 1
RANGES = {
    "nonlocal": (RHO[1, 1] ** 2 - RHO[0, 3] ** 2,
                 nonlocal_inseparability_range, XI_NONLOCAL_MAX),
    "local": (SAME_SITE[0, 0] * SAME_SITE[3, 3] - SAME_SITE[1, 2] ** 2,
              local_separability_range, XI_LOCAL_MAX),
    "bell": (4 * RHO[0, 3] ** 2 + T[2, 2] ** 2 - 1, bell_violation_range, XI_BELL_MAX),
}


def _radicand(condition):
    c2, c1, c0 = sp.Poly(sp.expand(condition).subs(a, sp.sqrt(s)), s).all_coeffs()
    assert _zero(c1 + c2)  # the roots' mean, -c1 / (2 c2), is 1/2
    return sp.factor((c1**2 - 4 * c2 * c0) / (4 * c2**2))


@pytest.mark.parametrize("name", RANGES)
def test_machine_bound_is_the_radicand_root(name):
    condition, _, bound = RANGES[name]
    roots = [r for r in sp.solve(sp.numer(sp.together(_radicand(condition))), xi)
             if r.is_real and 0 < r < sp.Rational(1, 2)]
    assert len(roots) == 1, roots
    assert _ulps(bound, sp.N(roots[0], 40)) <= 4, (bound, roots)


@pytest.mark.parametrize("name, x", [("nonlocal", "1/6"), ("nonlocal", "1/5"),
                                     ("local", "1/6"), ("local", "1/5"),
                                     ("bell", "1/20"), ("bell", "1/16")])
def test_range_ends_are_the_zero_condition_roots(name, x):
    condition, closed_form, _ = RANGES[name]
    at = sp.Rational(float(Fraction(x)))
    half_width = sp.sqrt(_radicand(condition).subs(xi, at))
    got = closed_form(analysis_parameter(float(Fraction(x))))
    # 1/2 -+ sqrt(r) cancels, and r = 1/4 - ... before it: their rounding is
    # in units of 1
    for end, exact in ((got.lo, sp.Rational(1, 2) - half_width),
                       (got.hi, sp.Rational(1, 2) + half_width)):
        assert _ulps(end, sp.N(exact, 40), 1.0) <= 4, (got, exact)


# -- the idle state check -----------------------------------------------------
# ``broadcast._require_x_state`` raises where an X-state eigenvalue,
# (A + B)/2 +- hypot((A - B)/2, d) or C +- w, is below -STATE_TOL. On each
# state's xi domain, with alpha^2 = a^2 in [0, 1], every eigenvalue is >= 0,
# so the check cannot fail there and the bisection kernels skip it.

def _least(expr, var, hi):
    return sp.minimum(expr, var, sp.Interval(0, hi))


def test_cross_site_eigenvalues_are_nonnegative_on_its_domain():
    c, d, trace = RHO[1, 1], RHO[0, 3], RHO[0, 0] + RHO[3, 3]
    # C +- w, w = 0: C = xi (1 - xi)
    assert _zero(c - xi * (1 - xi)) and _least(c, xi, 1) == 0
    # the {|00>, |11>} block [[A, d], [d, B]] is PSD: trace > 0, determinant >= 0
    assert _zero(trace - (1 - xi) ** 2 - xi**2) and _least(trace, xi, 1) == sp.Rational(1, 2)
    det = RHO[0, 0] * RHO[3, 3] - d**2
    assert _zero(det - 4 * c * a**2 * b**2 * eta**2 - xi**2 * (1 - xi) ** 2)
    # each term a product of C >= 0, a^2 >= 0, b^2 = 1 - a^2 >= 0 and squares
    assert _least(a**2, a, 1) == 0 and _least(b**2, a, 1) == 0


def test_same_site_eigenvalues_are_nonnegative_on_its_domain():
    lam = sp.Symbol("lambda")
    eigenvalues = (a**2 * eta, b**2 * eta, 0, 2 * xi)
    char = reduce(lambda p, ev: p * (lam - ev), eigenvalues, 1)
    assert _zero(SAME_SITE.charpoly(lam).as_expr() - char)
    half = sp.Rational(1, 2)
    assert _least(eta, xi, half) == 0 and _least(2 * xi, xi, half) == 0
    assert _least(a**2, a, 1) == 0 and _least(b**2, a, 1) == 0


def _edge_examples(test):
    """Each domain end and its ulp neighbours, by alpha^2 at 0, 1/2 give or
    take 3 ulps, and 1."""
    xis = [0.0, -0.0, 5e-324, 1e-323, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
           math.nextafter(1.0, 0.0), 1.0]
    halves = [0.5]
    for _ in range(3):
        halves = [math.nextafter(halves[0], 0.0)] + halves + [math.nextafter(halves[-1], 1.0)]
    for x, alpha_sq in product(xis, [0.0, *halves, 1.0]):
        test = example(x, alpha_sq)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 1.0)), st.floats(0.0, 1.0))
@_edge_examples
def test_state_check_is_idle_on_each_domain(x, alpha_sq):
    """The entry functions do not raise on their domain, and the check's
    least value, computed as ``_require_x_state`` computes it, stays far
    above -STATE_TOL = -1e-9."""
    for entries, hi in ((nonlocal_entries, 1.0), (local_entries, 0.5)):
        if x <= hi:
            e = entries(alpha_sq, x)
            h = 0.5 * (e.big_a - e.big_b)
            least = min(e.c - abs(e.w), 0.5 * (e.big_a + e.big_b) - (h * h + e.d * e.d) ** 0.5)
            assert least >= -1e-15, (entries.__name__, x, alpha_sq, least)
