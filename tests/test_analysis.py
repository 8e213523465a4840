import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_batched import _filtered_bell_m_reference, _grid_search

from entbroadcast.analysis import (
    QUANTITIES,
    XI_BELL_MAX,
    XI_LOCAL_MAX,
    XI_NONLOCAL_MAX,
    FilterParams,
    Interval,
    NoCrossingError,
    RangeUndefinedError,
    bell_quantity_m,
    bell_violation_range,
    bisect,
    boundary_bisect,
    correlation_tensor,
    evaluate,
    filter_certificate,
    gisin_filter,
    local_separability_range,
    local_separable_predicate,
    nonlocal_inseparability_range,
    nonlocal_inseparable_predicate,
    ppt_test,
    teleportation_fidelity,
    werner_decompose,
)
from entbroadcast.analysis import _bell_m, _fidelity, _min_pt_eigenvalue
from entbroadcast.broadcast import EntangledInput, local_state, nonlocal_entries, nonlocal_state
from entbroadcast.cloner import (
    XI_LOWER,
    XI_SLACK,
    XI_UPPER,
    OutOfRangeError,
    analysis_parameter,
    make_cloner_parameter,
)
from entbroadcast.sweep import run_sweep

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
BELL_RHO = np.outer(PHI_PLUS, PHI_PLUS)
MIXED = np.eye(4, dtype=complex) / 4

OPTIMAL = make_cloner_parameter(1 / 6)
WIDEST = make_cloner_parameter(XI_LOWER)
HALF = EntangledInput.from_alpha_sq(0.5)


class TestPpt:
    def test_maximally_mixed_separable(self):
        res = ppt_test(MIXED)
        assert res.separable
        assert np.isclose(res.min_pt_eigenvalue, 0.25)

    def test_bell_state_inseparable(self):
        res = ppt_test(BELL_RHO)
        assert not res.separable
        assert np.isclose(res.min_pt_eigenvalue, -0.5)

    def test_broadcast_state_at_optimal(self):
        res = ppt_test(nonlocal_state(HALF, OPTIMAL))
        assert not res.separable
        assert np.isclose(res.min_pt_eigenvalue, -1 / 12)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            ppt_test(np.eye(4))  # trace 4

    def test_diagonal_state_is_its_own_partial_transpose(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert _min_pt_eigenvalue(rho) == 0.0
        assert ppt_test(rho).separable

    def test_bell_state_min_pt_eigenvalue(self):
        assert np.isclose(_min_pt_eigenvalue(BELL_RHO.astype(complex)), -0.5)

    def test_x_state_min_pt_eigenvalue(self):
        # X-state partial-transpose spectrum is {A, B, C +- D}
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 13 / 36
        rho[1, 1] = rho[2, 2] = 5 / 36
        rho[0, 3] = rho[3, 0] = 2 / 9
        assert np.isclose(_min_pt_eigenvalue(rho), 5 / 36 - 8 / 36)
        assert np.isclose(ppt_test(rho).min_pt_eigenvalue, 5 / 36 - 8 / 36)


@pytest.mark.parametrize("measure", [
    ppt_test, correlation_tensor, bell_quantity_m, teleportation_fidelity,
    werner_decompose, lambda rho: gisin_filter(rho, FilterParams(1, 1, 1, 1)),
])
@pytest.mark.parametrize("rho", [
    np.eye(4),  # trace 4
    np.diag([1.5, -0.5, 0.0, 0.0]),  # negative eigenvalue
    np.eye(2) / 2,  # wrong shape
])
def test_public_measures_reject_outside_matrices(measure, rho):
    with pytest.raises(ValueError):
        measure(rho)


class TestRanges:
    def test_nonlocal_range_at_optimal(self):
        rng = nonlocal_inseparability_range(OPTIMAL)
        assert abs(rng.lo - (0.5 - math.sqrt(39) / 16)) <= 1e-15
        assert abs(rng.hi - (0.5 + math.sqrt(39) / 16)) <= 1e-15

    def test_nonlocal_range_at_widest(self):
        rng = nonlocal_inseparability_range(WIDEST)
        assert abs(rng.lo - (0.5 - math.sqrt(3) / 4)) <= 1e-12
        assert abs(rng.hi - (0.5 + math.sqrt(3) / 4)) <= 1e-12

    def test_nonlocal_range_degenerates_at_bound(self):
        rng = nonlocal_inseparability_range(make_cloner_parameter(XI_NONLOCAL_MAX))
        assert rng.width <= 1e-6

    def test_nonlocal_range_undefined_above_bound(self):
        with pytest.raises(RangeUndefinedError):
            nonlocal_inseparability_range(make_cloner_parameter(XI_NONLOCAL_MAX + 1e-6))

    def test_ranges_undefined_at_half(self):
        # eta = 0: the radicands tend to -inf, not a division by zero
        p = make_cloner_parameter(0.5)
        with pytest.raises(RangeUndefinedError):
            nonlocal_inseparability_range(p)
        with pytest.raises(RangeUndefinedError):
            local_separability_range(p)

    def test_local_range_at_optimal(self):
        rng = local_separability_range(OPTIMAL)
        assert abs(rng.lo - (0.5 - math.sqrt(3) / 4)) <= 1e-15

    def test_local_range_degenerate_at_quarter(self):
        rng = local_separability_range(make_cloner_parameter(0.25))
        assert rng.width <= 1e-12

    def test_local_state_separable_at_center(self):
        res = ppt_test(local_state(HALF, OPTIMAL))
        assert res.separable

    @pytest.mark.parametrize("xi", [-0.1, 2.0, 1e100, -1e100])
    def test_ranges_reject_xi_where_no_state_exists(self, xi):
        # no state exists at these xi, so no closed form may answer there, and
        # at +-1e100 eta**4 would overflow
        p = analysis_parameter(xi)
        for closed_form, hi in ((nonlocal_inseparability_range, 1.0),
                                (bell_violation_range, 1.0),
                                (local_separability_range, 0.5)):
            with pytest.raises(OutOfRangeError) as err:
                closed_form(p)
            assert (err.value.lo, err.value.hi) == (0.0, hi)

    def test_ranges_admit_every_admissible_machine(self):
        # make_cloner_parameter admits XI_SLACK beyond each bound, and no
        # machine it admits gets an OutOfRangeError
        low, high = (make_cloner_parameter(xi) for xi in (XI_LOWER - XI_SLACK,
                                                         XI_UPPER + XI_SLACK))
        assert nonlocal_inseparability_range(low).width > 0.0
        assert local_separability_range(low).width > 0.0
        assert bell_violation_range(low) is None and bell_violation_range(high) is None
        for closed_form in (nonlocal_inseparability_range, local_separability_range):
            with pytest.raises(RangeUndefinedError):
                closed_form(high)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-XI_SLACK, 1.0 + XI_SLACK))
    @example(-XI_SLACK)
    def test_ranges_lie_within_the_unit_interval(self, xi):
        p = analysis_parameter(xi)
        unit = Interval(0.0, 1.0)
        for closed_form in (nonlocal_inseparability_range, bell_violation_range,
                            local_separability_range):
            if closed_form is local_separability_range and xi > 0.5:
                continue  # no same-site state
            try:
                rng = closed_form(p)
            except RangeUndefinedError:
                continue
            assert rng is None or rng.subset_of(unit), (closed_form.__name__, rng)

    def test_complementarity_containment(self):
        for xi in np.linspace(XI_LOWER, XI_NONLOCAL_MAX, 20):
            p = make_cloner_parameter(float(xi))
            assert nonlocal_inseparability_range(p).subset_of(
                local_separability_range(p), slack=1e-12)


class TestCorrelationTensor:
    def test_bell_state(self):
        assert np.allclose(correlation_tensor(BELL_RHO), np.diag([1, -1, 1]))

    def test_maximally_mixed(self):
        assert np.allclose(correlation_tensor(MIXED), np.zeros((3, 3)))

    def test_measures_take_every_state_the_check_accepts(self):
        # an anti-Hermitian part of 0.9e-12, within the Hermiticity tolerance,
        # gives t_xx an imaginary part of 1.8e-12: the measures read its real part
        rho = MIXED.copy()
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            rho[i, j] += 0.45e-12j
        assert ppt_test(rho).separable
        assert np.max(np.abs(correlation_tensor(rho))) <= 1e-11
        assert abs(bell_quantity_m(rho)) <= 1e-11
        assert abs(teleportation_fidelity(rho) - 0.5) <= 1e-11

    def test_broadcast_state_diagonal(self):
        a2 = 0.3
        p = make_cloner_parameter(0.2)
        inp = EntangledInput.from_alpha_sq(a2)
        t = correlation_tensor(nonlocal_state(inp, p))
        d2 = 2 * inp.alpha * inp.beta * p.eta**2
        assert np.allclose(t, np.diag([d2, -d2, p.eta**2]), atol=1e-13)


class TestBellQuantity:
    def test_bell_state_maximal(self):
        assert abs(bell_quantity_m(BELL_RHO) - 2.0) <= 1e-12

    def test_maximally_mixed_zero(self):
        assert abs(bell_quantity_m(MIXED)) <= 1e-12

    def test_broadcast_closed_form(self):
        for xi in (1 / 6, 0.2, 0.35):
            p = make_cloner_parameter(xi)
            for a2 in (0.2, 0.5, 0.7):
                inp = EntangledInput.from_alpha_sq(a2)
                m = bell_quantity_m(nonlocal_state(inp, p))
                expected = p.eta**4 * (1 + 4 * a2 * (1 - a2))
                assert abs(m - expected) <= 1e-12

    def test_optimal_value(self):
        assert abs(bell_quantity_m(nonlocal_state(HALF, OPTIMAL)) - 32 / 81) <= 1e-12


class TestBellViolationRange:
    def test_none_inside_machine_range(self):
        for xi in np.linspace(XI_LOWER, 0.5, 20):
            assert bell_violation_range(analysis_parameter(float(xi))) is None

    def test_interval_below_threshold(self):
        p = analysis_parameter(0.05)
        rng = bell_violation_range(p)
        q = math.sqrt(0.5 - 1 / (4 * 0.9**4))
        assert abs(rng.lo - (0.5 - q)) <= 1e-12
        assert abs(q - 0.34491) <= 1e-5
        # edge of the interval sits exactly on M = 1
        rho = nonlocal_state(EntangledInput.from_alpha_sq(rng.lo), p)
        assert abs(bell_quantity_m(rho) - 1.0) <= 1e-9

    def test_threshold_value(self):
        thr = 0.5 - 2 ** (-1.25)
        assert bell_violation_range(analysis_parameter(thr - 1e-9)) is not None
        assert bell_violation_range(analysis_parameter(thr + 1e-9)) is None


class TestGisinFilter:
    def test_identity_filter(self):
        rho = nonlocal_state(HALF, OPTIMAL)
        out = gisin_filter(rho, FilterParams(1, 1, 1, 1))
        assert np.max(np.abs(out - rho)) <= 1e-15

    def test_projective_invariance(self):
        rho = nonlocal_state(EntangledInput.from_alpha_sq(0.3), OPTIMAL)
        a = gisin_filter(rho, FilterParams(2, 1, 1, 2))
        b = gisin_filter(rho, FilterParams(6, 3, 0.5, 1))
        assert np.max(np.abs(a - b)) <= 1e-13

    def test_matches_explicit_coefficients(self):
        inp = EntangledInput.from_alpha_sq(0.09)
        p = OPTIMAL
        m1, m2, p1, p2 = 2.0, 1.0, 1.0, 2.0
        rho = nonlocal_state(inp, p)
        out = gisin_filter(rho, FilterParams(m1, m2, p1, p2))
        a, b, xi, eta = inp.alpha, inp.beta, p.xi, p.eta
        diag = np.array([
            (a * a * eta + xi * xi) * m1**2 * p1**2,
            xi * (1 - xi) * m1**2 * p2**2,
            xi * (1 - xi) * m2**2 * p1**2,
            (b * b * eta + xi * xi) * m2**2 * p2**2,
        ])
        off = a * b * eta**2 * m1 * m2 * p1 * p2
        n = diag.sum()
        assert np.max(np.abs(np.diag(out).real - diag / n)) <= 1e-13
        assert abs(out[0, 3].real - off / n) <= 1e-13

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            FilterParams(0.0, 1, 1, 1)

    def test_no_filter_on_the_grid_violates_at_optimal(self):
        # extreme ratios push M toward (but never past) 1, so the maximum over
        # the 21x21 grid sits at a corner, not at the identity, where M = 32/81
        best_m, best_f, _ = _grid_search(HALF, OPTIMAL, 21)
        assert 32 / 81 < best_m <= 1.0
        assert {best_f.m1, best_f.p1} <= {1e-3, 1e3}


class TestFilterCertificate:
    """``filter_certificate`` against the filters themselves. Where it is
    positive, M stays <= 1 on the 41x41 log grid of filter ratios over
    [1e-3, 1e3] and at the dense filter rm = rp = (B/A)^(1/4), the one the
    certificate is tight at; where it is negative, that dense filter gives
    M > 1. Points within 1e-9 of its zero set, where rounding may decide the
    sign, are skipped."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.0, 0.5))
    @example(0.5, 0.0)
    @example(0.2, 0.06)
    @example(0.5, XI_LOWER)
    def test_sign_is_the_filters_verdict(self, alpha_sq, xi):
        cert = filter_certificate(alpha_sq, xi)
        assume(abs(cert) > 1e-9)
        e = nonlocal_entries(alpha_sq, xi)
        r = (e.big_b / e.big_a) ** 0.25
        tight = bell_quantity_m(gisin_filter(e.matrix(), FilterParams(r, 1.0, r, 1.0)))
        if cert > 0.0:
            ratios = np.logspace(-3.0, 3.0, 41)
            assert _filtered_bell_m_reference(e, ratios[:, None], ratios[None, :]).max() <= 1.0
            assert tight <= 1.0
        else:
            assert tight > 1.0

    def test_threshold_at_half_is_xi_bell_max(self):
        """At alpha^2 = 1/2, A = B and the best filter is the identity, so
        filtering leaves the Bell threshold in xi where it is."""
        xi = bisect(lambda x: filter_certificate(0.5, x) < 0.0, 0.0, 0.2, 1e-17)
        assert abs(xi - XI_BELL_MAX) <= 1e-15

    def test_arrays_give_the_floats(self):
        alpha_sq, xi = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 0.5, 6)[:, None]
        got = filter_certificate(alpha_sq, xi)
        assert got.shape == (6, 11)
        want = [[filter_certificate(float(a), float(x)) for a in alpha_sq] for x in xi[:, 0]]
        assert got.tolist() == want
        assert isinstance(filter_certificate(0.3, 0.2), float)


class TestWerner:
    def test_optimal_weight(self):
        dec = werner_decompose(nonlocal_state(HALF, OPTIMAL))
        assert abs(dec.x - 4 / 9) <= 1e-12

    def test_widest_weight(self):
        dec = werner_decompose(nonlocal_state(HALF, WIDEST))
        assert abs(dec.x - 0.5) <= 1e-12

    def test_fails_off_maximal_entanglement(self):
        for a2 in (0.3, 0.45, 0.55):
            rho = nonlocal_state(EntangledInput.from_alpha_sq(a2), OPTIMAL)
            assert werner_decompose(rho) is None

    def test_round_trip(self):
        dec = werner_decompose(nonlocal_state(HALF, OPTIMAL), tol=1e-10)
        recon = ((1 - dec.x) / 4) * np.eye(4) + dec.x * np.outer(dec.psi, dec.psi.conj())
        assert np.max(np.abs(recon - nonlocal_state(HALF, OPTIMAL))) <= 1e-10

    def test_maximally_mixed(self):
        dec = werner_decompose(MIXED)
        assert dec is not None
        assert dec.x <= 1e-12


class TestWernerNearMaximallyMixed:
    """``wernerX`` within 1e-6 of xi = 1/2, where the state lies within about
    1e-8 of I/4, through ``evaluate`` and the sweep table: nan off the lines
    alpha^2 = 1/2 and xi = 1/2, however near I/4."""

    @staticmethod
    def _both(xi, alpha_sq):
        by_evaluate = evaluate({"wernerX"}, xi, alpha_sq)["wernerX"]
        table = run_sweep(xi_grid=(xi,), alpha_sq_grid=(alpha_sq,), quantities=("wernerX",))
        return by_evaluate, table.block.item()

    @pytest.mark.parametrize("xi, alpha_sq", [
        (0.49999966739011026, 0.49037851820494394),
        (0.49999965881835123, 0.5039537655553885),
    ])
    def test_no_form_off_center(self, xi, alpha_sq):
        # A - B = (2 alpha^2 - 1) eta, about -1.3e-8 and 5.4e-9 here, is not
        # 0, so the state has no Werner form
        assert all(math.isnan(x) for x in self._both(xi, alpha_sq))

    @pytest.mark.parametrize("xi", [0.49998390356638267, 0.49999665576229974, 0.5 - 1e-7])
    def test_eta_squared_at_center(self, xi):
        for x in self._both(xi, 0.5):
            assert abs(x - (1.0 - 2.0 * xi) ** 2) <= 1e-12

    @pytest.mark.parametrize("alpha_sq", np.linspace(0.0, 1.0, 11).tolist())
    def test_zero_at_half(self, alpha_sq):
        assert self._both(0.5, alpha_sq) == (0.0, 0.0)


class TestTeleportationFidelity:
    def test_optimal(self):
        assert abs(teleportation_fidelity(nonlocal_state(HALF, OPTIMAL)) - 13 / 18) <= 1e-12

    def test_widest(self):
        assert abs(teleportation_fidelity(nonlocal_state(HALF, WIDEST)) - 0.75) <= 1e-12

    def test_maximally_mixed_classical(self):
        assert abs(teleportation_fidelity(MIXED) - 0.5) <= 1e-12

    def test_singular_values_through_fidelity(self):
        # f = (1 + sum of the singular values of T / 3) / 2
        assert np.isclose(_fidelity(np.eye(3)), 1.0)  # singular values 1, 1, 1
        assert np.isclose(_fidelity(np.diag([2.0, -3.0, 0.0])), 0.5 * (1 + 5 / 3))  # 3, 2, 0

    def test_singular_values_of_broadcast_correlation_matrix(self):
        # diag(2D, -2D, eta^2) at xi=1/6, alpha=1/sqrt 2: all three equal 4/9,
        # and their squares are the eigenvalues of T^T T that M sums
        t = np.diag([4 / 9, -4 / 9, 4 / 9])
        assert abs(_fidelity(t) - 13 / 18) <= 1e-12
        assert abs(_bell_m(t) - 2 * (4 / 9) ** 2) <= 1e-12

    def test_closed_form_grid(self):
        for xi in np.linspace(XI_LOWER, 0.5, 20):
            p = make_cloner_parameter(float(xi))
            for a2 in np.linspace(0.0, 1.0, 20):
                inp = EntangledInput.from_alpha_sq(float(a2))
                f = teleportation_fidelity(nonlocal_state(inp, p))
                expected = 0.5 * (1 + p.eta**2 * (1 + 4 * inp.alpha * inp.beta) / 3)
                assert abs(f - expected) <= 1e-12

    def test_monotone_decreasing_in_xi(self):
        vals = [teleportation_fidelity(nonlocal_state(HALF, make_cloner_parameter(x)))
                for x in np.linspace(XI_LOWER, 0.5, 10)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_useful_iff_below_degeneracy_bound(self):
        # f = 3 (1-2xi)^2 > 1 exactly when the inseparability range exists
        for xi in np.linspace(XI_LOWER, 0.28, 10):
            p = make_cloner_parameter(float(xi))
            f = teleportation_fidelity(nonlocal_state(HALF, p))
            useful = f > 2 / 3 + 1e-12
            assert useful == (xi < XI_NONLOCAL_MAX)


class TestBoundaryBisect:
    def test_nonlocal_boundary_at_optimal(self):
        a2 = boundary_bisect(OPTIMAL, nonlocal_inseparable_predicate(OPTIMAL),
                             "lower", tol=1e-10)
        assert abs(a2 - (0.5 - math.sqrt(39) / 16)) <= 1e-8

    def test_nonlocal_boundary_at_widest(self):
        a2 = boundary_bisect(WIDEST, nonlocal_inseparable_predicate(WIDEST),
                             "lower", tol=1e-10)
        assert abs(a2 - (0.5 - math.sqrt(3) / 4)) <= 1e-8

    def test_local_boundary_at_optimal(self):
        a2 = boundary_bisect(OPTIMAL, local_separable_predicate(OPTIMAL),
                             "lower", tol=1e-10)
        assert abs(a2 - (0.5 - math.sqrt(3) / 4)) <= 1e-8

    def test_upper_side(self):
        a2 = boundary_bisect(OPTIMAL, nonlocal_inseparable_predicate(OPTIMAL),
                             "upper", tol=1e-10)
        assert abs(a2 - (0.5 + math.sqrt(39) / 16)) <= 1e-8

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            boundary_bisect(OPTIMAL, lambda a2: True, "lower")
        # the same-site state is entangled at alpha^2 = 1/2 above xi = 1/4
        p = make_cloner_parameter(0.3)
        with pytest.raises(NoCrossingError, match="false at alpha"):
            boundary_bisect(p, local_separable_predicate(p), "lower")

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="side must be 'lower' or 'upper'"):
            boundary_bisect(OPTIMAL, lambda a2: True, "middle")

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_tolerance_not_positive_and_finite(self, tol):
        # an infinite or nan tol used to end the loop at once, returning the
        # first bracket's midpoint 0.25 for an edge at 0.2709
        p = make_cloner_parameter(0.2)
        with pytest.raises(ValueError, match="tolerance"):
            boundary_bisect(p, nonlocal_inseparable_predicate(p), "lower", tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            bisect(lambda x: x > 0.5, 1.0, 0.0, tol)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.lists(st.booleans(), min_size=1),
           st.sampled_from([1e-300, 1e-12, 1e-3, 1e7]))
    def test_calls_the_predicate_at_each_bracket_midpoint(self, inside, outside, verdicts, tol):
        """Both orders of the ends; tol 1e-300 ends at adjacent floats."""
        assume(inside != outside)
        calls = []

        def predicate(x):
            calls.append(x)
            return verdicts[len(calls) % len(verdicts)]

        got = bisect(predicate, inside, outside, tol)
        lo, hi = outside, inside
        for k, x in enumerate(calls, start=1):
            assert x == 0.5 * (lo + hi) and x not in (lo, hi)
            assert abs(hi - lo) > tol
            if verdicts[k % len(verdicts)]:
                hi = x
            else:
                lo = x
        # the walk stops at the first bracket it may not halve
        assert abs(hi - lo) <= tol or 0.5 * (lo + hi) in (lo, hi)
        assert got == 0.5 * (lo + hi)

    def test_matches_closed_form_over_xi_sweep(self):
        for xi in np.linspace(XI_LOWER, XI_NONLOCAL_MAX - 1e-6, 20):
            p = make_cloner_parameter(float(xi))
            pred = nonlocal_inseparable_predicate(p)
            rng = nonlocal_inseparability_range(p)
            assert abs(boundary_bisect(p, pred, "lower", 1e-10) - rng.lo) <= 1e-8


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(0.7, 0.3)


class TestEvaluate:
    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError, match="unknown quantities"):
            evaluate({"bellM", "concurrence"}, 0.2, 0.5)

    def test_one_point_gives_floats(self):
        values = evaluate(QUANTITIES, 1 / 6, 0.5)
        assert all(type(v) is float for v in values.values())
        assert abs(values["fidelity"] - 13 / 18) <= 1e-12


def _in_range(closed_form, p, alpha_sq):
    """Whether alpha_sq lies in the closed-form range at p, or None within 1e-9
    of one of its endpoints. A range that is undefined, or None, is empty."""
    try:
        rng = closed_form(p)
    except RangeUndefinedError:
        rng = None
    if rng is None:
        return False
    if min(abs(alpha_sq - rng.lo), abs(alpha_sq - rng.hi)) <= 1e-9:
        return None
    return rng.lo <= alpha_sq <= rng.hi


def _check_range(closed_form, quantity, in_range, xi, alpha_sqs, degenerate):
    # Where a range shrinks to a point, the measure is flat in alpha^2 at its
    # endpoints, and 1e-9 in alpha^2 moves it by less than rounding; so xi
    # keeps 1e-6 from the xi at which the range degenerates.
    assume(abs(xi - degenerate) > 1e-6)
    p = analysis_parameter(xi)
    values = evaluate({quantity}, xi, np.array(alpha_sqs))[quantity]
    for alpha_sq, v in zip(alpha_sqs, values.tolist()):
        inside = _in_range(closed_form, p, alpha_sq)
        if inside is not None:
            assert inside == in_range(v), (xi, alpha_sq, v)


_alpha_sqs = st.lists(st.one_of(st.just(0.5), st.floats(0.0, 1.0)), min_size=1, max_size=16)


class TestClosedFormsAgainstNumeric:
    """Each closed-form alpha^2 range against the numeric measure it describes."""

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 0.5), _alpha_sqs)
    def test_nonlocal_inseparability_range(self, xi, alpha_sqs):
        _check_range(nonlocal_inseparability_range, "pptNonlocal", lambda v: v < 0.0,
                     xi, alpha_sqs, XI_NONLOCAL_MAX)

    # from xi = 1e-6: the same-site partial transpose has the eigenvalue xi at
    # every alpha^2, and below about 1e-16 its sign is lost to rounding
    @settings(max_examples=150, deadline=None)
    @given(st.floats(1e-6, XI_LOCAL_MAX, exclude_max=True), _alpha_sqs)
    def test_local_separability_range(self, xi, alpha_sqs):
        _check_range(local_separability_range, "pptLocal", lambda v: v >= 0.0,
                     xi, alpha_sqs, XI_LOCAL_MAX)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 0.2), _alpha_sqs)
    def test_bell_violation_range(self, xi, alpha_sqs):
        _check_range(bell_violation_range, "bellM", lambda v: v > 1.0,
                     xi, alpha_sqs, XI_BELL_MAX)
