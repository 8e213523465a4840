import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbroadcast.cloner import (
    XI_LOWER,
    ClonerParameter,
    GramNotPSDError,
    MachineKind,
    OutOfRangeError,
    abstract_machine_vectors,
    analysis_parameter,
    clone_density,
    clone_fidelity,
    gram_matrix,
    literal_isometry,
    literal_machine_vectors,
    machine_isometry,
    make_cloner_parameter,
    UniversalityReport,
    _isometry,
    single_clone_density,
    universality_report,
)
from entbroadcast.linalg import PAULIS, dag, outer, partial_trace


def random_pure_states(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestParameter:
    def test_optimal_machine(self):
        p = make_cloner_parameter(1 / 6)
        assert p.xi == 1 / 6
        assert math.isclose(p.eta, 2 / 3)

    def test_lower_boundary(self):
        p = make_cloner_parameter(XI_LOWER)
        assert math.isclose(p.eta, 1 / math.sqrt(2))
        assert math.isclose(p.xi, 0.14644661, abs_tol=1e-8)

    def test_below_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            make_cloner_parameter(0.10)

    def test_above_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            make_cloner_parameter(0.51)

    def test_analysis_only_skips_validation(self):
        assert analysis_parameter(0.05).xi == 0.05

    @pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected_as_not_finite(self, xi):
        # not against the machine's range, which an analysis-only run does not apply
        with pytest.raises(OutOfRangeError, match=r"^xi=-?(inf|nan) is not finite$"):
            analysis_parameter(xi)

    def test_endpoint_slack(self):
        make_cloner_parameter(XI_LOWER - 1e-13)
        make_cloner_parameter(0.5 + 1e-13)


class TestLiteralIsometry:
    @pytest.mark.parametrize("xi", [XI_LOWER, 1 / 6, 0.25, 0.4, 0.5])
    def test_columns_orthonormal(self, xi):
        v = literal_isometry(make_cloner_parameter(xi))
        assert np.max(np.abs(dag(v) @ v - np.eye(2))) <= 1e-14

    def test_xi_half_kills_direct_term(self):
        v = literal_isometry(make_cloner_parameter(0.5))
        plus_down = np.zeros(8, dtype=complex)
        plus_down[1 * 2 + 1] = plus_down[2 * 2 + 1] = 1 / math.sqrt(2)
        assert np.allclose(v[:, 0], plus_down)

    def test_optimal_column_weights(self):
        v = literal_isometry(make_cloner_parameter(1 / 6))
        # sqrt(2/3)|00>|up> + sqrt(1/3)|+>|down>
        assert np.isclose(v[0, 0], math.sqrt(2 / 3))
        assert np.isclose(v[3, 0], math.sqrt(1 / 6))
        assert np.isclose(v[5, 0], math.sqrt(1 / 6))


class TestMachineVectors:
    """Both readings are sets of machine vectors (Q0, Y0, Q1, Y1) that differ
    only in the cross product <Q0|Y1> = <Q1|Y0>."""

    CROSS = [(0, 3), (3, 0), (1, 2), (2, 1)]
    GRID = sorted({*np.linspace(XI_LOWER, 0.5, 57).tolist(), 1 / 6})

    @staticmethod
    def kron_literal_isometry(p):
        """The literal isometry built as Kronecker products of the clone pair's
        and the ancilla's basis vectors."""
        plus = np.zeros(4, dtype=complex)
        plus[1] = plus[2] = 1.0 / math.sqrt(2.0)
        up, down = np.eye(2, dtype=complex)
        e00, e11 = np.eye(4, dtype=complex)[[0, 3]]
        s_eta = math.sqrt(max(p.eta, 0.0))
        s_2xi = math.sqrt(max(2.0 * p.xi, 0.0))
        col0 = s_eta * np.kron(e00, up) + s_2xi * np.kron(plus, down)
        col1 = s_eta * np.kron(e11, down) + s_2xi * np.kron(plus, up)
        return np.stack([col0, col1], axis=1)

    @pytest.mark.parametrize("xi", [-1e-12, 0.0, XI_LOWER, 1 / 6, 0.5, 0.5 + 1e-12,
                                    *np.linspace(0.0, 0.5, 41).tolist()])
    def test_literal_isometry_is_the_kron_construction_bit_for_bit(self, xi):
        p = analysis_parameter(xi)
        assert np.array_equal(literal_isometry(p), self.kron_literal_isometry(p))

    def test_literal_gram_differs_from_the_abstract_only_in_the_cross_products(self):
        rest = np.ones((4, 4), dtype=bool)
        rest[tuple(zip(*self.CROSS))] = False
        agree = []
        for xi in self.GRID:
            p = make_cloner_parameter(xi)
            vecs = literal_machine_vectors(p)
            lit, spec = vecs @ vecs.T, gram_matrix(p)
            assert np.max(np.abs(lit - spec)[rest]) <= 1e-15
            for i, j in self.CROSS:
                assert abs(lit[i, j] - math.sqrt(p.eta * p.xi)) <= 1e-15
                assert spec[i, j] == p.eta / 2.0
            if abs(math.sqrt(p.eta * p.xi) - p.eta / 2.0) <= 1e-15:
                agree.append(xi)
        assert agree == [1 / 6, 0.5]

    @pytest.mark.parametrize("xi", [1 / 6, 0.5])
    def test_literal_universal_where_the_cross_products_agree(self, xi):
        rep = universality_report(make_cloner_parameter(xi), MachineKind.LITERAL_2D)
        assert rep.spread <= 1e-12

    def test_literal_not_universal_away_from_those_points(self):
        far = [xi for xi in self.GRID if min(abs(xi - 1 / 6), abs(xi - 0.5)) >= 0.01]
        assert len(far) >= 40
        for xi in far:
            rep = universality_report(make_cloner_parameter(xi), MachineKind.LITERAL_2D)
            assert rep.spread > 1e-3, xi

    @pytest.mark.parametrize("xi", [-1.0, -0.1, 0.0, 0.1, XI_LOWER, 0.16, 0.6, 2.0, 1e6])
    def test_rejection_reports_the_least_gram_eigenvalue(self, xi):
        with pytest.raises(GramNotPSDError) as e:
            abstract_machine_vectors(analysis_parameter(xi))
        least = np.linalg.eigvalsh(gram_matrix(analysis_parameter(xi)))[0]
        assert e.value.min_eigenvalue == pytest.approx(least, rel=1e-12, abs=1e-15)

    def test_overflowed_eta_is_rejected(self):
        with pytest.raises(GramNotPSDError, match="eigenvalue -inf < 0"):
            abstract_machine_vectors(analysis_parameter(1e308))


class TestAbstractMachine:
    def test_gram_boundary_determinant_zero_at_optimal(self):
        g = gram_matrix(make_cloner_parameter(1 / 6))
        block = g[np.ix_([0, 3], [0, 3])]
        assert np.isclose(np.linalg.det(block), 0.0, atol=1e-15)

    def test_vectors_reproduce_gram(self):
        for xi in (1 / 6, 0.2, 0.25, 0.4):
            p = make_cloner_parameter(xi)
            vecs = abstract_machine_vectors(p)
            assert np.max(np.abs(vecs @ vecs.T - gram_matrix(p))) <= 1e-12

    def test_fails_below_one_sixth(self):
        for xi in (XI_LOWER, 0.147, 0.16):
            with pytest.raises(GramNotPSDError):
                abstract_machine_vectors(make_cloner_parameter(xi))

    def test_exists_iff_xi_at_least_one_sixth(self):
        for xi in np.linspace(XI_LOWER, 0.5, 40):
            p = make_cloner_parameter(float(xi))
            if xi >= 1 / 6 - 1e-10:
                abstract_machine_vectors(p)
            else:
                with pytest.raises(GramNotPSDError):
                    abstract_machine_vectors(p)

    @pytest.mark.parametrize("xi", [1 / 6, 0.2, 0.3, 0.45])
    def test_isometry_columns_orthonormal(self, xi):
        v = machine_isometry(make_cloner_parameter(xi), MachineKind.ABSTRACT_BH)
        assert np.max(np.abs(dag(v) @ v - np.eye(2))) <= 1e-12


class TestCloneDensity:
    @pytest.mark.parametrize("kind", list(MachineKind))
    def test_basis_input_reduction(self, kind):
        p = make_cloner_parameter(0.25)
        rho_a = single_clone_density(np.diag([1.0, 0.0]).astype(complex), p, kind)
        assert np.allclose(rho_a, np.diag([1 - p.xi, p.xi]), atol=1e-13)

    def test_maximally_mixed_fixed_point(self):
        p = make_cloner_parameter(0.25)
        rho_a = single_clone_density(np.eye(2, dtype=complex) / 2, p,
                                     MachineKind.ABSTRACT_BH)
        assert np.allclose(rho_a, np.eye(2) / 2, atol=1e-13)

    @pytest.mark.parametrize("xi", [1 / 6, 0.25, 0.4])
    def test_shrinking_map(self, xi):
        p = make_cloner_parameter(xi)
        for psi in random_pure_states(100, seed=42):
            rho_in = outer(psi)
            rho_a = single_clone_density(rho_in, p, MachineKind.ABSTRACT_BH)
            target = p.eta * rho_in + p.xi * np.eye(2)
            assert np.max(np.abs(rho_a - target)) <= 1e-12

    def test_output_is_density_operator(self):
        from entbroadcast.linalg import is_density_operator
        p = make_cloner_parameter(0.3)
        for psi in random_pure_states(10, seed=1):
            out = clone_density(outer(psi), p, MachineKind.ABSTRACT_BH)
            assert is_density_operator(out)

    def test_kinds_agree_at_optimal(self):
        p = make_cloner_parameter(1 / 6)
        for psi in random_pure_states(100, seed=9):
            a = clone_density(outer(psi), p, MachineKind.LITERAL_2D)
            b = clone_density(outer(psi), p, MachineKind.ABSTRACT_BH)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_abstract_unavailable_below_one_sixth(self):
        with pytest.raises(GramNotPSDError):
            clone_density(np.eye(2, dtype=complex) / 2,
                          make_cloner_parameter(0.15), MachineKind.ABSTRACT_BH)


class TestCloneFidelity:
    def test_basis_state_fidelity(self):
        for kind in MachineKind:
            for xi in (1 / 6, 0.25, 0.4):
                f = clone_fidelity(np.array([1.0, 0.0]), make_cloner_parameter(xi), kind)
                assert abs(f - (1 - xi)) <= 1e-13

    def test_abstract_is_input_independent(self):
        p = make_cloner_parameter(0.25)
        for psi in random_pure_states(20, seed=4):
            f = clone_fidelity(psi, p, MachineKind.ABSTRACT_BH)
            assert abs(f - 0.75) <= 1e-12

    def test_literal_equator_fidelity_at_lower_bound(self):
        # frozen from the explicit 8-dimensional state-vector computation
        plus_x = np.array([1.0, 1.0]) / math.sqrt(2)
        f = clone_fidelity(plus_x, make_cloner_parameter(XI_LOWER),
                           MachineKind.LITERAL_2D)
        assert abs(f - 0.8217971264527909) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, math.pi), st.floats(0, 2 * math.pi))
    def test_fidelity_in_unit_interval(self, theta, phi):
        psi = np.array([math.cos(theta / 2),
                        np.exp(1j * phi) * math.sin(theta / 2)])
        f = clone_fidelity(psi, make_cloner_parameter(0.3), MachineKind.LITERAL_2D)
        assert -1e-12 <= f <= 1 + 1e-12


class TestUniversalityReport:
    def test_literal_universal_at_optimal(self):
        rep = universality_report(make_cloner_parameter(1 / 6), MachineKind.LITERAL_2D)
        assert rep.spread <= 1e-12

    def test_abstract_universal_everywhere_it_exists(self):
        rep = universality_report(make_cloner_parameter(0.25), MachineKind.ABSTRACT_BH)
        assert rep.spread <= 1e-12

    def test_literal_spread_at_lower_bound(self):
        p = make_cloner_parameter(XI_LOWER)
        rep = universality_report(p, MachineKind.LITERAL_2D)
        # the pole and equator fidelities, 1 - xi and (1 + 2 sqrt(eta xi))/2
        assert abs(rep.spread - abs(p.eta - 2 * math.sqrt(p.eta * p.xi)) / 2) <= 1e-12
        assert abs(rep.max_fidelity - 0.8535533905932737) <= 1e-10

    @pytest.mark.parametrize("kind, xi", [(MachineKind.LITERAL_2D, 0.2),
                                          (MachineKind.ABSTRACT_BH, 0.3)])
    def test_spread_is_that_of_clone_fidelity(self, kind, xi):
        # the extremes of a unital machine lie on the eigenaxes of its Bloch
        # matrix, for both kinds the coordinate axes
        p = make_cloner_parameter(xi)
        fids = [clone_fidelity(psi, p, kind) for pair in AXIS_STATES.values() for psi in pair]
        rep = universality_report(p, kind)
        assert abs(rep.min_fidelity - min(fids)) <= 1e-15
        assert abs(rep.max_fidelity - max(fids)) <= 1e-15
        assert abs(rep.spread - (max(fids) - min(fids))) <= 2e-15


# the two poles of each Bloch axis
AXIS_STATES = {"z": ([1.0, 0.0], [0.0, 1.0]),
               "x": ([1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]),
               "y": ([1 / math.sqrt(2), 1j / math.sqrt(2)], [1 / math.sqrt(2), -1j / math.sqrt(2)])}


def axis_fidelity(kind, p, axis):
    """Closed-form clone fidelity of a pole of ``axis``: the Buzek-Hillery
    machine shrinks every input to 1 - xi; the literal machine gives 1 - xi
    on the z poles and (1 + 2 sqrt(eta xi))/2 on the equator."""
    if kind is MachineKind.ABSTRACT_BH or axis == "z":
        return 1.0 - p.xi
    return (1.0 + 2.0 * math.sqrt(p.eta * p.xi)) / 2.0


# a machine kind and an admissible xi of it: the abstract machine exists from 1/6
kinds_and_xis = st.sampled_from(list(MachineKind)).flatmap(lambda kind: st.tuples(
    st.just(kind), st.floats(XI_LOWER if kind is MachineKind.LITERAL_2D else 1 / 6, 0.5)))
# ... or one of the analysis-only ends of [0, 1/2] at which it exists
audited_machines = st.one_of(kinds_and_xis, st.sampled_from([
    (MachineKind.LITERAL_2D, 0.0), (MachineKind.LITERAL_2D, 0.5),
    (MachineKind.ABSTRACT_BH, 0.5)]))
# pure states by their Bloch angles, normalized to within an ulp or two
pure_states = st.builds(
    lambda theta, phi: np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]),
    st.floats(0, math.pi), st.floats(0, 2 * math.pi))


class TestExactAudit:
    """The audit's extremes, computed from the Bloch matrix, against clone
    fidelities computed state by state."""

    @staticmethod
    def fidelity_by_partial_trace(psi, v):
        """<psi| rho_a |psi> from the clone pair's density operator and two
        checked partial traces."""
        out = v @ outer(psi) @ dag(v)
        rho_ab = partial_trace(out, [2, 2, v.shape[0] // 4], keep=[0, 1])
        rho_a = partial_trace(rho_ab, [2, 2], keep=[0])
        return float(np.real(psi.conj() @ rho_a @ psi))

    @settings(max_examples=200, deadline=None)
    @given(audited_machines, pure_states)
    def test_pure_state_fidelities_lie_within_the_extremes(self, kind_xi, psi):
        kind, xi = kind_xi
        p = analysis_parameter(xi)
        rep = universality_report(p, kind)
        assert rep.spread == rep.max_fidelity - rep.min_fidelity
        f = clone_fidelity(psi, p, kind)
        assert rep.min_fidelity - 1e-15 <= f <= rep.max_fidelity + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(audited_machines)
    def test_the_z_and_x_axis_states_reach_the_extremes(self, kind_xi):
        kind, xi = kind_xi
        p = analysis_parameter(xi)
        rep = universality_report(p, kind)
        f_z = clone_fidelity([1.0, 0.0], p, kind)
        f_x = clone_fidelity([1 / math.sqrt(2), 1 / math.sqrt(2)], p, kind)
        assert abs(min(f_z, f_x) - rep.min_fidelity) <= 1e-15
        assert abs(max(f_z, f_x) - rep.max_fidelity) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(audited_machines)
    def test_single_clone_map_is_unital(self, kind_xi):
        # the premise of the exact audit: Phi(I) = I, so the fidelity of a pure
        # input is a quadratic form in its Bloch vector
        kind, xi = kind_xi
        rho_a = single_clone_density(np.eye(2) / 2, analysis_parameter(xi), kind)
        assert np.max(np.abs(rho_a - np.eye(2) / 2)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(audited_machines, pure_states)
    def test_clone_fidelity_matches_partial_trace(self, kind_xi, psi):
        kind, xi = kind_xi
        p = analysis_parameter(xi)
        want = self.fidelity_by_partial_trace(psi, machine_isometry(p, kind))
        assert abs(clone_fidelity(psi, p, kind) - want) <= 1e-15

    @pytest.mark.parametrize("kind, xi", [(MachineKind.LITERAL_2D, XI_LOWER),
                                          (MachineKind.LITERAL_2D, 0.2),
                                          (MachineKind.ABSTRACT_BH, 1 / 6),
                                          (MachineKind.ABSTRACT_BH, 0.3)])
    @pytest.mark.parametrize("axis", ["z", "x", "y"])
    def test_axis_fidelities_have_their_closed_forms(self, kind, xi, axis):
        p = make_cloner_parameter(xi)
        v = machine_isometry(p, kind)
        want = axis_fidelity(kind, p, axis)
        rep = universality_report(p, kind)
        for psi in AXIS_STATES[axis]:
            assert abs(self.fidelity_by_partial_trace(np.array(psi, dtype=complex), v) - want) <= 1e-15
        assert rep.min_fidelity - 1e-15 <= want <= rep.max_fidelity + 1e-15

    @pytest.mark.parametrize("kind, xi", [(MachineKind.LITERAL_2D, 0.0),
                                          (MachineKind.LITERAL_2D, XI_LOWER),
                                          (MachineKind.LITERAL_2D, 0.2),
                                          (MachineKind.LITERAL_2D, 0.5),
                                          (MachineKind.ABSTRACT_BH, 1 / 6),
                                          (MachineKind.ABSTRACT_BH, 0.3),
                                          (MachineKind.ABSTRACT_BH, 0.5)])
    def test_extremes_have_their_closed_forms(self, kind, xi):
        p = analysis_parameter(xi)
        pole, equator = axis_fidelity(kind, p, "z"), axis_fidelity(kind, p, "x")
        rep = universality_report(p, kind)
        assert abs(rep.min_fidelity - min(pole, equator)) <= 1e-15
        assert abs(rep.max_fidelity - max(pole, equator)) <= 1e-15


class TestRealIsometry:
    """The isometries are float64. The clone density and the clone fidelity
    promote them where they meet a complex state, and so give, bit for bit,
    what the complex128 isometry of the same entries gives."""

    @settings(max_examples=40, deadline=None)
    @given(kinds_and_xis)
    def test_fidelities_are_those_of_the_complex_isometry(self, kind_xi):
        kind, xi = kind_xi
        p = make_cloner_parameter(xi)
        v = machine_isometry(p, kind)
        assert v.dtype == np.float64
        vc = v.astype(complex)
        for psi in random_pure_states(10):
            want = float(np.sum(np.abs(psi.conj() @ (vc @ psi).reshape(2, -1)) ** 2))
            assert clone_fidelity(psi, p, kind) == want

    @settings(max_examples=40, deadline=None)
    @given(kinds_and_xis)
    def test_clone_density_is_that_of_the_complex_isometry(self, kind_xi):
        kind, xi = kind_xi
        p = make_cloner_parameter(xi)
        vc = machine_isometry(p, kind).astype(complex)
        mixed = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        for rho in [outer(psi) for psi in random_pure_states(10)] + [np.eye(2) / 2, mixed]:
            want = partial_trace(vc @ rho @ dag(vc), [2, 2, vc.shape[0] // 4], keep=[0, 1])
            assert clone_density(rho, p, kind).tobytes() == want.tobytes()
            want_a = partial_trace(want, [2, 2], keep=[0])
            assert single_clone_density(rho, p, kind).tobytes() == want_a.tobytes()


def isometry_reference(vecs):
    """The isometry of the machine vectors ``vecs`` by a zero fill and slice
    assignments: v[ab, machine, k]."""
    q0, y0, q1, y1 = vecs
    v = np.zeros((4, len(q0), 2))
    v[0, :, 0], v[3, :, 1] = q0, q1
    v[1, :, 0] = v[2, :, 0] = y0
    v[1, :, 1] = v[2, :, 1] = y1
    return v.reshape(-1, 2)


# the Bloch form in complex128, with the imaginary parts that meet a real channel in
# the product's imaginary part only
COMPLEX_BLOCH_FORM = np.einsum("iba,jkl->ijakbl", PAULIS, PAULIS).reshape(9, 16) / 2.0


def universality_report_reference(p, kind):
    """The audit with the complex Bloch form, reading the product's real part."""
    m = machine_isometry(p, kind).reshape(2, -1, 2).transpose(0, 2, 1).reshape(4, -1)
    bloch = (COMPLEX_BLOCH_FORM @ (m @ m.T).reshape(16)).real.reshape(3, 3)
    ev = np.linalg.eigvalsh((bloch + bloch.T) / 2.0)
    lo, hi = (1.0 + float(ev[0])) / 2.0, (1.0 + float(ev[-1])) / 2.0
    return UniversalityReport(min_fidelity=lo, max_fidelity=hi, spread=hi - lo)


MACHINE_VECTORS = {MachineKind.LITERAL_2D: literal_machine_vectors,
                   MachineKind.ABSTRACT_BH: abstract_machine_vectors}


class TestReferenceRoutes:
    """The isometry from the vectors' values and the audit's real Bloch form
    give, bit for bit, what the zero-filled isometry and the complex form give."""

    @settings(max_examples=200, deadline=None)
    @given(audited_machines)
    def test_isometry_is_the_zero_filled_one(self, kind_xi):
        kind, xi = kind_xi
        vecs = MACHINE_VECTORS[kind](analysis_parameter(xi))
        got, want = _isometry(vecs), isometry_reference(vecs)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(audited_machines)
    def test_audit_is_that_of_the_complex_bloch_form(self, kind_xi):
        kind, xi = kind_xi
        p = analysis_parameter(xi)
        assert universality_report(p, kind) == universality_report_reference(p, kind)


@pytest.mark.parametrize("xi", [-0.1, -1e-9, 0.5 + 1e-9, 0.7])
def test_literal_isometry_rejects_xi_outside_unit_half(xi):
    with pytest.raises(OutOfRangeError):
        literal_isometry(analysis_parameter(xi))


@pytest.mark.parametrize("call, message", [
    (lambda p: machine_isometry(p, "Literal2D"), "unknown machine kind 'Literal2D'"),
    (lambda p: clone_density(np.eye(3) / 3, p, MachineKind.LITERAL_2D), "2x2"),
    (lambda p: clone_density(np.diag([2.0, 0.0]), p, MachineKind.LITERAL_2D),  # trace 2
     "2x2 density operator"),
    (lambda p: single_clone_density(np.array([[0.5, 0.9], [0.9, 0.5]]), p,  # eigenvalue -0.4
                                    MachineKind.ABSTRACT_BH), "2x2 density operator"),
    (lambda p: clone_fidelity([1.0, 0.0, 0.0], p, MachineKind.LITERAL_2D), "2-vector"),
    (lambda p: clone_fidelity([1.0, 1.0], p, MachineKind.LITERAL_2D), "not normalized"),
    # a nan or inf amplitude makes the norm nan or inf, which no comparison admits
    (lambda p: clone_fidelity([math.nan, 0.0], p, MachineKind.LITERAL_2D), "not normalized"),
    (lambda p: clone_fidelity([math.inf, 0.0], p, MachineKind.LITERAL_2D), "not normalized"),
    (lambda p: clone_fidelity([1.0, complex(0.0, math.nan)], p, MachineKind.ABSTRACT_BH),
     "not normalized"),
])
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_cloner_parameter(0.2))
