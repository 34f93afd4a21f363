import numpy as np
import pytest

from buresgeo import closedform, geodesy, matcore, states, sun
import oracles
from conftest import (conditioned_density, random_density, random_hermitian,
                      random_state_vector, random_traceless_hermitian, random_unitary)


def tau_trace_fidelity(r1, r2):
    """Independent fidelity route: eigenvalues of sqrt(r1) r2 sqrt(r1), those
    within the clamp band snapped to zero before the square root."""
    s1 = oracles.sqrtm_psd(r1)
    w = np.linalg.eigvalsh((s1 @ r2 @ s1))
    w[np.abs(w) <= matcore.CLAMP * np.max(np.abs(w))] = 0.0
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def tilted_rank2_pair(rng):
    """Two rank-2 states of C^4 on planes in general position."""
    return tuple(u[:, :2] @ random_density(rng, 2, floor=0.2) @ u[:, :2].conj().T
                 for u in (random_unitary(rng, 4), random_unitary(rng, 4)))


class TestRootFidelity:
    def test_maxmixed_to_pure(self):
        rng = np.random.default_rng(20)
        for n in (2, 3, 4, 8):
            proj = states.pure_density(random_state_vector(rng, n))
            sf = geodesy.root_fidelity(states.maximally_mixed(n), proj)
            assert abs(sf - 1.0 / np.sqrt(n)) < 1e-14

    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 4)
        assert geodesy.root_fidelity(rho, rho.copy()) == 1.0

    def test_werner_half(self):
        # 0.75: frozen from (1/4)(3(1-p) + sqrt((1-p)(1+7p))) at p = 1/2.
        sf = geodesy.root_fidelity(states.werner("GHZ", 0.5), states.werner("W", 0.5))
        assert abs(sf - 0.75) < 1e-13

    def test_matches_tau_eigenvalue_route(self):
        rng = np.random.default_rng(22)
        for n in (2, 3, 4):
            for _ in range(20):
                r1 = random_density(rng, n)
                r2 = random_density(rng, n)
                sf = geodesy.root_fidelity(r1, r2)
                assert abs(sf - tau_trace_fidelity(r1, r2)) < 1e-12

    def test_tau_route_on_rank_deficient_pair(self):
        # tau = sqrt(r1) r2 sqrt(r1) has two roundoff eigenvalues of ~1e-17.
        r1, r2 = tilted_rank2_pair(np.random.default_rng(64))
        assert abs(geodesy.root_fidelity(r1, r2) - tau_trace_fidelity(r1, r2)) < 1e-12

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            r1, r2 = random_density(rng, 3), random_density(rng, 3)
            assert abs(geodesy.root_fidelity(r1, r2)
                       - geodesy.root_fidelity(r2, r1)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            geodesy.root_fidelity(states.maximally_mixed(2),
                                  states.maximally_mixed(3))


class TestBures:
    def test_identical_states(self):
        rho = states.maximally_mixed(3)
        summary = geodesy.bures(rho, rho)
        assert (summary.root_fidelity, summary.bures_angle,
                summary.bures_distance) == (1.0, 0.0, 0.0)

    def test_orthogonal_pure_states(self):
        summary = geodesy.bures(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert summary.root_fidelity == 0.0
        assert abs(summary.bures_angle - np.pi / 2) < 1e-15
        assert abs(summary.bures_distance - np.sqrt(2)) < 1e-15

    def test_qubit_maxmixed_to_pure(self):
        summary = geodesy.bures(states.maximally_mixed(2), np.diag([1.0, 0.0]))
        assert abs(summary.root_fidelity - 1 / np.sqrt(2)) < 1e-15
        assert abs(summary.bures_angle - np.pi / 4) < 1e-15

    def test_distance_angle_agreement(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            summary = geodesy.bures(random_density(rng, 4), random_density(rng, 4))
            assert abs(summary.bures_distance ** 2
                       - (2.0 - 2.0 * summary.root_fidelity)) < 1e-12

    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_nearby_endpoints_match_metric_and_path(self, eps):
        # Angle and distance = sqrt(ds^2) to first order in |drho|_F = eps,
        # and the angle is the s* of the geodesic.
        rng = np.random.default_rng(67)
        for _ in range(5):
            rho = random_density(rng, 4, floor=0.1)
            drho = random_traceless_hermitian(rng, 4, norm=eps)
            summary = geodesy.bures(rho, rho + drho)
            expected = eps * np.sqrt(geodesy.hubner_metric(rho, drho / eps))
            assert abs(summary.bures_angle / expected - 1.0) < 1e-6
            assert abs(summary.bures_distance / expected - 1.0) < 1e-6
            assert summary.bures_angle == geodesy.geometric_mean_operator(rho, rho + drho).s_star


class TestGeometricMeanOperator:
    def test_maxmixed_to_pure(self):
        rng = np.random.default_rng(25)
        n = 4
        proj = states.pure_density(random_state_vector(rng, n))
        path = geodesy.geometric_mean_operator(states.maximally_mixed(n), proj)
        assert np.max(np.abs(path.m_star - np.sqrt(n) * proj)) < 1e-12
        assert abs(path.s_star - np.arccos(1 / np.sqrt(n))) < 1e-14

    def test_identical_endpoints_degenerate(self):
        rng = np.random.default_rng(26)
        rho = random_density(rng, 3)
        path = geodesy.geometric_mean_operator(rho, rho.copy())
        assert path.degenerate
        assert path.s_star == 0.0
        np.testing.assert_allclose(path.m_star, np.eye(3), atol=1e-15)

    def test_reconstruction_random_qubits(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            r1, r2 = random_density(rng, 2, floor=0.05), random_density(rng, 2, floor=0.05)
            path = geodesy.geometric_mean_operator(r1, r2)
            assert np.max(np.abs(path.m_star @ r1 @ path.m_star - r2)) < 1e-10
            assert abs(np.trace(path.m_star @ r1).real - np.cos(path.s_star)) < 1e-9

    def test_m_star_is_psd(self):
        rng = np.random.default_rng(28)
        for n in (2, 3, 4):
            path = geodesy.geometric_mean_operator(random_density(rng, n, floor=0.1),
                                                   random_density(rng, n, floor=0.1))
            assert np.linalg.eigvalsh(path.m_star)[0] >= -1e-10

    def test_rank_deficient_start_with_contained_support(self):
        r1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        r2 = np.diag([0.25, 0.75, 0.0, 0.0]).astype(complex)
        path = geodesy.geometric_mean_operator(r1, r2)
        assert np.max(np.abs(path.m_star @ r1 @ path.m_star - r2)) < 1e-12

    def test_rank_raising_pair_built_without_m_star(self):
        # rank B = 2 = rank rho1 < rank rho2 = 3: the geodesic is unique, but
        # M rho1 M cannot raise the rank, so no M* exists. The great circle
        # through the start's own root lifts it all the same; a gauged root
        # needs M(s) and is refused.
        r1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        r2 = np.diag([0.25, 0.25, 0.5, 0.0]).astype(complex)
        path = geodesy.geometric_mean_operator(r1, r2)
        assert path.m_star is None
        assert np.max(np.abs(geodesy.geodesic_point(path, path.s_star) - r2)) < 1e-12
        a0 = states.canonical_purification(r1)
        for s in np.linspace(0, path.s_star, 7):
            rho_s = geodesy.geodesic_point(path, s)
            assert abs(geodesy.root_fidelity(r1, rho_s) - np.cos(s)) < 1e-12
            assert abs(geodesy.root_fidelity(rho_s, r2) - np.cos(path.s_star - s)) < 1e-12
            lifted = geodesy.horizontal_lift(a0, path, s).matrix
            assert np.max(np.abs(oracles.project(lifted) - rho_s)) < 1e-12
        gauged = states.canonical_purification(
            r1, gauge=random_unitary(np.random.default_rng(148), 4))
        for call in (lambda: geodesy.transport_operator(path, 0.1),
                     lambda: geodesy.initial_tangent(path),
                     lambda: geodesy.horizontal_lift(gauged, path, 0.1)):
            with pytest.raises(geodesy.GeodesicUndefinedError,
                               match=r"no M\*: rank rho1 = 2 < rank rho2 = 3"):
                call()

    def test_rank_b_below_both_ranks_refused(self):
        r1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        r2 = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        for a, b in ((r1, r2), (r2, r1)):
            with pytest.raises(geodesy.GeodesicUndefinedError,
                               match="rank 1 below both rank rho1 = 2 and rank rho2 = 2"):
                geodesy.geometric_mean_operator(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_pure_to_maxmixed_is_the_paper_example_reversed(self, n):
        psi = random_state_vector(np.random.default_rng(70 + n), n)
        path = geodesy.geometric_mean_operator(states.pure_density(psi),
                                               states.maximally_mixed(n))
        for s in np.linspace(0, path.s_star, 7):
            expected = closedform.maxmixed_to_pure(n, psi, path.s_star - s)
            assert np.max(np.abs(geodesy.geodesic_point(path, s) - expected)) < 1e-12

    def test_orthogonal_pure_endpoints(self):
        g = states.pure_density(states.ghz_state())
        w = states.pure_density(states.w_state())
        path = geodesy.geometric_mean_operator(g, w)
        assert path.orthogonal
        assert path.s_star == np.pi / 2
        expected = closedform.orthogonal_mean_operator(states.ghz_state(),
                                                       states.w_state())
        assert np.max(np.abs(path.m_star - expected)) < 1e-14
        assert np.max(np.abs(path.m_star @ g @ path.m_star - w)) < 1e-14

    @staticmethod
    def assert_geodesic(path, r1, r2, tol):
        """Endpoint rho(s*) = rho2, M* rho1 M* = rho2, and the cos laws along s."""
        assert np.max(np.abs(geodesy.geodesic_point(path, path.s_star) - r2)) < 1e-14
        assert np.max(np.abs(path.m_star @ r1 @ path.m_star - r2)) < tol
        for s in np.linspace(0, path.s_star, 7):
            rho_s = geodesy.geodesic_point(path, s)
            assert abs(geodesy.root_fidelity(r1, rho_s) - np.cos(s)) < 1e-9
            assert abs(geodesy.root_fidelity(rho_s, r2) - np.cos(path.s_star - s)) < 1e-9

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_non_orthogonal_pure_endpoints(self, n):
        # Rank B = 1 = rank rho2: admitted, although rho1's support does not
        # contain rho2's. The angle is the Fubini-Study angle.
        rng = np.random.default_rng(60 + n)
        psi1, psi2 = random_state_vector(rng, n), random_state_vector(rng, n)
        p1, p2 = states.pure_density(psi1), states.pure_density(psi2)
        path = geodesy.geometric_mean_operator(p1, p2)
        assert abs(path.s_star - np.arccos(abs(np.vdot(psi1, psi2)))) < 1e-12
        self.assert_geodesic(path, p1, p2, 1e-12)

    def test_tilted_rank_deficient_supports(self):
        # Two rank-2 states of C^4 on planes in general position: rank B = 2.
        r1, r2 = tilted_rank2_pair(np.random.default_rng(64))
        path = geodesy.geometric_mean_operator(r1, r2)
        assert abs(np.cos(path.s_star) - geodesy.root_fidelity(r1, r2)) < 1e-12
        self.assert_geodesic(path, r1, r2, 1e-10)

    def test_ill_conditioned_start(self):
        # lambda_min / lambda_max = 1e-6 at the start, N = 8.
        for k in range(32):
            rng = np.random.default_rng([65, k])
            r1, r2 = conditioned_density(rng, 8, 1e-6), random_density(rng, 8, floor=0.1)
            path = geodesy.geometric_mean_operator(r1, r2)
            mid = geodesy.geodesic_point(path, path.s_star / 2)
            assert abs(np.trace(mid).real - 1.0) <= 1e-12
            assert abs(geodesy.root_fidelity(r1, mid) - np.cos(path.s_star / 2)) <= 1e-9
            assert np.max(np.abs(geodesy.geodesic_point(path, path.s_star) - r2)) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_nearby_endpoints_length_matches_metric(self, eps):
        # s* = sqrt(ds^2) to first order in |drho|_F = eps.
        rng = np.random.default_rng(66)
        for _ in range(5):
            rho = random_density(rng, 4, floor=0.1)
            drho = random_traceless_hermitian(rng, 4, norm=eps)
            path = geodesy.geometric_mean_operator(rho, rho + drho)
            expected = eps * np.sqrt(geodesy.hubner_metric(rho, drho / eps))
            assert not path.degenerate
            assert abs(path.s_star / expected - 1.0) < 1e-6

    def test_orthogonal_mixed_endpoints_refused(self):
        r1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        r2 = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
        with pytest.raises(geodesy.GeodesicUndefinedError,
                           match="M singular at s\\*=pi/2"):
            geodesy.geometric_mean_operator(r1, r2)


class TestTransportAndGeodesic:
    def test_endpoint_operators(self):
        rng = np.random.default_rng(29)
        r1, r2 = random_density(rng, 3, floor=0.1), random_density(rng, 3, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        np.testing.assert_allclose(geodesy.transport_operator(path, 0.0),
                                   np.eye(3), atol=1e-14)
        np.testing.assert_allclose(geodesy.transport_operator(path, path.s_star),
                                   path.m_star, atol=1e-14)

    def test_interpolant_matches_tan_form(self):
        # f(s) = cos(s)(1 - tan(s)/tan(s*)) and g(s) = sin(s)/sin(s*)
        # coefficients recovered from M(s) on a diagonal path.
        r1 = np.diag([0.7, 0.3]).astype(complex)
        r2 = np.diag([0.2, 0.8]).astype(complex)
        path = geodesy.geometric_mean_operator(r1, r2)
        rng = np.random.default_rng(30)
        for s in rng.uniform(0, path.s_star, 7):
            m = geodesy.transport_operator(path, float(s))
            f_expected = np.cos(s) * (1 - np.tan(s) / np.tan(path.s_star))
            g_expected = np.sin(s) / np.sin(path.s_star)
            recovered = np.linalg.lstsq(
                np.stack([np.eye(2).reshape(-1), path.m_star.real.reshape(-1)], axis=1),
                m.real.reshape(-1), rcond=None)[0]
            assert abs(recovered[0] - f_expected) < 1e-12
            assert abs(recovered[1] - g_expected) < 1e-12

    def test_orthogonal_coefficients(self):
        g = states.pure_density(states.ghz_state())
        w = states.pure_density(states.w_state())
        path = geodesy.geometric_mean_operator(g, w)
        s = 0.3
        m = geodesy.transport_operator(path, s)
        expected = np.cos(s) * np.eye(8) + np.sin(s) * path.m_star
        assert np.max(np.abs(m - expected)) < 1e-14

    def test_fidelity_consistency_along_path(self):
        rng = np.random.default_rng(31)
        r1, r2 = random_density(rng, 4, floor=0.15), random_density(rng, 4, floor=0.15)
        path = geodesy.geometric_mean_operator(r1, r2)
        for s in np.linspace(0, path.s_star, 9):
            m = geodesy.transport_operator(path, s)
            assert abs(np.trace(m @ r1).real - np.cos(s)) < 1e-12

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(32)
        path = geodesy.geometric_mean_operator(random_density(rng, 2, floor=0.2),
                                               random_density(rng, 2, floor=0.2))
        with pytest.raises(ValueError, match="outside the geodesic range"):
            geodesy.transport_operator(path, path.s_star + 0.1)
        with pytest.raises(ValueError, match="outside the geodesic range"):
            geodesy.transport_operator(path, -0.1)

    def test_degenerate_path_is_constant(self):
        rng = np.random.default_rng(33)
        rho = random_density(rng, 3)
        path = geodesy.geometric_mean_operator(rho, rho.copy())
        np.testing.assert_allclose(geodesy.transport_operator(path, 0.0),
                                   np.eye(3), atol=1e-15)
        np.testing.assert_allclose(geodesy.geodesic_point(path, 0.0), rho,
                                   atol=1e-15)

    @pytest.mark.parametrize("s", [np.nan, 5.0, -0.1])
    def test_degenerate_path_refuses_s_out_of_range(self, s):
        rho = states.maximally_mixed(2)
        path = geodesy.geometric_mean_operator(rho, rho)
        a0 = states.canonical_purification(rho)
        with pytest.raises(ValueError, match="outside the geodesic range"):
            geodesy.geodesic_point(path, s)
        with pytest.raises(ValueError, match="outside the geodesic range"):
            geodesy.horizontal_lift(a0, path, s)

    def test_geodesic_endpoints(self):
        rng = np.random.default_rng(34)
        r1, r2 = random_density(rng, 3, floor=0.1), random_density(rng, 3, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        assert np.max(np.abs(geodesy.geodesic_point(path, 0.0) - r1)) < 1e-14
        assert np.max(np.abs(geodesy.geodesic_point(path, path.s_star) - r2)) < 1e-12

    def test_midpoint_matches_closed_form_oracle(self):
        rng = np.random.default_rng(35)
        psi = random_state_vector(rng, 2)
        proj = states.pure_density(psi)
        path = geodesy.geometric_mean_operator(states.maximally_mixed(2), proj)
        s_mid = path.s_star / 2
        oracle = closedform.maxmixed_to_pure(2, psi, s_mid)
        assert np.max(np.abs(geodesy.geodesic_point(path, s_mid) - oracle)) < 1e-10

    def test_werner_geodesic_fidelity_law(self):
        r1 = states.werner("GHZ", 0.9)
        r2 = states.werner("W", 0.9)
        path = geodesy.geometric_mean_operator(r1, r2)
        for s in np.linspace(0, path.s_star, 11):
            rho_s = geodesy.geodesic_point(path, s)
            assert abs(np.trace(rho_s).real - 1.0) < 1e-12
            assert abs(geodesy.root_fidelity(r1, rho_s) - np.cos(s)) < 1e-9
            assert abs(geodesy.root_fidelity(rho_s, r2)
                       - np.cos(path.s_star - s)) < 1e-9

    def test_werner_p_to_one_limit_drops_coherences(self):
        # Near p = 1 the Werner geodesic approaches the incoherent mixture
        # cos^2 rho_GHZ + sin^2 rho_W; the cross term decays like sqrt(1-p).
        p = 1.0 - 1e-8
        path = geodesy.geometric_mean_operator(states.werner("GHZ", p),
                                               states.werner("W", p))
        g = states.pure_density(states.ghz_state())
        w = states.pure_density(states.w_state())
        s = path.s_star / 3
        limit = np.cos(s) ** 2 * g + np.sin(s) ** 2 * w
        assert np.max(np.abs(geodesy.geodesic_point(path, s) - limit)) < 1e-3


class TestHorizontalLift:
    def test_starts_at_a0(self):
        rng = np.random.default_rng(36)
        r1, r2 = random_density(rng, 3, floor=0.1), random_density(rng, 3, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        a0 = states.canonical_purification(r1, gauge=random_unitary(rng, 3))
        lifted = geodesy.horizontal_lift(a0, path, 0.0)
        assert np.max(np.abs(lifted.matrix - a0.matrix)) < 1e-14

    def test_endpoint_projection(self):
        rng = np.random.default_rng(37)
        r1, r2 = random_density(rng, 4, floor=0.1), random_density(rng, 4, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        a0 = states.canonical_purification(r1)
        lifted = geodesy.horizontal_lift(a0, path, path.s_star)
        assert np.max(np.abs(oracles.project(lifted.matrix) - r2)) < 1e-10

    def test_lift_projects_onto_geodesic(self):
        rng = np.random.default_rng(38)
        r1, r2 = random_density(rng, 2, floor=0.1), random_density(rng, 2, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        a0 = states.canonical_purification(r1)
        for s in np.linspace(0, path.s_star, 7):
            lifted = geodesy.horizontal_lift(a0, path, s)
            assert np.max(np.abs(oracles.project(lifted.matrix)
                                 - geodesy.geodesic_point(path, s))) < 1e-12

    def test_wrong_start_rejected(self):
        rng = np.random.default_rng(39)
        r1, r2 = random_density(rng, 2, floor=0.1), random_density(rng, 2, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        other = states.canonical_purification(r2)
        with pytest.raises(ValueError, match="^a0 does not purify the target state"):
            geodesy.horizontal_lift(other, path, 0.0)

    def test_wrong_shape_start_rejected(self):
        path = geodesy.geometric_mean_operator(states.maximally_mixed(4),
                                               np.diag([0.7, 0.1, 0.1, 0.1]))
        a0 = states.canonical_purification(states.maximally_mixed(3))
        with pytest.raises(ValueError, match=r"dimension mismatch: \(3, 3\) vs \(4, 4\)"):
            geodesy.horizontal_lift(a0, path, 0.1)

    def test_tangent_normalization_and_orthogonality(self):
        rng = np.random.default_rng(40)
        r1, r2 = random_density(rng, 3, floor=0.1), random_density(rng, 3, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        a0 = states.canonical_purification(r1).matrix
        adot = geodesy.initial_tangent(path) @ a0
        assert abs(np.trace(adot @ adot.conj().T).real - 1.0) < 1e-10
        assert abs(np.trace(adot @ a0.conj().T)) < 1e-10

    def test_hermiticity_along_lift(self):
        rng = np.random.default_rng(41)
        r1, r2 = random_density(rng, 4, floor=0.1), random_density(rng, 4, floor=0.1)
        path = geodesy.geometric_mean_operator(r1, r2)
        a0 = states.canonical_purification(r1).matrix
        for s in np.linspace(0, path.s_star, 11):
            a_s = geodesy.horizontal_lift(a0, path, s).matrix
            k = a0.conj().T @ a_s
            assert np.max(np.abs(k - k.conj().T)) < 1e-10

    def test_orthogonal_pure_lift(self):
        # The lift through A(0) = |GHZ><GHZ| stays anchored at the start,
        # satisfies the horizontality condition, and projects onto the
        # coherent geodesic between the two projectors.
        g_vec, w_vec = states.ghz_state(), states.w_state()
        g = states.pure_density(g_vec)
        path = geodesy.geometric_mean_operator(g, states.pure_density(w_vec))
        a0 = states.Purification(matrix=g, target=g)
        lift0 = geodesy.horizontal_lift(a0, path, 0.0)
        assert np.max(np.abs(lift0.matrix - g)) < 1e-15
        adot = geodesy.initial_tangent(path) @ g
        assert geodesy.hlc_residual(g, adot) < 1e-14
        for s in (0.4, np.pi / 4, 1.2):
            lifted = geodesy.horizontal_lift(a0, path, s)
            _, expected = closedform.orthogonal_pure_geodesic(g_vec, w_vec, s)
            assert np.max(np.abs(oracles.project(lifted.matrix) - expected)) < 1e-13

    def test_initial_tangent_degenerate_rejected(self):
        rho = states.maximally_mixed(2)
        path = geodesy.geometric_mean_operator(rho, rho)
        with pytest.raises(ValueError, match="constant path"):
            geodesy.initial_tangent(path)


class TestHlcResidual:
    def test_hermitian_generator_is_horizontal(self):
        rng = np.random.default_rng(42)
        a = oracles.sqrtm_psd(random_density(rng, 3))
        g = random_hermitian(rng, 3)
        assert geodesy.hlc_residual(a, g @ a) < 1e-12

    def test_vertical_tangent_is_not_horizontal(self):
        rng = np.random.default_rng(43)
        a = oracles.sqrtm_psd(random_density(rng, 3, floor=0.2))
        h = random_hermitian(rng, 3)
        assert geodesy.hlc_residual(a, 1j * a @ h) > 1e-3

    def test_zero_tangent(self):
        rng = np.random.default_rng(44)
        a = oracles.sqrtm_psd(random_density(rng, 3))
        assert geodesy.hlc_residual(a, np.zeros_like(a)) == 0.0


class TestHubnerMetric:
    def test_zero_variation(self):
        assert geodesy.hubner_metric(states.maximally_mixed(2),
                                     np.zeros((2, 2))) == 0.0

    def test_maximally_mixed_qubit(self):
        rng = np.random.default_rng(45)
        basis = sun.generator_basis(2)
        dx = rng.normal(size=3)
        drho = sun.expand(0.0, dx, basis)
        metric = geodesy.hubner_metric(states.maximally_mixed(2), drho)
        assert abs(metric - 0.25 * dx @ dx) < 1e-14

    def test_qubit_closed_form(self):
        rng = np.random.default_rng(46)
        basis = sun.generator_basis(2)
        for _ in range(30):
            x = rng.normal(size=3)
            x *= rng.uniform(0.0, 0.9) / np.linalg.norm(x)
            dx = rng.normal(size=3)
            rho = states.density_from_bloch(x, basis)
            drho = sun.expand(0.0, dx, basis)
            expected = 0.25 * (dx @ dx + (x @ dx) ** 2 / (1 - x @ x))
            assert abs(geodesy.hubner_metric(rho, drho) - expected) < 1e-12

    def test_finite_difference_richardson(self):
        rng = np.random.default_rng(47)
        for n in (2, 3):
            for _ in range(5):
                rho = random_density(rng, n, floor=0.3)
                drho = random_traceless_hermitian(rng, n, norm=0.15)
                metric = geodesy.hubner_metric(rho, drho)

                def quotient(t):
                    perturbed = states.admit(rho + t * drho, trace_tol=1e-8).matrix
                    d = geodesy.bures(rho, perturbed).bures_distance
                    return d * d / (t * t)

                richardson = 2.0 * quotient(5e-4) - quotient(1e-3)
                assert abs(richardson - metric) / metric < 1e-6

    def test_traceful_variation_rejected(self):
        with pytest.raises(ValueError, match="traceless"):
            geodesy.hubner_metric(states.maximally_mixed(2), np.eye(2))


class TestUhlmannUnitary:
    def test_identical_states(self):
        rng = np.random.default_rng(48)
        rho = random_density(rng, 3, floor=0.2)
        u = geodesy.uhlmann_unitary(rho, rho)
        assert np.max(np.abs(u - np.eye(3))) < 1e-12

    def test_commuting_pair(self):
        u = geodesy.uhlmann_unitary(np.diag([0.2, 0.3, 0.5]),
                                    np.diag([0.5, 0.25, 0.25]))
        assert np.max(np.abs(u - np.eye(3))) < 1e-12

    def test_unitarity_random_qutrits(self):
        rng = np.random.default_rng(49)
        for _ in range(30):
            r1 = random_density(rng, 3, floor=0.1)
            r2 = random_density(rng, 3, floor=0.1)
            u = geodesy.uhlmann_unitary(r1, r2)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
            assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-9

    def test_trace_identity(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            r1 = random_density(rng, 4, floor=0.1)
            r2 = random_density(rng, 4, floor=0.1)
            u = geodesy.uhlmann_unitary(r1, r2)
            overlap = np.trace(u @ oracles.sqrtm_psd(r2) @ oracles.sqrtm_psd(r1))
            assert abs(overlap - geodesy.root_fidelity(r1, r2)) < 1e-9
            assert abs(overlap.imag) < 1e-12

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            geodesy.uhlmann_unitary(np.diag([1.0, 0.0]),
                                    states.maximally_mixed(2))
