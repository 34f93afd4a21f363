import numpy as np
import pytest

from buresgeo import closedform, geodesy, states, sun
import oracles
from conftest import random_density, random_state_vector

PAULI = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.diag([1.0, -1.0]).astype(complex)]


def bloch_matrix(c0, vec):
    return 0.5 * (c0 * np.eye(2, dtype=complex)
                  + sum(v * p for v, p in zip(vec, PAULI)))


def random_ball_vector(rng, radius=0.95):
    v = rng.normal(size=3)
    return v * rng.uniform(0.0, radius) / np.linalg.norm(v)


class TestMaxmixedToPure:
    def test_endpoints(self):
        rng = np.random.default_rng(80)
        for n in (2, 4, 8):
            psi = random_state_vector(rng, n)
            s_star = np.arccos(1 / np.sqrt(n))
            start = closedform.maxmixed_to_pure(n, psi, 0.0)
            np.testing.assert_allclose(start, np.eye(n) / n, atol=1e-14)
            end = closedform.maxmixed_to_pure(n, psi, s_star)
            assert np.max(np.abs(end - states.pure_density(psi))) < 1e-13

    def test_matches_pipeline_along_path(self):
        rng = np.random.default_rng(81)
        for n in (2, 3, 4):
            psi = random_state_vector(rng, n)
            path = geodesy.geometric_mean_operator(states.maximally_mixed(n),
                                                   states.pure_density(psi))
            for s in np.linspace(0, path.s_star, 9):
                oracle = geodesy.geodesic_point(path, s)
                closed = closedform.maxmixed_to_pure(n, psi, float(s))
                assert np.max(np.abs(closed - oracle)) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            closedform.maxmixed_to_pure(2, np.array([1.0, 0.0]), 1.0)


class TestWernerRootFidelity:
    def test_endpoint_values(self):
        assert closedform.werner_root_fidelity(0.0, 0.0) == 1.0
        assert closedform.werner_root_fidelity(1.0, 1.0) == 0.0
        assert abs(closedform.werner_root_fidelity(0.5, 0.5) - 0.75) < 1e-15

    def test_against_spectral_route(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            p, q = rng.uniform(0, 1, size=2)
            spectral = geodesy.root_fidelity(states.werner("GHZ", p),
                                             states.werner("W", q))
            assert abs(spectral - closedform.werner_root_fidelity(p, q)) < 1e-10

    def test_monotone_on_diagonal(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [closedform.werner_root_fidelity(p, p) for p in grid]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_range_validation(self):
        with pytest.raises(ValueError, match="p must"):
            closedform.werner_root_fidelity(-0.1, 0.5)
        with pytest.raises(ValueError, match="q must"):
            closedform.werner_root_fidelity(0.5, 1.1)


class TestWernerOperators:
    def test_mean_operator_matches_pipeline(self):
        for p in (0.1, 0.35, 0.6, 0.9, 0.99):
            path = geodesy.geometric_mean_operator(states.werner("GHZ", p),
                                                   states.werner("W", p))
            closed = closedform.werner_mean_operator(p)
            assert np.max(np.abs(closed - path.m_star)) < 1e-10

    def test_mean_operator_transports_endpoints(self):
        p = 0.7
        m = closedform.werner_mean_operator(p)
        rg = states.werner("GHZ", p)
        assert np.max(np.abs(m @ rg @ m - states.werner("W", p))) < 1e-12
        assert abs(np.trace(m @ rg).real
                   - closedform.werner_root_fidelity(p, p)) < 1e-12

    def test_cross_term_matches_pipeline(self):
        for p in (0.05, 0.4, 0.8, 0.95):
            path = geodesy.geometric_mean_operator(states.werner("GHZ", p),
                                                   states.werner("W", p))
            rg = states.werner("GHZ", p)
            pipeline = path.m_star @ rg + rg @ path.m_star
            assert np.max(np.abs(closedform.werner_cross_term(p) - pipeline)) < 1e-10

    def test_cross_term_trace_is_twice_fidelity(self):
        for p in np.linspace(0.0, 0.99, 12):
            ct = closedform.werner_cross_term(float(p))
            assert abs(np.trace(ct).real
                       - 2 * closedform.werner_root_fidelity(p, p)) < 1e-12

    def test_cross_term_vanishes_toward_p_one(self):
        norms = [np.max(np.abs(closedform.werner_cross_term(p)))
                 for p in (0.9, 0.99, 0.999, 0.9999)]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 2e-2

    def test_singular_at_p_one(self):
        with pytest.raises(ValueError, match="singular at p=1"):
            closedform.werner_mean_operator(1.0)


class TestOrthogonalPureGeodesic:
    def test_endpoints(self):
        g, w = states.ghz_state(), states.w_state()
        _, rho0 = closedform.orthogonal_pure_geodesic(g, w, 0.0)
        assert np.max(np.abs(rho0 - states.pure_density(g))) < 1e-15
        _, rho1 = closedform.orthogonal_pure_geodesic(g, w, np.pi / 2)
        assert np.max(np.abs(rho1 - states.pure_density(w))) < 1e-15

    def test_hlc_at_start(self):
        # dA/ds at s = 0 is psi2; its overlap with A(0) = psi1 vanishes.
        g, w = states.ghz_state(), states.w_state()
        assert abs(np.vdot(g, w)) <= 1e-15

    def test_mean_operator_properties(self):
        g, w = states.ghz_state(), states.w_state()
        m = closedform.orthogonal_mean_operator(g, w)
        np.testing.assert_allclose(m @ g, w, atol=1e-15)
        proj_g = states.pure_density(g)
        assert abs(np.trace(m @ proj_g)) <= 1e-15
        cross = m @ proj_g + proj_g @ m
        assert np.max(np.abs(cross - m)) < 1e-15

    def test_cross_terms_present(self):
        g, w = states.ghz_state(), states.w_state()
        s = 0.7
        _, rho = closedform.orthogonal_pure_geodesic(g, w, s)
        expected = (np.cos(s) ** 2 * states.pure_density(g)
                    + np.sin(s) ** 2 * states.pure_density(w)
                    + np.cos(s) * np.sin(s)
                    * (np.outer(g, w.conj()) + np.outer(w, g.conj())))
        assert np.max(np.abs(rho - expected)) < 1e-14

    def test_unit_trace_along_path(self):
        g, w = states.ghz_state(), states.w_state()
        for s in np.linspace(0, np.pi / 2, 9):
            a, rho = closedform.orthogonal_pure_geodesic(g, w, float(s))
            assert abs(np.linalg.norm(a) - 1.0) < 1e-14
            assert abs(np.trace(rho).real - 1.0) < 1e-14

    def test_non_orthogonal_rejected(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="not orthogonal"):
            closedform.orthogonal_pure_geodesic(v1, v2, 0.1)

    def test_mean_operator_rejects_unnormalized(self):
        with pytest.raises(ValueError, match=r"psi1 is not normalized: \|psi1\| = 2.0"):
            closedform.orthogonal_mean_operator([2.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("entry", ["orthogonal_mean_operator", "orthogonal_pure_geodesic"])
    def test_length_mismatch_rejected(self, entry):
        extra = (0.1,) if entry == "orthogonal_pure_geodesic" else ()
        with pytest.raises(ValueError,
                           match=r"^psi1 and psi2: dimension mismatch: \(2,\) vs \(3,\)$"):
            getattr(closedform, entry)([1.0, 0.0], [0.0, 0.0, 1.0], *extra)


class TestQubitRoot:
    def test_maximally_mixed(self):
        root, inv = closedform.qubit_root(np.zeros(3))
        np.testing.assert_allclose(root, np.eye(2) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(inv, np.eye(2) * np.sqrt(2), atol=1e-14)

    def test_diagonal_state(self):
        root, _ = closedform.qubit_root(np.array([0.0, 0.0, 0.6]))
        np.testing.assert_allclose(root, np.diag([np.sqrt(0.8), np.sqrt(0.2)]),
                                   atol=1e-14)

    def test_against_spectral_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            x = random_ball_vector(rng)
            rho = bloch_matrix(1.0, x)
            root, inv = closedform.qubit_root(x)
            assert np.max(np.abs(root - oracles.sqrtm_psd(rho))) < 1e-12
            assert np.max(np.abs(inv - oracles.inv_sqrtm_psd(rho))) < 1e-12
            assert np.linalg.eigvalsh(root)[0] >= -1e-14
            assert np.max(np.abs(root @ root - rho)) < 1e-13

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            closedform.qubit_root(np.array([0.0, 0.0, 1.0]))


class TestQubitTau:
    def test_commuting_case(self):
        x, y = 0.5, -0.3
        tau = oracles.qubit_tau(np.array([0, 0, x]), np.array([0, 0, y]))
        assert abs(tau.tau0 - 0.25 * (1 + x * y)) < 1e-15
        np.testing.assert_allclose(tau.tau_vec, [0, 0, 0.25 * (x + y)],
                                   atol=1e-15)

    def test_x_zero_gives_half_rho2(self):
        rng = np.random.default_rng(84)
        y = random_ball_vector(rng)
        tau = oracles.qubit_tau(np.zeros(3), y)
        assert abs(tau.tau0 - 0.25) < 1e-15
        np.testing.assert_allclose(tau.tau_vec, y / 4, atol=1e-14)

    def test_against_spectral_oracle(self):
        rng = np.random.default_rng(85)
        for _ in range(100):
            x, y = random_ball_vector(rng), random_ball_vector(rng)
            tau = oracles.qubit_tau(x, y)
            s1 = oracles.sqrtm_psd(bloch_matrix(1.0, x))
            oracle = s1 @ bloch_matrix(1.0, y) @ s1
            closed = bloch_matrix(2.0 * tau.tau0, 2.0 * tau.tau_vec)
            assert np.max(np.abs(closed - oracle)) < 1e-12
            w = np.linalg.eigvalsh(oracle)
            assert abs(tau.lambda_plus - w[1]) < 1e-13
            assert abs(tau.lambda_minus - w[0]) < 1e-13


class TestQubitFidelity:
    def test_identical(self):
        rng = np.random.default_rng(86)
        x = random_ball_vector(rng)
        assert abs(closedform.qubit_fidelity(x, x) - 1.0) < 1e-13

    def test_maxmixed_to_pure(self):
        sf = closedform.qubit_fidelity(np.zeros(3), np.array([0, 0, 1.0]))
        assert abs(sf - 1 / np.sqrt(2)) < 1e-15

    def test_near_antipodal_pure(self):
        x = np.array([0, 0, 1 - 1e-9])
        assert closedform.qubit_fidelity(x, -x) < 1e-4

    def test_trace_determinant_form(self):
        rng = np.random.default_rng(87)
        for _ in range(50):
            x, y = random_ball_vector(rng), random_ball_vector(rng)
            r1, r2 = bloch_matrix(1.0, x), bloch_matrix(1.0, y)
            alt = np.sqrt(np.trace(r1 @ r2).real
                          + 2 * np.sqrt(np.linalg.det(r1).real
                                        * np.linalg.det(r2).real))
            assert abs(closedform.qubit_fidelity(x, y) - alt) < 1e-13

    def test_pure_end_is_the_overlap(self):
        # With y.y == 1 the determinant term vanishes: F = (1 + x.y)/2.
        rng = np.random.default_rng(93)
        starts = [np.array([0.1, 0.2, 0.3])] + [random_ball_vector(rng) for _ in range(20)]
        for y in np.vstack([np.eye(3), -np.eye(3)]):
            assert y @ y == 1.0
            for x in starts:
                expected = np.sqrt((1 + x @ y) / 2)
                assert abs(closedform.qubit_fidelity(x, y) - expected) <= 1e-15

    def test_matches_general_route(self):
        rng = np.random.default_rng(88)
        for _ in range(50):
            x, y = random_ball_vector(rng), random_ball_vector(rng)
            general = geodesy.root_fidelity(bloch_matrix(1.0, x),
                                            bloch_matrix(1.0, y))
            assert abs(closedform.qubit_fidelity(x, y) - general) < 1e-10


class TestQubitOrbit:
    def test_degenerate_endpoints(self):
        rng = np.random.default_rng(89)
        x = random_ball_vector(rng)
        np.testing.assert_allclose(closedform.qubit_orbit(x, x, 0.0), x,
                                   atol=1e-12)

    def test_endpoint_values(self):
        rng = np.random.default_rng(90)
        x, y = random_ball_vector(rng), random_ball_vector(rng)
        s_star = np.arccos(closedform.qubit_fidelity(x, y))
        np.testing.assert_allclose(closedform.qubit_orbit(x, y, 0.0), x,
                                   atol=1e-12)
        np.testing.assert_allclose(closedform.qubit_orbit(x, y, s_star), y,
                                   atol=1e-11)

    def test_center_to_pole_matches_closed_form(self):
        # Cross-oracle: the same arc through the Bloch ball center is the
        # maximally mixed to pure geodesic.
        basis = sun.generator_basis(2)
        y = np.array([0.0, 0.0, 1.0])
        s_star = np.arccos(1 / np.sqrt(2))
        s = s_star / 2
        r = closedform.qubit_orbit(np.zeros(3), y, s)
        rho = closedform.maxmixed_to_pure(2, np.array([1.0, 0.0]), s)
        _, expected = sun.coefficients(rho, basis)
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_matches_transport_pipeline(self):
        rng = np.random.default_rng(91)
        basis = sun.generator_basis(2)
        for _ in range(50):
            x, y = random_ball_vector(rng), random_ball_vector(rng)
            r1 = states.density_from_bloch(x, basis)
            r2 = states.density_from_bloch(y, basis)
            path = geodesy.geometric_mean_operator(r1, r2)
            for s in np.linspace(0, path.s_star, 7):
                orbit = closedform.qubit_orbit(x, y, float(s))
                _, expected = sun.coefficients(geodesy.geodesic_point(path, s),
                                               basis)
                assert np.max(np.abs(orbit - expected)) < 1e-9

    def test_collinear_tau_branch(self):
        # tau aligned with -z, where the tau eigenvector spinors degenerate;
        # the orbit does not use them.
        x = np.array([0.0, 0.0, -0.4])
        y = np.array([0.0, 0.0, -0.9])
        basis = sun.generator_basis(2)
        path = geodesy.geometric_mean_operator(states.density_from_bloch(x, basis),
                                               states.density_from_bloch(y, basis))
        s = path.s_star / 3
        orbit = closedform.qubit_orbit(x, y, s)
        _, expected = sun.coefficients(geodesy.geodesic_point(path, s), basis)
        assert np.max(np.abs(orbit - expected)) < 1e-11


class TestErrata:
    def test_every_entry_names_both_forms(self):
        assert len(closedform.ERRATA) == 5
        for entry in closedform.ERRATA:
            assert entry.rejected and entry.implemented and entry.evidence

    def test_table_renders_all_rows(self):
        table = closedform.errata_table()
        for entry in closedform.ERRATA:
            assert entry.formula in table
        assert table.count("\n") == len(closedform.ERRATA) + 1

    def test_rejected_root_branch_really_fails(self):
        # The indefinite branch squares back to rho but is not PSD.
        rng = np.random.default_rng(92)
        x = random_ball_vector(rng, radius=0.8)
        norm = np.linalg.norm(x)
        det = 0.25 * (1 - norm ** 2)
        a_plus = np.sqrt(0.5 + np.sqrt(det))
        a_minus = np.sqrt(0.5 - np.sqrt(det))
        rejected = (a_minus * np.eye(2) + a_plus * sum(
            v / norm * p for v, p in zip(x, PAULI))) / np.sqrt(2)
        rho = bloch_matrix(1.0, x)
        assert np.max(np.abs(rejected @ rejected - rho)) < 1e-13
        assert np.linalg.eigvalsh(rejected)[0] < -0.1

    def test_rejected_eigenvector_component_really_fails(self):
        # The complex spinors are eigenvectors of tau with Bloch vectors
        # +-tau_vec/|tau_vec|; the real sum tau1 + tau2 is not an eigenvector.
        entry = closedform.ERRATA[2]
        assert "+-tau_vec/|tau_vec|" in entry.implemented
        rng = np.random.default_rng(94)
        x, y = random_ball_vector(rng, radius=0.8), random_ball_vector(rng, radius=0.8)
        tau = oracles.qubit_tau(x, y)
        t1, t2, t3 = tau.tau_vec
        tnorm = np.linalg.norm(tau.tau_vec)
        assert abs(t2) > 1e-3
        mat = bloch_matrix(2 * tau.tau0, 2 * tau.tau_vec)
        for sign, lam in ((1, tau.lambda_plus), (-1, tau.lambda_minus)):
            implemented = np.array([t3 + sign * tnorm, t1 + 1j * t2])
            implemented /= np.linalg.norm(implemented)
            assert np.max(np.abs(mat @ implemented - lam * implemented)) < 1e-14
            bloch = [np.vdot(implemented, p @ implemented).real for p in PAULI]
            np.testing.assert_allclose(bloch, sign * tau.tau_vec / tnorm, atol=1e-14)
            rejected = np.array([t3 + sign * tnorm, t1 + t2], dtype=complex)
            rejected /= np.linalg.norm(rejected)
            assert np.max(np.abs(mat @ rejected - lam * rejected)) > 1e-3

    def test_rejected_perpendicular_sign_really_fails(self):
        # Only the + sign sums to the cross-term Bloch vector the orbit
        # evaluates; an orbit built with the - sign leaves the pipeline.
        entry = closedform.ERRATA[3]
        assert "(x + y)/(2 sqrt F)" in entry.implemented
        rng = np.random.default_rng(95)
        basis = sun.generator_basis(2)
        x, y = random_ball_vector(rng, radius=0.8), random_ball_vector(rng, radius=0.8)
        tau = oracles.qubit_tau(x, y)
        w = tau.tau_vec / np.linalg.norm(tau.tau_vec)
        xhat = x / np.linalg.norm(x)

        def v(wi, sign):  # w_par +- w_perp / sqrt(1 - |x|^2)
            par = (wi @ xhat) * xhat
            return par + sign * (wi - par) / np.sqrt(1 - x @ x)

        sums = {sign: np.sqrt(tau.lambda_plus) * v(w, sign)
                + np.sqrt(tau.lambda_minus) * v(-w, sign) for sign in (1, -1)}
        sqrt_f = closedform.qubit_fidelity(x, y)
        np.testing.assert_allclose(sums[1], (x + y) / (2 * sqrt_f), atol=1e-14)
        path = geodesy.geometric_mean_operator(states.density_from_bloch(x, basis),
                                               states.density_from_bloch(y, basis))
        s = path.s_star / 2
        f, g = geodesy.transport_coefficients(s, path.s_star)
        _, expected = sun.coefficients(geodesy.geodesic_point(path, s), basis)
        dev = {sign: np.max(np.abs(f * f * x + g * g * y + 2 * f * g * v - expected))
               for sign, v in sums.items()}
        assert dev[1] < 1e-9
        assert dev[-1] > 1e-3


class TestRefusalsNameTheArgument:
    def test_maxmixed_to_pure_psi_of_another_dimension(self):
        psi = random_state_vector(np.random.default_rng(116), 3)
        with pytest.raises(ValueError, match=r"^psi must be a vector of length 2, got shape \(3,\)$"):
            closedform.maxmixed_to_pure(2, psi, 0.1)

    def test_werner_cross_term_at_p_one(self):
        with pytest.raises(ValueError, match=r"singular at p=1; got 1\.0$"):
            closedform.werner_cross_term(1.0)

    @pytest.mark.parametrize("x, y, match", [
        ([1.0, 0.0, 0.0], [0.1, 0.2, 0.3], r"^\|x\| = 1\.0 must be below 1$"),
        ([0.0, 0.6, 0.8], [0.1, 0.2, 0.3], r"^\|x\| = 1\.0 must be below 1$"),
        ([0.1, 0.2, 0.3], [0.0, 0.0, 1.1], r"^\|y\| = 1\.1 must be at most 1$"),
    ], ids=["x-on-sphere", "x-unit-norm", "y-outside"])
    def test_bloch_vectors_out_of_the_ball(self, x, y, match):
        for call in (lambda: closedform.qubit_fidelity(x, y),
                     lambda: closedform.qubit_orbit(x, y, 0.0)):
            with pytest.raises(ValueError, match=match):
                call()
