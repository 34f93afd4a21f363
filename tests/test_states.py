import re

import numpy as np
import pytest

from buresgeo import states, sun
import oracles
from conftest import random_density, random_unitary


class TestBlochConversions:
    def test_zero_vector_is_maximally_mixed(self):
        for n in (2, 3, 4):
            basis = sun.generator_basis(n)
            rho = states.density_from_bloch(np.zeros(basis.size), basis)
            np.testing.assert_allclose(rho, np.eye(n) / n, atol=1e-14)

    def test_north_pole_qubit(self):
        basis = sun.generator_basis(2)
        rho = states.density_from_bloch(np.array([0.0, 0.0, 1.0]), basis)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-14)

    def test_pure_state_radius(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            basis = sun.generator_basis(n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            x = oracles.bloch_from_density(states.pure_density(v), basis)
            assert abs(x @ x - n * (n - 1) / 2) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            basis = sun.generator_basis(n)
            for _ in range(20):
                rho = random_density(rng, n)
                x = oracles.bloch_from_density(rho, basis)
                back = states.density_from_bloch(x, basis)
                assert np.max(np.abs(back - rho)) < 1e-12

    def test_outside_body_rejected_with_eigenvalue(self):
        basis = sun.generator_basis(2)
        with pytest.raises(ValueError, match="^x is not a state: most negative"):
            states.density_from_bloch(np.array([0.0, 0.0, 2.0]), basis)


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(states.werner("GHZ", 0.0), np.eye(8) / 8,
                                   atol=1e-15)

    @pytest.mark.parametrize("kind", ["GHZ", "W"])
    def test_spectrum(self, kind):
        for p in np.linspace(0.0, 1.0, 11):
            w = np.linalg.eigvalsh(states.werner(kind, float(p)))
            expected = np.sort(np.concatenate([[(1 + 7 * p) / 8],
                                               np.full(7, (1 - p) / 8)]))
            np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_p_one_ghz_projector(self):
        rho = states.werner("GHZ", 1.0)
        g = states.ghz_state()
        np.testing.assert_allclose(rho, np.outer(g, g.conj()), atol=1e-15)
        assert np.linalg.matrix_rank(rho) == 1

    def test_grid_trace_and_psd(self):
        for p in np.linspace(0.0, 1.0, 101):
            rho = states.werner("W", float(p))
            assert abs(np.trace(rho).real - 1.0) < 1e-14
            assert np.linalg.eigvalsh(rho)[0] > -1e-14

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            states.werner("GHZ", 1.5)
        with pytest.raises(ValueError, match="kind"):
            states.werner("BELL", 0.5)

    @pytest.mark.parametrize("kind", [3, None, b"GHZ"])
    def test_rejects_a_kind_that_is_not_a_string(self, kind):
        with pytest.raises(ValueError, match=f"kind must be one of .*, got {re.escape(repr(kind))}$"):
            states.werner(kind, 0.5)

    def test_ghz_w_orthogonal(self):
        assert abs(np.vdot(states.ghz_state(), states.w_state())) <= 1e-15


class TestPurifications:
    def test_canonical_of_maximally_mixed(self):
        a = states.canonical_purification(states.maximally_mixed(2))
        np.testing.assert_allclose(a.matrix, np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_gauge_invariance_of_projection(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 8):
            for _ in range(17):
                rho = random_density(rng, n)
                u = random_unitary(rng, n)
                a = states.canonical_purification(rho, gauge=u)
                assert np.max(np.abs(oracles.project(a.matrix) - rho)) < 1e-10

    def test_canonical_root_is_hermitian_square_root(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 2)
        a = states.canonical_purification(rho).matrix
        assert np.max(np.abs(a - a.conj().T)) < 1e-13
        assert np.max(np.abs(a @ a - rho)) < 1e-12

    def test_non_unitary_gauge_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            states.canonical_purification(states.maximally_mixed(2),
                                          gauge=np.diag([1.0, 2.0]))

    def test_project_examples(self):
        n = 3
        np.testing.assert_allclose(oracles.project(np.eye(n) / np.sqrt(n)),
                                   np.eye(n) / n, atol=1e-14)
        rng = np.random.default_rng(14)
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        root = oracles.sqrtm_psd(rho)
        np.testing.assert_allclose(oracles.project(root @ u),
                                   oracles.project(root), atol=1e-12)

    def test_purification_invariant_enforced(self):
        with pytest.raises(ValueError, match="does not purify"):
            states.Purification(matrix=np.eye(2), target=np.eye(2) / 2)

    @pytest.mark.parametrize("target, message", [
        ([[1, 0], [0, "x"]], "^target is not a numeric array"),
        # numpy casts None to NaN, which no purification projects to
        (np.array([[0.5, None], [None, 0.5]], dtype=object), "^target has non-finite entries"),
    ], ids=["string", "none"])
    def test_purification_refuses_a_non_numeric_target(self, target, message):
        with pytest.raises(ValueError, match=message):
            states.Purification(matrix=np.eye(2) / np.sqrt(2), target=target)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_purification_names_a_non_finite_target(self, value):
        # Not a purification defect of nan or inf: the target itself is named.
        with pytest.raises(ValueError, match=rf"^target has non-finite entries .*{value}.* "
                                             r"at \(0, 0\)$"):
            states.Purification(matrix=np.eye(2) / np.sqrt(2), target=[[value, 0], [0, 0.5]])

    def test_purification_keeps_the_arrays_it_checked(self):
        rho = states.maximally_mixed(2)
        root = np.eye(2) / np.sqrt(2)
        listed = states.Purification(matrix=root.tolist(), target=rho.real.tolist())
        for got, want in ((listed.matrix, root), (listed.target, rho)):
            assert got.dtype == np.complex128 and np.array_equal(got, want)
        kept = states.Purification(matrix=listed.matrix, target=listed.target)
        assert kept.matrix is listed.matrix and kept.target is listed.target

    def test_purification_names_a_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"dimension mismatch: \(3, 3\) vs \(2, 2\)"):
            states.Purification(matrix=np.eye(3) / np.sqrt(3),
                                target=states.maximally_mixed(2))


class TestSnapToState:
    def test_exact_input_returned_unchanged(self):
        rho = states.werner("GHZ", 0.5)
        out = states._snap_to_state(rho)
        assert np.array_equal(out, (rho + rho.conj().T) / 2)

    def test_boundary_band_state_repaired(self):
        # Admitted at the loose -1e-10 tolerance but below the spectral
        # clamp; after the snap it flows through the strict pipeline.
        dirty = np.diag([0.7, 0.3 + 5e-11, -5e-11]).astype(complex)
        clean = states._snap_to_state(dirty)
        assert np.linalg.eigvalsh(clean)[0] >= 0.0
        assert abs(np.trace(clean).real - 1.0) < 1e-15
        states.admit(clean)

    def test_bloch_admission_band_flows_through(self):
        from buresgeo import geodesy
        basis = sun.generator_basis(2)
        x = np.array([0.0, 0.0, 1.0 + 9e-11])  # inside the -1e-10 band
        rho = states.density_from_bloch(x, basis)
        assert geodesy.root_fidelity(rho, states.maximally_mixed(2)) > 0.7

    @pytest.mark.parametrize("diagonal", [[-0.5, -0.5], [0.0, 0.0]],
                             ids=["clipped", "unclipped"])
    def test_non_positive_trace_refused(self, diagonal):
        with pytest.raises(ValueError, match="trace to renormalize by, 0.0, is not positive"):
            states._snap_to_state(np.diag(diagonal))


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="not normalized"):
        states.admit(np.eye(2))


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="most negative eigenvalue"):
        states.admit(np.diag([1.5, -0.5]))
