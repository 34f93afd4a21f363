import dataclasses
import itertools

import numpy as np
import pytest

from buresgeo import matcore, states, sun
from conftest import random_bloch, random_density, random_state_vector


def trace_formula_oracle(basis, i, j, k):
    """Brute-force f and d for one index triple, straight from the traces."""
    si, sj, sk = basis.sigmas[i], basis.sigmas[j], basis.sigmas[k]
    f = np.trace((si @ sj - sj @ si) @ sk) / 4j
    d = np.trace((si @ sj + sj @ si) @ sk) / 4
    return f.real, d.real


class TestGeneratorBasis:
    def test_pauli_reduction_exact(self):
        basis = sun.generator_basis(2)
        eps = np.zeros((3, 3, 3))
        for i, j, k in itertools.permutations(range(3)):
            eps[i, j, k] = (-1) ** sum(1 for a in range(3) for b in range(a + 1, 3)
                                       if (i, j, k)[a] > (i, j, k)[b])
        assert np.array_equal(basis.f, eps)
        assert not basis.d.any()
        np.testing.assert_allclose(basis.sigmas[0],
                                   np.array([[0, 1], [1, 0]]), atol=0)
        np.testing.assert_allclose(basis.sigmas[1],
                                   np.array([[0, -1j], [1j, 0]]), atol=0)
        np.testing.assert_allclose(basis.sigmas[2], np.diag([1, -1]), atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trace_orthogonality(self, n):
        basis = sun.generator_basis(n)
        gram = np.einsum('iab,jba->ij', basis.sigmas, basis.sigmas)
        assert np.max(np.abs(gram - 2 * np.eye(basis.size))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_structure_constant_symmetries(self, n):
        basis = sun.generator_basis(n)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.max(np.abs(basis.f + basis.f.transpose(perm))) < 1e-12
            assert np.max(np.abs(basis.d - basis.d.transpose(perm))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_completeness(self, n):
        basis = sun.generator_basis(n)
        comp = np.einsum('iab,icd->abcd', basis.sigmas, basis.sigmas)
        eye = np.eye(n)
        target = 2 * np.einsum('ad,bc->abcd', eye, eye) \
            - (2 / n) * np.einsum('ab,cd->abcd', eye, eye)
        assert np.max(np.abs(comp - target)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closure(self, n):
        basis = sun.generator_basis(n)
        m = basis.size
        prod = np.einsum('iab,jbc->ijac', basis.sigmas, basis.sigmas)
        recon = (2 / n) * np.einsum('ij,ac->ijac', np.eye(m), np.eye(n)) \
            + np.einsum('ijk,kac->ijac', basis.d + 1j * basis.f, basis.sigmas)
        assert np.max(np.abs(prod - recon)) < 1e-12

    def test_qutrit_frozen_values(self):
        # The su(2) triple (sym01, anti01, diag1) sits at indices (0, 3, 6)
        # under the sym/antisym/diag ordering; its f value is 1. The doubly
        # symmetric coupling to the last diagonal generator is 1/sqrt(3).
        basis = sun.generator_basis(3)
        assert abs(basis.f[0, 3, 6] - 1.0) < 1e-12
        assert abs(basis.d[0, 0, 7] - 1.0 / np.sqrt(3)) < 1e-12

    def test_tensor_matches_trace_oracle(self):
        rng = np.random.default_rng(60)
        basis = sun.generator_basis(4)
        for _ in range(20):
            i, j, k = rng.integers(0, basis.size, size=3)
            f, d = trace_formula_oracle(basis, i, j, k)
            assert abs(basis.f[i, j, k] - f) < 1e-13
            assert abs(basis.d[i, j, k] - d) < 1e-13

    def test_dimension_range(self):
        with pytest.raises(ValueError, match="between 2 and 16"):
            sun.generator_basis(1)
        with pytest.raises(ValueError, match="between 2 and 16"):
            sun.generator_basis(17)

    def test_basis_is_frozen(self):
        basis = sun.generator_basis(3)
        with pytest.raises(ValueError):
            basis.f[0, 0, 0] = 1.0


class TestPureStateIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_radius_and_d_eigenvector(self, n):
        rng = np.random.default_rng(61)
        basis = sun.generator_basis(n)
        for _ in range(10):
            rho = states.pure_density(random_state_vector(rng, n))
            _, x = sun.coefficients(rho, basis)
            assert abs(x @ x - n * (n - 1) / 2) < 1e-10
            dmat = np.einsum('i,ikj->kj', x, basis.d)
            assert np.max(np.abs(dmat @ x - (n - 2) * x)) < 1e-10


KERNEL_DIMS = [2, 3, 4, 8, 12, 16]


def dense_expand(c0, c, basis):
    """(1/N)(c0 I + c . sigma) contracted over the whole generator stack."""
    return (c0 * np.eye(basis.dim) + np.tensordot(c, basis.sigmas, axes=(0, 0))) / basis.dim


def dense_coefficients(m, basis):
    """(Tr m, (N/2) Tr[m sigma_i]) contracted over the whole generator stack."""
    return np.trace(m).real, 0.5 * basis.dim * np.einsum('iab,ba->i', basis.sigmas, m).real


class TestCoordinateKernels:
    """expand/coefficients use an O(N^2) index map; the dense stack is the oracle."""

    @pytest.mark.parametrize("n", KERNEL_DIMS)
    def test_expand_matches_dense_contraction(self, n):
        rng = np.random.default_rng([64, n])
        basis = sun.generator_basis(n)
        for _ in range(10):
            c0, c = rng.normal(), rng.normal(size=basis.size)
            diff = sun.expand(c0, c, basis) - dense_expand(c0, c, basis)
            assert np.max(np.abs(diff)) < 1e-15

    @pytest.mark.parametrize("n", KERNEL_DIMS)
    def test_coefficients_match_dense_contraction(self, n):
        rng = np.random.default_rng([65, n])
        basis = sun.generator_basis(n)
        for _ in range(10):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c0, c = sun.coefficients(m, basis)
            d0, d = dense_coefficients(m, basis)
            assert c0 == d0
            assert np.max(np.abs(c - d)) < 2e-14

    @pytest.mark.parametrize("n", KERNEL_DIMS)
    def test_round_trip(self, n):
        rng = np.random.default_rng([66, n])
        basis = sun.generator_basis(n)
        for _ in range(10):
            c0, c = rng.normal(), rng.normal(size=basis.size)
            r0, r = sun.coefficients(sun.expand(c0, c, basis), basis)
            assert abs(r0 - c0) < 1e-14
            assert np.max(np.abs(r - c)) < 1e-14

    @pytest.mark.parametrize("n", KERNEL_DIMS)
    def test_generator_matrix_matches_its_coordinates(self, n):
        rng = np.random.default_rng([67, n])
        basis = sun.generator_basis(n)
        for _ in range(5):
            x = random_bloch(rng, basis)
            for gen in (sun.solve_tangent_G(x, rng.normal(size=basis.size), basis),
                        sun.unitary_tangent(rng.normal(size=basis.size), x, basis)):
                diff = gen.matrix - sun.expand(gen.g0, gen.g, basis)
                assert np.max(np.abs(diff)) <= 1e-14 * np.max(np.abs(gen.matrix))

    @pytest.mark.parametrize("n", KERNEL_DIMS)
    def test_conversions_never_read_the_dense_stack(self, n):
        rng = np.random.default_rng([68, n])
        sun.generator_basis.cache_clear()
        basis = sun.generator_basis(n)
        x = random_bloch(rng, basis)
        v = rng.normal(size=basis.size)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        calls = [
            lambda b: (sun.expand(0.5, v, b),),
            lambda b: sun.coefficients(m, b),
            lambda b: dataclasses.astuple(sun.solve_tangent_G(x, v, b)),
            lambda b: dataclasses.astuple(sun.unitary_tangent(v, x, b)),
            lambda b: sun.hamiltonian_from_Y(v, x, b),
        ]
        outputs = [call(basis) for call in calls]
        assert 'sigmas' not in vars(basis)
        assert '_structure_constants' not in vars(basis)
        dense = sun.GeneratorBasis(n)
        dense.sigmas  # the same calls on a basis whose dense stack is built
        for call, output in zip(calls, outputs, strict=True):
            for got, want in zip(output, call(dense), strict=True):
                assert np.array_equal(got, want)


class TestSolveTangentG:
    def test_maximally_mixed_qubit(self):
        basis = sun.generator_basis(2)
        xdot = np.array([1.0, 0.0, 0.0])
        gen = sun.solve_tangent_G(np.zeros(3), xdot, basis)
        assert gen.g0 == 0.0
        np.testing.assert_allclose(gen.g, xdot, atol=1e-14)
        rho = states.maximally_mixed(2)
        rhodot = sun.expand(0.0, xdot, basis)
        assert np.max(np.abs(gen.matrix @ rho + rho @ gen.matrix - rhodot)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(62)
        basis = sun.generator_basis(n)
        for _ in range(100):
            x = random_bloch(rng, basis, floor=0.1)
            xdot = rng.normal(size=basis.size)
            gen = sun.solve_tangent_G(x, xdot, basis)
            rho = sun.expand(1.0, x, basis)
            rhodot = sun.expand(0.0, xdot, basis)
            residual = np.max(np.abs(gen.matrix @ rho + rho @ gen.matrix - rhodot))
            assert residual < 1e-9
            assert abs(gen.g0 + (2.0 / n) * (x @ gen.g)) < 1e-12

    def test_generator_matrix_is_hermitian(self):
        rng = np.random.default_rng(63)
        basis = sun.generator_basis(3)
        gen = sun.solve_tangent_G(random_bloch(rng, basis),
                                  rng.normal(size=basis.size), basis)
        assert np.max(np.abs(gen.matrix - gen.matrix.conj().T)) < 1e-14

    def test_pure_state_boundary_reported(self):
        basis = sun.generator_basis(3)
        rho = states.pure_density(np.array([1.0, 0.0, 0.0]))
        _, x = sun.coefficients(rho, basis)
        with pytest.raises(ValueError, match="conditioning threshold"):
            sun.solve_tangent_G(x, np.ones(basis.size), basis)

    def test_non_state_rejected(self):
        basis = sun.generator_basis(2)
        with pytest.raises(ValueError, match="not a state"):
            sun.solve_tangent_G(np.array([0.0, 0.0, 3.0]), np.zeros(3), basis)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16])
    def test_a_non_state_is_refused_by_its_eigenvalue_at_every_scale(self, n):
        # The solve admits expand(1, x) through states.admit without its trace
        # bound: the trace is 1 by construction, but off by far more than
        # TRACE_TOL at large |x| from N = 4 on, and a non-state is still named
        # as x by its eigenvalue, never as "not normalized". Exactly the x whose
        # state has an eigenvalue below -ADMIT_TOL are refused.
        rng = np.random.default_rng(3201 + n)
        basis = sun.generator_basis(n)
        direction = rng.normal(size=basis.size)
        direction /= np.linalg.norm(direction)
        refused, trace_defect = 0, 0.0
        for scale in 10.0 ** np.arange(-1, 11):
            x = scale * direction
            dec = matcore.spectral_decompose(sun.expand(1.0, x, basis))
            low = dec.eigenvalues[0]
            trace_defect = max(trace_defect, abs(dec.trace - 1.0))
            if low >= -matcore.ADMIT_TOL:  # a state: solved, or refused on its boundary
                try:
                    sun.solve_tangent_G(x, np.zeros(basis.size), basis)
                except ValueError as exc:
                    assert low <= 0.0 and "conditioning threshold" in str(exc)
                continue
            refused += 1
            with pytest.raises(ValueError) as info:
                sun.solve_tangent_G(x, np.zeros(basis.size), basis)
            assert str(info.value) == f"x is not a state: most negative eigenvalue {low:.6e}"
        assert refused >= 10
        assert n < 4 or trace_defect > matcore.TRACE_TOL


class TestUnitaryTangent:
    def test_zero_drive(self):
        basis = sun.generator_basis(3)
        gen = sun.unitary_tangent(np.zeros(8), np.ones(8) * 0.1, basis)
        assert gen.g0 == 0.0
        assert not gen.g.any()

    def test_qubit_cross_product(self):
        rng = np.random.default_rng(64)
        basis = sun.generator_basis(2)
        for _ in range(10):
            x, y = rng.normal(size=3), rng.normal(size=3)
            gen = sun.unitary_tangent(y, x, basis)
            np.testing.assert_allclose(gen.g, np.cross(x, y), atol=1e-13)

    def test_g_orthogonal_to_x(self):
        rng = np.random.default_rng(65)
        for n in (2, 3, 4):
            basis = sun.generator_basis(n)
            for _ in range(10):
                x = random_bloch(rng, basis)
                y = rng.normal(size=basis.size)
                gen = sun.unitary_tangent(y, x, basis)
                bound = 1e-12 * max(np.linalg.norm(x) * np.linalg.norm(gen.g), 1e-30)
                assert abs(x @ gen.g) <= max(bound, 1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_spectrum_preserved_to_second_order(self, n):
        rng = np.random.default_rng(66)
        basis = sun.generator_basis(n)
        rho = random_density(rng, n, floor=0.2)
        _, x = sun.coefficients(rho, basis)
        gen = sun.unitary_tangent(rng.normal(size=basis.size), x, basis)
        base = np.linalg.eigvalsh(rho)

        def drift(eps):
            step = rho + eps * (gen.matrix @ rho + rho @ gen.matrix)
            return np.max(np.abs(np.linalg.eigvalsh(step) - base))

        d1, d2 = drift(1e-3), drift(1e-4)
        assert d1 < 1e-4
        assert d2 < d1 / 50

    def test_qubit_flow_preserves_det_of_lift(self):
        # The purification determinant is conserved along unitary flows:
        # per explicit Euler step the drift is second order in the step.
        rng = np.random.default_rng(67)
        basis = sun.generator_basis(2)
        rho = random_density(rng, 2, floor=0.3)
        _, x = sun.coefficients(rho, basis)
        a = np.linalg.cholesky(rho)

        def det_drift(eps):
            gen = sun.unitary_tangent(np.array([0.3, -0.2, 0.9]), x, basis)
            stepped = a + eps * gen.matrix @ a
            return abs(np.linalg.det(stepped) - np.linalg.det(a))

        d1, d2 = det_drift(1e-3), det_drift(1e-4)
        assert d1 < 1e-5
        assert d2 < d1 / 50


class TestHamiltonianFromY:
    def test_zero_drive(self):
        basis = sun.generator_basis(2)
        b, b_par, b_perp = sun.hamiltonian_from_Y(np.zeros(3),
                                                  np.array([0.0, 0.0, 0.5]), basis)
        assert not b.any() and not b_par.any() and not b_perp.any()

    def test_pure_qubit_has_no_parallel_part(self):
        rng = np.random.default_rng(68)
        basis = sun.generator_basis(2)
        for _ in range(10):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            y = rng.normal(size=3)
            b, b_par, b_perp = sun.hamiltonian_from_Y(y, x, basis)
            assert np.max(np.abs(b_par)) < 1e-12
            np.testing.assert_allclose(b, b_perp, atol=1e-12)

    def test_x_zero_split(self):
        basis = sun.generator_basis(3)
        y = np.arange(1.0, 9.0)
        b, b_par, b_perp = sun.hamiltonian_from_Y(y, np.zeros(8), basis)
        assert not b_par.any()
        np.testing.assert_allclose(b, y, atol=1e-14)
        np.testing.assert_allclose(b_perp, y, atol=1e-14)

    def test_matrix_product_oracle(self):
        # (N^2/2)(rho Y + Y rho) expands directly as B.sigma once the trace
        # part is removed through y0 = -(2/N) x.y, so B_i = Tr[H' sigma_i]/2.
        rng = np.random.default_rng(69)
        basis = sun.generator_basis(3)
        n = 3
        for _ in range(10):
            x = random_bloch(rng, basis)
            y = rng.normal(size=basis.size)
            y0 = -(2.0 / n) * (x @ y)
            rho = sun.expand(1.0, x, basis)
            ymat = sun.expand(y0, y, basis)
            hprime = (n * n / 2.0) * (rho @ ymat + ymat @ rho)
            c0 = np.trace(hprime).real / n
            c = 0.5 * np.einsum('iab,ba->i', basis.sigmas, hprime).real
            b, _, _ = sun.hamiltonian_from_Y(y, x, basis)
            assert abs(c0) < 1e-12
            np.testing.assert_allclose(b, c, atol=1e-12)


class TestCharacteristicInvariants:
    def test_first_invariant_is_trace(self):
        rng = np.random.default_rng(70)
        for n in (2, 3, 5, 8):
            inv = sun.characteristic_invariants(random_density(rng, n))
            assert abs(inv[0] - 1.0) < 1e-12

    def test_maximally_mixed(self):
        from math import comb
        for n in (2, 3, 4, 6):
            inv = sun.characteristic_invariants(states.maximally_mixed(n))
            expected = [comb(n, k) / n ** k for k in range(1, n + 1)]
            np.testing.assert_allclose(inv, expected, atol=1e-12)

    def test_qubit_second_invariant_is_determinant(self):
        rng = np.random.default_rng(71)
        rho = random_density(rng, 2)
        inv = sun.characteristic_invariants(rho)
        assert abs(inv[1] - np.linalg.det(rho).real) < 1e-13

    def test_elementary_symmetric_oracle(self):
        rng = np.random.default_rng(72)
        for n in (2, 3, 4, 8):
            rho = random_density(rng, n)
            inv = sun.characteristic_invariants(rho)
            lam = np.linalg.eigvalsh(rho)
            for k in range(1, n + 1):
                esp = sum(np.prod(c) for c in itertools.combinations(lam, k))
                assert abs(inv[k - 1] - esp) < 1e-10


def test_coefficients_of_a_matrix_of_another_dimension_name_m():
    with pytest.raises(ValueError, match=r"^m: matrix dimension 3 does not match basis "
                                         r"dimension 2$"):
        sun.coefficients(np.eye(3) / 3, sun.generator_basis(2))
