import numpy as np
import pytest

from buresgeo import geodesy, matcore, states
import oracles
from conftest import random_density, random_hermitian, random_unitary


class TestSpectralDecompose:
    def test_identity(self):
        dec = matcore.spectral_decompose(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        v = dec.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        dec = matcore.spectral_decompose(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(dec.eigenvalues, [0.25, 0.75])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            dec = matcore.spectral_decompose(h)
            v, w = dec.eigenvectors, dec.eigenvalues
            assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-12 * max(
                np.max(np.abs(h)), 1.0)
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_involution_stable(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 8):
            h = random_hermitian(rng, n)
            first = matcore.spectral_decompose(h)
            v, w = first.eigenvectors, first.eigenvalues
            second = matcore.spectral_decompose((v * w) @ v.conj().T)
            np.testing.assert_allclose(second.eigenvalues, first.eigenvalues,
                                       atol=1e-12 * max(np.max(np.abs(h)), 1.0))

    def test_rejects_non_hermitian_with_residual(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(matcore.NotHermitianError, match="1.000e"):
            matcore.spectral_decompose(bad)


class TestHermitianFunction:
    def test_sqrt_identity(self):
        out = oracles.sqrtm_psd(np.eye(3))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        out = oracles.sqrtm_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_inverse_sqrt_on_support(self):
        # Pseudo-inverse semantics: the expected block values follow from
        # the oracle P P^+ P = P on the rank-deficient input.
        p = np.diag([0.5, 0.0])
        out = oracles.inv_sqrtm_psd(p)
        np.testing.assert_allclose(out, np.diag([1.0 / np.sqrt(0.5), 0.0]),
                                   atol=1e-14)
        pinv = out @ out
        np.testing.assert_allclose(p @ pinv @ p, p, atol=1e-14)

    def test_sqrt_rejects_negative_spectrum(self):
        with pytest.raises(matcore.NotPositiveSemidefiniteError,
                           match="not positive semidefinite"):
            oracles.sqrtm_psd(np.diag([1.0, -0.5]))

    def test_small_negatives_clamped(self):
        out = oracles.sqrtm_psd(np.diag([1.0, -1e-15]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = g @ g.conj().T
            root = oracles.sqrtm_psd(h)
            assert np.max(np.abs(root @ root - h)) < 1e-10 * np.max(np.abs(h))


class TestPolarPositive:
    def test_identity(self):
        np.testing.assert_allclose(oracles.polar_positive(np.eye(2)), np.eye(2),
                                   atol=1e-14)

    def test_absolute_values(self):
        out = oracles.polar_positive(np.diag([-2.0, 3.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_matches_sandwich_root(self):
        # |sqrt(r1) sqrt(r2)| equals the composed spectral route
        # sqrt(sqrt(r1) r2 sqrt(r1)).
        rng = np.random.default_rng(4)
        for _ in range(25):
            r1 = random_density(rng, 2)
            r2 = random_density(rng, 2)
            s1 = oracles.sqrtm_psd(r1)
            lhs = oracles.polar_positive(s1 @ oracles.sqrtm_psd(r2))
            rhs = oracles.sqrtm_psd(s1 @ r2 @ s1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_result_is_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            w = np.linalg.eigvalsh(oracles.polar_positive(a))
            assert w[0] >= -1e-12 * max(np.max(np.abs(a)) ** 2, 1.0)


def test_require_hermitian_symmetrizes():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 3)
    jittered = h + 1e-13 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    out = matcore.require_hermitian(jittered)
    assert np.max(np.abs(out - out.conj().T)) == 0.0


def test_basis_covariance_of_spectral_functions():
    # Degenerate eigenvectors are solver-chosen; spectral functions must not
    # depend on that choice.
    rng = np.random.default_rng(7)
    h = np.diag([0.5, 0.5, 2.0]).astype(complex)
    u = random_unitary(rng, 3)
    rotated = u @ h @ u.conj().T
    lhs = oracles.sqrtm_psd(rotated)
    rhs = u @ oracles.sqrtm_psd(h) @ u.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_spectral_factor_is_the_function_before_v_dagger():
    # One clamp rule in two shapes: the function is the factor times V^dag,
    # symmetrized, bit for bit; the square-root factor purifies the matrix,
    # also with clamped roundoff eigenvalues on a rank-deficient input.
    rng = np.random.default_rng(8)
    u = random_unitary(rng, 5)
    for w in ([0.1, 0.15, 0.2, 0.25, 0.3], [0.0, 0.0, 0.2, 0.3, 0.5]):
        h = (u * np.array(w)) @ u.conj().T
        dec = matcore.spectral_decompose((h + h.conj().T) / 2)
        factor = matcore.spectral_factor(dec)
        out = factor @ dec.eigenvectors.conj().T
        assert np.array_equal(dec.sqrt, (out + out.conj().T) / 2)
        assert np.max(np.abs(factor @ factor.conj().T - dec.matrix)) < 1e-15
    with pytest.raises(matcore.NotPositiveSemidefiniteError, match="not positive semidefinite"):
        matcore.spectral_factor(matcore.spectral_decompose(np.diag([1.0, -0.5])))


def test_rank_cuts_a_non_psd_spectrum_at_clamp_times_the_largest_modulus():
    # One cut for every reader of one matrix: CLAMP * max|l|, here 1e-12 set by
    # l_min = -1, so 5e-13 counts as zero although it is above CLAMP * l_max.
    dec = matcore.spectral_decompose(np.diag([-1.0, 5e-13, 1e-3]))
    assert matcore._spectral_zero(dec) == matcore.CLAMP * 1.0
    assert dec.rank == 1


def test_the_spectral_zero_of_a_stack_is_the_cut_of_each_member():
    stack = [np.diag([0.0, 0.25, 0.75]), np.diag([-2.0, 0.5, 1.0])]
    st = matcore.SpectralDecomposition(
        np.array(stack, dtype=np.complex128), np.array([1.0, -0.5]),
        np.array([np.diag(m) for m in stack]), np.array([np.eye(3)] * 2, dtype=np.complex128))
    cuts = matcore._spectral_zero(st)
    assert cuts.tolist() == [matcore._spectral_zero(matcore.spectral_decompose(m))
                             for m in stack]


@pytest.mark.parametrize("entry", [matcore.as_complex_matrix, matcore.spectral_decompose,
                                   lambda m: geodesy.root_fidelity(m, m)],
                         ids=["as_complex_matrix", "spectral_decompose", "root_fidelity"])
def test_empty_matrix_refused_naming_the_shape(entry):
    with pytest.raises(ValueError, match=r"empty shape \(0, 0\)"):
        entry(np.zeros((0, 0)))


class TestCoercionRefusalsNameTheArgument:
    @pytest.mark.parametrize("value", [[[1.0, "x"], [0.0, 1.0]], {"re": 1.0}, object()],
                             ids=["string-entry", "dict", "object"])
    def test_a_value_numpy_cannot_convert_is_not_a_numeric_array(self, value):
        with pytest.raises(ValueError, match=r"^rho is not a numeric array: "):
            matcore.as_complex_matrix(value, "rho")
        with pytest.raises(ValueError, match=r"^rho1 is not a numeric array: "):
            geodesy.root_fidelity(value, np.eye(2) / 2)

    def test_an_integer_scalar_is_converted_to_float(self):
        assert matcore.as_real_scalar(1, "p") == 1.0
        assert type(matcore.as_real_scalar(np.int64(1), "p")) is float
        assert states.werner("GHZ", 1).tobytes() == states.werner("GHZ", 1.0).tobytes()
