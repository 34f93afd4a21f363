"""The one overflow rule: the gate bounds every entry by ``ENTRY_LIMIT``.

No computation below the gate keeps an overflow guard of its own, so each one
must stay finite on input at the limit. Every call runs under
``warnings.simplefilter("error")``, so a numpy overflow or invalid-value
warning fails the test. The one result of degree N, the characteristic
invariants, keeps its own refusal.
"""

import warnings

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states, sun
from conftest import conditioned_density, random_unitary

L = matcore.ENTRY_LIMIT
ABOVE = np.nextafter(L, np.inf)
PATTERNS = ["all-limit", "alternating"]


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _at_limit(pattern, shape):
    """Entries of modulus L: all +L, or +-L alternating over the flat index."""
    a = np.full(shape, L)
    if pattern == "alternating":
        a.reshape(-1)[1::2] *= -1.0
    return a


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a)).all() for a in arrays)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("x_pattern", PATTERNS)
@pytest.mark.parametrize("y_pattern", PATTERNS)
def test_the_unitary_solvers_stay_finite_at_the_limit(n, x_pattern, y_pattern):
    basis = sun.generator_basis(n)
    x, y = _at_limit(x_pattern, basis.size), _at_limit(y_pattern, basis.size)
    assert _finite(*sun.hamiltonian_from_Y(y, x, basis))
    gen = sun.unitary_tangent(y, x, basis)
    assert _finite(gen.g0, gen.g, gen.matrix)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_the_conversions_stay_finite_at_the_limit(n, pattern):
    basis = sun.generator_basis(n)
    assert _finite(sun.expand(L, _at_limit(pattern, basis.size), basis))
    c0, c = sun.coefficients(_at_limit(pattern, (n, n)), basis)
    assert _finite(c0, c)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_the_tangent_solve_stays_finite_at_the_limit(n, pattern):
    basis = sun.generator_basis(n)
    rho = conditioned_density(np.random.default_rng(3300 + n), n, 1.0 / 5e11)
    x = sun.coefficients(rho, basis)[1]
    gen = sun.solve_tangent_G(x, _at_limit(pattern, basis.size), basis)
    assert _finite(gen.g0, gen.g, gen.matrix)


def _at_the_cut(n):
    """A diagonal state whose N - 1 small eigenvalues e have 2e just above the
    spectral cut CLAMP * l_max, so the metric weighs nearly every pair by 1/cut."""
    e = 0.6 * matcore.CLAMP
    w = np.full(n, e)
    w[0] = 1.0 - (n - 1) * e
    return np.diag(w).astype(np.complex128)


@pytest.mark.parametrize("n", [2, 16, 64])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_the_metric_stays_finite_at_the_limit(n, pattern):
    rho = _at_the_cut(n)
    st = states.admit(rho)
    assert 2.0 * st.eigenvalues[0] > matcore._spectral_zero(st)  # every pair is on the support
    drho = _at_limit(pattern, (n, n))
    drho = np.triu(drho, 1) + np.triu(drho, 1).T  # Hermitian and traceless, |entries| = L
    assert np.isfinite(geodesy.hubner_metric(rho, drho))


@pytest.mark.parametrize("n", [2, 16, 64])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_the_bundle_checks_stay_finite_at_the_limit(n, pattern):
    a = _at_limit(pattern, (n, n)) * random_unitary(np.random.default_rng(3400 + n), n)
    a = a / np.abs(a).max() * L  # the largest modulus is the limit itself
    adot = _at_limit("alternating" if pattern == "all-limit" else "all-limit", (n, n))
    assert np.isfinite(geodesy.hlc_residual(a, adot))
    p = states.Purification(matrix=a, target=a @ a.conj().T)
    assert _finite(p.matrix, p.target)


def test_the_limit_itself_passes_the_gate():
    assert matcore.as_complex_matrix(np.full((2, 2), L), "a").max() == L
    assert matcore.as_vector([-L, L], "x").tolist() == [-L, L]


def test_the_next_float_above_the_limit_is_refused_by_name():
    basis = sun.generator_basis(2)
    with pytest.raises(ValueError, match=r"^a entries overflow: max \|entry\| = 1\.000e\+100 "
                                         r"exceeds 1e\+100$"):
        geodesy.hlc_residual(np.full((2, 2), ABOVE), np.eye(2))
    with pytest.raises(ValueError, match=r"^xdot entries overflow: max \|entry\| = "
                                         r"1\.000e\+100 exceeds 1e\+100$"):
        sun.solve_tangent_G([0.1, 0.2, 0.3], [0.0, ABOVE, 0.0], basis)


def test_the_invariants_of_an_admitted_matrix_can_overflow():
    rho = L * np.eye(4)
    assert matcore.as_complex_matrix(rho, "rho") is not None  # the gate passes it
    with pytest.raises(ValueError, match="^rho is too large: its invariants overflow$"):
        sun.characteristic_invariants(rho)
