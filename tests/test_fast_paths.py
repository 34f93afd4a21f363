"""The hot paths return what the general formulas return, bit for bit.

Admission reads finiteness off the one maximum it already takes, the
square-root factor of a full-support spectrum skips the mask, the Lyapunov
weights of a state are built once, identical endpoints are recognised by
memo identity, then trace and first entry, then every entry, ranks are a
search on the ascending spectrum, and a horizontal lift evaluates f(s), g(s) once. Each test pins
one of them against the formula it replaced (``oracles``).
"""

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states
import oracles
from conftest import random_density, random_hermitian, random_unitary


def rank_deficient_density(rng, n, rank):
    """A random state of the given rank, its zero eigenvalues left to roundoff."""
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.1, 1.0, size=rank)
    u = random_unitary(rng, n)
    rho = (u * (w / w.sum())) @ u.conj().T
    return (rho + rho.conj().T) / 2


def _ensemble(seed, n=6, count=12):
    """Full-rank, rank-deficient and pure states of dimension n."""
    rng = np.random.default_rng(seed)
    return ([random_density(rng, n, floor=0.1) for _ in range(count)]
            + [rank_deficient_density(rng, n, int(rng.integers(1, n))) for _ in range(count)])


MATRIX_GATES = {
    "as_complex_matrix": matcore.as_complex_matrix,
    "require_hermitian": matcore.require_hermitian,
    "spectral_decompose": matcore.spectral_decompose,
    "validate_density": states.validate_density,
}


@pytest.mark.parametrize("entry", sorted(MATRIX_GATES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 1), (0, 2), (1, 2)])
def test_non_finite_upper_triangle_is_named(entry, value, index):
    rho = np.eye(3, dtype=np.complex128) / 3
    rho[index] = value
    pattern = rf"non-finite entry .*{value}.* at \({index[0]}, {index[1]}\)"
    with pytest.raises(ValueError, match=pattern):
        MATRIX_GATES[entry](rho)


def test_an_overflowing_maximum_of_finite_entries_passes_the_gate():
    m = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
    assert np.isinf(np.abs(m).max())
    out = matcore.as_complex_matrix(m, "m")
    assert out.tobytes() == m.astype(np.complex128).tobytes()


@pytest.mark.parametrize("f", [np.sqrt, lambda w: 1.0 / np.sqrt(w), np.log],
                         ids=["sqrt", "inverse_sqrt", "log"])
def test_spectral_factor_equals_the_masked_formula(f):
    seen_full = seen_deficient = False
    for rho in _ensemble(11):
        dec = matcore.spectral_decompose(rho)
        full = dec.eigenvalues[0] > matcore.CLAMP * float(np.abs(dec.eigenvalues).max())
        seen_full, seen_deficient = seen_full or full, seen_deficient or not full
        got = matcore.spectral_factor(dec, f)
        assert got.tobytes() == oracles.masked_spectral_factor(dec, f).tobytes()
    assert seen_full and seen_deficient


def test_lyapunov_eigenbasis_equals_the_masked_formula():
    rng = np.random.default_rng(12)
    for rho in _ensemble(12):
        dec = matcore.spectral_decompose(rho)
        h = random_hermitian(rng, rho.shape[0])
        for _ in range(2):  # the second call reads the cached weights
            h_eig, x_eig = matcore.lyapunov_eigenbasis(dec, h)
            want_h, want_x = oracles.masked_lyapunov_eigenbasis(dec, h)
            assert h_eig.tobytes() == want_h.tobytes()
            assert x_eig.tobytes() == want_x.tobytes()


def test_rank_equals_the_counting_rule():
    ranks = set()
    for rho in _ensemble(13, n=7, count=30):
        dec = matcore.spectral_decompose(rho)
        assert dec.rank == oracles.counted_rank(dec)
        ranks.add(dec.rank)
    assert len(ranks) >= 4


def test_distinct_decompositions_of_equal_content_are_identical_endpoints():
    rho = random_density(np.random.default_rng(14), 5, floor=0.1)
    first = states.admit(rho)
    matcore._decompose.cache_clear()
    second = states.admit(rho.copy())
    assert first is not second
    assert np.array_equal(first.matrix, second.matrix)
    assert geodesy.root_fidelity(first, second) == 1.0
    assert geodesy.bures(first, second) == geodesy.BuresSummary(1.0, 0.0, 0.0)


@pytest.mark.parametrize("diagonal", [[0.2, 0.3, 0.5], [0.5, 0.2, 0.3]],
                         ids=["first_entry_differs", "first_entry_equal"])
def test_equal_traces_of_different_states_are_not_identical_endpoints(diagonal):
    rho = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
    other = np.diag(diagonal).astype(np.complex128)
    assert states.admit(rho).trace == states.admit(other).trace
    assert geodesy.root_fidelity(rho, other) < 1.0
    assert geodesy.bures(rho, other).bures_angle > 0.0


def test_horizontal_lift_evaluates_the_coefficients_once(monkeypatch):
    rng = np.random.default_rng(15)
    path = geodesy.geometric_mean_operator(random_density(rng, 4, floor=0.1),
                                           random_density(rng, 4, floor=0.1))
    a0 = states.canonical_purification(path.rho1)
    calls = []
    original = geodesy.transport_coefficients

    def counted(s, s_star):
        calls.append(s)
        return original(s, s_star)

    monkeypatch.setattr(geodesy, "transport_coefficients", counted)
    for s in np.linspace(0.0, path.s_star, 7):
        calls.clear()
        lift = geodesy.horizontal_lift(a0, path, s)
        assert calls == [s]
        want = geodesy.transport_operator(path, s) @ a0.matrix
        assert lift.matrix.tobytes() == want.tobytes()
        assert lift.target.tobytes() == geodesy.geodesic_point(path, s).tobytes()
