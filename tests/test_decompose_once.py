"""Each entry point decomposes each input state once.

One ``eigh`` per endpoint and one SVD of B = sqrt(rho1) sqrt(rho2) = U S V^dag
give sqrt(F) = sum(S) and sqrt(tau) = U S U^dag, since tau = B B^dag. The
counts are pinned by wrapping ``numpy.linalg`` inside each test only, and the
SVD route is held against the textbook operator

    M* = rho1^{-1/2} sqrt(rho1^{1/2} rho2 rho1^{1/2}) rho1^{-1/2}

built from separate spectral functions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from buresgeo import geodesy, matcore, states, sun
from conftest import random_density, random_traceless_hermitian, random_unitary

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


@pytest.fixture
def solver_counts(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _pair(n=8):
    rng = np.random.default_rng(97)
    return random_density(rng, n, floor=0.1), random_density(rng, n, floor=0.1)


@pytest.mark.parametrize("entry, expected", [
    ("geometric_mean_operator", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
    ("root_fidelity", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
    ("uhlmann_unitary", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
])
def test_pair_entry_points_decompose_each_state_once(solver_counts, entry, expected):
    rho1, rho2 = _pair()
    getattr(geodesy, entry)(rho1, rho2)
    assert solver_counts == expected


def test_hubner_metric_decomposes_once(solver_counts):
    rng = np.random.default_rng(98)
    rho = random_density(rng, 8, floor=0.1)
    geodesy.hubner_metric(rho, random_traceless_hermitian(rng, 8, norm=0.1))
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


def test_canonical_purification_decomposes_once(solver_counts):
    states.canonical_purification(_pair()[0])
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


def test_decompose_density_matches_validate_density():
    rho = _pair(4)[0]
    r, dec = states.decompose_density(rho)
    assert np.array_equal(r, states.validate_density(rho))
    assert np.max(np.abs(dec.reconstruct() - r)) < 1e-15


@pytest.mark.parametrize("rho, message", [
    (np.array([[0.5, 0.1], [0.2, 0.5]]), "not Hermitian"),
    (np.diag([0.5, 0.6]), "not normalized"),
    (np.diag([1.1, -0.1]), "not a state"),
])
def test_decompose_density_refusals(rho, message):
    with pytest.raises(ValueError, match=message):
        states.decompose_density(rho)


def test_spectral_function_matches_hermitian_function():
    rng = np.random.default_rng(99)
    h = random_density(rng, 5, floor=0.05)
    dec = matcore.spectral_decompose(h)
    for kwargs in ({}, {"nonnegative": True}, {"nonnegative": True, "support_only": True}):
        assert np.array_equal(matcore.spectral_function(dec, np.sqrt, **kwargs),
                              matcore.hermitian_function(h, np.sqrt, **kwargs))


def test_solvers_leave_the_structure_constant_pair_unbuilt():
    sun.generator_basis.cache_clear()
    basis = sun.generator_basis(12)
    rng = np.random.default_rng(100)
    x = 0.1 * rng.normal(size=basis.size) / np.sqrt(basis.size)
    y = rng.normal(size=basis.size)
    sun.solve_tangent_G(x, y, basis)
    sun.unitary_tangent(y, x, basis)
    sun.hamiltonian_from_Y(y, x, basis)
    assert "_structure_constants" not in vars(basis)
    f, d = basis.f, basis.d
    assert basis.f is f and basis.d is d
    assert not f.flags.writeable and not d.flags.writeable


@st.composite
def endpoint_pairs(draw):
    """(rho1, rho2): full-rank pairs, or a rank-deficient start (rank >= 2)
    whose support contains rho2. Spectral floors act inside the support."""
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(2, n))
    floor1 = draw(st.sampled_from([0.3, 0.1, 1e-2, 1e-3]))
    floor2 = draw(st.sampled_from([0.3, 0.1, 1e-2, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, n)[:, :rank]
    rho1, rho2 = (u @ random_density(rng, rank, floor=fl) @ u.conj().T
                  for fl in (floor1, floor2))
    return (rho1 + rho1.conj().T) / 2, (rho2 + rho2.conj().T) / 2


@PROPERTY
@given(endpoint_pairs())
def test_mean_operator_matches_textbook_oracle(pair):
    rho1, rho2 = pair
    sqrt1 = matcore.sqrtm_psd(rho1)
    inv_sqrt1 = matcore.inv_sqrtm_psd(rho1)
    sqrt_tau = matcore.sqrtm_psd(sqrt1 @ rho2 @ sqrt1)
    oracle = inv_sqrt1 @ sqrt_tau @ inv_sqrt1
    path = geodesy.geometric_mean_operator(rho1, rho2)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(path.m_star - oracle)) <= 1e-12 * scale
    assert abs(np.cos(path.s_star) - np.trace(sqrt_tau).real) <= 1e-12
