"""Shared random-ensemble helpers for the test suite.

All randomness is seeded per test through numpy Generators so the suite is
deterministic. Full-rank ensembles mix in a fraction of the maximally mixed
state as a spectral floor; ``conditioned_density`` fixes the conditioning
instead. ``solver_counts`` counts the eigensolves a test makes. Property
tests run under the ``buresgeo`` hypothesis profile: derandomized, so every
run draws the same examples, and without a deadline, since a first call
fills the memos.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from buresgeo import geodesy, matcore

settings.register_profile("buresgeo", derandomize=True, deadline=None)
settings.load_profile("buresgeo")


@pytest.fixture
def solver_counts(monkeypatch):
    """Eigensolves (``eigh``) and SVDs (``svd``, with or without vectors) made
    during the test at the package's one LAPACK site, ``matcore._lapack``; the
    test starts with the state and polar-pair memos empty, so counts are cold."""
    matcore._decompose.cache_clear()
    geodesy._polar_pair.cache_clear()
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    kinds = {"eigh_lo": "eigh", "svd_f": "svd", "svd": "svd"}
    original = matcore._lapack

    def counted(routine, a):
        counts[kinds[routine]] += 1
        return original(routine, a)

    monkeypatch.setattr(matcore, "_lapack", counted)
    return counts


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def random_density(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    """Hilbert-Schmidt random state, optionally mixed with I/N for a spectral floor."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if floor:
        rho = (1.0 - floor) * rho + floor * np.eye(n) / n
    return (rho + rho.conj().T) / 2


def conditioned_density(rng: np.random.Generator, n: int, ratio: float) -> np.ndarray:
    """Random state whose spectrum has lambda_min / lambda_max = ratio."""
    w = np.sort(rng.uniform(size=n))
    w = ratio + (1.0 - ratio) * (w - w[0]) / (w[-1] - w[0])
    w /= w.sum()
    u = random_unitary(rng, n)
    rho = (u * w) @ u.conj().T
    return (rho + rho.conj().T) / 2


def random_state_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def random_traceless_hermitian(rng: np.random.Generator, n: int,
                               norm: float | None = None) -> np.ndarray:
    h = random_hermitian(rng, n)
    h -= np.trace(h).real * np.eye(n) / n
    if norm is not None:
        h *= norm / np.linalg.norm(h)
    return h


def random_bloch(rng: np.random.Generator, basis, floor: float = 0.15) -> np.ndarray:
    """Coordinates of a random full-rank state, guaranteed inside the body."""
    from buresgeo import sun
    rho = random_density(rng, basis.dim, floor=floor)
    _, x = sun.coefficients(rho, basis)
    return x


def random_tangent(rng: np.random.Generator, basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, drho, G): a random full-rank state rho = expand(1, x), a random
    traceless variation drho = expand(0, xdot), and the generator G that
    ``sun.solve_tangent_G`` solves from them, G rho + rho G = drho."""
    from buresgeo import sun
    x = random_bloch(rng, basis)
    _, xdot = sun.coefficients(random_traceless_hermitian(rng, basis.dim), basis)
    return (sun.expand(1.0, x, basis), sun.expand(0.0, xdot, basis),
            sun.solve_tangent_G(x, xdot, basis).matrix)
