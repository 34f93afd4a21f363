"""``horizontal_lift`` trusts only the start's own root and checks every other a0.

The lift skips the a0 projection check when the matrix of a0 has the content of
``path.start.sqrt``, which ``canonical_purification(rho1)`` returns without a
gauge: that array itself (tested first), a raw copy of it, or the root of a
re-decomposition after the state memo evicted rho1. The skip never hides a
refusal: that root's explicit defect stays two orders below ``ADMIT_TOL`` on
random, ill-conditioned, rank-deficient and pure states up to N = 64. Any other
a0 (gauged, or of other content) is checked as before, the lift's result keeps
its own Purification check, and the bytes of the lift equal the always-checking
formula of ``oracles.checked_horizontal_lift``: the great circle f A1 + g A2 for
the start root's content, M(s) a0 for any other.
"""

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states
import oracles
from conftest import (conditioned_density, random_density, random_state_vector,
                      random_unitary)

SIZES = (2, 4, 8, 16, 64)
KINDS = ("random", "cond-1e-12", "cond-1e-15", "rank-deficient", "pure")


def _state(rng, n, kind):
    if kind == "random":
        return random_density(rng, n)
    if kind.startswith("cond"):
        return conditioned_density(rng, n, float(kind[5:]))
    if kind == "pure":
        return states.pure_density(random_state_vector(rng, n))
    g = rng.normal(size=(n, n // 2)) + 1j * rng.normal(size=(n, n // 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _path(rng, n, kind):
    """A path whose start is of the given kind, to a random state from a random
    start and to a pure state otherwise, so that M* exists (rank rho2 <= rank rho1
    also when the conditioning puts the smallest eigenvalue at the clamp)."""
    rho1 = _state(rng, n, kind)
    rho2 = _state(rng, n, "random" if kind == "random" else "pure")
    return rho1, geodesy.geometric_mean_operator(rho1, rho2)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_the_trusted_root_purifies_its_state_well_inside_the_tolerance(n, kind):
    rng = np.random.default_rng([1810, n, KINDS.index(kind)])
    for _ in range(3):
        rho = _state(rng, n, kind)
        st = states.admit(rho)
        a = states.canonical_purification(rho).matrix
        assert a is st.sqrt
        assert float(np.max(np.abs(a @ a.conj().T - st.matrix))) <= matcore.ADMIT_TOL / 100


def _starts(rng, rho1, path):
    """Every kind of a0 the lift accepts, by name."""
    root = states.canonical_purification(rho1)
    n = rho1.shape[0]
    return {"trusted": root,
            "gauged": states.canonical_purification(rho1, gauge=random_unitary(rng, n)),
            "raw": path.start.sqrt.copy(),
            "copy": states.Purification(matrix=root.matrix.copy(), target=root.target)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", (2, 4, 8, 16))
def test_lift_bytes_equal_the_checking_formula(n, kind):
    rng = np.random.default_rng([1811, n, KINDS.index(kind)])
    rho1, path = _path(rng, n, kind)
    for name, a0 in _starts(rng, rho1, path).items():
        for s in (0.0, path.s_star / 3, path.s_star):
            got = geodesy.horizontal_lift(a0, path, s)
            want = oracles.checked_horizontal_lift(a0, path, s)
            assert got.matrix.tobytes() == want.matrix.tobytes(), (name, s)
            assert got.target.tobytes() == want.target.tobytes(), (name, s)


def test_only_the_start_roots_content_skips_the_check(monkeypatch):
    # With a tolerance no defect meets, a checked a0 is refused for not
    # projecting, while an a0 of the start root's content reaches the result's
    # own check, whichever array holds it.
    rng = np.random.default_rng(1812)
    rho1, path = _path(rng, 4, "random")
    starts = _starts(rng, rho1, path)
    matcore._decompose.cache_clear()
    starts["re-decomposed"] = states.canonical_purification(rho1)  # equal, another array
    assert starts["re-decomposed"].matrix is not path.start.sqrt
    monkeypatch.setattr(matcore, "ADMIT_TOL", -1.0)
    with pytest.raises(ValueError, match="^a0 does not purify the target"):
        geodesy.horizontal_lift(starts.pop("gauged"), path, 0.1)
    for name, a0 in starts.items():
        with pytest.raises(ValueError, match="^matrix does not purify the target"):
            geodesy.horizontal_lift(a0, path, 0.1)


@pytest.mark.parametrize("raising", [True, False], ids=["rank-raising", "full-rank"])
def test_a_memo_eviction_leaves_the_lift_unchanged(raising):
    # Unrelated admissions evict rho1 from the 32-entry state memo, so
    # canonical_purification(rho1) returns the root of a fresh decomposition:
    # equal content, another array. Its lift is the start root's great circle,
    # which exists on a rank-raising path too (rank rho1 = 2 < rank rho2 = 4).
    rng = np.random.default_rng(1814)
    rho1 = _state(rng, 4, "rank-deficient" if raising else "random")
    path = geodesy.geometric_mean_operator(rho1, _state(rng, 4, "random"))
    assert (path.m_star is None) is raising
    grid = (0.0, path.s_star / 3, path.s_star)
    fresh = [geodesy.horizontal_lift(path.start.sqrt, path, s).matrix.tobytes() for s in grid]
    for _ in range(40):
        states.admit(random_density(rng, 3))
    a0 = states.canonical_purification(rho1)
    assert a0.matrix is not path.start.sqrt
    for s, want in zip(grid, fresh):
        assert geodesy.horizontal_lift(a0, path, s).matrix.tobytes() == want


@pytest.mark.parametrize("n", (2, 4, 8))
def test_a_purification_of_nested_lists_lifts_as_its_arrays(n):
    # Purification keeps the complex128 arrays it checked, so a start built
    # from nested lists lifts with the bytes of the ndarray start, while the
    # start root keeps its identity and the lift's target is the path's sample.
    rng = np.random.default_rng([1815, n])
    rho1, path = _path(rng, n, "random")
    root = states.canonical_purification(rho1)
    assert root.matrix is path.start.sqrt
    gauged = states.canonical_purification(rho1, gauge=random_unitary(rng, n))
    for a0 in (root, gauged):
        listed = states.Purification(matrix=a0.matrix.tolist(), target=a0.target.tolist())
        for s in (0.0, path.s_star / 3, path.s_star):
            want = geodesy.horizontal_lift(a0, path, s)
            got = geodesy.horizontal_lift(listed, path, s)
            assert got.matrix.tobytes() == want.matrix.tobytes(), s
            assert got.target is path._sample(s)[2] and not got.target.flags.writeable


def test_a_wrong_start_is_still_refused():
    rng = np.random.default_rng(1813)
    rho1, path = _path(rng, 4, "random")
    for a0 in (states.canonical_purification(path.rho2),
               states.canonical_purification(path.rho2).matrix,
               states.canonical_purification(rho1).matrix[::-1]):
        with pytest.raises(ValueError, match="^a0 does not purify the target state"):
            geodesy.horizontal_lift(a0, path, 0.1)
