"""The content-keyed decomposition memo of ``matcore`` and the polar-pair memo of ``geodesy``.

A state is looked up by the exact bytes of its matrix, so in-place changes
are seen; refusals and tolerance checks run on every call; both memos stay
within their fixed sizes; and the read-only arrays they share give
bit-identical results when many threads use them at once.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states
from conftest import random_density

THREADS = 4


def _clear_memos():
    matcore._decompose.cache_clear()
    geodesy._polar_pair.cache_clear()


def _in_threads(work, args):
    """work(arg) for each arg, one thread each, with a short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(work, arg) for arg in args]
            return [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def test_in_place_change_is_seen():
    rng = np.random.default_rng(110)
    rho, other, sigma = (random_density(rng, 4, floor=0.1) for _ in range(3))
    before = geodesy.root_fidelity(rho, sigma)
    rho[...] = other
    after = geodesy.root_fidelity(rho, sigma)
    assert after != before
    assert after == geodesy.root_fidelity(other.copy(), sigma)
    assert np.array_equal(geodesy.geometric_mean_operator(rho, sigma).rho1, other)


BAND = np.diag([0.7, 0.3 + 5e-11, -5e-11]).astype(np.complex128)


@pytest.mark.parametrize("rho, error, message", [
    (np.array([[0.5, 0.1], [0.2, 0.5]]), matcore.NotHermitianError, "not Hermitian"),
    (np.diag([0.5, np.nan]), ValueError, "non-finite"),
    (np.diag([0.5, 0.6]), ValueError, "not normalized"),
    (np.diag([1.1, -0.1]), ValueError, "not a state"),
])
def test_refusal_repeats_on_every_call(rho, error, message):
    for _ in range(3):
        with pytest.raises(error, match=message):
            states.admit(rho)
        with pytest.raises(error, match=message):
            geodesy.bures(rho, rho)


def test_square_root_refusal_repeats_on_every_call():
    # Admitted at the default PSD tolerance, but below the clamp of sqrt.
    other = states.maximally_mixed(3)
    for _ in range(3):
        with pytest.raises(matcore.NotPositiveSemidefiniteError):
            geodesy.root_fidelity(BAND, other)


def test_tolerance_is_checked_on_every_call():
    rho = np.diag([0.6, 0.4 + 5e-11]).astype(np.complex128)
    states.admit(rho, trace_tol=1e-10)
    with pytest.raises(ValueError, match="not normalized"):
        states.admit(rho)
    with pytest.raises(ValueError, match="not normalized"):
        geodesy.root_fidelity(rho, rho)
    assert np.array_equal(states.admit(rho, trace_tol=1e-10).matrix, rho)
    states.admit(BAND)
    with pytest.raises(ValueError, match="not a state"):
        states.admit(BAND, psd_tol=1e-11)


def test_memos_stay_within_their_sizes():
    _clear_memos()
    size = matcore._decompose.cache_info().maxsize
    rng = np.random.default_rng(111)
    pool = [random_density(rng, 3, floor=0.1) for _ in range(10 * size)]
    for rho in pool:
        states.admit(rho)
    assert matcore._decompose.cache_info().currsize == size
    for k in range(10 * geodesy.PAIR_MEMO_SIZE):
        geodesy.bures(pool[k], pool[k + 1])
    assert geodesy._polar_pair.cache_info().currsize == geodesy.PAIR_MEMO_SIZE
    assert matcore._decompose.cache_info().currsize == size


def test_shared_arrays_are_read_only():
    rng = np.random.default_rng(112)
    rho1, rho2 = random_density(rng, 4, floor=0.1), random_density(rng, 4, floor=0.1)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    st = states.admit(rho1)
    r, dec = st.matrix, st
    shared = {"rho1": path.rho1, "rho2": path.rho2, "m_star": path.m_star,
              "cross": path.cross, "state": r, "eigenvalues": dec.eigenvalues,
              "eigenvectors": dec.eigenvectors,
              "purification": states.canonical_purification(rho1).matrix}
    for name, a in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert np.array_equal(path.rho1, rho1)


def _pair_values(rho1, rho2):
    summary = geodesy.bures(rho1, rho2)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    mid = geodesy.geodesic_point(path, path.s_star / 2)
    return (summary.root_fidelity, summary.bures_angle, summary.bures_distance,
            path.s_star, path.m_star.tobytes(), path.cross.tobytes(), mid.tobytes(),
            geodesy.root_fidelity(rho1, mid), geodesy.uhlmann_unitary(rho1, rho2).tobytes())


def test_threads_sharing_more_states_than_the_memo_match_a_serial_run():
    rng = np.random.default_rng(113)
    pool = [random_density(rng, 4, floor=0.1) for _ in range(40)]
    assert len(pool) > matcore._decompose.cache_info().maxsize
    pairs = [(pool[k], pool[(7 * k + 3) % len(pool)]) for k in range(len(pool))]
    _clear_memos()
    serial = [_pair_values(*p) for p in pairs]

    def run(shift):
        order = [(k + 10 * shift) % len(pairs) for k in range(len(pairs))] * 2
        return {k: _pair_values(*pairs[k]) for k in order}

    _clear_memos()
    for result in _in_threads(run, range(THREADS)):
        assert [result[k] for k in range(len(pairs))] == serial


def test_one_path_sampled_from_threads_matches_a_serial_run():
    rng = np.random.default_rng(114)
    rho1, rho2 = random_density(rng, 4, floor=0.1), random_density(rng, 4, floor=0.1)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    a0 = states.canonical_purification(rho1)
    grid = np.linspace(0.0, path.s_star, 64)

    def sample(_):
        out = []
        for s in grid:
            rho_s = geodesy.geodesic_point(path, s)
            out.append((rho_s.tobytes(), geodesy.root_fidelity(path.rho1, rho_s),
                        geodesy.horizontal_lift(a0, path, s).matrix.tobytes()))
        return out

    serial = sample(None)
    for result in _in_threads(sample, range(THREADS)):
        assert result == serial


def test_concurrent_first_reads_of_m_star_build_the_same_bytes():
    rng = np.random.default_rng(115)
    rho1, rho2 = random_density(rng, 8, floor=0.1), random_density(rng, 8, floor=0.1)
    serial = geodesy.geometric_mean_operator(rho1, rho2).m_star.tobytes()
    for _ in range(8):
        path = geodesy.geometric_mean_operator(rho1, rho2)
        assert _in_threads(lambda _: path.m_star.tobytes(), range(THREADS)) == [serial] * THREADS
