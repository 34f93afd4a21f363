"""A geodesic point is sampled once: one rho(s) per (path, s).

A ``GeodesicPath`` keeps its last sample, f(s), g(s) and the read-only rho(s),
keyed on the bits of the coerced s. ``geodesic_point`` returns a writable copy
of it and ``horizontal_lift`` takes its coefficients and its target from it,
so the path-sampling sequence (the point, its root fidelity to the start and
the lift, all at one s) evaluates rho(s) once. Every value keeps the bytes of
the formula evaluated afresh on each call, refusals never fill the slot, and
threads that overwrite each other's sample only recompute it.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states
from conftest import random_density, random_unitary

THREADS = 4


def _fresh_point(path, s):
    """rho(s) = f^2 rho1 + f g C + g^2 rho2, evaluated afresh in the order of
    ``geodesy._point``: the formula every sample must equal byte for byte."""
    f, g = geodesy.transport_coefficients(s, path.s_star)
    rho = path.rho1 * (f * f)
    term = path.cross * (f * g)
    rho += term
    rho += np.multiply(path.rho2, g * g, out=term)
    return rho


def _fresh_lift(a0, path, s):
    """The lift evaluated afresh: f A1 + g A2 for the start root, else M(s) A(0)."""
    f, g = geodesy.transport_coefficients(s, path.s_star)
    if a0.matrix is path.start.sqrt:
        lift = path.a2 * g
        lift += a0.matrix * f
        return lift
    m = g * path.m_star
    m.flat[::m.shape[0] + 1] += f
    return m @ a0.matrix


def _half_rank(rng, n):
    g = rng.normal(size=(n, n // 2)) + 1j * rng.normal(size=(n, n // 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# name -> endpoints: full-rank pairs at N = 2, 3, 4, 8, a rank-raising pair and
# the orthogonal pure pair (GHZ to W).
PAIRS = {
    **{f"n{n}": (lambda rng, n=n: (random_density(rng, n, 0.1), random_density(rng, n, 0.1)))
       for n in (2, 3, 4, 8)},
    "rank-raising": lambda rng: (_half_rank(rng, 4), random_density(rng, 4)),
    "orthogonal": lambda rng: (states.pure_density(states.ghz_state()),
                               states.pure_density(states.w_state())),
}


def _path(name):
    """A new path between the seeded endpoints ``PAIRS[name]``."""
    return geodesy.geometric_mean_operator(*PAIRS[name](np.random.default_rng(2801)))


def _grid(path):
    """s = 0.0, -0.0, the ends within ROUNDOFF / 2, s* and seeded interior points,
    with repeats, so samples hit and miss the slot in every order."""
    s_star, half = path.s_star, matcore.ROUNDOFF / 2
    inner = np.random.default_rng(2802).uniform(0.0, s_star, 6).tolist()
    return [0.0, -0.0, 0.0, -half, half, *inner, inner[2], s_star - half, s_star,
            s_star + half, s_star, np.float64(inner[0]), inner[0]]


def _bytes(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + bytes(str(a.shape), "ascii") + a.tobytes()


def test_the_sampling_sequence_evaluates_the_point_once(solver_counts, monkeypatch):
    rng = np.random.default_rng(2803)
    rho1, rho2 = random_density(rng, 4, floor=0.1), random_density(rng, 4, floor=0.1)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    trusted = states.canonical_purification(rho1)
    gauged = states.canonical_purification(rho1, gauge=random_unitary(rng, 4))
    points, coefficients = [], []
    point, coeffs = geodesy._point, geodesy.transport_coefficients
    monkeypatch.setattr(geodesy, "_point", lambda *a: points.append(a) or point(*a))
    monkeypatch.setattr(geodesy, "transport_coefficients",
                        lambda *a: coefficients.append(a) or coeffs(*a))
    for k, a0 in enumerate((trusted, gauged, trusted)):
        s = path.s_star * (k + 1) / 4
        points.clear()
        coefficients.clear()
        solver_counts.update(dict.fromkeys(solver_counts, 0))
        rho_s = geodesy.geodesic_point(path, s)
        sf = geodesy.root_fidelity(path.rho1, rho_s)
        lift = geodesy.horizontal_lift(a0, path, s)
        assert len(points) == 1 and len(coefficients) == 1
        assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 1}
        assert abs(sf - math.cos(s)) <= 1e-12
        assert lift.target.tobytes() == rho_s.tobytes()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_points_and_lifts_have_the_bytes_of_the_fresh_formula(name):
    path = _path(name)
    rho1 = path.rho1
    roots = [states.canonical_purification(rho1)]
    if path.m_star is not None:
        gauge = random_unitary(np.random.default_rng(2804), path.dim)
        roots.append(states.canonical_purification(rho1, gauge=gauge))
    assert roots[0].matrix is path.start.sqrt
    for s in _grid(path):
        for a0 in roots:
            want = _bytes(_fresh_point(path, s))
            # Lift first, then the point, then the lift again: slot misses and hits.
            first = geodesy.horizontal_lift(a0, path, s)
            assert _bytes(geodesy.geodesic_point(path, s)) == want, s
            again = geodesy.horizontal_lift(a0, path, s)
            for lift in (first, again):
                assert _bytes(lift.target) == want, s
                assert _bytes(lift.matrix) == _bytes(_fresh_lift(a0, path, s)), s


def test_minus_zero_and_zero_never_share_the_sample():
    path = _path("n4")
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        geodesy.geodesic_point(path, first)
        f, g, _ = path._sample(second)
        assert (f, g) == geodesy.transport_coefficients(second, path.s_star)
        assert math.copysign(1.0, g) == math.copysign(1.0, second)


def test_a_returned_point_is_writable_and_its_own():
    path = _path("n4")
    a0 = states.canonical_purification(path.rho1)
    s = path.s_star / 3
    want = _bytes(_fresh_point(path, s))
    rho_s = geodesy.geodesic_point(path, s)
    assert rho_s.flags.writeable
    rho_s[...] = 7.0
    lift = geodesy.horizontal_lift(a0, path, s)
    assert _bytes(lift.target) == want
    assert not lift.target.flags.writeable
    other = geodesy.geodesic_point(path, s)
    assert other.flags.writeable and _bytes(other) == want
    other[0, 0] = np.nan
    assert _bytes(geodesy.geodesic_point(path, s)) == want
    assert _bytes(geodesy.horizontal_lift(a0, path, s).target) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3, "s_star + 1e-3", "0.1"])
def test_refused_s_refuses_every_time_and_never_fills_the_slot(bad):
    rng = np.random.default_rng(2805)
    path = geodesy.geometric_mean_operator(random_density(rng, 4, 0.1),
                                           random_density(rng, 4, 0.1))
    a0 = states.canonical_purification(path.rho1)
    if bad == "s_star + 1e-3":
        bad = path.s_star + 1e-3
    for _ in range(2):
        for call in (lambda: geodesy.geodesic_point(path, bad),
                     lambda: geodesy.horizontal_lift(a0, path, bad)):
            with pytest.raises(ValueError, match=r"^s = .* (outside the geodesic range|is "
                                                 r"not a real scalar)"):
                call()
            assert "_last_sample" not in vars(path)
    geodesy.geodesic_point(path, path.s_star / 2)
    kept = vars(path)["_last_sample"]
    with pytest.raises(ValueError):
        geodesy.horizontal_lift(a0, path, bad)
    assert vars(path)["_last_sample"] is kept


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


def test_threads_sampling_one_path_get_the_serial_bytes():
    path = _path("n4")
    a0 = states.canonical_purification(path.rho1)
    grid = np.linspace(0.0, path.s_star, 24).tolist()

    def sample(s):
        rho_s = geodesy.geodesic_point(path, s)
        sf = geodesy.root_fidelity(path.rho1, rho_s)
        lift = geodesy.horizontal_lift(a0, path, s)
        return _bytes(rho_s), sf.hex(), _bytes(lift.matrix), _bytes(lift.target)

    serial = {s: sample(s) for s in grid}

    def work(k):
        # Thread k walks the grid from its own offset, so the threads sample
        # interleaved s and keep replacing each other's sample.
        order = grid[k:] + grid[:k]
        return [(s, sample(s)) for _ in range(3) for s in order]

    for results in _in_threads(work, range(THREADS)):
        for s, got in results:
            assert got == serial[s], s
