"""The lift of the start's own root is the great circle f(s) A1 + g(s) A2.

A1 = sqrt(rho1) and the parallel root A2 = ``path.a2`` satisfy A1^dag A2 >= 0,
so A(s) = f A1 + g A2 is horizontal and projects onto rho(s). Where M* exists
it maps A1 to A2 and the great circle is M(s) A1; where it does not (rank
rho1 < rank rho2) the great circle is still the lift.

Bounds, in units of eps = 2.2e-16, are four to five times the worst measured
on these draws and on 29 other seed sets of the same ensembles (N in
{2, 3, 4, 8}, 40 full-rank and 40 half-rank pairs per N, 25 rank-raising pairs
per N, 5 points each):

- agreement with M(s) A1: 1.1e-14 worst, bound 200 eps (4.4e-14);
- projection |A A^dag - rho(s)|: 2.4e-15 worst, bound 50 eps (1.1e-14);
- Hermiticity of A1^dag A(s): 2.4e-15 worst, bound 50 eps (1.1e-14);
- on rank-raising paths: 2.2e-15 and 1.1e-15 worst, bounds 50 eps and 25 eps.
"""

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states
import oracles
from conftest import random_density, random_unitary

EPS = np.finfo(float).eps
SIZES = (2, 3, 4, 8)


def _half_rank(rng, n):
    k = max(n // 2, 1)
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _max(a) -> float:
    return float(np.max(np.abs(a)))


def _lifts(path, rho1):
    """(s, trusted lift, A1) at 5 points of the path."""
    a1 = states.canonical_purification(rho1)
    assert a1.matrix is path.start.sqrt
    for s in np.linspace(0.0, path.s_star, 5):
        yield s, geodesy.horizontal_lift(a1, path, s).matrix, a1.matrix


def _hermitian_defect(a1, lift) -> float:
    k = a1.conj().T @ lift
    return _max(k - k.conj().T)


@pytest.mark.parametrize("kind", ["full", "half"])
@pytest.mark.parametrize("n", SIZES)
def test_the_great_circle_is_the_transported_root_where_m_star_exists(n, kind):
    rng = np.random.default_rng([0, n, kind == "half"])
    draw = (lambda: random_density(rng, n)) if kind == "full" else (lambda: _half_rank(rng, n))
    for _ in range(40):
        rho1, rho2 = draw(), draw()
        path = geodesy.geometric_mean_operator(rho1, rho2)
        assert path.m_star is not None
        for s, lift, a1 in _lifts(path, rho1):
            assert _max(lift - geodesy.transport_operator(path, s) @ a1) <= 200 * EPS
            assert _max(oracles.project(lift) - geodesy.geodesic_point(path, s)) <= 50 * EPS
            assert _hermitian_defect(a1, lift) <= 50 * EPS


@pytest.mark.parametrize("n", SIZES)
def test_the_great_circle_lifts_rank_raising_paths(n):
    rng = np.random.default_rng([0, n, 2])
    for _ in range(25):
        rho1, rho2 = _half_rank(rng, n), random_density(rng, n)
        path = geodesy.geometric_mean_operator(rho1, rho2)
        assert path.m_star is None
        for s, lift, a1 in _lifts(path, rho1):
            assert _max(oracles.project(lift) - geodesy.geodesic_point(path, s)) <= 50 * EPS
            assert _hermitian_defect(a1, lift) <= 25 * EPS


def test_a_gauged_root_of_a_rank_raising_path_is_still_refused():
    rng = np.random.default_rng(2101)
    rho1, rho2 = _half_rank(rng, 4), random_density(rng, 4)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    trusted = states.canonical_purification(rho1)
    lift = geodesy.horizontal_lift(trusted, path, path.s_star)
    assert _max(oracles.project(lift.matrix) - path.rho2) <= 50 * EPS
    gauged = states.canonical_purification(rho1, gauge=random_unitary(rng, 4))
    with pytest.raises(geodesy.GeodesicUndefinedError,
                       match=r"no M\*: rank rho1 = 2 < rank rho2 = 4"):
        geodesy.horizontal_lift(gauged, path, 0.1)


def test_a_sampled_point_costs_one_eigh_and_one_svd_and_the_lift_none(solver_counts):
    rng = np.random.default_rng(2102)
    rho1, rho2 = random_density(rng, 4, floor=0.1), random_density(rng, 4, floor=0.1)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    a0 = states.canonical_purification(rho1)
    s = path.s_star / 3
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    rho_s = geodesy.geodesic_point(path, s)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}
    geodesy.root_fidelity(path.rho1, rho_s)
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 1}
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    geodesy.horizontal_lift(a0, path, s)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}
    assert "m_star" not in vars(path)


def test_transport_coefficients_have_the_bytes_of_numpy_sin():
    # f and g are taken with math.sin; a seeded draw over the geodesic range,
    # ends and small angles included, shows that np.sin gives the same bytes.
    rng = np.random.default_rng(2103)
    s_stars = np.concatenate([rng.uniform(0.0, np.pi / 2, 2000), rng.uniform(0.0, 1e-6, 200),
                              [np.pi / 2, 1e-300, 5e-324]])
    for s_star in s_stars.tolist():
        for s in (0.0, s_star * rng.uniform(), s_star):
            sin_star = np.sin(s_star)
            want = (float(np.sin(s_star - s) / sin_star), float(np.sin(s) / sin_star))
            got = geodesy.transport_coefficients(s, s_star)
            assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("s_star", [np.inf, np.nan, -0.5, np.pi / 2 + 1e-9, 4.0, np.pi])
def test_transport_coefficients_refuse_an_s_star_that_is_no_angle(s_star):
    # math.sin(inf) would raise "math domain error", which names nothing. Past
    # pi/2 no s* is a Bures angle: 4.0 gave f, g = (-0.186, -1.112) at s = 1, and
    # pi, whose sine is roundoff, gave 6.87e15 twice.
    with pytest.raises(ValueError, match=r"^s_star = .* is not a Bures angle in \[0, pi/2\]$"):
        geodesy.transport_coefficients(1.0, s_star)


def test_a_path_whose_angle_passes_pi_over_2_samples():
    # admit takes eigenvalues down to -ADMIT_TOL. The roots clip them, so the
    # angle of this nearly orthogonal pair is 9e-11 past pi/2, and the path
    # samples at that s* as it is; only a direct call refuses it.
    t = 1e-11
    u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    rho2 = u @ np.diag([-1e-10, 1 + 1e-10]) @ u.T
    path = geodesy.geometric_mean_operator(np.diag([1 + 1e-10, -1e-10]), (rho2 + rho2.T) / 2)
    assert path.s_star > np.pi / 2 + matcore.ROUNDOFF
    assert np.array_equal(geodesy.geodesic_point(path, path.s_star), path.rho2)
    assert geodesy._points(path, [0.0, path.s_star / 2]).shape == (2, 2, 2)
    with pytest.raises(ValueError, match=r"is not a Bures angle"):
        geodesy.transport_coefficients(0.0, path.s_star)


@pytest.mark.parametrize("s_star", ["x", None, True, np.array([0.1, 0.2])],
                         ids=["string", "none", "bool", "vector"])
def test_transport_coefficients_refuse_an_s_star_that_is_no_real_scalar(s_star):
    # s* is coerced as s is: by name, not as a TypeError, numpy's truth-value
    # error, or a bool read as the angle 1.
    with pytest.raises(ValueError, match=r"^s_star = .* is not a real scalar$"):
        geodesy.transport_coefficients(0.0, s_star)
