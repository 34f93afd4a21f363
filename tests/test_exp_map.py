"""Shoot a geodesic from a tangent and recover it: ``sun`` gives the exponential
map of the Bures metric, and ``geodesy`` its inverse.

From a random full-rank state rho and traceless variation drho,
``sun.solve_tangent_G`` gives G with G rho + rho G = drho; Tr[G rho G] is the
squared speed, ``hubner_metric(rho, drho)``. With G^ = G / sqrt(Tr[G rho G]),
``oracles.exp_map`` shoots rho(s) = M rho M, M = cos s I + sin s G^, a unit-speed
geodesic up to the cut angle s_cut = arccot(-l_min(G^)), where M stops being
PSD. Rebuilding the path from rho and rho(s) must give back s* = s, the initial
tangent G0 = (M* - cos s* I) / sin s* = G^ and the root fidelity cos s; the path
from rho(s) back to rho is the same curve run backwards. Past the cut the
minimal geodesic is shorter than s.

Bounds: about twice the worst over 200 draws per N at the s below, one BLAS
thread, numpy 2.4, in units of eps. The errors grow towards the cut as
1 / (1 - s / s_cut), the eigenvalues of rho(s) that M squeezes towards zero,
and the tangent's as 1 / sin s as well, the division of G0; each bound carries
those factors. The worst at half the cut were 1.1e-15 in s*, 4.0e-14 in G0 and
1.7e-15 in cos s.
"""

import math

import numpy as np
import pytest

from buresgeo import geodesy, sun
from conftest import random_tangent
import oracles

DIMS = [2, 3, 4, 8]
DRAWS = 10
EPS = np.finfo(float).eps
SMALL_S = [1e-8, 1e-4]                          # absolute
CUT_FRACTIONS = [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99]
ANGLE_BOUND = 8 * EPS      # times 1 / (1 - s / s_cut); worst 4.1 eps (3.2 reversed)
TANGENT_BOUND = 64 * EPS   # max entry, times 1 / (sin s (1 - s / s_cut)); worst 28 eps
FIDELITY_BOUND = 16 * EPS  # times 1 / (1 - s / s_cut); worst 8.0 eps
METRIC_BOUND = 32 * EPS    # relative; worst 14 eps
REVERSAL_BOUND = 8 * EPS   # max entry of rho(s) against the reversed path; worst 4.0 eps


def _draws(n):
    """(rho, drho, G, G^, s_cut) for each draw."""
    basis = sun.generator_basis(n)
    for draw in range(DRAWS):
        rho, drho, g = random_tangent(np.random.default_rng([11, n, draw]), basis)
        g_hat = g / math.sqrt(float(np.trace(g @ rho @ g).real))
        yield rho, drho, g, g_hat, oracles.cut_angle(g_hat)


def _shots(n):
    """(rho, G^, s_cut, s) for each draw and each s of the grid."""
    for rho, _, _, g_hat, cut in _draws(n):
        for s in SMALL_S + [f * cut for f in CUT_FRACTIONS]:
            yield rho, g_hat, cut, s


@pytest.mark.parametrize("n", DIMS)
def test_the_metric_is_the_squared_speed(n):
    for rho, drho, g, *_ in _draws(n):
        speed2 = float(np.trace(g @ rho @ g).real)
        assert abs(geodesy.hubner_metric(rho, drho) - speed2) <= METRIC_BOUND * speed2


@pytest.mark.parametrize("n", DIMS)
def test_a_shot_geodesic_is_recovered(n):
    for rho, g_hat, cut, s in _shots(n):
        far = 1.0 - s / cut
        rho_s = oracles.exp_map(rho, g_hat, s)
        path = geodesy.geometric_mean_operator(rho, rho_s)
        assert abs(path.s_star - s) <= ANGLE_BOUND / far
        tangent = geodesy.initial_tangent(path)
        assert np.abs(tangent - g_hat).max() <= TANGENT_BOUND / (math.sin(s) * far)
        assert abs(geodesy.root_fidelity(rho, rho_s) - math.cos(s)) <= FIDELITY_BOUND / far


@pytest.mark.parametrize("n", DIMS)
def test_the_reversed_path_runs_the_same_curve_backwards(n):
    for rho, g_hat, cut, s in _shots(n):
        rho_s = oracles.exp_map(rho, g_hat, s)
        forward = geodesy.geometric_mean_operator(rho, rho_s)
        backward = geodesy.geometric_mean_operator(rho_s, rho)
        assert abs(backward.s_star - s) <= ANGLE_BOUND / (1.0 - s / cut)
        for t in (0.3, 0.7):
            there = geodesy.geodesic_point(forward, t * forward.s_star)
            back = geodesy.geodesic_point(backward, (1.0 - t) * backward.s_star)
            assert np.abs(there - back).max() <= REVERSAL_BOUND


@pytest.mark.parametrize("n", DIMS)
def test_past_the_cut_the_minimal_geodesic_is_shorter(n):
    for rho, _, _, g_hat, cut in _draws(n):
        s = 1.1 * cut
        assert geodesy.geometric_mean_operator(rho, oracles.exp_map(rho, g_hat, s)).s_star < s
