"""The relations of the Bures geometry, as a property contract.

None of these needs a reference value, so they reach non-commuting and
ill-conditioned pairs at any N:
- unitary covariance: conjugating both endpoints by U leaves sqrt(F) and s*
  unchanged and conjugates rho(s) and the start root's lift;
- the triangle inequality of the Bures angle, sharpest with a third state
  just off the geodesic (here 1e-9 off its midpoint);
- monotonicity of sqrt(F) under a partial trace over one qubit (the
  data-processing inequality; Nielsen & Chuang, Thm 9.6);
- the Fuchs-van de Graaf bounds 1 - sqrt(F) <= D_tr <= sqrt(1 - F), with
  D_tr = ||rho1 - rho2||_1 / 2.

Both endpoints of a draw are of one kind: random (Hilbert-Schmidt), a
spectrum 10^U(-12, 0), half rank (a product g g^dag, so the kernel carries
roundoff) or pure, at N in {2, 4, 8, 16}. Covariance is bounded by c eps
sqrt(kappa), where kappa = l_max / l_min over the eigenvalues above the
spectral zero of the worse endpoint: the rotated input carries rounding of
eps ||rho||, which the square roots amplify by up to about 1 / sqrt(l_min). The
other relations are bounded by c eps. Each c is about twice the worst over
200 seeded draws per kind and N (worst, in those units: sqrt(F) 7, s* 11,
rho(s*/2) 24, lift 27 off the spectrum kind, triangle 3.5, data processing 0,
Fuchs-van de Graaf 0 below and 23 above, the last at pure qubit pairs, where
it is an equality).

FOUND, pinned by a strict xfail: the start root's lift is covariant only
within about eps kappa on the 10^U(-12, 0) kind. 27 of 600 draws at N = 4, 8
and 16 exceed 56 eps sqrt(kappa), up to 1.8e3 eps sqrt(kappa), while none
exceeds 1.5 eps kappa; sqrt(F), s* and rho(s) of the same draws stay within
2.3 eps sqrt(kappa). The lift's parallel root carries the polar factor of
B = sqrt(rho1) sqrt(rho2), which is conditioned like kappa, as M* is.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from buresgeo import geodesy, states
from conftest import random_density, random_state_vector, random_unitary

EPS = np.finfo(float).eps
KINDS = ("random", "spectrum", "half-rank", "pure")
SIZES = (2, 4, 8, 16)
DRAW = st.tuples(st.sampled_from(KINDS), st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
C_FIDELITY, C_ANGLE, C_POINT, C_LIFT = 16, 24, 48, 56  # units of eps sqrt(kappa)
C_TRIANGLE, C_DATA_PROCESSING, C_FVDG_BELOW, C_FVDG_ABOVE = 8, 2, 2, 48  # units of eps


def _state(rng, kind, n):
    if kind == "random":
        return random_density(rng, n)
    if kind == "pure":
        return states.pure_density(random_state_vector(rng, n))
    if kind == "half-rank":
        g = rng.normal(size=(n, max(1, n // 2))) + 1j * rng.normal(size=(n, max(1, n // 2)))
        m = g @ g.conj().T
        return (m + m.conj().T) / 2 / np.trace(m).real
    w = 10.0 ** rng.uniform(-12, 0, size=n)
    u = random_unitary(rng, n)
    rho = (u * (w / w.sum())) @ u.conj().T
    return (rho + rho.conj().T) / 2


def _pair(draw):
    kind, n, seed = draw
    rng = np.random.default_rng(seed)
    return rng, _state(rng, kind, n), _state(rng, kind, n)


def _kappa(*rhos) -> float:
    """The largest l_max / l_min over the eigenvalues above the spectral zero."""
    worst = 1.0
    for rho in rhos:
        dec = states.admit(rho)
        worst = max(worst, dec.eigenvalues[-1] / dec.eigenvalues[-dec.rank])
    return worst


def _rotated(rng, rho1, rho2):
    """(scale, path, rotated path, U): c eps sqrt(kappa) at c = 1, the path and the
    path between U rho1 U^dag and U rho2 U^dag for a random unitary U."""
    u = random_unitary(rng, rho1.shape[0])
    scale = EPS * np.sqrt(_kappa(rho1, rho2))
    return (scale, geodesy.geometric_mean_operator(rho1, rho2),
            geodesy.geometric_mean_operator(u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T), u)


def _midpoint_lift(path):
    a0 = states.canonical_purification(path.rho1)
    return geodesy.horizontal_lift(a0, path, path.s_star / 2).matrix


@settings(max_examples=60)
@given(DRAW)
def test_unitary_covariance(draw):
    rng, rho1, rho2 = _pair(draw)
    scale, path, turned, u = _rotated(rng, rho1, rho2)
    assert abs(geodesy.root_fidelity(turned.rho1, turned.rho2)
               - geodesy.root_fidelity(rho1, rho2)) <= C_FIDELITY * scale
    assert abs(turned.s_star - path.s_star) <= C_ANGLE * scale
    point = geodesy.geodesic_point(path, path.s_star / 2)
    error = np.abs(u @ point @ u.conj().T - geodesy.geodesic_point(turned, turned.s_star / 2))
    assert error.max() <= C_POINT * scale
    if draw[0] != "spectrum":  # the FOUND below
        error = np.abs(u @ _midpoint_lift(path) @ u.conj().T - _midpoint_lift(turned))
        assert error.max() <= C_LIFT * scale


@pytest.mark.xfail(strict=True, reason="FOUND: the start root's lift is covariant only "
                   "within about eps kappa on the 10^U(-12, 0) kind")
def test_the_lift_is_covariant_on_the_spectrum_kind():
    rng = np.random.default_rng([47, 4])
    rho1, rho2 = _state(rng, "spectrum", 4), _state(rng, "spectrum", 4)
    scale, path, turned, u = _rotated(rng, rho1, rho2)
    error = np.abs(u @ _midpoint_lift(path) @ u.conj().T - _midpoint_lift(turned))
    assert error.max() <= C_LIFT * scale


@settings(max_examples=60)
@given(DRAW)
def test_triangle_inequality_off_the_midpoint(draw):
    rng, rho1, rho2 = _pair(draw)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    third = (1.0 - 1e-9) * geodesy.geodesic_point(path, path.s_star / 2)
    third += 1e-9 * random_density(rng, rho1.shape[0])
    third = (third + third.conj().T) / 2
    excess = (geodesy.bures(rho1, rho2).bures_angle - geodesy.bures(rho1, third).bures_angle
              - geodesy.bures(third, rho2).bures_angle)
    assert excess <= C_TRIANGLE * EPS


@settings(max_examples=60)
@given(DRAW.filter(lambda draw: draw[1] >= 4))
def test_root_fidelity_grows_under_a_partial_trace(draw):
    _, rho1, rho2 = _pair(draw)
    n = rho1.shape[0]

    def reduced(rho):  # the trace over the last qubit
        return np.einsum("ajbj->ab", rho.reshape(n // 2, 2, n // 2, 2))

    loss = geodesy.root_fidelity(rho1, rho2) - geodesy.root_fidelity(reduced(rho1),
                                                                      reduced(rho2))
    assert loss <= C_DATA_PROCESSING * EPS


@settings(max_examples=60)
@given(DRAW)
def test_fuchs_van_de_graaf_bounds(draw):
    _, rho1, rho2 = _pair(draw)
    sqrt_f = geodesy.root_fidelity(rho1, rho2)
    trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum()
    assert 1.0 - sqrt_f <= trace_distance + C_FVDG_BELOW * EPS
    assert trace_distance <= np.sqrt(max(1.0 - sqrt_f * sqrt_f, 0.0)) + C_FVDG_ABOVE * EPS
