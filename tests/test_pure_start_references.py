"""The geodesic from a pure state against exact non-commuting references at N = 4, 16, 64.

The pair runs from P = e0 e0^dag to a dyadic Walsh-Hadamard state rho2
(``oracles.dyadic_state``), which float64 holds exactly. e0 is not an
eigenvector of rho2, so the pair does not commute, yet its geodesic needs no
eigensolve (``oracles.pure_start_geodesic``): sqrt(F) = sqrt(rho2[0, 0]), C =
(P rho2 + rho2 P) / sqrt(F), rho(s) = f^2 P + f g C + g^2 rho2 and, on the
reversed pair from rho2 to P, M* = P / sqrt(F), all in long double.

- Forward pair (rank-raising, no M*): ``root_fidelity``, ``bures``, ``cross``,
  ``geodesic_point`` at s*/4, s*/2 and 3s*/4, and the lift through the start
  root P, whose column 0, f e0 + g rho2 e0 / sqrt(F), is fixed (the others
  carry the free gauge of ker B).
- Reversed pair: ``m_star``, ``transport_operator`` and ``initial_tangent``, and
  the lifts through the start root and through a gauged start, each against
  M(s) applied to the library's own start.

Kinds of rho2: random spectra, and spectra with half their eigenvalues at
1/kappa of the largest. The exact M* does not depend on kappa, but the
library's Lyapunov solve loses about kappa eps, so the bounds of M*, M(s) and
G0 carry kappa, and the gauged lift, whose start damps the lost directions,
sqrt(kappa). Every other bound is about twice the worst error measured over
40 draws per kind and size (the tests take the first few). Half the spectrum
at 1.05 to 2.7 times the spectral zero ``CLAMP`` * l_max meets the same bounds;
at 0.45 to 0.95 times it, those eigenvalues count as zero and sqrt(F) is off
by hundreds of eps: an expected failure until the spectral zero is set from
the eigensolver's backward error (ROADMAP item 3).
"""

import numpy as np
import pytest

from buresgeo import geodesy, states
import oracles
from conftest import random_unitary

DIMS = [4, 16, 64]
EPS = np.finfo(float).eps
FRACTIONS = (0.25, 0.5, 0.75)
KINDS = ["random", "cond-1e3", "cond-1e6", "cond-1e9", "above-cut", "below-cut"]
DRAWS = {"random": 4, "cond-1e3": 2, "cond-1e6": 2, "cond-1e9": 2, "above-cut": 2, "below-cut": 2}
CUT_RATIOS = {"above-cut": (1.05, 2.7), "below-cut": (0.45, 0.95)}  # times CLAMP
# In eps, against the worst over 40 draws per kind and size at N = 4, 16, 64
# (one BLAS thread, numpy 2.4).
FIDELITY_BOUND = 8      # worst 4.4 (random, N = 64)
ANGLE_BOUND = 16        # s*, absolute; worst 7.5 (N = 64)
DISTANCE_BOUND = 12     # worst 5.7 (N = 64)
CROSS_BOUND = 6         # max entry; worst 3.5 (cond-1e6, N = 4)
POINT_BOUND = 16        # max entry; worst 4.0 (N = 64)
COLUMN_BOUND = 6        # column 0 of the forward lift; worst 3.0 (N = 64)
ROOT_LIFT_BOUND = 24    # reversed lift through the start root; worst 12.6 (random, N = 64)


def lyapunov_bound(kappa):
    """M* and M(s) times sqrt(F), and G0 times sqrt(F) sin s*: worst 10 + 2 kappa
    (random, N = 16) and 0.57 kappa (cond-1e6, N = 4)."""
    return 20 + 3 * kappa


def gauged_lift_bound(kappa):
    """The reversed lift through a gauged start: worst 3.7 sqrt(kappa) at kappa
    about 2 (random, N = 4) and 0.9 sqrt(kappa) (cond-1e6, N = 4)."""
    return 16 + 2 * np.sqrt(kappa)


def _spread(rng, total, parts):
    """``parts`` positive integers of comparable size summing to ``total``."""
    counts = [int(c) for c in rng.integers(total // (2 * parts), total // parts, size=parts - 1)]
    return counts + [total - sum(counts)]


def _counts(rng, n, kind):
    total = 2**oracles.DYADIC_BITS
    if kind == "random":
        counts = _spread(rng, total, n)
    else:  # half the spectrum at a ratio below the largest eigenvalue
        counts = _spread(rng, total, n // 2)
        ratio = (rng.uniform(*CUT_RATIOS[kind]) * 1e-12 if kind in CUT_RATIOS
                 else 1.0 / float(kind[5:]))
        tiny = int(max(counts) * ratio)
        counts[counts.index(min(counts))] -= tiny * (n // 2)
        counts += [tiny] * (n // 2)
    return [counts[i] for i in rng.permutation(n)]


def _error(got, ref) -> float:
    """max |got - ref| in eps, taken in long double."""
    return float(np.max(np.abs(np.asarray(got).astype(np.clongdouble) - ref))) / EPS


def _check_draw(n, kind, draw):
    rng = np.random.default_rng([17, n, draw, KINDS.index(kind)])
    rho2, a = oracles.dyadic_state(oracles.walsh_hadamard(n), _counts(rng, n, kind))
    kappa = float(max(a) / min(a))
    p = np.zeros((n, n))
    p[0, 0] = 1.0
    sqrt_f, s_star, cross = oracles.pure_start_geodesic(rho2)
    r = rho2.astype(np.longdouble)

    summary = geodesy.bures(p, rho2)
    for got in (geodesy.root_fidelity(p, rho2), summary.root_fidelity):
        assert _error(got, sqrt_f) <= FIDELITY_BOUND
    assert _error(summary.bures_angle, s_star) <= ANGLE_BOUND
    assert _error(summary.bures_distance, 2 * np.sin(s_star / 2)) <= DISTANCE_BOUND

    forward = geodesy.geometric_mean_operator(p, rho2)
    assert forward.m_star is None  # rank P = 1 < rank rho2
    assert _error(forward.s_star, s_star) <= ANGLE_BOUND
    assert _error(forward.cross, cross) <= CROSS_BOUND
    root = states.canonical_purification(p)
    for t in FRACTIONS:
        f, g = oracles.arc_coefficients(s_star, t)
        point = g * g * r + f * g * cross
        point[0, 0] += f * f
        assert _error(geodesy.geodesic_point(forward, t * forward.s_star), point) <= POINT_BOUND
        column = g * r[:, 0] / sqrt_f
        column[0] += f
        lift = geodesy.horizontal_lift(root, forward, t * forward.s_star)
        assert _error(lift.matrix[:, 0], column) <= COLUMN_BOUND

    reverse = geodesy.geometric_mean_operator(rho2, p)
    m_star = np.zeros((n, n), dtype=np.longdouble)
    m_star[0, 0] = 1 / sqrt_f
    assert _error(reverse.m_star, m_star) * sqrt_f <= lyapunov_bound(kappa)
    tangent = np.eye(n, dtype=np.longdouble) * -sqrt_f
    tangent[0, 0] += 1 / sqrt_f
    tangent /= np.sin(s_star)
    assert (_error(geodesy.initial_tangent(reverse), tangent) * sqrt_f * np.sin(s_star)
            <= lyapunov_bound(kappa))
    gauged = states.canonical_purification(rho2, gauge=random_unitary(rng, n))
    starts = ((states.canonical_purification(rho2), ROOT_LIFT_BOUND),
              (gauged, gauged_lift_bound(kappa)))
    for t in FRACTIONS:
        f, g = oracles.arc_coefficients(s_star, t)
        transport = np.eye(n, dtype=np.longdouble) * f
        transport[0, 0] += g / sqrt_f
        got = geodesy.transport_operator(reverse, t * reverse.s_star)
        assert _error(got, transport) * sqrt_f <= lyapunov_bound(kappa)
        for a0, bound in starts:
            a = a0.matrix.astype(np.clongdouble)
            want = f * a  # M(s) a0 = f a0 + (g / sqrt(F)) e0 (row 0 of a0)
            want[0] += (g / sqrt_f) * a[0]
            assert _error(geodesy.horizontal_lift(a0, reverse, t * reverse.s_star).matrix,
                          want) <= bound


def test_the_reference_is_the_geodesic_of_a_non_commuting_pair():
    # rho(0) = P and rho(s*) = rho2; M* solves M* rho2 + rho2 M* = C and maps
    # rho2 to P, M* rho2 M* = P; P rho2 != rho2 P.
    n = 16
    rho2, _ = oracles.dyadic_state(oracles.walsh_hadamard(n),
                                   _counts(np.random.default_rng(0), n, "random"))
    sqrt_f, s_star, cross = oracles.pure_start_geodesic(rho2)
    r = rho2.astype(np.longdouble)
    tol = 4 * np.finfo(np.longdouble).eps
    p = np.zeros_like(r)
    p[0, 0] = 1
    assert np.any(r[0, 1:] != 0)
    for t, end in ((0.0, p), (1.0, r)):
        f, g = oracles.arc_coefficients(s_star, t)
        assert np.max(np.abs(f * f * p + f * g * cross + g * g * r - end)) <= tol
    m_star = p / sqrt_f
    assert np.max(np.abs(m_star @ r + r @ m_star - cross)) <= tol
    assert np.max(np.abs(m_star @ r @ m_star - p)) <= tol


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS[:-1])
def test_pure_start_pairs_match_the_exact_reference(n, kind):
    for draw in range(DRAWS[kind]):
        _check_draw(n, kind, draw)


@pytest.mark.xfail(strict=True, reason="half of rho2's spectrum just below the spectral zero "
                   "CLAMP * l_max counts as zero and moves sqrt(F) by hundreds of eps "
                   "(ROADMAP item 3)")
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("draw", range(DRAWS["below-cut"]))
def test_half_the_spectrum_below_the_cut_matches_the_exact_reference(n, draw):
    _check_draw(n, "below-cut", draw)
