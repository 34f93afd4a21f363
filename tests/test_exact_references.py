"""Root fidelity, Bures angle and characteristic invariants against exact dense
references at N = 4, 16, 64.

Each pair commutes, so its root fidelity and Bures angle are sums over the two
spectra, computed in ``oracles`` with only their own rounding; the library sees
dense matrices and decomposes them like any other pair.

- Walsh-Hadamard pairs: one rotation H_N / sqrt(N) on both ends of dyadic
  spectra (``oracles.dyadic_state``), which float64 holds exactly. Four kinds:
  random full-rank spectra, exactly rank-deficient ones, nearly identical
  pairs (s* about 1e-7, bounded absolutely), and spectra with half their
  eigenvalues at about 2^-43 l_max.
- The n-qubit GHZ/W Werner pairs at one p, whose root fidelity generalizes the
  paper's N = 8 formula.
- The invariants S_1..S_N of each state of the random and rank-deficient
  Walsh-Hadamard pairs, against their exact integer sums
  (``oracles.exact_invariants``).

The full-rank kinds take the square-root factor's full-support branch, the
others its masked one. The 2^-43 kind sits below the spectral zero
``CLAMP`` * l_max = 1e-12 l_max, so the library counts those eigenvalues as
zero and is off by about 2e-7: it is an expected failure until the spectral
zero is set from the eigensolver's backward error (ROADMAP item 3), with the
bounds of the generic kinds.
"""

import math

import numpy as np
import pytest

from buresgeo import geodesy, sun
import oracles

DIMS = [4, 16, 64]
DRAWS = 10
EPS = np.finfo(float).eps
# Bounds: about twice the worst error over 60 draws per kind and size (the
# tests take the first 10), one BLAS thread, numpy 2.4.
FIDELITY_BOUND = 16 * EPS   # worst 8.5 eps (rank-deficient, N = 64)
ANGLE_BOUND = 64 * EPS      # relative; worst 26 eps (random, N = 16)
NEAR_BOUND = 16 * EPS       # absolute, both quantities; worst 5.5 eps (N = 4)
WERNER_BOUND = 16 * EPS     # sqrt(F), and s* relative; worst 4.5 eps (N = 64)
WERNER_P = [0.1, 0.5, 0.9, 0.999]
# Relative, per kind and N, over both states of each draw; the eigensolver's
# absolute error eps * l_max moves S_k relative to the smallest eigenvalues in
# it, so the bound grows with N and with the rank's zeros. Worst, in eps:
# random 11, 36, 96 and rank-deficient 10, 108, 925 at N = 4, 16, 64.
INVARIANT_BOUND = {"random": {4: 24 * EPS, 16: 72 * EPS, 64: 192 * EPS},
                   "rank-deficient": {4: 24 * EPS, 16: 216 * EPS, 64: 1856 * EPS}}
VANISHING_BOUND = 12 * EPS  # absolute: the S_k above an exact rank; worst 5.1 eps (N = 64)


def _spread(rng, total, parts):
    """``parts`` positive integers of comparable size summing to ``total``."""
    counts = [int(c) for c in rng.integers(total // (2 * parts), total // parts, size=parts - 1)]
    return counts + [total - sum(counts)]


def _counts(rng, n, kind):
    total = 2**oracles.DYADIC_BITS
    if kind == "rank-deficient":
        rank = int(rng.integers(1, n))
        counts = _spread(rng, total, rank) + [0] * (n - rank)
    elif kind == "tiny-half":  # half the spectrum at about 2^-43 l_max
        counts = _spread(rng, total, n // 2)
        tiny = max(counts) >> 43
        counts[counts.index(min(counts))] -= tiny * (n // 2)
        counts += [tiny] * (n // 2)
    else:
        counts = _spread(rng, total, n)
    return [counts[i] for i in rng.permutation(n)]


def _nearby(rng, counts):
    """``counts`` moved by about 4e-7 of each entry, with the same sum."""
    step = [int(round(4e-7 * c * u)) for c, u in zip(counts, rng.uniform(-1, 1, len(counts)))]
    step[-1] -= sum(step)
    return [c + s for c, s in zip(counts, step)]


def _pair(n, kind, draw):
    rng = np.random.default_rng([15, n, draw, ["random", "rank-deficient", "near",
                                               "tiny-half"].index(kind)])
    h = oracles.walsh_hadamard(n)
    first = _counts(rng, n, "random" if kind == "near" else kind)
    second = _nearby(rng, first) if kind == "near" else _counts(rng, n, kind)
    (rho1, a), (rho2, b) = oracles.dyadic_state(h, first), oracles.dyadic_state(h, second)
    return rho1, rho2, a, b


def _errors(n, kind):
    """Worst |d sqrt(F)| and |d s*| (relative unless ``kind`` is "near") over the draws."""
    worst_f = worst_s = 0.0
    for draw in range(DRAWS):
        rho1, rho2, a, b = _pair(n, kind, draw)
        sf, angle = oracles.commuting_root_fidelity(a, b), oracles.commuting_bures_angle(a, b)
        summary = geodesy.bures(rho1, rho2)
        for got in (geodesy.root_fidelity(rho1, rho2), summary.root_fidelity):
            worst_f = max(worst_f, abs(got - sf))
        scale = 1.0 if kind == "near" else angle or 1.0  # equal rank-1 draws: angle 0
        worst_s = max(worst_s, abs(summary.bures_angle - angle) / scale)
    return worst_f, worst_s


@pytest.mark.parametrize("n", DIMS)
def test_the_dyadic_states_are_exact(n):
    h = oracles.walsh_hadamard(n)
    assert np.array_equal(h @ h, np.eye(n))
    signs = np.sign(h).astype(np.int64)
    for kind in ("random", "rank-deficient", "tiny-half"):
        counts = _counts(np.random.default_rng(n), n, kind)
        rho, _ = oracles.dyadic_state(h, counts)
        # N 2^52 rho is the integer matrix S diag(counts) S, S the signs of H
        exact = (signs * np.array(counts, dtype=np.int64)) @ signs
        assert np.array_equal(rho * (n * 2.0**oracles.DYADIC_BITS), exact.astype(float))
        assert np.trace(rho) == 1.0 and np.array_equal(rho, rho.T)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", ["random", "rank-deficient"])
def test_generic_pairs_match_the_reference(n, kind):
    worst_f, worst_s = _errors(n, kind)
    assert worst_f <= FIDELITY_BOUND
    assert worst_s <= ANGLE_BOUND


@pytest.mark.parametrize("n", DIMS)
def test_nearly_identical_pairs_match_the_reference_absolutely(n):
    _, _, a, b = _pair(n, "near", 0)
    assert 1e-8 < oracles.commuting_bures_angle(a, b) < 1e-6
    worst_f, worst_s = _errors(n, "near")
    assert worst_f <= NEAR_BOUND
    assert worst_s <= NEAR_BOUND


@pytest.mark.xfail(strict=True, reason="eigenvalues at 2^-43 l_max fall below the spectral "
                   "zero CLAMP * l_max and count as zero (ROADMAP item 3)")
@pytest.mark.parametrize("n", DIMS)
def test_half_the_spectrum_at_2_to_the_minus_43_matches_the_reference(n):
    worst_f, worst_s = _errors(n, "tiny-half")
    assert worst_f <= FIDELITY_BOUND
    assert worst_s <= ANGLE_BOUND


@pytest.mark.parametrize("n", DIMS)
def test_qubit_werner_pairs_match_the_closed_form(n):
    qubits = int(math.log2(n))
    for p in WERNER_P:
        ghz, w = oracles.qubit_werner("GHZ", qubits, p), oracles.qubit_werner("W", qubits, p)
        summary = geodesy.bures(ghz, w)
        sf = oracles.werner_pair_root_fidelity(n, p)
        assert abs(geodesy.root_fidelity(ghz, w) - sf) <= WERNER_BOUND
        assert abs(summary.root_fidelity - sf) <= WERNER_BOUND
        angle = oracles.werner_pair_bures_angle(n, p)
        assert abs(summary.bures_angle - angle) <= WERNER_BOUND * angle


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", ["random", "rank-deficient"])
def test_characteristic_invariants_match_the_exact_sums(n, kind):
    for draw in range(DRAWS):
        rho1, rho2, a, b = _pair(n, kind, draw)
        for rho, spectrum in ((rho1, a), (rho2, b)):
            got = sun.characteristic_invariants(rho)
            ref = np.array(oracles.exact_invariants(spectrum))
            vanishing = ref == 0.0
            assert vanishing.any() == (kind == "rank-deficient")
            assert np.all(np.abs(got - ref)[~vanishing] <= INVARIANT_BOUND[kind][n]
                          * ref[~vanishing])
            assert np.all(np.abs(got[vanishing]) <= VANISHING_BOUND)
