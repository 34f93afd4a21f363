"""Admission alone decides what is a state; the spectral zero counts the rest as zero.

``states.admit`` accepts an eigenvalue down to -``ADMIT_TOL``, and
``matcore.spectral_factor`` refuses only below -max(``ADMIT_TOL``, ``CLAMP`` *
max|l|), so every admitted state passes every spectral function, and its
eigenvalues between -``ADMIT_TOL`` and the spectral zero count as zero. The
property tests draw four kinds of state (random, conditioned to 1e-12,
rank-deficient products whose kernel carries roundoff, and states with an
eigenvalue planted between -``ADMIT_TOL`` and -``CLAMP`` * l_max), pair each
admitted one with a generic full-rank state, and require every public
construction and the stacked sweep route to return without a refusal or a
RuntimeWarning. Wherever the rule that refused below -``CLAMP`` * max|l|
(``oracles.clamp_refusing_spectral_factor``) returned, every output has its bytes.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from buresgeo import geodesy, matcore, states
from conftest import conditioned_density, random_density, random_unitary
import oracles

KINDS = ["random", "conditioned", "product", "planted", "planted-diagonal"]
BAND = np.diag([0.7, 0.3 + 5e-11, -5e-11]).astype(np.complex128)
BAND_ROOT_FIDELITY = (math.sqrt(0.7) + math.sqrt(0.3 + 5e-11)) / math.sqrt(3.0)  # to I/3


def _clear_memos():
    matcore._decompose.cache_clear()
    geodesy._polar_pair.cache_clear()


def _state(kind, n, seed, depth):
    """A state of ``kind``; the planted kinds hold the eigenvalue -``depth``."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_density(rng, n)
    if kind == "conditioned":
        return conditioned_density(rng, n, 1e-12)
    if kind == "product":  # rank k < n, with roundoff left in the kernel
        k = int(rng.integers(1, n))
        a = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        m = a @ a.conj().T
        return (m + m.conj().T) / 2 / np.trace(m).real
    w = rng.uniform(0.1, 1.0, size=n)
    w[0] = 0.0
    w *= (1.0 + depth) / w.sum()
    w[0] = -depth
    if kind == "planted-diagonal":
        return np.diag(w).astype(np.complex128)
    u = random_unitary(rng, n)
    rho = (u * w) @ u.conj().T
    return (rho + rho.conj().T) / 2


def _admitted(rho) -> bool:
    try:
        states.admit(rho)
    except ValueError:
        return False
    return True


DRAW = st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
                 st.floats(2 * matcore.CLAMP, matcore.ADMIT_TOL))


def _outputs(rho1, rho2) -> dict:
    """Every public construction on the pair, with its arrays and numbers."""
    path = geodesy.geometric_mean_operator(rho1, rho2)
    summary = geodesy.bures(rho1, rho2)
    a1 = states.canonical_purification(rho1)
    return {"root_fidelity": geodesy.root_fidelity(rho1, rho2),
            "bures": (summary.root_fidelity, summary.bures_angle, summary.bures_distance),
            "s_star": path.s_star, "a2": path.a2, "cross": path.cross,
            "m_star": path.m_star, "purification1": a1.matrix,
            "purification2": states.canonical_purification(rho2).matrix,
            "lift": geodesy.horizontal_lift(a1, path, path.s_star / 2).matrix}


def _stacked_outputs(stack, partner, first) -> tuple[np.ndarray, np.ndarray]:
    sts, other = states._admit_stack(stack), states.admit(partner)
    pair = (sts, other) if first else (other, sts)
    return geodesy._root_fidelities(*pair), geodesy._bures_angles(*pair)


def _reference(compute):
    """``compute()`` under the clamp-refusing spectral rule, on fresh memos; None
    where that rule refused."""
    _clear_memos()
    try:
        with mock.patch.object(matcore, "spectral_factor",
                               oracles.clamp_refusing_spectral_factor):
            return compute()
    except matcore.NotPositiveSemidefiniteError:
        return None
    finally:
        _clear_memos()


def _same_bytes(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return a == b


@settings(max_examples=120)
@given(n=st.sampled_from([2, 3, 4]), draw=DRAW, partner_seed=st.integers(0, 2**32 - 1),
       first=st.booleans())
def test_an_admitted_state_passes_every_spectral_function(n, draw, partner_seed, first):
    rho = _state(draw[0], n, draw[1], draw[2])
    assume(_admitted(rho))
    partner = random_density(np.random.default_rng(partner_seed), n, floor=0.1)
    pair = (rho, partner) if first else (partner, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outputs(*pair)
    ref = _reference(lambda: _outputs(*pair))
    if ref is not None:
        assert [k for k in got if not _same_bytes(got[k], ref[k])] == []


@settings(max_examples=40)
@given(n=st.sampled_from([2, 3, 4]), draws=st.lists(DRAW, min_size=1, max_size=4),
       partner_seed=st.integers(0, 2**32 - 1), first=st.booleans())
def test_an_admitted_stack_passes_the_stacked_route(n, draws, partner_seed, first):
    members = [_state(kind, n, seed, depth) for kind, seed, depth in draws]
    assume(all(_admitted(m) for m in members))
    partner = random_density(np.random.default_rng(partner_seed), n, floor=0.1)
    stack = np.array(members)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sf, angles = _stacked_outputs(stack, partner, first)
    for k, m in enumerate(members):
        one = (m, partner) if first else (partner, m)
        assert sf[k] == geodesy.root_fidelity(*one)
        assert angles[k] == geodesy.bures(*one).bures_angle
    ref = _reference(lambda: _stacked_outputs(stack, partner, first))
    if ref is not None:
        assert _same_bytes(sf, ref[0]) and _same_bytes(angles, ref[1])


def test_the_draws_reach_the_band_the_reference_refused():
    # The planted kinds are admitted and refused by the clamp-refusing rule, so
    # the property tests above do test the states this rule change admits.
    rho = _state("planted", 3, 7, 5e-11)
    assert _admitted(rho)
    with pytest.raises(matcore.NotPositiveSemidefiniteError):
        oracles.clamp_refusing_spectral_factor(states.admit(rho))
    assert np.isfinite(matcore.spectral_factor(states.admit(rho))).all()


@pytest.mark.parametrize("first", [True, False])
def test_the_band_state_has_its_values(first):
    other = states.maximally_mixed(3)
    pair = (BAND, other) if first else (other, BAND)
    summary = geodesy.bures(*pair)
    path = geodesy.geometric_mean_operator(*pair)
    assert abs(geodesy.root_fidelity(*pair) - BAND_ROOT_FIDELITY) <= 1e-15
    assert abs(summary.root_fidelity - BAND_ROOT_FIDELITY) <= 1e-15
    assert path.s_star == summary.bures_angle
    assert (path.m_star is None) == first  # rank BAND = 2 < 3 has no M*
    a1 = states.canonical_purification(path.rho1)
    f, g = geodesy.transport_coefficients(path.s_star / 2, path.s_star)
    lift = geodesy.horizontal_lift(a1, path, path.s_star / 2)
    assert np.array_equal(lift.matrix, path.a2 * g + a1.matrix * f)


def test_the_band_state_has_its_purification():
    a = states.canonical_purification(BAND).matrix
    root = np.diag([math.sqrt(0.7), math.sqrt(0.3 + 5e-11), 0.0])
    assert np.max(np.abs(a - root)) <= 1e-15


def test_a_non_state_is_still_refused_by_the_square_root():
    # spectral_decompose takes any Hermitian matrix; its sqrt refuses below
    # -max(ADMIT_TOL, CLAMP * max|l|), which for this scale is -CLAMP * 1e4.
    with pytest.raises(matcore.NotPositiveSemidefiniteError, match=r"below -1\.0e-08"):
        matcore.spectral_decompose(np.diag([1e4, -2e-8])).sqrt
    with pytest.raises(matcore.NotPositiveSemidefiniteError, match=r"below -1\.0e-10"):
        matcore.spectral_decompose(np.diag([1.0, -2e-10])).sqrt
    assert matcore.spectral_decompose(np.diag([1e4, -5e-9])).sqrt[1, 1] == 0.0
