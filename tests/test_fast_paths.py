"""The hot paths return what the general formulas return, bit for bit.

Admission reads finiteness off the one maximum it already takes, exactly
Hermitian input skips the asymmetry measurement, the square-root factor and
the Lyapunov kernel of a full-support spectrum skip the mask, the Lyapunov
weights of a state are built once, the metric takes the scale of its
traceless check only when the trace could need it, identical endpoints are
recognised by memo identity, then trace and first entry, then every entry,
ranks are a search on the ascending spectrum, and a horizontal lift evaluates
f(s), g(s) once. Each test pins one of them against the formula it replaced
(``oracles``).
"""

import numpy as np
import pytest

from buresgeo import geodesy, matcore, states, sun
import oracles
from conftest import random_density, random_hermitian, random_unitary


def rank_deficient_density(rng, n, rank):
    """A random state of the given rank, its zero eigenvalues left to roundoff."""
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.1, 1.0, size=rank)
    u = random_unitary(rng, n)
    rho = (u * (w / w.sum())) @ u.conj().T
    return (rho + rho.conj().T) / 2


def _ensemble(seed, n=6, count=12):
    """Full-rank, rank-deficient and pure states of dimension n."""
    rng = np.random.default_rng(seed)
    return ([random_density(rng, n, floor=0.1) for _ in range(count)]
            + [rank_deficient_density(rng, n, int(rng.integers(1, n))) for _ in range(count)])


MATRIX_GATES = {
    "as_complex_matrix": matcore.as_complex_matrix,
    "require_hermitian": matcore.require_hermitian,
    "spectral_decompose": matcore.spectral_decompose,
    "validate_density": lambda rho: states.admit(rho).matrix,
}


@pytest.mark.parametrize("entry", sorted(MATRIX_GATES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 1), (0, 2), (1, 2)])
def test_non_finite_upper_triangle_is_named(entry, value, index):
    rho = np.eye(3, dtype=np.complex128) / 3
    rho[index] = value
    pattern = rf"non-finite entry .*{value}.* at \({index[0]}, {index[1]}\)"
    with pytest.raises(ValueError, match=pattern):
        MATRIX_GATES[entry](rho)


def test_an_overflowing_maximum_of_finite_entries_is_refused_by_name():
    m = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
    assert np.isinf(np.abs(m).max())
    with pytest.raises(ValueError, match=r"^m entries overflow: max \|entry\| = inf "
                                         r"exceeds 1e\+100$"):
        matcore.as_complex_matrix(m, "m")


@pytest.mark.parametrize("f", [np.sqrt, lambda w: 1.0 / np.sqrt(w), np.log],
                         ids=["sqrt", "inverse_sqrt", "log"])
def test_spectral_factor_equals_the_masked_formula(f):
    seen_full = seen_deficient = False
    for rho in _ensemble(11):
        dec = matcore.spectral_decompose(rho)
        full = dec.eigenvalues[0] > matcore.CLAMP * float(np.abs(dec.eigenvalues).max())
        seen_full, seen_deficient = seen_full or full, seen_deficient or not full
        want = oracles.masked_spectral_factor(dec, f)
        assert oracles.textbook_spectral_factor(dec, f).tobytes() == want.tobytes()
        if f is np.sqrt:  # the one function the library takes
            assert matcore.spectral_factor(dec).tobytes() == want.tobytes()
    assert seen_full and seen_deficient


def _at_the_cut(n, above):
    """A decomposition whose 2 l_min is the cut ``CLAMP`` * l_max, or the next
    float above it, with a random eigenbasis."""
    rng = np.random.default_rng(16)
    cut = matcore.CLAMP * 1.0
    low = np.nextafter(cut / 2, 1.0) if above else cut / 2
    w = np.concatenate(([low], np.sort(rng.uniform(0.1, 0.9, size=n - 2)), [1.0]))
    v = random_unitary(rng, n)
    m = (v * w) @ v.conj().T
    return matcore.SpectralDecomposition(m, float(m.trace().real), w, v)


def test_lyapunov_eigenbasis_equals_the_masked_formula():
    rng = np.random.default_rng(12)
    decs = [matcore.spectral_decompose(rho) for rho in _ensemble(12)]
    full, at_cut = _at_the_cut(5, above=True), _at_the_cut(5, above=False)
    seen = set()
    for dec in decs + [full, at_cut]:
        h = random_hermitian(rng, dec.matrix.shape[0])
        for _ in range(2):  # the second call reads the cached weights
            h_eig, x_eig = matcore.lyapunov_eigenbasis(dec, h)
            want_h, want_x = oracles.masked_lyapunov_eigenbasis(dec, h)
            assert h_eig.tobytes() == want_h.tobytes()
            assert x_eig.tobytes() == want_x.tobytes()
        seen.add(dec._pair_sums[1] is None)
    assert seen == {True, False}  # full and deficient supports both ran
    assert full._pair_sums[1] is None
    assert at_cut._pair_sums[1] is not None and not at_cut._pair_sums[1][0, 0]


def _signed_zeros(rng, v):
    """``v`` with about a third of its entries set to +0.0 or -0.0."""
    v = v.copy()
    hit = rng.uniform(size=v.size) < 0.35
    v[hit] = np.where(rng.uniform(size=hit.sum()) < 0.5, 0.0, -0.0)
    return v


def _exact_hermitian_inputs():
    """Werner, diagonal, real pure (negative amplitudes) and assembled su(N)
    states, coordinates with signed zeros: each equal to its adjoint."""
    rng = np.random.default_rng(17)
    out = [states.werner(kind, p) for kind in ("GHZ", "W") for p in (0.0, 0.3, 1.0)]
    out += [np.diag(rng.dirichlet(np.ones(n))).astype(np.complex128) for n in (2, 3, 8)]
    for n in (2, 4, 6):
        psi = rng.normal(size=n)
        psi[0] = -abs(psi[0])
        out.append(states.pure_density(psi / np.linalg.norm(psi)))
    for n in (2, 3, 4, 8, 12):
        basis = sun.generator_basis(n)
        _, x = sun.coefficients(random_density(rng, n, floor=0.3), basis)
        out.append(sun.expand(1.0, _signed_zeros(rng, x), basis))
        out.append(sun.expand(0.0, _signed_zeros(rng, rng.normal(size=basis.size)), basis))
    return out


def test_exact_hermitian_input_is_symmetrized_as_before():
    for m in _exact_hermitian_inputs():
        assert (m == m.conj().T).all()
        got = matcore.require_hermitian(m)
        assert got.tobytes() == oracles.measured_require_hermitian(m).tobytes()
        assert got.tobytes() == ((m + m.conj().T) / 2).tobytes()


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_near_hermitian_input_is_measured_as_before(factor, scale):
    rng = np.random.default_rng(18)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        m = scale * random_hermitian(rng, n) / 8
        m[0, n - 1] += factor * matcore.ADMIT_TOL * max(np.abs(m).max(), 1.0)
        assert not (m == m.conj().T).all()
        try:
            want = oracles.measured_require_hermitian(m)
        except matcore.NotHermitianError as exc:
            with pytest.raises(matcore.NotHermitianError) as got:
                matcore.require_hermitian(m)
            assert str(got.value) == str(exc)
            assert factor > 1.0
        else:
            assert matcore.require_hermitian(m).tobytes() == want.tobytes()
            assert factor < 1.0


@pytest.mark.parametrize("scale", [1.0, 10.0])
@pytest.mark.parametrize("factor", [0.5, 0.999999, 1.000001, 2.0, 9.99999, 10.00001, 20.0])
def test_metric_traceless_decision_equals_the_scaled_rule(scale, factor):
    rho = states.maximally_mixed(2)
    drho = np.diag([scale, factor * matcore.ADMIT_TOL - scale]).astype(np.complex128)
    if oracles.scaled_traceless_rule(drho):
        got = geodesy.hubner_metric(rho, drho)
        assert got == oracles.masked_hubner_metric(rho, drho)
    else:
        with pytest.raises(ValueError, match="^variation must be traceless"):
            geodesy.hubner_metric(rho, drho)
    accepted = factor <= 1.0 or (scale == 10.0 and factor < 10.0)
    assert oracles.scaled_traceless_rule(drho) == accepted


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_tangent_solvers_equal_the_masked_formulas_on_signed_zeros(n):
    rng = np.random.default_rng(19 + n)
    basis = sun.generator_basis(n)
    for _ in range(12):
        _, x = sun.coefficients(random_density(rng, n, floor=0.3), basis)
        x = _signed_zeros(rng, x)
        xdot = _signed_zeros(rng, rng.normal(size=basis.size))
        y = _signed_zeros(rng, rng.normal(size=basis.size))
        gen = sun.solve_tangent_G(x, xdot, basis)
        g0, g, gm = oracles.masked_tangent_solve(x, xdot, basis)
        assert (gen.g0, gen.g.tobytes(), gen.matrix.tobytes()) == (g0, g.tobytes(), gm.tobytes())
        rho, rhodot = sun.expand(1.0, x, basis), sun.expand(0.0, xdot, basis)
        assert geodesy.hubner_metric(rho, rhodot) == oracles.masked_hubner_metric(rho, rhodot)
        unitary = sun.unitary_tangent(y, x, basis)
        g, gm = oracles.expanded_unitary_tangent(y, x, basis)
        assert (unitary.g.tobytes(), unitary.matrix.tobytes()) == (g.tobytes(), gm.tobytes())


def test_rank_equals_the_counting_rule():
    ranks = set()
    for rho in _ensemble(13, n=7, count=30):
        dec = matcore.spectral_decompose(rho)
        assert dec.rank == oracles.counted_rank(dec)
        ranks.add(dec.rank)
    assert len(ranks) >= 4


def test_distinct_decompositions_of_equal_content_are_identical_endpoints():
    rho = random_density(np.random.default_rng(14), 5, floor=0.1)
    first = states.admit(rho)
    matcore._decompose.cache_clear()
    second = states.admit(rho.copy())
    assert first is not second
    assert np.array_equal(first.matrix, second.matrix)
    assert geodesy.root_fidelity(first, second) == 1.0
    assert geodesy.bures(first, second) == geodesy.BuresSummary(1.0, 0.0, 0.0)


@pytest.mark.parametrize("diagonal", [[0.2, 0.3, 0.5], [0.5, 0.2, 0.3]],
                         ids=["first_entry_differs", "first_entry_equal"])
def test_equal_traces_of_different_states_are_not_identical_endpoints(diagonal):
    rho = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
    other = np.diag(diagonal).astype(np.complex128)
    assert states.admit(rho).trace == states.admit(other).trace
    assert geodesy.root_fidelity(rho, other) < 1.0
    assert geodesy.bures(rho, other).bures_angle > 0.0


def test_horizontal_lift_evaluates_the_coefficients_once(monkeypatch):
    rng = np.random.default_rng(15)
    path = geodesy.geometric_mean_operator(random_density(rng, 4, floor=0.1),
                                           random_density(rng, 4, floor=0.1))
    a0 = states.canonical_purification(path.rho1)
    calls = []
    original = geodesy._path_coefficients  # transport_coefficients at the path's s*

    def counted(s, s_star):
        calls.append(s)
        return original(s, s_star)

    monkeypatch.setattr(geodesy, "_path_coefficients", counted)
    for s in np.linspace(0.0, path.s_star, 7):
        calls.clear()
        lift = geodesy.horizontal_lift(a0, path, s)
        assert calls == [s]
        f, g = original(s, path.s_star)
        want = f * path.start.sqrt + g * path.a2  # the great circle through A1 and A2
        assert lift.matrix.tobytes() == want.tobytes()
        assert lift.target.tobytes() == geodesy.geodesic_point(path, s).tobytes()
