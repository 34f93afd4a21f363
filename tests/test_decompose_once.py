"""Each entry point decomposes each input state once.

One ``eigh`` per endpoint and one SVD of B = sqrt(rho1) sqrt(rho2) = U S V^dag
give sqrt(F) = sum(S), the gauge of the geodesic and the gauge unitary, and
sampling a built path takes no eigensolve at all. The counts are pinned by
the ``solver_counts`` fixture of conftest, cold (both memos emptied) unless a
test warms them on purpose; a syntax-tree guard pins every eigensolver call
of the package to its one site, and the polar route is held
against the textbook operator

    M* = rho1^{-1/2} sqrt(rho1^{1/2} rho2 rho1^{1/2}) rho1^{-1/2}

built from separate spectral functions, and the root fidelity and the gauge
against the nuclear norm and the polar factor of sqrt(rho1) sqrt(rho2) with
both roots formed.
"""

import ast
import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import buresgeo
from buresgeo import cli, closedform, geodesy, matcore, states, sun
import oracles
from conftest import (conditioned_density, random_density, random_traceless_hermitian,
                      random_unitary)


def _pair(n=8):
    rng = np.random.default_rng(97)
    return random_density(rng, n, floor=0.1), random_density(rng, n, floor=0.1)


@pytest.mark.parametrize("entry, expected", [
    ("geometric_mean_operator", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
    ("root_fidelity", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
    ("uhlmann_unitary", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
    ("bures", {"eigh": 2, "eigvalsh": 0, "svd": 1}),
])
def test_pair_entry_points_decompose_each_state_once(solver_counts, entry, expected):
    rho1, rho2 = _pair()
    getattr(geodesy, entry)(rho1, rho2)
    assert solver_counts == expected


@pytest.mark.parametrize("entry", ["geodesic_point", "transport_operator", "horizontal_lift"])
def test_sampling_a_built_path_takes_no_eigensolve(solver_counts, entry):
    rho1, rho2 = _pair()
    path = geodesy.geometric_mean_operator(rho1, rho2)
    args = (states.canonical_purification(rho1),) if entry == "horizontal_lift" else ()
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    getattr(geodesy, entry)(*args, path, path.s_star / 3)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}


READS = {
    "m_star": lambda path, a0: path.m_star,
    "transport_operator": lambda path, a0: geodesy.transport_operator(path, path.s_star / 3),
    "horizontal_lift": lambda path, a0: geodesy.horizontal_lift(a0, path, path.s_star / 3),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_reading_a_built_path_after_both_memos_are_evicted_takes_no_eigensolve(
        solver_counts, read):
    # The path holds the start's decomposition, so M* is built on first read
    # without decomposing rho1 again.
    rho1, rho2 = _pair()
    path = geodesy.geometric_mean_operator(rho1, rho2)
    a0 = states.canonical_purification(rho1)
    matcore._decompose.cache_clear()
    geodesy._polar_pair.cache_clear()
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    READS[read](path, a0)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}


def test_refusing_a_missing_m_star_after_both_memos_are_evicted_takes_no_eigensolve(
        solver_counts):
    r1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    r2 = np.diag([0.25, 0.25, 0.5, 0.0]).astype(complex)
    path = geodesy.geometric_mean_operator(r1, r2)
    matcore._decompose.cache_clear()
    geodesy._polar_pair.cache_clear()
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    with pytest.raises(geodesy.GeodesicUndefinedError, match="rank rho1 = 2 < rank rho2 = 3"):
        geodesy.transport_operator(path, 0.1)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}


def test_bures_and_mean_operator_share_one_polar_pair(solver_counts):
    rho1, rho2 = _pair()
    geodesy.bures(rho1, rho2)
    geodesy.geometric_mean_operator(rho1, rho2)
    assert solver_counts == {"eigh": 2, "eigvalsh": 0, "svd": 1}


def test_fidelity_along_a_built_path_decomposes_only_the_point(solver_counts):
    path = geodesy.geometric_mean_operator(*_pair())
    mid = geodesy.geodesic_point(path, path.s_star / 2)
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    geodesy.root_fidelity(path.rho1, mid)
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 1}


def test_pair_op_sequence_decomposes_each_distinct_state_once(solver_counts):
    # The geodesic-pairs benchmark op: 3 distinct states and 1 distinct pair.
    rho1, rho2 = _pair()
    geodesy.bures(rho1, rho2)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    geodesy.root_fidelity(rho1, geodesy.geodesic_point(path, path.s_star / 2))
    assert solver_counts == {"eigh": 3, "eigvalsh": 0, "svd": 2}


def test_hubner_metric_decomposes_once(solver_counts):
    rng = np.random.default_rng(98)
    rho = random_density(rng, 8, floor=0.1)
    geodesy.hubner_metric(rho, random_traceless_hermitian(rng, 8, norm=0.1))
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


def test_tangent_solve_and_metric_at_one_state_decompose_once(solver_counts):
    # The tangent-solve benchmark op: sun and geodesy read one decomposition
    # of rho = expand(1, x), memoised by its bytes.
    basis = sun.generator_basis(4)
    rng = np.random.default_rng(102)
    _, x = sun.coefficients(random_density(rng, 4, floor=0.3), basis)
    xdot = rng.normal(size=basis.size)
    sun.solve_tangent_G(x, xdot, basis)
    geodesy.hubner_metric(sun.expand(1.0, x, basis), sun.expand(0.0, xdot, basis))
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


@pytest.mark.parametrize("solver, eigh", [("solve_tangent_G", 1), ("unitary_tangent", 0),
                                          ("hamiltonian_from_Y", 0)])
def test_su_n_solver_eigensolves(solver_counts, solver, eigh):
    # Only solve_tangent_G diagonalizes (rho); the others are matrix products.
    basis = sun.generator_basis(8)
    rng = np.random.default_rng(103)
    _, x = sun.coefficients(random_density(rng, 8, floor=0.3), basis)
    v = rng.normal(size=basis.size)
    getattr(sun, solver)(*((x, v) if solver == "solve_tangent_G" else (v, x)), basis)
    assert solver_counts == {"eigh": eigh, "eigvalsh": 0, "svd": 0}


def test_canonical_purification_decomposes_once(solver_counts):
    states.canonical_purification(_pair()[0])
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


def _load_bloch(rho):
    """(matrix admitted, loaded state) for the Bloch vector of rho."""
    basis = sun.generator_basis(rho.shape[0])
    _, x = sun.coefficients(rho, basis)
    return sun.expand(1.0, x, basis), states.density_from_bloch(x, basis)


def _load_json(rho):
    return rho, cli.state_from_json(cli.state_to_json(rho), 1e-10)


LOADERS = {"density_from_bloch": _load_bloch, "state_from_json": _load_json}
BAND = np.diag([0.7, 0.3 + 5e-11, -5e-11]).astype(np.complex128)


def _admitted_states():
    """Strict states, and states inside the admission band: a negative
    eigenvalue to clip (BAND, also rotated) and a trace to renormalize."""
    rng = np.random.default_rng(101)
    u = random_unitary(rng, 3)
    out = [BAND, u @ BAND @ u.conj().T, np.diag([0.6, 0.4 + 5e-11]).astype(np.complex128)]
    out += [random_density(rng, n, floor=fl) for n in (2, 3, 4, 8) for fl in (0.1, 1e-9)]
    return out


@pytest.mark.parametrize("load", sorted(LOADERS))
def test_admission_decomposes_once(solver_counts, load):
    LOADERS[load](BAND)
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


def _state_files(tmp_path):
    paths = []
    for name, rho in zip(("a", "b"), _pair(4)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cli.state_to_json(rho)))
        paths.append(str(path))
    return paths


def test_cli_geodesic_decomposes_each_sample_once(solver_counts, tmp_path, capsys):
    # 2 endpoints and 100 new points (the row at s = 0 is rho1); 1 polar SVD
    # and 100 fidelity SVDs (the fidelity of rho1 to itself takes none).
    a, b = _state_files(tmp_path)
    assert cli.main(["geodesic", a, b, "--samples", "101"]) == 0
    assert solver_counts == {"eigh": 102, "eigvalsh": 0, "svd": 101}


def test_cli_invariants_reads_the_loaded_spectrum(solver_counts, tmp_path, capsys):
    assert cli.main(["invariants", _state_files(tmp_path)[0]]) == 0
    assert solver_counts == {"eigh": 1, "eigvalsh": 0, "svd": 0}


SOLVERS = {"eigh", "eigvalsh", "svd", "eigh_lo", "eigvalsh_lo", "svd_f", "svd_s"}
SOLVER_SITES = {("matcore", "_lapack", "eigh_lo"), ("matcore", "_lapack", "svd_f"),
                ("matcore", "_lapack", "svd")}


def test_eigensolvers_are_reached_only_at_their_sites():
    found = set()
    for path in sorted(pathlib.Path(buresgeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in SOLVERS:
                site = node
                while site in parent and not isinstance(site, (ast.FunctionDef,
                                                               ast.AsyncFunctionDef)):
                    site = parent[site]
                found.add((path.stem, getattr(site, "name", "<module>"), name))
    assert found == SOLVER_SITES


@pytest.mark.parametrize("load", sorted(LOADERS))
def test_admission_snaps_like_snap_to_state(load):
    for rho in _admitted_states():
        admitted, loaded = LOADERS[load](rho)
        expected = states._snap_to_state(
            states.admit(admitted, trace_tol=1e-10, psd_tol=1e-10).matrix)
        assert np.array_equal(loaded, expected)


def test_qubit_closed_forms_make_no_eigensolve(solver_counts):
    # tau along -z, where the eigenvector spinors of tau degenerate.
    x, y = [0.0, 0.0, -0.4], [0.0, 0.0, -0.9]
    closedform.qubit_fidelity(x, y)
    closedform.qubit_orbit(x, y, 0.1)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}


def test_decompose_density_matches_validate_density():
    rho = _pair(4)[0]
    st = states.admit(rho)
    r, dec = st.matrix, st
    assert np.array_equal(r, (rho + rho.conj().T) / 2)
    v, w = dec.eigenvectors, dec.eigenvalues
    assert np.max(np.abs((v * w) @ v.conj().T - r)) < 1e-15


@pytest.mark.parametrize("rho, message", [
    (np.array([[0.5, 0.1], [0.2, 0.5]]), "not Hermitian"),
    (np.diag([0.5, 0.6]), "not normalized"),
    (np.diag([1.1, -0.1]), "not a state"),
])
def test_decompose_density_refusals(rho, message):
    with pytest.raises(ValueError, match=message):
        states.admit(rho)


def test_spectral_function_matches_hermitian_function():
    rng = np.random.default_rng(99)
    h = random_density(rng, 5, floor=0.05)
    dec = matcore.spectral_decompose(h)
    assert np.array_equal(dec.sqrt, oracles.sqrtm_psd(h))


def test_solvers_leave_the_structure_constant_pair_unbuilt():
    sun.generator_basis.cache_clear()
    basis = sun.generator_basis(12)
    rng = np.random.default_rng(100)
    x = 0.1 * rng.normal(size=basis.size) / np.sqrt(basis.size)
    y = rng.normal(size=basis.size)
    sun.solve_tangent_G(x, y, basis)
    sun.unitary_tangent(y, x, basis)
    sun.hamiltonian_from_Y(y, x, basis)
    assert "_structure_constants" not in vars(basis)
    f, d = basis.f, basis.d
    assert basis.f is f and basis.d is d
    assert not f.flags.writeable and not d.flags.writeable


@st.composite
def endpoint_pairs(draw):
    """(rho1, rho2, kind). "contained": a start of rank r >= 2 whose support
    contains a rho2 of rank 1 to r (r = N gives full-rank pairs); "reversed":
    the same pair in the other order; "conditioned": a start with
    lambda_min / lambda_max = 1e-9 toward a full-rank rho2. Spectral floors act
    inside the supports."""
    n = draw(st.integers(2, 8))
    rank1 = draw(st.integers(2, n))
    rank2 = draw(st.integers(1, rank1))
    floor1, floor2 = (draw(st.sampled_from([0.3, 0.1, 1e-2, 1e-3])) for _ in range(2))
    kind = draw(st.sampled_from(["contained", "reversed", "conditioned"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "conditioned":
        return conditioned_density(rng, n, 1e-9), random_density(rng, n, floor=floor2), kind
    u = random_unitary(rng, n)[:, :rank1]
    w = u @ random_unitary(rng, rank1)[:, :rank2]
    rho1, rho2 = (b @ random_density(rng, b.shape[1], floor=fl) @ b.conj().T
                  for b, fl in ((u, floor1), (w, floor2)))
    pair = ((rho1 + rho1.conj().T) / 2, (rho2 + rho2.conj().T) / 2)
    return (*pair[::-1], kind) if kind == "reversed" else (*pair, kind)


@settings(max_examples=80)
@given(endpoint_pairs())
def test_mean_operator_matches_textbook_oracle(pair):
    """Where M* exists, rank rho1 >= rank rho2. At lambda_min / lambda_max = 1e-9
    the textbook and the polar M* each lie about 1e-7 (relative, N = 4) from
    M* in 50-digit arithmetic, so conditioned starts are no test of it."""
    rho1, rho2, kind = pair
    assume(kind != "conditioned" and states.admit(rho1).rank >= states.admit(rho2).rank)
    sqrt1 = oracles.sqrtm_psd(rho1)
    inv_sqrt1 = oracles.inv_sqrtm_psd(rho1)
    sqrt_tau = oracles.sqrtm_psd(sqrt1 @ rho2 @ sqrt1)
    oracle = inv_sqrt1 @ sqrt_tau @ inv_sqrt1
    path = geodesy.geometric_mean_operator(rho1, rho2)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(path.m_star - oracle)) <= 1e-12 * scale
    assert abs(np.cos(path.s_star) - np.trace(sqrt_tau).real) <= 1e-12


@settings(max_examples=80)
@given(endpoint_pairs())
def test_polar_path_in_both_orders(pair):
    """rho(s*) = rho2, both cos laws, PSD samples and the reversed path
    retraced, rho_{1->2}(s) = rho_{2->1}(s* - s), with M* exactly where
    rank rho1 >= rank rho2."""
    rho1, rho2, _ = pair
    path = geodesy.geometric_mean_operator(rho1, rho2)
    back = geodesy.geometric_mean_operator(rho2, rho1)
    assert (path.m_star is None) == (states.admit(rho1).rank < states.admit(rho2).rank)
    assert np.max(np.abs(geodesy.geodesic_point(path, path.s_star) - rho2)) <= 1e-12
    assert abs(path.s_star - back.s_star) <= 1e-12
    for s in np.linspace(0.0, path.s_star, 5):
        rho_s = geodesy.geodesic_point(path, s)
        assert abs(geodesy.root_fidelity(rho1, rho_s) - np.cos(s)) <= 1e-12
        assert abs(geodesy.root_fidelity(rho_s, rho2) - np.cos(path.s_star - s)) <= 1e-12
        assert np.linalg.eigvalsh(rho_s)[0] >= -1e-14
        back_s = geodesy.geodesic_point(back, back.s_star - s)
        assert np.max(np.abs(rho_s - back_s)) <= 1e-12


@settings(max_examples=80)
@given(endpoint_pairs())
def test_root_fidelity_matches_the_nuclear_norm_oracle(pair):
    """The eigen-factor F2 = V2 diag(sqrt(l2)) = sqrt(rho2) V2 leaves the
    singular values of sqrt(rho1) sqrt(rho2) unchanged, so sum(S) matches
    the nuclear norm with both roots formed."""
    rho1, rho2, _ = pair
    oracle = oracles.nuclear_norm_root_fidelity(rho1, rho2)
    assert abs(geodesy.root_fidelity(rho1, rho2) - oracle) <= 1e-15 * oracle


def test_root_fidelity_is_exact_at_identical_and_orthogonal_endpoints():
    rho = random_density(np.random.default_rng(104), 4, floor=0.1)
    assert geodesy.root_fidelity(rho, rho.copy()) == 1.0
    r1 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    r2 = np.diag([0.0, 0.0, 0.3, 0.7]).astype(complex)
    assert geodesy.root_fidelity(r1, r2) == 0.0
    assert geodesy.root_fidelity(r2, r1) == 0.0


@settings(max_examples=80)
@given(endpoint_pairs())
def test_polar_pair_purifications_are_parallel(pair):
    """A1^dag A2 is Hermitian PSD and A2 A2^dag = rho2. Where B is invertible
    the gauge is unique and matches the polar factor of sqrt(rho1) sqrt(rho2);
    at lambda_min / lambda_max = 1e-9 it moves by roundoff / sigma_min(B)
    (about 1e-11), so conditioned starts are no test of it."""
    rho1, rho2, kind = pair
    st1, st2 = states.admit(rho1), states.admit(rho2)
    polar = geodesy._polar_pair(st1, st2)
    overlap = st1.sqrt.conj().T @ polar.a2
    assert np.max(np.abs(overlap - overlap.conj().T)) <= 1e-14
    assert np.linalg.eigvalsh((overlap + overlap.conj().T) / 2)[0] >= -1e-14
    assert np.max(np.abs(polar.a2 @ polar.a2.conj().T - rho2)) <= 1e-14
    if kind != "conditioned" and st1.rank == st2.rank == rho1.shape[0]:
        assert np.max(np.abs(geodesy.uhlmann_unitary(rho1, rho2)
                             - oracles.polar_gauge(rho1, rho2))) <= 1e-14


@settings(max_examples=80)
@given(endpoint_pairs())
def test_m_star_is_built_on_first_read_by_the_eager_formula(pair):
    """M* = V X' V^dag, symmetrized, for X' of the eigenbasis Lyapunov kernel
    at rho1 and C, read-only, and None exactly when rank rho1 < rank rho2."""
    rho1, rho2, _ = pair
    path = geodesy.geometric_mean_operator(rho1, rho2)
    assert "m_star" not in vars(path)
    st1 = states.admit(rho1)
    if st1.rank < states.admit(rho2).rank:
        assert path.m_star is None
        return
    _, m_eig = matcore.lyapunov_eigenbasis(st1, path.cross)
    v = st1.eigenvectors
    m = v @ m_eig @ v.conj().T
    assert np.array_equal(path.m_star, (m + m.conj().T) / 2)
    assert not path.m_star.flags.writeable
