"""The CLI sweeps computed as stacks: geodesic rows, the Werner sweep and the qubit orbit.

Each subcommand evaluates its rows in stacked blocks: one ``eigh`` or SVD
per block instead of one per row. Every byte it writes must equal what the
retired per-row loops in ``oracles`` write, and every stacked value must equal
the public scalar function on its row. Stacks keep the scalar refusals, and a
long sweep's temporaries stay bounded.
"""

import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from buresgeo import cli, closedform, geodesy, matcore, states, sun
from conftest import random_density, random_state_vector
import oracles


def _out(call, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(*args)
        except ValueError as exc:  # as cli.main reports a refusal
            print(f"error: {exc}", file=err)
            code = cli.EXIT_VALIDATION
    return code, out.getvalue(), err.getvalue()


RETIRED = {"werner-sweep": oracles.retired_werner_sweep,
           "qubit-orbit": oracles.retired_qubit_orbit}


def assert_same_as_retired(argv, monkeypatch):
    """cli.main(argv) and the retired per-row loop give the same exit code,
    stdout and stderr, byte for byte."""
    new = _out(cli.main, argv)
    with monkeypatch.context() as m:
        if argv[0] == "geodesic":
            m.setattr(cli, "_geodesic_rows", oracles.retired_geodesic_rows)
            old = _out(cli.main, argv)
        else:
            old = _out(RETIRED[argv[0]], cli.build_parser().parse_args(argv))
    assert new == old
    return new


def _write(tmp_path, name, rho):
    path = tmp_path / name
    path.write_text(json.dumps(cli.state_to_json(rho)))
    return str(path)


def _pure(rng, n):
    return states.pure_density(random_state_vector(rng, n))


# The edge cases of the geodesic: name -> (rho1, rho2) from a seeded generator.
GEODESIC_PAIRS = {
    "n4-seed0": lambda rng: (random_density(rng, 4, 0.1), random_density(rng, 4, 0.1)),
    "n4-seed1": lambda rng: (random_density(rng, 4, 0.1), random_density(rng, 4, 0.1)),
    "n2-bloch": lambda rng: (random_density(rng, 2, 0.1), random_density(rng, 2, 0.1)),
    "n2-pure-end": lambda rng: (random_density(rng, 2, 0.1), _pure(rng, 2)),
    "identical": lambda rng: (lambda r: (r, r))(random_density(rng, 4, 0.1)),
    "pure-start-rank-raising": lambda rng: (_pure(rng, 3), random_density(rng, 3, 0.1)),
    "pure-end": lambda rng: (random_density(rng, 4, 0.1), _pure(rng, 4)),
    "n8": lambda rng: (random_density(rng, 8, 0.1), random_density(rng, 8, 0.1)),
    "n16-blocks": lambda rng: (random_density(rng, 16, 0.1),
                                   random_density(rng, 16, 0.1)),
}


def _geodesic_files(tmp_path, case):
    rng = np.random.default_rng([sorted(GEODESIC_PAIRS).index(case), 25])
    rho1, rho2 = GEODESIC_PAIRS[case](rng)
    return _write(tmp_path, "a.json", rho1), _write(tmp_path, "b.json", rho2)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(GEODESIC_PAIRS))
def test_geodesic_stdout_is_the_retired_loop(tmp_path, monkeypatch, case, fmt):
    a, b = _geodesic_files(tmp_path, case)
    samples = "101" if case != "n16-blocks" else "150"  # 16 rows per block at N = 16
    code, out, _ = assert_same_as_retired(["geodesic", a, b, "--samples", samples,
                                           "--format", fmt], monkeypatch)
    assert code == 0 and out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("steps", ["201", "2", "300"])  # bench shape, p = 0 and 1, 5 blocks
def test_werner_sweep_stdout_is_the_retired_loop(monkeypatch, steps, fmt):
    code, out, _ = assert_same_as_retired(["werner-sweep", "--steps", steps,
                                           "--format", fmt], monkeypatch)
    assert code == 0
    if fmt == "csv":
        lines = out.splitlines()
        assert lines[1] == "0,1,0,1"  # p = 0: identical endpoints
        assert lines[-1].startswith("1,") and lines[-1].split(",")[2] == "1"  # pi/2


def _bench_bloch(seed):
    """Two Bloch vectors drawn as the cli-session benchmark draws them."""
    rng = np.random.default_rng([seed, 3])
    vecs = []
    for _ in range(2):
        v = rng.normal(size=3)
        vecs.append(v * rng.uniform(0.2, 0.8) / np.linalg.norm(v))
    return [",".join(repr(float(c)) for c in v) for v in vecs]


QUBIT_CASES = {
    "bench-seed0": _bench_bloch(0),
    "bench-seed1": _bench_bloch(1),
    "identical": ["0.1,-0.2,0.3", "0.1,-0.2,0.3"],
    "pure-end": ["0.1,-0.2,0.3", "0.6,0,0.8"],
    # 1 - |v|^2 = 1.1e-16, s* of the two routes 5.2e-9 apart: exits 0 (7.7e-10),
    # and exits 3 with the near-pure state at the start (5.7e-9).
    "near-pure-end-gate": ["0.1,0.2,0.3", "0.48,0.6,0.64"],
    "near-pure-start-gate": ["0.48,0.6,0.64", "0.1,0.2,0.3"],
    # |x| = 1 - 1e-9, where the pipeline's s* ends past the closed form's.
    "near-pure-start": ["-0.3611391871705479,-0.9078148282625447,0.21319175189589923",
                        "0.06613459003154802,0.04822830497400524,0.3963604382856179"],
    "pure-start-refused": ["0.6,0,0.8", "0.1,-0.2,0.3"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(QUBIT_CASES))
def test_qubit_orbit_stdout_is_the_retired_loop(monkeypatch, case, fmt):
    x, y = QUBIT_CASES[case]
    assert_same_as_retired(["qubit-orbit", f"--x={x}", f"--y={y}", "--samples", "101",
                            "--format", fmt], monkeypatch)


@pytest.mark.parametrize("argv", [
    ["werner-sweep", "--steps", "7"],
    ["werner-sweep", "--steps", "5", "--tol", "-1"],  # a failed gate keeps its report
    ["qubit-orbit", "--x=0.1,-0.2,0.3", "--y=-0.4,0.1,0.2", "--samples", "9"],
], ids=["werner", "werner-gate", "qubit"])
def test_one_row_blocks_are_the_retired_loop(monkeypatch, argv):
    # 16 entries per block: one Werner row or four qubit rows per stack.
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 16)
    assert_same_as_retired(argv, monkeypatch)


def test_small_blocks_of_the_geodesic_are_the_retired_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 40)  # 2 rows of N = 4 per block
    a, b = _geodesic_files(tmp_path, "n4-seed0")
    assert_same_as_retired(["geodesic", a, b, "--samples", "11"], monkeypatch)


def _seeded_path(n, seed=7):
    rng = np.random.default_rng([seed, n])
    return geodesy.geometric_mean_operator(random_density(rng, n, 0.1),
                                           random_density(rng, n, 0.1))


def _bytes_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_stacked_geodesic_values_are_the_scalar_calls(n):
    path = _seeded_path(n)
    grid = np.linspace(0.0, path.s_star, 33)
    rho = geodesy._points(path, grid)
    st = states._admit_stack(rho)
    fid = geodesy._root_fidelities(states.admit(path.rho1), st)
    bloch = sun._project(rho, n)
    for k, s in enumerate(grid):
        point = geodesy.geodesic_point(path, s)
        single = states.admit(point)
        assert _bytes_equal(rho[k], point)
        assert fid[k] == geodesy.root_fidelity(path.rho1, point)
        pairs = [(st.matrix[k], single.matrix), (st.eigenvalues[k], single.eigenvalues),
                 (st.eigenvectors[k], single.eigenvectors), (st.sqrt[k], single.sqrt),
                 (bloch[k], sun.coefficients(point, sun.generator_basis(n))[1])]
        for got, want in pairs:
            assert _bytes_equal(got, want)
        assert st.trace[k] == single.trace
    assert fid[0] == 1.0  # rho(0) equals rho1


def test_stacked_werner_values_are_the_scalar_calls():
    p = np.linspace(0.0, 1.0, 41)
    ghz = states._admit_stack(states._werner("GHZ", p[:, None, None]))
    w = states._admit_stack(states._werner("W", p[:, None, None]))
    fid = geodesy._root_fidelities(ghz, w)
    angle = geodesy._bures_angles(ghz, w)
    closed = closedform._werner_root_fidelity(p, p)
    for k, pk in enumerate(p.tolist()):
        rho_ghz, rho_w = states.werner("GHZ", pk), states.werner("W", pk)
        assert _bytes_equal(ghz.matrix[k], states.admit(rho_ghz).matrix)
        assert fid[k] == geodesy.root_fidelity(rho_ghz, rho_w)
        assert angle[k] == geodesy.bures(rho_ghz, rho_w).bures_angle
        assert closed[k] == closedform.werner_root_fidelity(pk, pk)
    assert (fid[0], angle[0]) == (1.0, 0.0)
    assert angle[-1] == np.pi / 2


@pytest.mark.parametrize("case", ["bench-seed0", "bench-seed1", "identical", "pure-end",
                                  "near-pure-end-gate"])
def test_stacked_qubit_orbit_is_the_scalar_closed_form(case):
    x, y = (np.array([float(c) for c in v.split(",")]) for v in QUBIT_CASES[case])
    _, one_minus_f = closedform._fidelity_legs(x, y)
    s_star = float(np.arctan2(np.sqrt(one_minus_f), closedform.qubit_fidelity(x, y)))
    assert closedform._qubit_legs(x, y)[3] == s_star  # the s* qubit-orbit reads
    grid = np.linspace(0.0, s_star, 21)
    rows = closedform._qubit_orbits(x, y, grid)
    for k, s in enumerate(grid):
        assert _bytes_equal(rows[k], closedform.qubit_orbit(x, y, s))
        assert _bytes_equal(rows[k], oracles.scalar_qubit_orbit(x, y, s))


def test_stacked_orbit_refuses_the_first_refused_s():
    x, y = np.array([0.1, 0.2, 0.3]), np.array([0.4, -0.1, 0.2])
    grid = np.array([0.0, 0.1, 5.0, 7.0])
    with pytest.raises(ValueError, match=r"^s = 5\.0 outside the geodesic range"):
        closedform._qubit_orbits(x, y, grid)


def test_spectral_factor_of_a_stack_is_the_factor_of_each_member():
    rng = np.random.default_rng(11)
    members = [random_density(rng, 4, 0.1), _pure(rng, 4), random_density(rng, 4)]
    members.append(0.5 * _pure(rng, 4) + 0.5 * _pure(rng, 4))  # rank 2 with roundoff
    st = states._admit_stack(np.array(members))
    factor = matcore.spectral_factor(st)
    for k, m in enumerate(members):
        assert _bytes_equal(factor[k], matcore.spectral_factor(states.admit(m)))
    # The library takes no inverse root: the masked oracle is its textbook
    # formula, member by member.
    def inverse_sqrt(w):
        return 1.0 / np.sqrt(w)
    for m in members:
        dec = states.admit(m)
        assert _bytes_equal(oracles.masked_spectral_factor(dec, inverse_sqrt),
                            oracles.textbook_spectral_factor(dec, inverse_sqrt))


class TestStackRefusals:
    @pytest.mark.parametrize("routine", ["eigh_lo", "svd", "svd_f"])
    @pytest.mark.parametrize("filter_", ["ignore", "error"])
    def test_a_nan_member_raises_linalgerror(self, routine, filter_):
        rng = np.random.default_rng(3)
        stack = np.array([random_density(rng, 4, 0.1) for _ in range(5)])
        stack[3, 1, 2] = stack[3, 2, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            with pytest.raises(np.linalg.LinAlgError):
                matcore._lapack(routine, stack)

    def _stack_with(self, bad, at=2):
        rng = np.random.default_rng(5)
        stack = np.array([random_density(rng, bad.shape[0], 0.1) for _ in range(4)])
        stack[at] = bad
        return stack

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.1], [0.3, 0.5]]),                      # not Hermitian
        np.array([[0.6, 0.0], [0.0, 0.6]]),                      # trace 1.2
        np.array([[1.1, 0.0], [0.0, -0.1]]),                     # eigenvalue -0.1
        np.array([[0.5, np.nan], [np.nan, 0.5]]),                # non-finite
        np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]]),       # overflowing entries
        np.array([[0.5, np.inf], [np.inf, 0.5]]),                # Hermitian, unit trace, inf
        np.array([[1.1, 1e-11], [0.0, -0.1]]),                   # near-Hermitian, not PSD
    ], ids=["hermitian", "trace", "psd", "nan", "overflow", "inf", "near-hermitian-psd"])
    def test_a_refused_member_gets_the_scalar_refusal(self, bad):
        stack = self._stack_with(bad.astype(np.complex128))
        with pytest.raises(ValueError) as scalar:
            states.admit(bad, name="rho[2]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(scalar.value)) as stacked:
                states._admit_stack(stack)
        assert type(stacked.value) is type(scalar.value)
        assert str(stacked.value) == str(scalar.value)

    def test_the_first_refused_member_is_named(self):
        stack = self._stack_with(np.array([[0.6, 0.0], [0.0, 0.6]]), at=1)
        stack[3] = np.array([[0.7, 0.0], [0.0, 0.7]])
        with pytest.raises(ValueError, match=r"^rho\[1\] is not normalized: trace = 1\.2 "):
            states._admit_stack(stack)

    def test_a_near_hermitian_member_has_the_bytes_of_admit(self):
        # Off by half of ADMIT_TOL: admit takes the member before the eigh, and
        # the stack keeps its symmetrization and its eigensystem, bit for bit.
        rng = np.random.default_rng(6)
        near = random_density(rng, 3, 0.1)
        near[0, 2] += matcore.ADMIT_TOL / 2
        stack = np.array([random_density(rng, 3, 0.1), near, random_density(rng, 3, 0.1)])
        st = states._admit_stack(stack)
        one = states.admit(near)
        assert not np.array_equal(one.matrix, near)
        assert _bytes_equal(st.matrix[1], one.matrix)
        assert st.trace[1] == one.trace
        assert _bytes_equal(st.eigenvalues[1], one.eigenvalues)
        assert _bytes_equal(st.eigenvectors[1], one.eigenvectors)

    def test_a_member_admit_refuses_before_the_eigh_is_named_first(self):
        # A near-Hermitian member goes to admit before the eigh, so its refusal
        # (here its negative eigenvalue) comes ahead of an exactly Hermitian
        # member at a lower index that only the eigh finds negative.
        stack = self._stack_with(np.diag([1.2, -0.2]).astype(np.complex128), at=1)
        stack[3] = np.array([[1.1, 1e-11], [0.0, -0.1]])
        with pytest.raises(ValueError, match=r"^rho\[3\] is not a state: most negative "
                                             r"eigenvalue -1\.000000e-01$"):
            states._admit_stack(stack)

    @pytest.mark.parametrize("at, name", [(14, r"rho\(s\)\[14\]"),
                                          (300, r"rho\(s\)\[256:\]\[44\]")])
    def test_a_refused_geodesic_point_is_named_by_its_sample(self, monkeypatch, at, name):
        # At N = 4 a block holds 256 points, so sample 300 is member 44 of the
        # block from sample 256 on. The point is made refusable by scaling it.
        rng = np.random.default_rng(9)
        path = geodesy.geometric_mean_operator(random_density(rng, 4, 0.1),
                                               random_density(rng, 4, 0.1))
        points, done = geodesy._points, []

        def scaled(p, s):
            rho = points(p, s)
            if len(done) <= at < len(done) + len(s):
                rho[at - len(done)] *= 1.2
            done.extend(s)
            return rho
        monkeypatch.setattr(geodesy, "_points", scaled)
        with pytest.raises(ValueError, match=rf"^{name} is not normalized: trace = 1\.2"):
            cli._geodesic_rows(path, 401)

    def test_library_built_stacks_hand_no_member_to_admit(self, monkeypatch):
        # Points built by the library are exactly Hermitian with unit trace
        # within TRACE_TOL, so the sweeps admit them without a scalar call.
        rng = np.random.default_rng(8)
        path = geodesy.geometric_mean_operator(random_density(rng, 4, 0.1),
                                               random_density(rng, 4, 0.1))
        calls = []
        monkeypatch.setattr(states, "admit", lambda *a, **k: calls.append(a))
        cli._geodesic_rows(path, 1001)
        assert _out(cli.main, ["werner-sweep", "--steps", "201"])[0] == 0
        assert calls == []

    def test_an_admitted_negative_counts_as_zero(self):
        # admit allows -5e-11 and the spectral rule counts it as zero: the stacked
        # member has the bytes of its scalar call, and sqrt(F) against I/2 is
        # sqrt((1 + 5e-11)/2).
        bad = np.diag([1.0 + 5e-11, -5e-11]).astype(np.complex128)
        stack = self._stack_with(bad, at=3)
        st = states._admit_stack(stack)
        scalar = matcore.spectral_factor(states.admit(bad))
        assert np.array_equal(matcore.spectral_factor(st)[3], scalar)
        assert np.array_equal(st.sqrt[3], states.admit(bad).sqrt)
        mixed = states.admit(states.maximally_mixed(2))
        for pair in ((mixed, st), (st, mixed)):
            sf = geodesy._root_fidelities(*pair)[3]
            angle = geodesy._bures_angles(*pair)[3]
            one = [mixed if side is mixed else bad for side in pair]
            assert sf == geodesy.root_fidelity(*one)
            assert angle == geodesy.bures(*one).bures_angle
            assert abs(sf - np.sqrt((1.0 + 5e-11) / 2.0)) <= 1e-15

    def test_clamped_negatives_warn_nothing(self):
        # Rank-deficient products keep roundoff negatives that the rule clamps:
        # the stacked sqrt must see none of them.
        rng = np.random.default_rng(9)
        members = []
        for _ in range(6):
            a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            m = a @ a.conj().T
            members.append((m + m.conj().T) / 2 / np.trace(m).real)
        st = states._admit_stack(np.array(members))
        assert (st.eigenvalues[:, 0] < 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = matcore.spectral_factor(st)
            roots = st.sqrt
        assert np.isfinite(factor).all() and np.isfinite(roots).all()
        assert (factor[:, :, :2] == 0).all()


def test_long_geodesic_sweep_memory_is_bounded():
    # The retired loop's tracemalloc peak for these 4001 rows at N = 16 was
    # 3.70 MiB, nearly all of it the rows themselves; stacks taken whole would
    # hold (4001, 16, 16) temporaries of 16 MiB each. The bound is 1.5 times
    # the retired peak.
    path = _seeded_path(16, seed=16)
    cli._geodesic_rows(path, 11)  # fill the lazy caches outside the measurement
    tracemalloc.start()
    try:
        rows = cli._geodesic_rows(path, 4001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 4001
    assert peak <= 1.5 * 3.70 * 2**20
