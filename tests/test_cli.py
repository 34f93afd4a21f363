import json

import numpy as np
import pytest

from buresgeo import cli, states, sun
from conftest import random_bloch


@pytest.fixture
def state_file(tmp_path):
    def write(name, rho):
        path = tmp_path / name
        path.write_text(json.dumps(cli.state_to_json(rho)))
        return str(path)
    return write


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFidelity:
    def test_identical_maximally_mixed(self, state_file, capsys):
        f = state_file("mm.json", states.maximally_mixed(2))
        code, out, _ = run(["fidelity", f, f], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["root_fidelity"] == 1.0
        assert payload["bures_angle"] == 0.0
        assert payload["bures_distance"] == 0.0

    def test_maxmixed_vs_ghz(self, state_file, capsys):
        f1 = state_file("mm8.json", states.maximally_mixed(8))
        f2 = state_file("ghz.json", states.pure_density(states.ghz_state()))
        code, out, _ = run(["fidelity", f1, f2], capsys)
        assert code == 0
        value = json.loads(out)["root_fidelity"]
        assert abs(value - 1 / np.sqrt(8)) < 1e-15

    def test_werner_pair(self, state_file, capsys):
        f1 = state_file("g.json", states.werner("GHZ", 0.5))
        f2 = state_file("w.json", states.werner("W", 0.5))
        code, out, _ = run(["fidelity", f1, f2], capsys)
        assert code == 0
        assert json.loads(out)["root_fidelity"] == 0.75

    def test_invalid_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
                                   "im": [[0.0, 0.0], [0.0, 0.0]]}))
        code, _, err = run(["fidelity", str(bad), str(bad)], capsys)
        assert code == 2
        assert "not normalized" in err

    @pytest.mark.parametrize("command", ["fidelity", "geodesic", "invariants"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_admission_tol_exits_2(self, state_file, capsys, command, tol):
        f = state_file("mm.json", states.maximally_mixed(2))
        files = [f] if command == "invariants" else [f, f]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *files, f"--tol={tol}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol" in err and "not normalized" not in err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 2}")
        code, _, err = run(["fidelity", str(bad), str(bad)], capsys)
        assert code == 2
        assert "error:" in err


class TestGeodesic:
    def test_middle_row_fidelity(self, state_file, capsys):
        # s* = pi/4 for I/2 toward a pure state, so the middle of three
        # samples sits at pi/8: frozen cos(pi/8) = 0.9238795325112867.
        f1 = state_file("mm.json", states.maximally_mixed(2))
        f2 = state_file("p0.json", np.diag([1.0, 0.0]).astype(complex))
        code, out, _ = run(["geodesic", f1, f2, "--samples", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["s", "root_fidelity_to_start", "trace", "purity"]
        assert header[4:] == ["eig_0", "eig_1", "bloch_x", "bloch_y", "bloch_z"]
        middle = dict(zip(header, map(float, lines[2].split(","))))
        assert abs(middle["root_fidelity_to_start"] - 0.9238795325112867) < 1e-12
        assert abs(middle["trace"] - 1.0) < 1e-10

    def test_identical_endpoints_constant_rows(self, state_file, capsys):
        f = state_file("mm.json", states.maximally_mixed(2))
        code, out, _ = run(["geodesic", f, f, "--samples", "4"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(set(rows)) == 1

    def test_endpoint_rows_reproduce_eigenvalues(self, state_file, capsys):
        f1 = state_file("g.json", states.werner("GHZ", 0.9))
        f2 = state_file("w.json", states.werner("W", 0.9))
        code, out, _ = run(["geodesic", f1, f2, "--samples", "11",
                            "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        first, last = payload["samples"][0], payload["samples"][-1]
        np.testing.assert_allclose(first["eigenvalues"],
                                   np.linalg.eigvalsh(states.werner("GHZ", 0.9)),
                                   atol=1e-10)
        np.testing.assert_allclose(last["eigenvalues"],
                                   np.linalg.eigvalsh(states.werner("W", 0.9)),
                                   atol=1e-10)
        for row in payload["samples"]:
            assert abs(row["trace"] - 1.0) < 1e-10
            assert abs(row["root_fidelity_to_start"] - np.cos(row["s"])) < 1e-9

    def test_orthogonal_mixed_endpoints_exit_2(self, state_file, capsys):
        f1 = state_file("a.json", np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        f2 = state_file("b.json", np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
        code, _, err = run(["geodesic", f1, f2], capsys)
        assert code == 2
        assert "M singular at s*=pi/2" in err

    def test_pure_start_to_mixed_end(self, state_file, capsys):
        f1 = state_file("pure.json", np.diag([1.0, 0.0, 0.0]).astype(complex))
        f2 = state_file("mixed.json", states.maximally_mixed(3))
        code, out, _ = run(["geodesic", f1, f2, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["s_star"] - np.arccos(1 / np.sqrt(3))) < 1e-12
        np.testing.assert_allclose(payload["samples"][-1]["eigenvalues"], [1 / 3] * 3,
                                   atol=1e-12)

    def test_sample_count_validated(self, state_file, capsys):
        f = state_file("mm.json", states.maximally_mixed(2))
        code, _, err = run(["geodesic", f, f, "--samples", "1"], capsys)
        assert code == 2


class TestWernerSweep:
    def test_grid_values(self, capsys):
        code, out, _ = run(["werner-sweep", "--steps", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["p", "root_fidelity", "s_star_over_half_pi",
                          "root_fidelity_closed_form"]
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        assert rows[0]["p"] == 0.0 and rows[0]["root_fidelity"] == 1.0
        assert rows[0]["s_star_over_half_pi"] == 0.0
        assert rows[-1]["p"] == 1.0 and rows[-1]["root_fidelity"] == 0.0
        assert rows[-1]["s_star_over_half_pi"] == 1.0
        mid = rows[2]
        assert mid["p"] == 0.5 and mid["root_fidelity"] == 0.75
        assert abs(mid["s_star_over_half_pi"] - np.arccos(0.75) / (np.pi / 2)) < 1e-15

    def test_columns_agree(self, capsys):
        code, out, _ = run(["werner-sweep", "--steps", "21"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            vals = list(map(float, line.split(",")))
            if vals[0] < 1.0:
                assert abs(vals[1] - vals[3]) < 1e-10

    def test_angle_column_near_p_zero(self, capsys):
        # At p = 1e-3 the root fidelity is within 1e-4 of 1, where arccos loses
        # about half its digits; the polar Bures angle keeps them.
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(["werner-sweep", "--steps", "1001"], capsys)
        assert code == 0
        p, _, angle, _ = out.splitlines()[2].split(",")
        assert float(p) == 1e-3
        with mpmath.workdps(50):
            q = mpmath.mpf(float(p))
            sqrt_f = (3 * (1 - q) + mpmath.sqrt((1 - q) * (1 + 7 * q))) / 4
            exact = mpmath.acos(sqrt_f) / (mpmath.pi / 2)
            assert abs(mpmath.mpf(angle) - exact) < 1e-15

    def test_unreachable_gate_exits_3(self, capsys):
        code, _, err = run(["werner-sweep", "--steps", "11", "--tol", "1e-30"],
                           capsys)
        assert code == 3
        assert "numerical gate failed" in err


class TestQubitOrbit:
    def test_gate_passes(self, capsys):
        # values starting with a minus sign need the --opt=value form
        code, out, _ = run(["qubit-orbit", "--x=0.1,-0.2,0.3",
                            "--y=-0.4,0.1,0.2", "--samples", "7"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["s", "r_x", "r_y", "r_z",
                                       "pipeline_deviation"]
        for line in lines[1:]:
            assert float(line.split(",")[-1]) < 1e-9

    @pytest.mark.parametrize("step", [1e-5, 1e-7, 1e-8])
    def test_nearby_endpoints_pass_the_gate(self, capsys, step):
        code, out, err = run(["qubit-orbit", "--x=0.1,0.2,0.3",
                              f"--y=0.1,0.2,{0.3 + step!r}"], capsys)
        assert code == 0, err
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-9

    @pytest.mark.parametrize("end", ["0,0,1", "0,0,-1", "0,1,0"])
    def test_pure_end_passes_the_gate(self, capsys, end):
        code, out, err = run(["qubit-orbit", "--x=0.1,0.2,0.3", f"--y={end}"], capsys)
        assert code == 0, err
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-9

    def test_bad_vector_exits_2(self, capsys):
        code, _, err = run(["qubit-orbit", "--x", "0,0", "--y", "0,0,0"], capsys)
        assert code == 2
        assert "3 components" in err

    @pytest.mark.parametrize("argv, flag", [
        (["qubit-orbit", "--x=0,0,0", "--y=nan,0,0"], "--y"),
        (["qubit-orbit", "--x=0,inf,0", "--y=0,0,0"], "--x"),
        (["solve-g", "--dim", "2", "--x", "0,0,0", "--xdot", "1,0,-inf"], "--xdot"),
    ], ids=["qubit-orbit-y", "qubit-orbit-x", "solve-g-xdot"])
    def test_non_finite_component_names_the_flag(self, capsys, argv, flag):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} has non-finite entries (NaN or inf)")


class TestSolveG:
    def test_maximally_mixed_qubit(self, capsys):
        code, out, _ = run(["solve-g", "--dim", "2", "--x", "0,0,0",
                            "--xdot", "1,0,0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["g0"] == 0.0
        assert payload["g"] == [1.0, 0.0, 0.0]
        assert payload["residual"] <= 1e-12

    def test_zero_rate(self, capsys):
        code, out, _ = run(["solve-g", "--dim", "2", "--x", "0.1,0,0.2",
                            "--xdot", "0,0,0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["g0"] == 0.0
        assert payload["g"] == [0.0, 0.0, 0.0]

    def test_random_qutrit_residual(self, capsys):
        rng = np.random.default_rng(100)
        basis = sun.generator_basis(3)
        x = random_bloch(rng, basis)
        xdot = rng.normal(size=8)
        code, out, _ = run(["solve-g", "--dim", "3",
                            "--x", ",".join(map(str, x)),
                            "--xdot", ",".join(map(str, xdot))], capsys)
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-9

    def test_non_state_exits_2(self, capsys):
        code, _, err = run(["solve-g", "--dim", "2", "--x", "0,0,3",
                            "--xdot", "1,0,0"], capsys)
        assert code == 2
        assert "not a state" in err


class TestInvariantsAndSunCheck:
    def test_invariants_output(self, state_file, capsys):
        f = state_file("w.json", states.werner("W", 0.3))
        code, out, _ = run(["invariants", f], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["invariants"][0] - 1.0) < 1e-12
        assert payload["dim"] == 8

    @pytest.mark.parametrize("diagonal, tol", [([-0.5, -0.5], "10"), ([0.0, 0.0], "1")],
                             ids=["clipped", "unclipped"])
    def test_non_positive_trace_exits_2_naming_it(self, state_file, capsys, diagonal, tol):
        f = state_file("bad.json", np.diag(diagonal))
        code, _, err = run(["invariants", f, "--tol", tol], capsys)
        assert code == 2
        assert "trace to renormalize by, 0.0, is not positive" in err
        assert "non-finite" not in err

    def test_sun_check_passes(self, capsys):
        code, out, _ = run(["sun-check", "--dim", "3", "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["closure"] <= 1e-12

    def test_sun_check_pauli_fields(self, capsys):
        code, out, _ = run(["sun-check", "--dim", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pauli_f_error"] == 0.0
        assert payload["pauli_d_error"] == 0.0

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_sun_check_without_trials_exits_2(self, capsys, trials):
        code, out, err = run(["sun-check", "--dim", "3", "--trials", trials], capsys)
        assert code == 2
        assert out == ""
        assert "--trials must be at least 1" in err

    def test_impossible_gate_exits_3(self, capsys):
        code, _, err = run(["sun-check", "--dim", "4", "--tol", "0"], capsys)
        assert code == 3


class TestDeterminismAndOutput:
    def test_byte_identical_reruns(self, state_file, capsys):
        f1 = state_file("g.json", states.werner("GHZ", 0.37))
        f2 = state_file("w.json", states.werner("W", 0.37))
        outputs = set()
        for _ in range(2):
            code, out, _ = run(["geodesic", f1, f2, "--samples", "9"], capsys)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_seeded_sun_check_deterministic(self, capsys):
        runs = set()
        for _ in range(2):
            code, out, _ = run(["sun-check", "--dim", "3", "--seed", "7"], capsys)
            assert code == 0
            runs.add(out)
        assert len(runs) == 1

    def test_out_file(self, state_file, tmp_path, capsys):
        f = state_file("mm.json", states.maximally_mixed(2))
        target = tmp_path / "result.json"
        code, out, _ = run(["fidelity", f, f, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["root_fidelity"] == 1.0
