"""Seeded inputs, timed operations and correctness checks of the workloads.

Each workload class is built once per worker process (its constructor is the
set-up that ``setup_s`` pays for), then driven by the worker loop:

    inp = w.make(i)          # seeded input of op i, untimed
    out = w.op(inp)          # the timed operation
    why = w.check(inp, out)  # None when the output is correct, untimed

Ops call the library through module attributes (``geodesy.bures(...)``) at
call time, so the timing wrappers of a traced run see every call. The
library only ever receives the generated arrays; the seed stays here.
Tolerances are the acceptance suite's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from buresgeo import cli, closedform, geodesy, states, sun


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def random_density(rng: np.random.Generator, n: int, floor: float) -> np.ndarray:
    """Hilbert-Schmidt random state mixed with I/N at weight ``floor``."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (1.0 - floor) * rho + floor * np.eye(n) / n
    return (rho + rho.conj().T) / 2


def conditioned_density(rng: np.random.Generator, n: int, ratio: float) -> np.ndarray:
    """Random state whose spectrum has lambda_min / lambda_max = ratio."""
    w = np.sort(rng.uniform(size=n))
    w = ratio + (1.0 - ratio) * (w - w[0]) / (w[-1] - w[0])
    w /= w.sum()
    u = random_unitary(rng, n)
    rho = (u * w) @ u.conj().T
    return (rho + rho.conj().T) / 2


class GeodesicPairs:
    """Construction-heavy: a fresh pair per op, N = 8.

    Both ends carry the I/N floor 0.1 that the tests use, so no timed op is
    refused. Ill-conditioned starts (lambda_min / lambda_max = 1e-6) go
    through the same op in ``conditioning_probe``, outside the timed phase,
    because the library refuses most of them (see there).
    """

    name = "geodesic-pairs"
    dim = 8
    warmup = 64

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        return random_density(rng, self.dim, 0.1), random_density(rng, self.dim, 0.1)

    def op(self, inp):
        rho1, rho2 = inp
        summary = geodesy.bures(rho1, rho2)
        path = geodesy.geometric_mean_operator(rho1, rho2)
        mid = geodesy.geodesic_point(path, path.s_star / 2)
        return summary, path, geodesy.root_fidelity(rho1, mid)

    def check(self, inp, out):
        _, rho2 = inp
        _, path, sf_mid = out
        if abs(sf_mid - np.cos(path.s_star / 2)) > 1e-9:
            return "cos law at s*/2"
        end = np.max(np.abs(geodesy.geodesic_point(path, path.s_star) - rho2))
        if end > 1e-10:
            return "endpoint rho(s*) against rho2"
        return None

    @staticmethod
    def corrupt(out):
        summary, path, sf_mid = out
        return summary, path, sf_mid + 1e-6


PROBE_PAIRS = 128
PROBE_RATIO = 1e-6


def conditioning_probe(seed: int) -> dict:
    """The known conditioning defect, counted on a fixed seeded set of pairs.

    Runs the geodesic-pairs op on ``PROBE_PAIRS`` starts with
    lambda_min / lambda_max = ``PROBE_RATIO`` (rho2 with floor 0.1). The
    read-back ``root_fidelity(rho1, rho(s*/2))`` refuses most of them: the
    trace of rho(s*/2) drifts from 1 by ~1e-11, past the library's own
    normalization tolerance. The pairs depend only on the seed, so the count
    does too; the op time (up to the refusal) is the median over all pairs.
    """
    work = GeodesicPairs(seed)
    refused = wrong = 0
    reasons: dict[str, int] = {}
    times = []
    for k in range(PROBE_PAIRS):
        rng = np.random.default_rng([seed, 2, k])
        inp = (conditioned_density(rng, work.dim, PROBE_RATIO),
               random_density(rng, work.dim, 0.1))
        t0 = time.perf_counter()
        try:
            out = work.op(inp)
        except Exception as exc:
            times.append(time.perf_counter() - t0)
            refused += 1
            key = f"{type(exc).__name__}: {str(exc).split(':')[0]}"
            reasons[key] = reasons.get(key, 0) + 1
            continue
        times.append(time.perf_counter() - t0)
        why = work.check(inp, out)
        if why is not None:
            wrong += 1
            reasons[why] = reasons.get(why, 0) + 1
    return {"pairs": PROBE_PAIRS, "ratio": PROBE_RATIO, "refused": refused,
            "wrong": wrong, "reasons": reasons, "op_ms_p50": 1e3 * float(np.median(times))}


class PathSampling:
    """Sampling along shared paths: eight seeded N = 4 paths built in set-up.

    Op i is grid point i mod 256 of path (i // 256) mod 8: the state, its
    root fidelity to the start and the horizontal lift of the canonical
    purification. Construction lands in set-up only.
    """

    name = "path-sampling"
    dim = 4
    n_paths = 8
    grid = 256
    warmup = 256

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.paths = []
        for _ in range(self.n_paths):
            rho1 = random_density(rng, self.dim, 0.1)
            rho2 = random_density(rng, self.dim, 0.1)
            path = geodesy.geometric_mean_operator(rho1, rho2)
            a0 = states.canonical_purification(rho1)
            self.paths.append((path, a0, np.linspace(0.0, path.s_star, self.grid)))

    def make(self, i: int):
        path, a0, grid = self.paths[(i // self.grid) % self.n_paths]
        return path, a0, float(grid[i % self.grid])

    def op(self, inp):
        path, a0, s = inp
        rho_s = geodesy.geodesic_point(path, s)
        sf = geodesy.root_fidelity(path.rho1, rho_s)
        return rho_s, sf, geodesy.horizontal_lift(a0, path, s)

    def check(self, inp, out):
        path, a0, s = inp
        _, sf, lift = out
        if abs(sf - np.cos(s)) > 1e-9:
            return "cos law at s"
        # A'(s) = M'(s) A(0), M'(s) = (-cos(s* - s) I + cos(s) M*) / sin s*.
        eye = np.eye(self.dim)
        dm = (-np.cos(path.s_star - s) * eye + np.cos(s) * path.m_star) / np.sin(path.s_star)
        if geodesy.hlc_residual(lift.matrix, dm @ a0.matrix) > 1e-10:
            return "horizontality of the lift"
        return None

    @staticmethod
    def corrupt(out):
        rho_s, sf, lift = out
        return rho_s, sf + 1e-6, lift


class TangentSolve:
    """su(N) solvers at N = 12 on a fresh state (floor 0.3), xdot and y per op.

    Set-up builds ``generator_basis(12)`` with its dense f/d tensors, which
    dominates set-up time and peak RSS at this commit.
    """

    name = "tangent-solve"
    dim = 12
    warmup = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.basis = sun.generator_basis(self.dim)
        self.sigmas = np.array(self.basis.sigmas)

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        n, m = self.dim, self.basis.size
        rho = random_density(rng, n, 0.3)
        x = 0.5 * n * np.einsum('iab,ba->i', self.sigmas, rho).real
        xdot = rng.normal(size=m)
        y = rng.normal(size=m)
        rho_x = (np.eye(n) + np.tensordot(x, self.sigmas, axes=(0, 0))) / n
        rhodot = np.tensordot(xdot, self.sigmas, axes=(0, 0)) / n
        return x, xdot, y, rho_x, rhodot

    def op(self, inp):
        x, xdot, y, rho_x, rhodot = inp
        gen = sun.solve_tangent_G(x, xdot, self.basis)
        metric = geodesy.hubner_metric(rho_x, rhodot)
        return gen, metric, sun.unitary_tangent(y, x, self.basis)

    def check(self, inp, out):
        x, _, _, rho_x, rhodot = inp
        gen, metric, unitary = out
        g = gen.matrix
        if np.max(np.abs(g @ rho_x + rho_x @ g - rhodot)) > 1e-9:
            return "reconstruction residual of G rho + rho G"
        half_trace = 0.5 * float(np.trace(g @ rhodot).real)
        if abs(metric - half_trace) > 1e-10 * abs(half_trace):
            return "hubner metric against Tr[G rhodot] / 2"
        scale = max(float(np.linalg.norm(x) * np.linalg.norm(unitary.g)), 1.0)
        if unitary.g0 != 0.0 or abs(x @ unitary.g) > 1e-12 * scale:
            return "unitary tangent g0 = 0 and x.g = 0"
        return None

    @staticmethod
    def corrupt(out):
        gen, metric, unitary = out
        return gen, metric * (1 + 1e-6), unitary


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliSession:
    """One ``buresgeo`` subprocess per op, cycling through seven subcommands.

    State files (N = 4, floor 0.1) and vectors are seeded and written once in
    set-up under ``workdir``, so each argv repeats. Its stdout must be
    byte-identical to the in-process ``cli.main`` run made in set-up (and so
    across repeats), and one parsed value must equal the library result.
    ``in_process`` replays the same argv list through ``cli.main`` instead,
    which is how a traced run sees the layers.
    """

    name = "cli-session"
    SUBCOMMANDS = ("fidelity", "geodesic", "werner-sweep", "qubit-orbit", "solve-g",
                   "invariants", "sun-check")
    dim = 4
    warmup = 1

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        self.in_process = in_process
        rng = np.random.default_rng([seed, 3])
        rho1 = random_density(rng, self.dim, 0.1)
        rho2 = random_density(rng, self.dim, 0.1)
        files = []
        for k, rho in enumerate((rho1, rho2)):
            path = os.path.join(workdir, f"state{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cli.state_to_json(rho), fh)
            files.append(path)
        tol = 1e-10
        r1 = cli.load_state(files[0], tol)
        r2 = cli.load_state(files[1], tol)

        bx = rng.normal(size=3)
        by = rng.normal(size=3)
        bx *= rng.uniform(0.2, 0.8) / np.linalg.norm(bx)
        by *= rng.uniform(0.2, 0.8) / np.linalg.norm(by)
        basis3 = sun.generator_basis(3)
        rho3 = random_density(rng, 3, 0.1)
        _, x3 = sun.coefficients(rho3, basis3)
        xdot3 = rng.normal(size=basis3.size)

        path = geodesy.geometric_mean_operator(r1, r2)
        s_mid = np.linspace(0.0, path.s_star, 101)[50]
        basis2 = sun.generator_basis(2)
        qpath = geodesy.geometric_mean_operator(states.density_from_bloch(bx, basis2),
                                                states.density_from_bloch(by, basis2))
        sig4 = sun.generator_basis(4).sigmas
        # (argv, parse(stdout) -> value, expected value from the library)
        self.commands = [
            (["fidelity", files[0], files[1]],
             lambda out: json.loads(out)["root_fidelity"],
             float(format(geodesy.bures(r1, r2).root_fidelity, ".15g"))),
            (["geodesic", files[0], files[1], "--samples", "101"],
             lambda out: float(out.splitlines()[51].split(",")[1]),
             geodesy.root_fidelity(path.rho1, geodesy.geodesic_point(path, s_mid))),
            (["werner-sweep", "--steps", "201"],
             lambda out: float(out.splitlines()[101].split(",")[1]),
             geodesy.root_fidelity(states.werner("GHZ", 0.5), states.werner("W", 0.5))),
            (["qubit-orbit", f"--x={_fmt(bx)}", f"--y={_fmt(by)}", "--samples", "101"],
             lambda out: float(out.splitlines()[-1].split(",")[1]),
             float(closedform.qubit_orbit(bx, by, qpath.s_star)[0])),
            (["solve-g", "--dim", "3", f"--x={_fmt(x3)}", f"--xdot={_fmt(xdot3)}"],
             lambda out: json.loads(out)["g0"],
             sun.solve_tangent_G(x3, xdot3, basis3).g0),
            (["invariants", files[0]],
             lambda out: json.loads(out)["invariants"][-1],
             float(sun.characteristic_invariants(r1)[-1])),
            (["sun-check", "--dim", "4", "--trials", "3"],
             lambda out: json.loads(out)["trace_orthogonality"],
             float(np.max(np.abs(np.einsum('iab,jba->ij', sig4, sig4)
                                 - 2.0 * np.eye(sig4.shape[0]))))),
        ]
        # The in-process output of each argv is the byte-exact reference.
        self.reference = [self._main(argv)[1] for argv, _, _ in self.commands]

    def make(self, i: int) -> int:
        return i % len(self.commands)

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def op(self, k: int):
        argv = self.commands[k][0]
        if self.in_process:
            return self._main(argv)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from buresgeo.cli import main; sys.exit(main())", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
            check=False)
        return proc.returncode, proc.stdout

    def check(self, k: int, out):
        code, stdout = out
        argv, parse, expected = self.commands[k]
        if code != 0:
            return f"{argv[0]} exit code {code}"
        if stdout != self.reference[k]:
            return f"{argv[0]} stdout differs from the in-process run"
        try:
            value = parse(stdout)
        except (ValueError, KeyError, IndexError):
            return f"{argv[0]} stdout does not parse"
        if value != expected:
            return f"{argv[0]} value {value!r} differs from the library's {expected!r}"
        return None

    @staticmethod
    def corrupt(out):
        code, stdout = out
        return code, stdout.replace("1", "2", 1)


WORKLOADS = {cls.name: cls for cls in (GeodesicPairs, PathSampling, TangentSolve, CliSession)}
