"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them inline;
they also appear in captured output on failure). Random ensembles use
spectral floors so the full-rank assumption of the geodesic construction
holds with healthy conditioning.
"""

import itertools
import json
import time

import numpy as np
import pytest

from buresgeo import cli, closedform, geodesy, states, sun
import oracles
from conftest import (random_bloch, random_density, random_state_vector,
                      random_traceless_hermitian, random_unitary)


def report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def sweep_rows(steps: int, capsys) -> list[dict]:
    assert cli.main(["werner-sweep", "--steps", str(steps)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def test_criterion_01_werner_sweep(capsys):
    start = time.perf_counter()
    rows = sweep_rows(101, capsys)
    elapsed = time.perf_counter() - start
    ok = rows[0]["p"] == 0.0 and rows[0]["root_fidelity"] == 1.0
    ok &= rows[-1]["p"] == 1.0 and rows[-1]["root_fidelity"] == 0.0
    half = rows[50]
    ok &= half["p"] == 0.5 and abs(half["root_fidelity"] - 0.75) <= 1e-12
    ok &= all(abs(r["root_fidelity"] - r["root_fidelity_closed_form"]) <= 1e-10
              for r in rows if r["p"] < 1.0)
    ok &= elapsed < 5.0
    with capsys.disabled():
        report(1, f"werner-sweep 101 steps, endpoints exact, {elapsed:.2f}s", ok)


def test_criterion_02_werner_spectrum(capsys):
    ok = True
    for p in np.arange(0.1, 0.95, 0.1):
        expected = np.sort(np.concatenate([[(1 + 7 * p) / 8],
                                           np.full(7, (1 - p) / 8)]))
        for kind in ("GHZ", "W"):
            w = np.linalg.eigvalsh(states.werner(kind, float(p)))
            ok &= bool(np.max(np.abs(w - expected)) <= 1e-12)
    with capsys.disabled():
        report(2, "Werner spectrum {(1+7p)/8, (1-p)/8 x7} at p=0.1..0.9", ok)


def test_criterion_03_maxmixed_to_pure(capsys):
    rng = np.random.default_rng(103)
    ok = True
    for n in (2, 4, 8, 16):
        psi = random_state_vector(rng, n)
        proj = states.pure_density(psi)
        mixed = states.maximally_mixed(n)
        ok &= abs(geodesy.root_fidelity(mixed, proj) - 1 / np.sqrt(n)) <= 1e-12
        path = geodesy.geometric_mean_operator(mixed, proj)
        ok &= bool(np.max(np.abs(geodesy.geodesic_point(path, path.s_star)
                                 - proj)) <= 1e-10)
        ok &= bool(np.max(np.abs(path.m_star - np.sqrt(n) * proj)) <= 1e-12)
    with capsys.disabled():
        report(3, "maximally mixed to pure for N in {2,4,8,16}", ok)


def test_criterion_04_qubit_closed_form_equivalence(capsys):
    rng = np.random.default_rng(104)
    basis = sun.generator_basis(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        x = random_bloch(rng, basis, floor=0.1)
        y = random_bloch(rng, basis, floor=0.1)
        r1 = states.density_from_bloch(x, basis)
        r2 = states.density_from_bloch(y, basis)
        path = geodesy.geometric_mean_operator(r1, r2)
        for s in np.linspace(0.0, path.s_star, 11):
            orbit = closedform.qubit_orbit(x, y, float(s))
            _, pipeline = sun.coefficients(geodesy.geodesic_point(path, s), basis)
            worst = max(worst, float(np.max(np.abs(orbit - pipeline))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    with capsys.disabled():
        report(4, f"200 qubit pairs x 11 points, worst dev {worst:.2e}, "
                  f"{elapsed:.2f}s", ok)


def test_criterion_05_geodesic_identities(capsys):
    rng = np.random.default_rng(105)
    ok = True
    for n in (2, 3, 4, 8):
        for _ in range(50):
            r1 = random_density(rng, n, floor=0.2)
            r2 = random_density(rng, n, floor=0.2)
            path = geodesy.geometric_mean_operator(r1, r2)
            for s in np.linspace(0.0, path.s_star, 7):
                rho_s = geodesy.geodesic_point(path, s)
                ok &= abs(np.trace(rho_s).real - 1.0) <= 1e-12
                ok &= abs(geodesy.root_fidelity(r1, rho_s) - np.cos(s)) <= 1e-9
                ok &= abs(geodesy.root_fidelity(rho_s, r2)
                          - np.cos(path.s_star - s)) <= 1e-9
                m = geodesy.transport_operator(path, s)
                ok &= bool(np.linalg.eigvalsh(m)[0] >= -1e-10)
            if not ok:
                break
    with capsys.disabled():
        report(5, "trace, cos-s fidelity laws, M(s) PSD over 50 pairs x N in "
                  "{2,3,4,8}", ok)


def test_criterion_06_hlc_suite(capsys):
    rng = np.random.default_rng(106)
    ok = True
    for n in (2, 3, 4):
        for _ in range(10):
            r1 = random_density(rng, n, floor=0.2)
            r2 = random_density(rng, n, floor=0.2)
            path = geodesy.geometric_mean_operator(r1, r2)
            a0 = states.canonical_purification(r1, gauge=random_unitary(rng, n))
            adot = geodesy.initial_tangent(path) @ a0.matrix
            ok &= geodesy.hlc_residual(a0.matrix, adot) <= 1e-10
            ok &= abs(np.trace(adot @ adot.conj().T).real - 1.0) <= 1e-10
            ok &= abs(np.trace(adot @ a0.matrix.conj().T)) <= 1e-10
            for s in np.linspace(0.0, path.s_star, 11):
                a_s = geodesy.horizontal_lift(a0, path, s).matrix
                k = a0.matrix.conj().T @ a_s
                ok &= bool(np.max(np.abs(k - k.conj().T)) <= 1e-10)
    with capsys.disabled():
        report(6, "horizontal lift: residual at 0, Hermitian overlaps, unit "
                  "orthogonal tangent", ok)


def test_criterion_07_optimal_gauge_unitary(capsys):
    rng = np.random.default_rng(107)
    ok = True
    for n in (2, 3, 4):
        for _ in range(100):
            r1 = random_density(rng, n, floor=0.1)
            r2 = random_density(rng, n, floor=0.1)
            u = geodesy.uhlmann_unitary(r1, r2)
            eye = np.eye(n)
            ok &= bool(np.max(np.abs(u.conj().T @ u - eye)) <= 1e-9)
            ok &= bool(np.max(np.abs(u @ u.conj().T - eye)) <= 1e-9)
            overlap = np.trace(u @ oracles.sqrtm_psd(r2) @ oracles.sqrtm_psd(r1))
            ok &= abs(overlap - geodesy.root_fidelity(r1, r2)) <= 1e-9
        if not ok:
            break
    with capsys.disabled():
        report(7, "gauge unitary: unitarity and fidelity overlap, 100 pairs x "
                  "N in {2,3,4}", ok)


def test_criterion_08_metric_consistency(capsys):
    rng = np.random.default_rng(108)
    ok = True
    for n in (2, 3):
        for _ in range(10):
            rho = random_density(rng, n, floor=0.3)
            drho = random_traceless_hermitian(rng, n, norm=0.15)
            metric = geodesy.hubner_metric(rho, drho)

            def quotient(t):
                moved = states.admit(rho + t * drho, trace_tol=1e-8).matrix
                d = geodesy.bures(rho, moved).bures_distance
                return d * d / (t * t)

            richardson = 2.0 * quotient(5e-4) - quotient(1e-3)
            ok &= abs(richardson - metric) / metric <= 1e-6
    basis = sun.generator_basis(2)
    for _ in range(20):
        x = rng.normal(size=3)
        x *= rng.uniform(0.0, 0.9) / np.linalg.norm(x)
        dx = rng.normal(size=3)
        closed = 0.25 * (dx @ dx + (x @ dx) ** 2 / (1 - x @ x))
        metric = geodesy.hubner_metric(states.density_from_bloch(x, basis),
                                       sun.expand(0.0, dx, basis))
        ok &= abs(metric - closed) <= 1e-10
    with capsys.disabled():
        report(8, "metric vs finite-difference Richardson (<=1e-6 rel) and "
                  "qubit closed form (<=1e-10)", ok)


def test_criterion_09_generator_algebra(capsys):
    ok = True
    for n in (2, 3, 4):
        basis = sun.generator_basis(n)
        m = basis.size
        eye = np.eye(n)
        gram = np.einsum('iab,jba->ij', basis.sigmas, basis.sigmas)
        ok &= bool(np.max(np.abs(gram - 2 * np.eye(m))) <= 1e-12)
        for perm in ((1, 0, 2), (0, 2, 1)):
            ok &= bool(np.max(np.abs(basis.f + basis.f.transpose(perm))) <= 1e-12)
            ok &= bool(np.max(np.abs(basis.d - basis.d.transpose(perm))) <= 1e-12)
        comp = np.einsum('iab,icd->abcd', basis.sigmas, basis.sigmas)
        target = 2 * np.einsum('ad,bc->abcd', eye, eye) \
            - (2 / n) * np.einsum('ab,cd->abcd', eye, eye)
        ok &= bool(np.max(np.abs(comp - target)) <= 1e-12)
        prod = np.einsum('iab,jbc->ijac', basis.sigmas, basis.sigmas)
        recon = (2 / n) * np.einsum('ij,ac->ijac', np.eye(m), eye) \
            + np.einsum('ijk,kac->ijac', basis.d + 1j * basis.f, basis.sigmas)
        ok &= bool(np.max(np.abs(prod - recon)) <= 1e-12)
    pauli = sun.generator_basis(2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[1, 0, 2] = eps[2, 1, 0] = eps[0, 2, 1] = -1.0
    ok &= np.array_equal(pauli.f, eps) and not pauli.d.any()
    with capsys.disabled():
        report(9, "su(N) algebra identities at 1e-12, exact Pauli reduction", ok)


def test_criterion_10_tangent_solvers(capsys):
    rng = np.random.default_rng(110)
    ok = True
    for n in (2, 3, 4):
        basis = sun.generator_basis(n)
        for _ in range(100):
            x = random_bloch(rng, basis, floor=0.1)
            xdot = rng.normal(size=basis.size)
            gen = sun.solve_tangent_G(x, xdot, basis)
            rho = sun.expand(1.0, x, basis)
            rhodot = sun.expand(0.0, xdot, basis)
            residual = np.max(np.abs(gen.matrix @ rho + rho @ gen.matrix - rhodot))
            ok &= bool(residual <= 1e-9)
            unitary = sun.unitary_tangent(rng.normal(size=basis.size), x, basis)
            ok &= unitary.g0 == 0.0
            scale = max(np.linalg.norm(x) * np.linalg.norm(unitary.g), 1.0)
            ok &= abs(x @ unitary.g) <= 1e-12 * scale
        if not ok:
            break
    with capsys.disabled():
        report(10, "generator reconstruction <=1e-9, unitary tangent g0=0 and "
                   "x.g=0, 100 draws x N in {2,3,4}", ok)


def test_criterion_11_characteristic_invariants(capsys):
    rng = np.random.default_rng(111)
    ok = True
    for n in range(2, 9):
        rho = random_density(rng, n)
        inv = sun.characteristic_invariants(rho)
        ok &= abs(inv[0] - 1.0) <= 1e-12
        lam = np.linalg.eigvalsh(rho)
        for k in range(1, n + 1):
            esp = sum(np.prod(c) for c in itertools.combinations(lam, k))
            ok &= abs(inv[k - 1] - esp) <= 1e-10
    with capsys.disabled():
        report(11, "characteristic invariants match elementary symmetric "
                   "polynomials, N <= 8", ok)


def test_criterion_12_orthogonal_endpoint_policy(capsys):
    g_vec, w_vec = states.ghz_state(), states.w_state()
    ok = abs(np.vdot(g_vec, w_vec)) <= 1e-15
    a0, rho0 = closedform.orthogonal_pure_geodesic(g_vec, w_vec, 0.0)
    ok &= bool(np.max(np.abs(rho0 - states.pure_density(g_vec))) <= 1e-14)
    _, rho1 = closedform.orthogonal_pure_geodesic(g_vec, w_vec, np.pi / 2)
    ok &= bool(np.max(np.abs(rho1 - states.pure_density(w_vec))) <= 1e-14)
    path = geodesy.geometric_mean_operator(states.pure_density(g_vec),
                                           states.pure_density(w_vec))
    ok &= path.orthogonal and path.s_star == np.pi / 2
    adot = geodesy.initial_tangent(path) @ states.pure_density(g_vec)
    ok &= geodesy.hlc_residual(states.pure_density(g_vec), adot) <= 1e-12
    mixed1 = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    mixed2 = np.diag([0, 0, 0, 0, 0, 0, 0.5, 0.5]).astype(complex)
    try:
        geodesy.geometric_mean_operator(mixed1, mixed2)
        ok = False
    except geodesy.GeodesicUndefinedError as exc:
        ok &= "M singular at s*=pi/2" in str(exc)
    with capsys.disabled():
        report(12, "orthogonal pure geodesic passes, orthogonal mixed "
                   "endpoints refused", ok)
