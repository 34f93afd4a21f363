"""Command-line interface: fidelities, geodesic sampling, sweeps, solvers.

States are read from JSON files of the form

    {"dim": N, "re": [[...]], "im": [[...]]}

with separate real and imaginary parts so the format stays portable across
languages. Table output is CSV (17 significant digits, fixed column order)
or JSON (stable keys); identical inputs and flags produce byte-identical
output. Exit codes: 0 on success, 2 on validation failure, 3 when a
numerical gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import closedform, geodesy, matcore, states, sun

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _round15(value: float) -> float:
    return float(format(float(value), ".15g"))


def state_to_json(rho) -> dict:
    """Serializable {dim, re, im} form of a state matrix."""
    r = np.asarray(rho, dtype=np.complex128)
    return {"dim": int(r.shape[0]),
            "re": r.real.tolist(),
            "im": r.imag.tolist()}


def state_from_json(data: dict, tol: float) -> np.ndarray:
    """Parse a {dim, re, im} state description.

    Validation runs at ``tol``; states admitted inside the tolerance band are
    snapped onto the unit-trace PSD cone before use.
    """
    try:
        dim = data["dim"]
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"state file must contain dim, re, im: {exc}") from exc
    dim = matcore.as_dimension(dim, "dim", 1)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"re/im arrays must be {dim}x{dim}, got {re.shape} "
                         f"and {im.shape}")
    return states._snap_to_state(states.admit(re + 1j * im, trace_tol=tol, psd_tol=tol))


def load_state(path: str, tol: float) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return state_from_json(data, tol)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt17(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _admission_tol(text: str) -> float:
    """argparse type of a state-loading ``--tol``: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _parse_vector(text: str, length: int, name: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{name} must be comma-separated reals: {exc}") from exc
    if vec.shape != (length,):
        raise ValueError(f"{name} must have {length} components, got {vec.size}")
    return matcore.as_vector(vec, name)


def cmd_fidelity(args) -> int:
    rho1 = load_state(args.state1, args.tol)
    rho2 = load_state(args.state2, args.tol)
    summary = geodesy.bures(rho1, rho2)
    payload = {"root_fidelity": _round15(summary.root_fidelity),
               "bures_angle": _round15(summary.bures_angle),
               "bures_distance": _round15(summary.bures_distance)}
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _geodesic_rows(path: geodesy.GeodesicPath, samples: int):
    basis2 = sun.generator_basis(2) if path.dim == 2 else None
    rows = []
    for s in np.linspace(0.0, path.s_star, samples):
        rho_s = geodesy.geodesic_point(path, s)
        row = {"s": float(s),
               "root_fidelity_to_start": geodesy.root_fidelity(path.rho1, rho_s),
               "trace": float(np.trace(rho_s).real),
               "purity": float(np.trace(rho_s @ rho_s).real),
               "eigenvalues": [float(v) for v in states.admit(rho_s).eigenvalues]}
        if basis2 is not None:
            _, bloch = sun.coefficients(rho_s, basis2)
            row["bloch"] = [float(v) for v in bloch]
        rows.append(row)
    return rows


def cmd_geodesic(args) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    rho1 = load_state(args.state1, args.tol)
    rho2 = load_state(args.state2, args.tol)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    rows = _geodesic_rows(path, args.samples)
    if args.format == "json":
        payload = {"dim": path.dim, "s_star": path.s_star, "samples": rows}
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        n = path.dim
        header = ["s", "root_fidelity_to_start", "trace", "purity"]
        header += [f"eig_{i}" for i in range(n)]
        if n == 2:
            header += ["bloch_x", "bloch_y", "bloch_z"]
        flat = []
        for row in rows:
            vals = [row["s"], row["root_fidelity_to_start"], row["trace"],
                    row["purity"], *row["eigenvalues"]]
            if n == 2:
                vals += row["bloch"]
            flat.append(vals)
        _emit(_csv(header, flat), args.out)
    return EXIT_OK


def cmd_werner_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    rows = []
    worst = 0.0
    for p in np.linspace(0.0, 1.0, args.steps):
        p = float(p)
        rho_ghz, rho_w = states.werner("GHZ", p), states.werner("W", p)
        sf = geodesy.root_fidelity(rho_ghz, rho_w)
        angle = geodesy.bures(rho_ghz, rho_w).bures_angle
        closed = closedform.werner_root_fidelity(p, p)
        if p < 1.0:
            worst = max(worst, abs(sf - closed))
        rows.append({"p": p,
                     "root_fidelity": sf,
                     "s_star_over_half_pi": angle / (np.pi / 2),
                     "root_fidelity_closed_form": closed})
    if args.format == "json":
        _emit(json.dumps({"steps": args.steps, "rows": rows}) + "\n", args.out)
    else:
        header = ["p", "root_fidelity", "s_star_over_half_pi",
                  "root_fidelity_closed_form"]
        _emit(_csv(header, [[r[h] for h in header] for r in rows]), args.out)
    if not worst <= args.tol:
        print(f"numerical gate failed: spectral vs closed-form root fidelity "
              f"differ by {worst:.3e} > {args.tol:.1e}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def cmd_qubit_orbit(args) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    x = _parse_vector(args.x, 3, "--x")
    y = _parse_vector(args.y, 3, "--y")
    basis = sun.generator_basis(2)
    rho1 = states.density_from_bloch(x, basis)
    rho2 = states.density_from_bloch(y, basis)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    rows = []
    worst = 0.0
    for s in np.linspace(0.0, path.s_star, args.samples):
        r = closedform.qubit_orbit(x, y, float(s))
        _, pipeline = sun.coefficients(geodesy.geodesic_point(path, s), basis)
        dev = float(np.max(np.abs(r - pipeline)))
        worst = max(worst, dev)
        rows.append({"s": float(s), "r_x": float(r[0]), "r_y": float(r[1]),
                     "r_z": float(r[2]), "pipeline_deviation": dev})
    if args.format == "json":
        _emit(json.dumps({"s_star": path.s_star, "rows": rows}) + "\n", args.out)
    else:
        header = ["s", "r_x", "r_y", "r_z", "pipeline_deviation"]
        _emit(_csv(header, [[r[h] for h in header] for r in rows]), args.out)
    if not worst <= args.tol:
        print(f"numerical gate failed: closed-form orbit deviates from the "
              f"transport pipeline by {worst:.3e} > {args.tol:.1e}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def cmd_solve_g(args) -> int:
    size = args.dim * args.dim - 1
    x = _parse_vector(args.x, size, "--x")
    xdot = _parse_vector(args.xdot, size, "--xdot")
    basis = sun.generator_basis(args.dim)
    gen = sun.solve_tangent_G(x, xdot, basis)
    rho = sun.expand(1.0, x, basis)
    rhodot = sun.expand(0.0, xdot, basis)
    residual = float(np.max(np.abs(gen.matrix @ rho + rho @ gen.matrix - rhodot)))
    payload = {"dim": args.dim, "g0": gen.g0, "g": [float(v) for v in gen.g],
               "residual": residual}
    _emit(json.dumps(payload) + "\n", args.out)
    if not residual <= args.tol:
        print(f"numerical gate failed: reconstruction residual {residual:.3e} "
              f"> {args.tol:.1e}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def cmd_invariants(args) -> int:
    rho = load_state(args.state, args.tol)
    inv = sun.characteristic_invariants(rho)
    payload = {"dim": int(rho.shape[0]),
               "trace": float(np.trace(rho).real),
               "purity": float(np.trace(rho @ rho).real),
               "eigenvalues": [float(v) for v in states.admit(rho).eigenvalues],
               "invariants": [float(v) for v in inv]}
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _sun_residuals(basis: sun.GeneratorBasis) -> dict:
    """Generator-algebra identity residuals, one generator at a time so that
    no m x m x N x N array is formed.
    """
    sig = basis.sigmas
    n = basis.dim
    f, d = basis.f, basis.d
    gram = np.einsum('iab,jba->ij', sig, sig)
    orth = float(np.max(np.abs(gram - 2.0 * np.eye(basis.size))))
    eye = np.eye(n)
    comp = np.zeros((n, n, n, n), dtype=np.complex128)
    f_asym = d_sym = closure = 0.0
    for i, s in enumerate(sig):
        f_asym = max(f_asym, np.abs(f[i] + f[:, i]).max(), np.abs(f[i] + f[i].T).max())
        d_sym = max(d_sym, np.abs(d[i] - d[:, i]).max(), np.abs(d[i] - d[i].T).max())
        comp += np.multiply.outer(s, s)
        recon = np.tensordot(d[i] + 1j * f[i], sig, axes=1)
        recon[i] += (2.0 / n) * eye
        closure = max(closure, float(np.max(np.abs(s @ sig - recon))))
    target = 2.0 * np.einsum('ad,bc->abcd', eye, eye) \
        - (2.0 / n) * np.einsum('ab,cd->abcd', eye, eye)
    return {"trace_orthogonality": orth, "f_antisymmetry": float(f_asym),
            "d_symmetry": float(d_sym), "completeness": float(np.max(np.abs(comp - target))),
            "closure": closure}


def cmd_sun_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    basis = sun.generator_basis(args.dim)
    residuals = _sun_residuals(basis)
    payload = {"dim": args.dim, **residuals}
    if args.dim == 2:
        i, j, k = np.indices((3, 3, 3))
        eps = (i - j) * (j - k) * (k - i) / 2.0  # Levi-Civita symbol
        payload["pauli_f_error"] = float(np.max(np.abs(basis.f - eps)))
        payload["pauli_d_error"] = float(np.max(np.abs(basis.d)))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        g = rng.normal(size=(args.dim, args.dim)) + 1j * rng.normal(size=(args.dim, args.dim))
        rho = g @ g.conj().T
        rho = 0.8 * rho / np.trace(rho).real + 0.2 * np.eye(args.dim) / args.dim
        _, x = sun.coefficients(rho, basis)
        xdot = rng.normal(size=basis.size)
        gen = sun.solve_tangent_G(x, xdot, basis)
        rhodot = sun.expand(0.0, xdot, basis)
        worst = max(worst, float(np.max(np.abs(
            gen.matrix @ rho + rho @ gen.matrix - rhodot))))
    payload["reconstruction_max_residual"] = worst
    algebra_worst = max(residuals.values())
    recon_gate = matcore.GATE_TOL["reconstruction"]
    payload["tolerance"] = args.tol
    payload["pass"] = bool(algebra_worst <= args.tol and worst <= recon_gate)
    _emit(json.dumps(payload) + "\n", args.out)
    if not payload["pass"]:
        print(f"numerical gate failed: worst algebra residual {algebra_worst:.3e} "
              f"(gate {args.tol:.1e}), reconstruction {worst:.3e} (gate {recon_gate!r})",
              file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buresgeo",
        description="Bures geodesics between density matrices via the "
                    "geometric-mean transport operator.")
    sub = parser.add_subparsers(dest="command", required=True)

    # A gate --tol stays a plain float: a NaN gate fails closed with exit 3.
    def add_common(p, default_tol, tol_type=_admission_tol):
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output to FILE instead of stdout")
        p.add_argument("--tol", type=tol_type, default=default_tol,
                       help="validation / gate tolerance override")

    p = sub.add_parser("fidelity", help="root fidelity, Bures angle and distance")
    p.add_argument("state1")
    p.add_argument("state2")
    add_common(p, default_tol=matcore.ADMIT_TOL)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("geodesic", help="sample states along the geodesic")
    p.add_argument("state1")
    p.add_argument("state2")
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, default_tol=matcore.ADMIT_TOL)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("werner-sweep",
                       help="GHZ/W Werner root-fidelity sweep over p")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, default_tol=matcore.GATE_TOL["werner-sweep"], tol_type=float)
    p.set_defaults(func=cmd_werner_sweep)

    p = sub.add_parser("qubit-orbit",
                       help="closed-form Bloch orbit between qubit states, "
                            "gated against the transport pipeline")
    p.add_argument("--x", required=True,
                   help="start Bloch vector a,b,c (use --x=-a,b,c for "
                        "leading minus signs)")
    p.add_argument("--y", required=True, help="end Bloch vector a,b,c")
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, default_tol=matcore.GATE_TOL["qubit-orbit"], tol_type=float)
    p.set_defaults(func=cmd_qubit_orbit)

    p = sub.add_parser("solve-g", help="solve for the flow generator from (x, xdot)")
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--x", required=True, help="N^2-1 comma-separated coordinates")
    p.add_argument("--xdot", required=True, help="N^2-1 comma-separated rates")
    add_common(p, default_tol=matcore.GATE_TOL["solve-g"], tol_type=float)
    p.set_defaults(func=cmd_solve_g)

    p = sub.add_parser("invariants",
                       help="characteristic-polynomial invariants of a state")
    p.add_argument("state")
    add_common(p, default_tol=matcore.ADMIT_TOL)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("sun-check", help="generator-algebra identity report")
    p.add_argument("--dim", type=int, default=3, metavar="N")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random reconstruction trials")
    p.add_argument("--trials", type=int, default=10)
    add_common(p, default_tol=matcore.GATE_TOL["sun-check"], tol_type=float)
    p.set_defaults(func=cmd_sun_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
