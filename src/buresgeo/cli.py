"""Command-line interface: fidelities, geodesic sampling, sweeps, solvers.

States are read from JSON files of the form

    {"dim": N, "re": [[...]], "im": [[...]]}

with separate real and imaginary parts so the format stays portable across
languages. Table output is CSV (17 significant digits, fixed column order)
or JSON (stable keys); identical inputs and flags produce byte-identical
output. Exit codes: 0 on success, 2 on validation failure, 3 when a
numerical gate fails. Each subcommand computes its report and its gate
verdict and hands both to ``_report``, the one writer of output. The sweeps
(``geodesic``, ``werner-sweep`` and ``qubit-orbit``) compute their rows as
stacks, one block of at most ``_STACK_ENTRIES`` matrix entries at a time, with
the bytes of one scalar library call per row.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import closedform, geodesy, matcore, states, sun

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3
_STACK_ENTRIES = 1 << 12  # matrix entries per stacked block of a sweep: bounds its temporaries


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
    """The state in the JSON file ``path``; every defect of its content (a JSON
    syntax or UTF-8 decoding error, or a refused state) is named with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return state_from_json(data, tol)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{path}: {exc}") from exc


def _report(args, payload: dict, header: list[str] | None = None, rows=(),
            failure: str | None = None) -> int:
    """Write one report and return the exit code.

    ``payload`` is written as one strict JSON line (no NaN or Infinity); under
    ``--format csv`` the ``rows`` are written as a CSV table under ``header``
    instead, their list-valued fields expanded in key order. Either goes to
    ``--out`` or stdout. A gate ``failure`` then prints one stderr line and
    the exit code is ``EXIT_GATE``: a failed gate still leaves its whole report.
    """
    if getattr(args, "format", "json") == "csv":
        lines = [",".join(header)]
        for row in rows:
            cells = (v for value in row.values()
                     for v in (value if isinstance(value, list) else (value,)))
            lines.append(",".join(map(_fmt17, cells)))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if failure is None:
        return EXIT_OK
    print(f"numerical gate failed: {failure}", file=sys.stderr)
    return EXIT_GATE


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
    return _report(args, payload)


def _blocks(grid: np.ndarray, n: int):
    """``grid`` in consecutive slices of at most ``_STACK_ENTRIES`` / N^2 points
    (at least one): a sweep's rows are computed as stacks one slice at a time."""
    step = max(1, _STACK_ENTRIES // (n * n))
    return (grid[i:i + step] for i in range(0, grid.size, step))


def _rows(columns: dict) -> list[dict]:
    """One dict per row from equal-length columns, in column order, with numpy
    values as Python floats (and lists of them)."""
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def _geodesic_rows(path: geodesy.GeodesicPath, samples: int):
    rows = []
    for s in _blocks(np.linspace(0.0, path.s_star, samples), path.dim):
        rho = geodesy._points(path, s)
        st = states._admit_stack(rho)
        columns = {"s": s,
                   "root_fidelity_to_start": geodesy._root_fidelities(path.start, st),
                   "trace": np.trace(rho, axis1=-2, axis2=-1).real,
                   "purity": np.trace(rho @ rho, axis1=-2, axis2=-1).real,
                   "eigenvalues": st.eigenvalues}
        if path.dim == 2:
            columns["bloch"] = sun._project(rho, 2)
        rows += _rows(columns)
    return rows


def cmd_geodesic(args) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    rho1 = load_state(args.state1, args.tol)
    rho2 = load_state(args.state2, args.tol)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    rows = _geodesic_rows(path, args.samples)
    header = ["s", "root_fidelity_to_start", "trace", "purity"]
    header += [f"eig_{i}" for i in range(path.dim)]
    if path.dim == 2:
        header += ["bloch_x", "bloch_y", "bloch_z"]
    payload = {"dim": path.dim, "s_star": path.s_star, "samples": rows}
    return _report(args, payload, header, rows)


def cmd_werner_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    rows = []
    worst = 0.0
    for p in _blocks(np.linspace(0.0, 1.0, args.steps), 8):
        ghz = states._admit_stack(states._werner("GHZ", p[:, None, None]))
        w = states._admit_stack(states._werner("W", p[:, None, None]))
        sf = geodesy._root_fidelities(ghz, w)
        closed = closedform._werner_root_fidelity(p, p)
        worst = max(worst, float(np.abs(sf - closed)[p < 1.0].max(initial=0.0)))
        rows += _rows({"p": p,
                       "root_fidelity": sf,
                       "s_star_over_half_pi": geodesy._bures_angles(ghz, w) / (np.pi / 2),
                       "root_fidelity_closed_form": closed})
    failure = None if worst <= args.tol else (
        f"spectral vs closed-form root fidelity differ by {worst:.3e} > {args.tol:.1e}")
    return _report(args, {"steps": args.steps, "rows": rows}, list(rows[0]), rows, failure)


def _qubit_range_cause(exc: ValueError, path: geodesy.GeodesicPath, x, y) -> ValueError:
    """The closed form's refusal ``exc`` of an s on the pipeline's grid, or, when it
    is the range refusal and an endpoint is pure to the pipeline (rank 1) but not
    to the closed form (1 - |v|^2 > 0), the same refusal naming that endpoint's
    flag and both measurements: the two routes then take different s*."""
    causes = [f"{flag} is pure to the transport pipeline (rank 1, smallest eigenvalue "
              f"{st.eigenvalues.item(0):.3e}) but not to the closed form "
              f"(1 - |{flag[2:]}|^2 = {1.0 - v @ v:.3e})"
              for flag, v, st in (("--x", x, path.start), ("--y", y, path.end))
              if st.rank == 1 and 1.0 - v @ v > 0.0]
    if not causes or "outside the geodesic range" not in str(exc):
        return exc
    return ValueError(f"{'; '.join(causes)}, so the routes end at different s*: {exc}")


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
    for s in _blocks(np.linspace(0.0, path.s_star, args.samples), 2):
        try:
            r = closedform._qubit_orbits(x, y, s)
        except ValueError as exc:
            raise _qubit_range_cause(exc, path, x, y) from None
        dev = np.abs(r - sun._project(geodesy._points(path, s), 2)).max(axis=-1)
        worst = max(worst, float(dev.max()))
        rows += _rows({"s": s, "r_x": r[:, 0], "r_y": r[:, 1], "r_z": r[:, 2],
                       "pipeline_deviation": dev})
    failure = None if worst <= args.tol else (
        f"closed-form orbit deviates from the transport pipeline by {worst:.3e} "
        f"> {args.tol:.1e}")
    return _report(args, {"s_star": path.s_star, "rows": rows}, list(rows[0]), rows, failure)


def cmd_solve_g(args) -> int:
    basis = matcore._named(sun.generator_basis, args.dim, "--dim")  # sizes --x and --xdot
    x = _parse_vector(args.x, basis.size, "--x")
    xdot = _parse_vector(args.xdot, basis.size, "--xdot")
    try:
        gen = sun.solve_tangent_G(x, xdot, basis)
    except ValueError as exc:  # the library names its parameter; the command names the flag
        if not str(exc).startswith("xdot "):
            raise
        raise ValueError(f"--{exc}") from None
    rho = sun.expand(1.0, x, basis)
    rhodot = sun.expand(0.0, xdot, basis)
    residual = float(np.max(np.abs(gen.matrix @ rho + rho @ gen.matrix - rhodot)))
    payload = {"dim": args.dim, "g0": gen.g0, "g": [float(v) for v in gen.g],
               "residual": residual}
    failure = None if residual <= args.tol else (
        f"reconstruction residual {residual:.3e} > {args.tol:.1e}")
    return _report(args, payload, failure=failure)


def cmd_invariants(args) -> int:
    rho = load_state(args.state, args.tol)
    st = states.admit(rho)
    payload = {"dim": int(rho.shape[0]),
               "trace": float(np.trace(rho).real),
               "purity": float(np.trace(rho @ rho).real),
               "eigenvalues": [float(v) for v in st.eigenvalues],
               "invariants": [float(v) for v in sun.characteristic_invariants(st)]}
    return _report(args, payload)


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
    basis = matcore._named(sun.generator_basis, args.dim, "--dim")
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
    # RFC 8259 JSON has no NaN or Infinity: a non-finite gate is echoed as null.
    payload["tolerance"] = args.tol if abs(args.tol) < np.inf else None
    payload["pass"] = bool(algebra_worst <= args.tol and worst <= recon_gate)
    failure = None if payload["pass"] else (
        f"worst algebra residual {algebra_worst:.3e} (gate {args.tol:.1e}), "
        f"reconstruction {worst:.3e} (gate {recon_gate!r})")
    return _report(args, payload, failure=failure)


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


_parser = functools.cache(build_parser)  # main's parser, built once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
