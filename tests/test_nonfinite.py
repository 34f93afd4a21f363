"""NaN, infinite and non-scalar input is refused at the entry points with a named defect.

Without the check a NaN entry slipped through every comparison (all are
false for NaN) and surfaced later as an SVD that did not converge. Each
tolerance check is written so that a NaN measurement fails it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from buresgeo import cli, closedform, geodesy, matcore, states, sun

MIXED = states.maximally_mixed(2)

MATRIX_ENTRY_POINTS = {
    "validate_density": lambda rho: states.admit(rho).matrix,
    "spectral_decompose": matcore.spectral_decompose,
    "root_fidelity_first": lambda rho: geodesy.root_fidelity(rho, MIXED),
    "root_fidelity_second": lambda rho: geodesy.root_fidelity(MIXED, rho),
}


@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 0), (0, 1)])
def test_matrix_entry_points(entry, value, index):
    rho = MIXED.copy()
    rho[index] = value
    with pytest.raises(ValueError, match="non-finite"):
        MATRIX_ENTRY_POINTS[entry](rho)


@pytest.mark.parametrize("solver", ["solve_tangent_G", "unitary_tangent",
                                    "hamiltonian_from_Y"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_coordinate_entry_points(solver, value, position):
    basis = sun.generator_basis(3)
    vectors = [np.full(basis.size, 0.1), np.full(basis.size, 0.1)]
    vectors[position][2] = value
    with pytest.raises(ValueError, match="finite"):
        getattr(sun, solver)(*vectors, basis)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 0), (0, 1), (2, 1)])
def test_coefficients_names_the_entry(value, index):
    m = np.eye(3, dtype=np.complex128) / 3
    m[index] = value
    pattern = rf"non-finite entry .*{value}.* at \({index[0]}, {index[1]}\)"
    with pytest.raises(ValueError, match=pattern):
        sun.coefficients(m, sun.generator_basis(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_expand_names_the_entry(value):
    basis = sun.generator_basis(3)
    with pytest.raises(ValueError, match=f"coeff0 .*non-finite entry {value}"):
        sun.expand(value, np.zeros(basis.size), basis)
    coeffs = np.zeros(basis.size)
    coeffs[5] = value
    with pytest.raises(ValueError, match=f"non-finite entry {value} at index 5"):
        sun.expand(1.0, coeffs, basis)


@pytest.mark.parametrize("closed_form", ["qubit_fidelity", "qubit_orbit"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, position", [("x", 0), ("y", 1)])
def test_qubit_closed_forms_name_the_vector(closed_form, value, name, position):
    vectors = [np.array([0.1, 0.2, 0.1]), np.array([0.3, -0.1, 0.2])]
    vectors[position][0] = value
    extra = (0.1,) if closed_form == "qubit_orbit" else ()
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        getattr(closedform, closed_form)(*vectors, *extra)


DIMENSION_ENTRY_POINTS = {
    "maximally_mixed": states.maximally_mixed,
    "generator_basis": sun.generator_basis,
    "maxmixed_to_pure": lambda n: closedform.maxmixed_to_pure(n, [1.0, 0.0, 0.0], 0.1),
    "state_from_json": lambda n: cli.state_from_json(
        {"dim": n, "re": (np.eye(3) / 3).tolist(), "im": np.zeros((3, 3)).tolist()}, 1e-10),
}


@pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRY_POINTS))
@pytest.mark.parametrize("value", [2.5, 3.0])
def test_non_integer_dimension_is_named(entry, value):
    # numpy integers are accepted, and a cached entry for 3 must not answer for 3.0
    for n in (3, np.int64(3)):
        DIMENSION_ENTRY_POINTS[entry](n)
    with pytest.raises(ValueError, match=f"integer.*got {value!r}$"):
        DIMENSION_ENTRY_POINTS[entry](value)


PATH = geodesy.geometric_mean_operator(MIXED, states.pure_density([1.0, 0.0]))
NAN_2X2 = np.full((2, 2), np.nan)

NAN_ENTRY_POINTS = {
    "transport_coefficients": lambda: geodesy.transport_coefficients(np.nan, 0.5),
    "geodesic_point": lambda: geodesy.geodesic_point(PATH, np.nan),
    "horizontal_lift_s": lambda: geodesy.horizontal_lift(
        states.canonical_purification(MIXED), PATH, np.nan),
    "horizontal_lift_a0": lambda: geodesy.horizontal_lift(NAN_2X2, PATH, 0.1),
    "hlc_residual": lambda: geodesy.hlc_residual(NAN_2X2, MIXED),
    "maxmixed_to_pure": lambda: closedform.maxmixed_to_pure(2, [1.0, 0.0], np.nan),
    "orthogonal_pure_geodesic": lambda: closedform.orthogonal_pure_geodesic(
        [1.0, 0.0], [0.0, 1.0], np.nan),
    "qubit_orbit": lambda: closedform.qubit_orbit([0.1, 0.2, 0.1], [0.3, -0.1, 0.2], np.nan),
    "pure_density": lambda: states.pure_density([np.nan, 0.0]),
    "canonical_purification_gauge": lambda: states.canonical_purification(MIXED, gauge=NAN_2X2),
    "Purification": lambda: states.Purification(matrix=NAN_2X2, target=MIXED),
    "orthogonal_mean_operator": lambda: closedform.orthogonal_mean_operator(
        [np.nan, 0.0], [0.0, 1.0]),
}


@pytest.mark.parametrize("entry", sorted(NAN_ENTRY_POINTS))
def test_tolerance_checks_fail_closed_on_nan(entry):
    with pytest.raises(ValueError, match="nan"):
        NAN_ENTRY_POINTS[entry]()


S_ENTRY_POINTS = {
    "transport_coefficients": lambda s: geodesy.transport_coefficients(s, 0.5),
    "geodesic_point": lambda s: geodesy.geodesic_point(PATH, s),
    "transport_operator": lambda s: geodesy.transport_operator(PATH, s),
    "horizontal_lift": lambda s: geodesy.horizontal_lift(
        states.canonical_purification(MIXED), PATH, s),
    "maxmixed_to_pure": lambda s: closedform.maxmixed_to_pure(2, [1.0, 0.0], s),
    "orthogonal_pure_geodesic": lambda s: closedform.orthogonal_pure_geodesic(
        [1.0, 0.0], [0.0, 1.0], s),
    "qubit_orbit": lambda s: closedform.qubit_orbit([0.1, 0.2, 0.1], [0.3, -0.1, 0.2], s),
}


@pytest.mark.parametrize("entry", sorted(S_ENTRY_POINTS))
@pytest.mark.parametrize("s", [None, np.array([0.1, 0.2]), np.array([0.1]), "0.1"],
                         ids=["None", "vector", "length-1", "string"])
def test_non_scalar_s_is_named(entry, s):
    with pytest.raises(ValueError, match=r"^s = .* is not a real scalar$"):
        S_ENTRY_POINTS[entry](s)


SCALAR_ENTRY_POINTS = {
    "werner_ghz": ("p", lambda p: states.werner("GHZ", p)),
    "werner_w": ("p", lambda p: states.werner("W", p)),
    "werner_root_fidelity_p": ("p", lambda p: closedform.werner_root_fidelity(p, 0.5)),
    "werner_root_fidelity_q": ("q", lambda q: closedform.werner_root_fidelity(0.5, q)),
    "werner_mean_operator": ("p", closedform.werner_mean_operator),
    "werner_cross_term": ("p", closedform.werner_cross_term),
    "expand": ("coeff0", lambda c: sun.expand(c, np.zeros(8), sun.generator_basis(3))),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", [None, "0.5", np.array([0.1, 0.2]), np.array([0.1])],
                         ids=["None", "string", "vector", "length-1"])
def test_non_scalar_argument_is_named(entry, value):
    name, call = SCALAR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} = .* is not a real scalar$"):
        call(value)


MALFORMED_ENTRY_POINTS = {
    "hlc_residual_empty": ("a", lambda: geodesy.hlc_residual(np.zeros((0, 0)), np.zeros((0, 0)))),
    "hlc_residual_vector": ("a", lambda: geodesy.hlc_residual([1, 2], [3, 4])),
    "hlc_residual_2x3": ("a", lambda: geodesy.hlc_residual(np.ones((2, 3)), np.ones((2, 3)))),
    "pure_density_matrix_psi": ("psi", lambda: states.pure_density(np.eye(2) / np.sqrt(2))),
    "maxmixed_to_pure_matrix_psi": ("psi", lambda: closedform.maxmixed_to_pure(
        4, np.eye(2) / np.sqrt(2), 0.1)),
    "expand_no_basis": ("basis", lambda: sun.expand(1, np.zeros(8), None)),
    "coefficients_no_basis": ("basis", lambda: sun.coefficients(np.eye(3) / 3, 3)),
    "solve_tangent_G_string_basis": ("basis", lambda: sun.solve_tangent_G(
        np.zeros(8), np.zeros(8), "b")),
    "unitary_tangent_no_basis": ("basis", lambda: sun.unitary_tangent(
        np.zeros(8), np.zeros(8), None)),
    "hamiltonian_from_Y_no_basis": ("basis", lambda: sun.hamiltonian_from_Y(
        np.zeros(8), np.zeros(8), None)),
    "density_from_bloch_no_basis": ("basis", lambda: states.density_from_bloch(
        np.zeros(8), None)),
}


@pytest.mark.parametrize("entry", sorted(MALFORMED_ENTRY_POINTS))
def test_malformed_input_is_named(entry):
    name, call = MALFORMED_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


PATH_ENTRY_POINTS = {
    "geodesic_point": lambda path: geodesy.geodesic_point(path, 0.1),
    "transport_operator": lambda path: geodesy.transport_operator(path, 0.1),
    "initial_tangent": geodesy.initial_tangent,
    "horizontal_lift": lambda path: geodesy.horizontal_lift(
        states.canonical_purification(MIXED), path, 0.1),
}


@pytest.mark.parametrize("entry", sorted(PATH_ENTRY_POINTS))
@pytest.mark.parametrize("path, kind", [("path", "str"), (None, "NoneType"), (MIXED, "ndarray")],
                         ids=["string", "None", "ndarray"])
def test_a_path_that_is_not_a_geodesic_path_is_named(entry, path, kind):
    with pytest.raises(ValueError, match=f"^path must be a GeodesicPath, got {kind}$"):
        PATH_ENTRY_POINTS[entry](path)


BOOL_ENTRY_POINTS = {
    "maximally_mixed": ("dimension", lambda: states.maximally_mixed(True)),
    "state_from_json": ("dim", lambda: cli.state_from_json(
        {"dim": True, "re": [[1.0]], "im": [[0.0]]}, 1e-10)),
    "werner": ("p", lambda: states.werner("GHZ", True)),
    "werner_numpy_bool": ("p", lambda: states.werner("W", np.True_)),
    "transport_coefficients": ("s", lambda: geodesy.transport_coefficients(True, 1.0)),
    "geodesic_point": ("s", lambda: geodesy.geodesic_point(PATH, False)),
    "expand_coeff0": ("coeff0", lambda: sun.expand(True, np.zeros(8), sun.generator_basis(3))),
}


@pytest.mark.parametrize("entry", sorted(BOOL_ENTRY_POINTS))
def test_bool_is_not_a_number(entry):
    name, call = BOOL_ENTRY_POINTS[entry]
    pattern = rf"^{name} (must be an integer .*, got |= )(np\.)?(True|False)"
    with pytest.raises(ValueError, match=pattern):
        call()


@pytest.mark.parametrize("rho, kwargs, defect", [
    (np.diag([0.9, 0.6]), {"trace_tol": np.nan}, "not normalized"),
    (np.diag([1.1, -0.1]), {"psd_tol": np.nan}, "not a state"),
])
def test_nan_admission_tolerance_refuses(rho, kwargs, defect):
    # The matrix has its defect, but a NaN tolerance is refused by its own name.
    with pytest.raises(ValueError, match=f"^matrix is {defect}"):
        states.admit(rho)
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got nan$"):
        states.admit(rho, **kwargs)


@pytest.mark.parametrize("argv", [
    ["werner-sweep", "--steps", "3"],
    ["qubit-orbit", "--x=0.1,-0.2,0.3", "--y=-0.4,0.1,0.2", "--samples", "3"],
    ["solve-g", "--dim", "2", "--x", "0.1,0.2,0.3", "--xdot", "0.01,-0.02,0.03"],
], ids=lambda argv: argv[0])
def test_cli_gates_fail_closed_on_nan_tolerance(argv, capsys):
    assert cli.main([*argv, "--tol", "nan"]) == cli.EXIT_GATE
    assert "> nan" in capsys.readouterr().err


OVERFLOWING = np.array([[1.5e308 + 1.5e308j, 1e308], [-1e308, 1.0]])


@pytest.mark.parametrize("entry", [
    matcore.require_hermitian,
    matcore.spectral_decompose,
    lambda m: geodesy.hubner_metric(MIXED, m),
])
def test_overflowing_entries_are_refused_before_any_eigensolve(entry, solver_counts):
    # The entries are finite, but their moduli exceed ENTRY_LIMIT (one overflows).
    states.admit(MIXED)  # the metric's state, decomposed before the count
    solver_counts.update(dict.fromkeys(solver_counts, 0))
    with pytest.raises(ValueError, match="overflow"):
        entry(OVERFLOWING)
    assert solver_counts == {"eigh": 0, "eigvalsh": 0, "svd": 0}


NAN_MIXED = MIXED.copy()
NAN_MIXED[1, 1] = np.nan
SKEW = np.array([[0.5, 0.3], [-0.3, 0.5]], dtype=np.complex128)
PAIR_ENTRY_POINTS = ["root_fidelity", "bures", "geometric_mean_operator", "uhlmann_unitary"]


@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("bad, message", [
    (NAN_MIXED, r"has non-finite entries \(NaN or inf\): non-finite entry \(?nan"),
    (SKEW, r"is not Hermitian: max \|H - H\^dagger\|"),
    (2 * MIXED, r"is not normalized: trace = 2.0"),
], ids=["nan", "skew", "trace"])
def test_pair_refusals_name_the_argument(entry, position, bad, message):
    args = [MIXED, MIXED]
    args[position] = bad
    with pytest.raises(ValueError, match=f"^rho{position + 1} {message}"):
        getattr(geodesy, entry)(*args)


@pytest.mark.parametrize("args, message", [
    ((NAN_MIXED, np.zeros((2, 2))), r"^rho has non-finite entries"),
    ((MIXED, NAN_MIXED), r"^drho has non-finite entries"),
    ((MIXED, SKEW - 0.5 * np.eye(2)), r"^drho is not Hermitian"),
    ((MIXED, np.ones((2, 3))), r"^drho must be a square matrix"),
    ((MIXED, OVERFLOWING), r"^drho entries overflow"),
], ids=["rho-nan", "drho-nan", "drho-skew", "drho-shape", "drho-overflow"])
def test_metric_refusals_name_the_argument(args, message):
    with pytest.raises(ValueError, match=message):
        geodesy.hubner_metric(*args)


@pytest.mark.parametrize("rho, message", [
    (NAN_MIXED, r"^rho has non-finite entries"),
    (1e308 * np.eye(2), r"^rho entries overflow"),
    (SKEW, r"^rho is not Hermitian"),
], ids=["nan", "overflow", "skew"])
def test_invariants_refusals_name_rho(rho, message):
    with pytest.raises(ValueError, match=message):
        sun.characteristic_invariants(rho)


BELOW_CLAMP = np.diag([1.0 + 5e-11, -5e-11]).astype(np.complex128)
# Against I/2: sqrt(F) = sqrt((1 + 5e-11)/2), and the angle 2 arcsin(d/2) of the
# parallel roots, d^2 = 2 + 5e-11 - 2 sqrt(F): the clipped root keeps the trace
# 1 + 5e-11, so cos(s*) falls 2.5e-11 short of sqrt(F).
ROOT_FIDELITY_BELOW_CLAMP = math.sqrt((1.0 + 5e-11) / 2.0)
ANGLE_BELOW_CLAMP = 2.0 * math.asin(math.sqrt(2.0 + 5e-11 - 2.0 * ROOT_FIDELITY_BELOW_CLAMP) / 2)


@pytest.mark.parametrize("entry", ["root_fidelity", "bures", "geometric_mean_operator"])
@pytest.mark.parametrize("position", [0, 1])
def test_a_square_root_refusal_names_the_argument(entry, position):
    # Admitted at the PSD tolerance, and below the spectral zero: in either
    # argument the square root counts -5e-11 as 0 and refuses nothing, so there
    # is no refusal to name and the pair has its value.
    args = [MIXED, MIXED]
    args[position] = BELOW_CLAMP
    out = getattr(geodesy, entry)(*args)
    if entry == "geometric_mean_operator":
        assert abs(out.s_star - ANGLE_BELOW_CLAMP) <= 1e-15
        return
    value = out if entry == "root_fidelity" else out.root_fidelity
    assert abs(value - ROOT_FIDELITY_BELOW_CLAMP) <= 1e-15
    if entry == "bures":
        assert abs(out.bures_angle - ANGLE_BELOW_CLAMP) <= 1e-15


# Refused at the gate: each argument has entries above ENTRY_LIMIT, and the
# gate names it before its result could overflow.
REFUSED_AT_THE_GATE = [
    (lambda: sun.hamiltonian_from_Y(1e200 * np.ones(8), 1e200 * np.ones(8),
                                    sun.generator_basis(3)), "^x entries overflow"),
    (lambda: geodesy.hubner_metric(MIXED, np.diag([1e154, -1e154])), "^drho entries overflow"),
    (lambda: sun.unitary_tangent(1e200 * np.ones(8), 1e200 * np.ones(8),
                                 sun.generator_basis(3)), "^x entries overflow"),
    (lambda: sun.expand(1e308, 1e308 * np.ones(8), sun.generator_basis(3)),
     "^coeffs entries overflow"),
    (lambda: sun.coefficients(1e308 * np.ones((3, 3)), sun.generator_basis(3)),
     "^m entries overflow"),
    (lambda: sun.solve_tangent_G([0.1, 0.2, 0, 0.1, 0, 0, 0.2, 0.1], 1e308 * np.ones(8),
                                 sun.generator_basis(3)), "^xdot entries overflow"),
]
# The result overflows from admitted input: the invariants, of degree N in rho.
RESULT_OVERFLOWS = [
    (lambda: sun.characteristic_invariants(1e100 * np.eye(4)),
     "^rho is too large: its invariants overflow$"),
    (lambda: sun.characteristic_invariants(1e20 * np.eye(16)),
     "^rho is too large: its invariants overflow$"),
]


@pytest.mark.parametrize("call, message", REFUSED_AT_THE_GATE + RESULT_OVERFLOWS, ids=[
    "hamiltonian", "metric", "unitary-tangent", "expand", "coefficients", "solve-tangent",
    "invariants-matmul", "invariants-newton"])
def test_overflowing_results_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_invariants_with_a_finite_value_are_returned():
    # S_16 = 1.33e19^16 = 9.6e305 is finite, and so is every partial product of
    # the recurrence; each S_k = C(16, k) 1.33e19^k to 1.7 eps at worst.
    inv = sun.characteristic_invariants(1.33e19 * np.eye(16))
    exact = [float(math.comb(16, k) * Fraction(1.33e19) ** k) for k in range(1, 17)]
    assert np.all(np.abs(inv - exact) <= 4 * np.finfo(float).eps * np.array(exact))


def test_a_renamed_refusal_keeps_its_type():
    with pytest.raises(matcore.NotHermitianError, match="^rho2 is not Hermitian"):
        geodesy.root_fidelity(MIXED, SKEW)
