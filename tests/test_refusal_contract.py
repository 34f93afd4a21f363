"""The refusal contract of every public entry point, generated from ``buresgeo.__all__``.

Each parameter of each public callable has a kind (matrix, vector, scalar,
dimension, path, basis, a0, tolerance or choice), found from its name. Each
kind has a table of malformed values: NaN or inf at a drawn position, the
wrong number of dimensions, an empty or mismatched size, a string, ``None``, a
``bool``, an object array, +-1e308, and an object of the wrong type. With every
other argument valid, each malformed value either returns or raises a
``ValueError`` (the library's subclasses included) whose message names the
argument; for a mismatched size the message may name the argument it is
compared with. No numpy ``RuntimeWarning`` escapes. Each matrix, vector and a0
argument given as nested lists gives the bytes of the ndarray call.

A public callable with a parameter of no known kind fails the walk, so a new
entry point is covered once its parameter names are. The known breaks are
listed in ``BREAKS``, one strict xfail per cause; a case that is mended fails
that test until it is taken out of the list. The per-entry tables in
``tests/test_nonfinite.py`` stay beside this walk, with their exact messages.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import warnings
import zlib

import numpy as np
import pytest

import buresgeo
from buresgeo import geodesy, matcore, states, sun
from conftest import random_density, random_state_vector, random_unitary

N = 4
_rng = np.random.default_rng(3200)
RHO1 = random_density(_rng, N, floor=0.1)
RHO2 = random_density(_rng, N, floor=0.1)
BASIS = sun.generator_basis(N)
PATH = geodesy.geometric_mean_operator(RHO1, RHO2)
GAUGE = random_unitary(_rng, N)
A0 = states.canonical_purification(RHO1, gauge=GAUGE)  # a gauged start: checked, then M(s) a0
X = sun.coefficients(random_density(_rng, N, floor=0.5), BASIS)[1]
Y = 0.1 * _rng.normal(size=BASIS.size)
DRHO = sun.expand(0.0, 0.01 * _rng.normal(size=BASIS.size), BASIS)
PSI = random_state_vector(_rng, N)
PSI2 = random_state_vector(_rng, N)
PSI2 = PSI2 - np.vdot(PSI, PSI2) * PSI
PSI2 /= np.linalg.norm(PSI2)

# The valid argument of each parameter name; a callable whose parameter needs
# another value says so in OVERRIDES.
VALID = {
    "rho": RHO1, "rho1": RHO1, "rho2": RHO2, "h": RHO1, "drho": DRHO,
    "a": A0.matrix, "adot": GAUGE, "gauge": GAUGE, "matrix": A0.matrix, "target": RHO1,
    "psi": PSI, "psi1": PSI, "psi2": PSI2, "x": X, "xdot": Y, "y": Y,
    "basis": BASIS, "path": PATH, "a0": A0, "s": PATH.s_star / 3,
    "n": N, "dim": N, "p": 0.5, "q": 0.3, "kind": "GHZ",
    "trace_tol": matcore.TRACE_TOL, "psd_tol": matcore.ADMIT_TOL,
}
QUBIT = {"x": np.array([0.1, -0.2, 0.3]), "y": np.array([-0.4, 0.1, 0.2]), "s": 0.05}
OVERRIDES = {"qubit_fidelity": QUBIT, "qubit_orbit": QUBIT, "maxmixed_to_pure": {"s": 0.1},
             "orthogonal_pure_geodesic": {"s": 0.1}}

KIND = {
    **dict.fromkeys(("rho", "rho1", "rho2", "h", "drho", "a", "adot", "gauge", "matrix",
                     "target"), "matrix"),
    **dict.fromkeys(("psi", "psi1", "psi2", "x", "xdot", "y"), "vector"),
    **dict.fromkeys(("s", "p", "q"), "scalar"),
    **dict.fromkeys(("n", "dim"), "dimension"),
    **dict.fromkeys(("trace_tol", "psd_tol"), "tolerance"),
    "basis": "basis", "path": "path", "a0": "a0", "kind": "choice",
}
ALIASES = {"n": "dimension", "dim": "dimension"}  # the name the library's messages use

# The result records and the error type: the library builds them, and their
# constructors check nothing.
RECORDS = {"SpectralDecomposition", "BuresSummary", "GeodesicPath", "TangentGenerator",
           "GeodesicUndefinedError"}


def _at(rng, shape):
    return tuple(int(rng.integers(k)) for k in shape)


def _nonfinite(a, rng):
    """``a`` with NaN, inf or -inf, drawn, at a drawn position."""
    out = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    out[_at(rng, out.shape)] = rng.choice([np.nan, np.inf, -np.inf])
    return out


def _object(a, rng):
    out = np.array(a, dtype=object)
    out[_at(rng, out.shape)] = None  # numpy casts None to NaN
    return out


ARRAY = {
    "nonfinite": _nonfinite,
    "string": lambda a, rng: "0.5",
    "none": lambda a, rng: None,
    "bool": lambda a, rng: True,
    "object": _object,
    "huge": lambda a, rng: np.full(np.shape(a), rng.choice([1e308, -1e308])),
}
MATRIX = {
    **ARRAY,
    "vector": lambda a, rng: np.asarray(a)[0],
    "stack": lambda a, rng: np.asarray(a)[None],
    "empty": lambda a, rng: np.zeros((0, 0)),
    "mismatched": lambda a, rng: np.eye(N + 1) / (N + 1),
}
WRONG_TYPE = {
    "none": lambda v, rng: None,
    "string": lambda v, rng: "x",
    "bool": lambda v, rng: True,
    "int": lambda v, rng: N,
    "ndarray": lambda v, rng: RHO1,
    "decomposition": lambda v, rng: PATH.start,
}


def _of_matrix(malformed):
    """A malformed a0 from a malformed matrix: its matrix, made malformed."""
    return lambda a0, rng: malformed(a0.matrix, rng)


SCALAR = {
    "nan": lambda t, rng: np.nan,
    "inf": lambda t, rng: np.inf,
    "-inf": lambda t, rng: -np.inf,
    "vector": lambda t, rng: np.array([t, t]),
    "matrix": lambda t, rng: np.full((2, 2), t),
    "string": lambda t, rng: str(t),
    "none": lambda t, rng: None,
    "bool": lambda t, rng: True,
    "object": lambda t, rng: np.array(t, dtype=object),
    "1e308": lambda t, rng: 1e308,
    "-1e308": lambda t, rng: -1e308,
}
TABLES = {
    "matrix": MATRIX,
    "vector": {
        **ARRAY,
        "matrix": lambda v, rng: np.outer(v, v),
        "empty": lambda v, rng: np.zeros(0),
        "mismatched": lambda v, rng: np.append(v, 0.0),
    },
    "scalar": SCALAR,
    "tolerance": SCALAR,
    "dimension": {
        "nan": lambda n, rng: np.nan,
        "inf": lambda n, rng: np.inf,
        "vector": lambda n, rng: np.array([n]),
        "zero": lambda n, rng: 0,
        "negative": lambda n, rng: -1,
        "fraction": lambda n, rng: 2.5,
        "mismatched": lambda n, rng: n + 1,
        "string": lambda n, rng: str(n),
        "none": lambda n, rng: None,
        "bool": lambda n, rng: True,
        "object": lambda n, rng: np.array(n, dtype=object),
        "1e308": lambda n, rng: 1e308,
    },
    "path": {**WRONG_TYPE, "purification": lambda v, rng: A0},
    "basis": {**WRONG_TYPE, "mismatched": lambda b, rng: sun.generator_basis(N - 1)},
    "a0": {**{k: _of_matrix(f) for k, f in MATRIX.items()}, **WRONG_TYPE,
           "path": lambda a0, rng: PATH},
    "choice": {
        "none": lambda c, rng: None,
        "number": lambda c, rng: 3,
        "bool": lambda c, rng: True,
        "unknown": lambda c, rng: "BELL",
        "bytes": lambda c, rng: c.encode(),
    },
}


def _entries():
    """(name, callable, parameter names) of each public callable but the records."""
    for name in buresgeo.__all__:
        obj = getattr(buresgeo, name)
        if name not in RECORDS:
            yield name, obj, list(inspect.signature(obj).parameters)


def _valid(name, params):
    return {p: OVERRIDES.get(name, {}).get(p, VALID[p]) for p in params}


ARRAY_VALUES = ("nonfinite", "string", "none", "bool", "object", "huge")
# Known breaks of the contract, one strict xfail each: the reason, and the
# (entry, parameter, value) cases it covers.
BREAKS = {
    "admit, spectral_decompose and canonical_purification refuse their one matrix as "
    "'matrix', not by its parameter name": {
        (e, p, v) for e, p in (("admit", "rho"), ("spectral_decompose", "h"),
                               ("canonical_purification", "rho"))
        for v in (*ARRAY_VALUES, "vector", "stack", "empty")},
}
BROKEN = set().union(*BREAKS.values())


def _refusal(name, param, value_id):
    """The call's refusal and its parameter names; the refusal is None when the
    call returns, and any other exception or an escaping warning propagates."""
    entry = getattr(buresgeo, name)
    params = list(inspect.signature(entry).parameters)
    args = _valid(name, params)
    rng = np.random.default_rng(zlib.crc32(f"{name}/{param}/{value_id}".encode()))
    args[param] = TABLES[KIND[param]][value_id](args[param], rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entry(**args)
        except ValueError as exc:
            return exc, params
    return None, params


def _check(name, param, value_id):
    exc, params = _refusal(name, param, value_id)
    if exc is None:
        return
    allowed = params if value_id == "mismatched" else [param]
    names = {q for p in allowed for q in (p, ALIASES.get(p, p))}
    message = str(exc)
    assert any(re.search(rf"(?<![\w']){re.escape(q)}(?!\w)", message) for q in names), (
        f"{name}({param}={value_id}) refused without naming {param}: {message!r}")


PARAMETERS = [(name, p) for name, _, params in _entries() for p in params]


@pytest.mark.parametrize("name, param", PARAMETERS)
def test_malformed_input_returns_or_is_refused_by_name(name, param):
    for value_id in TABLES[KIND[param]]:
        if (name, param, value_id) not in BROKEN:
            _check(name, param, value_id)


@pytest.mark.parametrize("reason", [
    pytest.param(reason, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                 reason=reason))
    for reason in BREAKS])
def test_known_break(reason):
    # Every case must still break; a mended case fails this test outright.
    mended = []
    for case in sorted(BREAKS[reason]):
        try:
            _check(*case)
        except (AssertionError, TypeError, RuntimeWarning):
            continue
        mended.append(case)
    if mended:
        pytest.fail(f"mended, take out of BREAKS: {mended}")
    raise AssertionError(reason)


def test_every_public_parameter_has_a_kind_and_a_valid_call():
    walked = 0
    for name, entry, params in _entries():
        assert set(params) <= set(KIND), (name, set(params) - set(KIND))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry(**_valid(name, params))
        walked += 1
    assert walked == len(buresgeo.__all__) - len(RECORDS)
    assert BROKEN <= {(n, p, v) for n, p in PARAMETERS for v in TABLES[KIND[p]]}


def _bytes(obj):
    """The content of a result, by type: arrays by dtype, shape and bytes, records
    by their fields, and any other value by its repr."""
    if isinstance(obj, np.ndarray):
        return "ndarray", obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(_bytes(getattr(obj, f.name))
                                         for f in dataclasses.fields(obj))
    if isinstance(obj, tuple):
        return tuple(_bytes(o) for o in obj)
    return type(obj).__name__, repr(obj)


def _list_cases():
    for name, _, params in _entries():
        for p in params:
            if KIND[p] in ("matrix", "vector"):
                yield name, p, "list"
            elif KIND[p] == "a0":
                yield name, p, "list"
                yield name, p, "list-built Purification"


@pytest.mark.parametrize("name, param, form", list(_list_cases()))
def test_nested_lists_give_the_bytes_of_arrays(name, param, form):
    entry = getattr(buresgeo, name)
    args = _valid(name, list(inspect.signature(entry).parameters))
    want = _bytes(entry(**args))
    value = args[param]
    if form == "list-built Purification":
        args[param] = states.Purification(matrix=value.matrix.tolist(),
                                          target=value.target.tolist())
    else:
        args[param] = (value.matrix if KIND[param] == "a0" else value).tolist()
    assert _bytes(entry(**args)) == want


def test_named_swaps_only_the_matrix_name():
    # A refusal that starts with "matrix" is re-raised, of its type, under the
    # caller's name; any other names its own argument and passes through as it is.
    def refuse(exc):
        def check(a):
            raise exc
        return check

    swapped = matcore.NotHermitianError("matrix is not Hermitian: 1")
    with pytest.raises(matcore.NotHermitianError, match=r"^a0 is not Hermitian: 1$"):
        matcore._named(refuse(swapped), RHO1, "a0")
    for message in ("target has non-finite entries", "not a state",
                    "Eigenvalues did not converge"):
        exc = ValueError(message)
        with pytest.raises(ValueError) as info:
            matcore._named(refuse(exc), RHO1, "a0")
        assert info.value is exc and str(exc) == message
    # A target with a NaN entry is the lift's check refusing the target, not a0.
    target = RHO1.copy()
    target[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"^target has non-finite entries .* at \(1, 2\)$"):
        matcore._named(lambda a: states.Purification(matrix=a, target=target), A0.matrix, "a0")
