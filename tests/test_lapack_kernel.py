"""The one LAPACK site, ``matcore._lapack``, equals numpy.linalg bit for bit.

The kernel calls numpy's private gufuncs (``numpy.linalg._umath_linalg``)
without numpy's per-call wrapper. These tests are the guard for a numpy
release that renames them or changes what they return: each routine is held
byte for byte against the public function that wraps it, on seeded Hermitian
and general matrices at N in {2, 4, 8, 16, 64}, full-rank, rank-deficient
products and states conditioned at 1e-12. A gufunc that fails fills its
outputs with NaN; the kernel raises numpy's ``LinAlgError`` for it. Before
those, each gufunc the kernel names is checked to exist and to accept the
signature the kernel gives it, so a numpy without one says which, and which
numpy it is.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from buresgeo import matcore
from conftest import conditioned_density, random_density, random_hermitian
from numpy.linalg import _umath_linalg

SIZES = (2, 4, 8, 16, 64)


def _rank_deficient(rng, n):
    r = max(1, n // 2)
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    h = g @ g.conj().T
    return h / np.trace(h).real


def _hermitian(rng, n):
    """A full-rank Hermitian matrix, a state, a rank-deficient product and a
    state conditioned at 1e-12."""
    return [random_hermitian(rng, n), random_density(rng, n, floor=0.1),
            _rank_deficient(rng, n), conditioned_density(rng, n, 1e-12)]


def _general(rng, n):
    """Those matrices, products of two of them (as sqrt(rho1) F2 is) and a
    general complex matrix."""
    mats = _hermitian(rng, n)
    mats += [mats[1] @ mats[2], mats[2] @ _rank_deficient(rng, n), mats[3] @ mats[1],
             rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))]
    return mats


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _named_gufuncs() -> dict[str, str]:
    """{gufunc: signature} of every ``_umath_linalg`` call in ``matcore._lapack``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(matcore._lapack)))
    return {node.func.attr: next(k.value.value for k in node.keywords
                                 if k.arg == "signature")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "_umath_linalg"}


def test_the_kernel_names_three_gufuncs():
    assert _named_gufuncs() == {"eigh_lo": "D->dD", "svd_f": "D->DdD", "svd": "D->d"}


@pytest.mark.parametrize("name", ["eigh_lo", "svd_f", "svd"])
def test_each_named_gufunc_exists_and_takes_its_signature(name):
    signature = _named_gufuncs()[name]
    gufunc = getattr(_umath_linalg, name, None)
    if gufunc is None:
        pytest.fail(f"numpy.linalg._umath_linalg has no gufunc {name!r} "
                    f"in numpy {np.__version__}")
    try:
        out = gufunc(np.eye(3, dtype=np.complex128), signature=signature)
    except TypeError as exc:
        pytest.fail(f"numpy.linalg._umath_linalg.{name} refuses the signature "
                    f"{signature!r} in numpy {np.__version__}: {exc}")
    out = out if isinstance(out, tuple) else (out,)
    kinds = signature.split("->")[1]
    assert [a.dtype.char for a in out] == list(kinds), (
        f"numpy.linalg._umath_linalg.{name} returns {[a.dtype for a in out]} for "
        f"{signature!r} in numpy {np.__version__}")


@pytest.mark.parametrize("n", SIZES)
def test_eigh_lo_is_np_linalg_eigh(n):
    rng = np.random.default_rng([1801, n])
    for m in _hermitian(rng, n):
        w, v = matcore._lapack("eigh_lo", m)
        ref_w, ref_v = np.linalg.eigh(m)
        assert _same_bytes(w, ref_w) and _same_bytes(v, ref_v)


@pytest.mark.parametrize("n", SIZES)
def test_svd_f_is_np_linalg_svd(n):
    rng = np.random.default_rng([1802, n])
    for m in _general(rng, n):
        u, s, vh = matcore._lapack("svd_f", m)
        ref_u, ref_s, ref_vh = np.linalg.svd(m)
        assert _same_bytes(u, ref_u) and _same_bytes(s, ref_s) and _same_bytes(vh, ref_vh)


@pytest.mark.parametrize("n", SIZES)
def test_svd_is_np_linalg_svd_without_vectors(n):
    rng = np.random.default_rng([1803, n])
    for m in _general(rng, n):
        assert _same_bytes(matcore._lapack("svd", m), np.linalg.svd(m, compute_uv=False))


def test_a_strided_matrix_gives_the_same_bytes():
    rng = np.random.default_rng(1804)
    m = random_hermitian(rng, 6)
    view = m.T  # Fortran order: the gufunc reads strides as numpy.linalg does
    assert _same_bytes(matcore._lapack("eigh_lo", view)[1], np.linalg.eigh(view)[1])
    assert _same_bytes(matcore._lapack("svd", view), np.linalg.svd(view, compute_uv=False))


class _NanGufuncs:
    """Stand-in gufuncs that fail as numpy's do: every output is NaN."""

    @staticmethod
    def eigh_lo(a, signature):
        n = a.shape[0]
        return np.full(n, np.nan), np.full((n, n), np.nan + 0j)

    @staticmethod
    def svd_f(a, signature):
        n = a.shape[0]
        return np.full((n, n), np.nan + 0j), np.full(n, np.nan), np.full((n, n), np.nan + 0j)

    @staticmethod
    def svd(a, signature):
        return np.full(a.shape[0], np.nan)


@pytest.mark.parametrize("routine, message", [("eigh_lo", "Eigenvalues did not converge"),
                                              ("svd_f", "SVD did not converge"),
                                              ("svd", "SVD did not converge")])
def test_a_nan_result_raises_linalgerror(monkeypatch, routine, message):
    monkeypatch.setattr(matcore, "_umath_linalg", _NanGufuncs)
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        matcore._lapack(routine, np.eye(3, dtype=np.complex128))


@pytest.mark.parametrize("routine", ["eigh_lo", "svd_f", "svd"])
def test_a_lapack_failure_raises_linalgerror(routine):
    # A NaN matrix makes LAPACK itself fail; numpy flags an invalid value,
    # which the test configuration turns into an error, and the kernel
    # raises LinAlgError for it, as it does when the flag only warns.
    nan = np.full((3, 3), np.nan, dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        matcore._lapack(routine, nan)
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError):
        matcore._lapack(routine, nan)


def test_linalgerror_is_a_value_error():
    assert issubclass(np.linalg.LinAlgError, ValueError)
