"""Dense complex Hermitian linear algebra with an explicit tolerance policy.

Everything downstream (fidelities, transport operators, metric evaluations)
reduces to spectral decompositions of small Hermitian matrices, spectral
functions of those matrices, and the polar absolute value |A| = sqrt(A A^dag).
All functions are pure and never write to their inputs, so they are safe for
unrestricted concurrent use. Each distinct matrix is decomposed once per
process: :func:`spectral_decompose` looks it up in a bounded LRU memo of
:class:`SpectralDecomposition` values, keyed on the exact complex128 bytes
and shape, so a caller that changes an array in place is looked up afresh.
The memo holds only what depends on the content alone (the Hermiticity
check, the trace and the ``eigh``), so no refusal and no tolerance is
memoised. Its decompositions, and the polar pairs ``geodesy`` keeps of them,
are shared read-only; every other result is a fresh array. When two threads
miss on one matrix at once, both decompose it, with bit-identical results.
Every eigensolve and SVD of the package is one call of :func:`_lapack`, the
one LAPACK site, which calls numpy.linalg's gufuncs without numpy's wrapper.

Tolerance policy: every numerical threshold is named once, in the table
below, which every module reads; the only per-call override is the admission
tolerance of ``states.admit`` (the CLI ``--tol``). The one spectral function
of a state is its square root: :func:`spectral_factor` is the factor
V diag(sqrt(l')), and ``SpectralDecomposition.sqrt`` is that factor times
V^dag. ``CLAMP`` decides only what is zero, and only :func:`_spectral_zero`
reads it: eigenvalues within ``CLAMP * max|eigenvalue|`` of zero count as
exact zeros, so boundary states reached through roundoff behave like their
idealized counterparts. ``ADMIT_TOL`` alone decides what is a state. Every
refusal is written so that a NaN measurement triggers it.

Input contract: outside input enters through one coercion per kind,
:func:`as_complex_matrix` (square, non-empty, finite), :func:`as_vector`
(1-D and finite, real or complex), :func:`as_real_scalar` and
:func:`as_dimension` (an integer in a range); :func:`require_same_shape`
refuses a dimension mismatch. Each refusal is a ``ValueError`` that names
the argument, and a NaN or inf entry is named with its value and position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# One name per numerical decision.
CLAMP = 1e-12                 # relative spectral zero: |l| <= CLAMP * max|l| counts as 0
ADMIT_TOL = 1e-10             # invariants of outside input: Hermiticity, PSD, norms,
                              # gauge, purification, orthogonality, traceless variation
TRACE_TOL = 1e-12             # strict unit trace of a density matrix
ROUNDOFF = 1e-12              # absolute slack: s range, direction and phase cuts,
                              # qubit |y| <= 1
CONDITION_LIMIT = 1e12        # l_max / l_min beyond which the tangent solve is refused
# Default ``--tol`` of the CLI gates, and the fixed sun-check reconstruction gate.
GATE_TOL = {"werner-sweep": 1e-10, "qubit-orbit": 1e-9, "solve-g": 1e-8,
            "sun-check": 1e-12, "reconstruction": 1e-9}


class NotHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix has an eigenvalue below the negativity tolerance."""


def _as_array(a, name: str, dtype) -> np.ndarray:
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric array: {exc}") from None


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` itself, or a refusal naming its first NaN or inf entry."""
    if not np.isfinite(a).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        where = f" at index {at[0]}" if len(at) == 1 else f" at {at}" if at else ""
        raise ValueError(f"{name} has non-finite entries (NaN or inf): "
                         f"non-finite entry {a[at]}{where}")
    return a


def _max_modulus(a: np.ndarray) -> float:
    """max |a_jk|, NaN when an entry is NaN: the modulus at the flat ``argmax``,
    which is the first NaN if there is one. It takes no ``axis=None`` reduction
    (this runs three times per sampled point)."""
    m = np.abs(a)
    return m.item(m.argmax())


def _gate(m: np.ndarray, name: str) -> float:
    """The largest modulus of a complex128 array ``m``, refused unless ``m`` is a
    square, non-empty, finite matrix.

    One pass: a NaN or inf entry makes the maximum non-finite, and only then
    does :func:`_finite` look for the entry to name. Finite entries whose
    moduli overflow (|1.5e308 + 1.5e308j|) pass with the maximum inf.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty, got the empty shape {m.shape}")
    top = _max_modulus(m)
    if not math.isfinite(top):
        _finite(m, name)
    return top


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a non-empty, square, finite complex128 array."""
    m = _as_array(a, name, np.complex128)
    _gate(m, name)
    return m


def as_vector(v, name: str, length: int | None = None, dtype=np.float64) -> np.ndarray:
    """Coerce input to a finite 1-D array of ``dtype``, of ``length`` entries if given."""
    out = _as_array(v, name, dtype)
    if out.ndim != 1 or length not in (None, out.size):
        want = "a vector" if length is None else f"a vector of length {length}"
        raise ValueError(f"{name} must be {want}, got shape {out.shape}")
    return _finite(out, name)


def as_real_scalar(x, name: str, finite: bool = False) -> float:
    """Coerce a 0-d real number (not a bool, a string, an array or None) to a float.

    NaN and inf pass unless ``finite``; a caller's range check refuses them.
    """
    if not isinstance(x, float):  # Python and numpy floats need no conversion
        a = _as_array(x, name, None)
        if a.ndim != 0 or a.dtype.kind not in "iuf":
            raise ValueError(f"{name} = {x!r} is not a real scalar")
        x = float(a)
    return float(_finite(np.asarray(x), name) if finite else x)


def as_dimension(n, name: str, lo: int, hi: float = math.inf) -> int:
    """An integer (Python or numpy, not a bool or a float such as 3.0) with lo <= n <= hi."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not lo <= n <= hi:
        bound = f"between {lo} and {hi}" if hi < math.inf else f"of at least {lo}"
        raise ValueError(f"{name} must be an integer {bound}, got {n!r}")
    return int(n)


def _lapack(routine: str, a: np.ndarray):
    """The one LAPACK call of the package: numpy.linalg's gufunc ``routine`` on a
    complex128 matrix ``a``, or on each member of a stack (S, N, N), without
    numpy's per-call wrapper (its errstate, type promotion and result wrapping
    cost about as much as a 4x4 solve).

    ``"eigh_lo"`` returns (w, V) as ``np.linalg.eigh``, ``"svd_f"`` (U, s, Vh)
    as ``np.linalg.svd`` and ``"svd"`` s as ``np.linalg.svd(compute_uv=False)``,
    bit for bit, member by member. A gufunc that fails fills the outputs of the
    failed member with NaN and flags an invalid value; either is raised as
    numpy's ``LinAlgError`` (a ``ValueError``) with numpy's message, and a
    stack is checked in every member's eigenvalues or singular values.
    """
    try:
        if routine == "eigh_lo":
            out = _umath_linalg.eigh_lo(a, signature="D->dD")
            first = out[0]
        elif routine == "svd_f":
            out = _umath_linalg.svd_f(a, signature="D->DdD")
            first = out[1]
        else:
            out = first = _umath_linalg.svd(a, signature="D->d")
        ok = math.isfinite(first[0]) if a.ndim == 2 else bool(np.isfinite(first).all())
    except (RuntimeWarning, FloatingPointError):  # the invalid flag of a failure,
        ok = False                                 # under an "error" filter or errstate
    if not ok:
        raise LinAlgError("Eigenvalues did not converge" if routine == "eigh_lo"
                          else "SVD did not converge")
    return out


def _named(check: Callable, a, name: str):
    """``check(a)``, with a refusal re-raised, of the same type, under the name the
    caller gives ``a``: "matrix has ..." becomes "name has ...", "not a state: ..."
    "name is not a state: ...", and any other message follows "name: "."""
    try:
        return check(a)
    except ValueError as exc:
        msg = str(exc)
        if msg.startswith("matrix"):
            msg = name + msg.removeprefix("matrix")
        else:
            msg = f"{name} is {msg}" if msg.startswith("not ") else f"{name}: {msg}"
        raise type(exc)(msg) from None


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    """Refuse two arrays of different shapes."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def require_hermitian(a) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (H + H^dag)/2.

    Symmetrization absorbs the roundoff asymmetry accumulated by repeated
    matrix products; an asymmetry larger than ``ADMIT_TOL`` (relative to the
    largest entry, with a floor of 1) is rejected. The symmetrized matrix is
    exactly Hermitian, so input with its bytes is too and skips the
    measurement. That is all exactly Hermitian input but one with a zero whose
    sign the sum flips, which is measured and passes; the symmetrized matrix is
    returned either way, which fixes the signs of the zero entries. Input that
    :func:`as_complex_matrix` refuses is refused first; the largest entry is
    the one the gate takes. Finite entries so large that H +- H^dag could
    overflow (twice the largest modulus is inf) are refused as well, since
    neither the asymmetry nor the symmetrized matrix can be formed.
    """
    m = _as_array(a, "matrix", np.complex128)
    return _hermitian_part(m, m.tobytes())


def _hermitian_part(m: np.ndarray, data: bytes) -> np.ndarray:
    """:func:`require_hermitian` of a complex128 array ``m`` whose bytes are ``data``."""
    top = _gate(m, "matrix")
    if not math.isfinite(2.0 * top):
        raise ValueError(f"matrix entries overflow: max |H_jk| = {top:.3e} leaves "
                         "H +- H^dagger no finite value")
    mh = m.conj().T
    h = m + mh
    h /= 2  # (m + mh)/2 in place: the same complex division, the same bytes
    if h.tobytes() != data:  # equal bytes: m is exactly Hermitian
        scale = max(top, 1.0)
        defect = _max_modulus(m - mh)
        if not defect <= ADMIT_TOL * scale:
            raise NotHermitianError(
                f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e} "
                f"exceeds tolerance {ADMIT_TOL:.1e} (scale {scale:.3e})")
    return h


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """A Hermitian matrix decomposed once: the symmetrized ``matrix``, its
    ``trace`` and its eigensystem; ``sqrt``, the principal square root, and
    ``rank``, the eigenvalues above the spectral zero ``CLAMP`` * max|l|, are
    computed on first use.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns. Degenerate eigenvectors are
    whatever the eigensolver returns; no canonicalization is applied, and all
    downstream formulas are covariant under that basis freedom. Instances
    come from the memo of :func:`spectral_decompose`. Construction marks the
    arrays read-only; equality and hashing go by identity. A stack of S
    matrices decomposed at once (``states._admit_stack``, outside the memo)
    has a leading axis on every array and an array ``trace``; its ``sqrt``
    is the stack of roots, its spectral zero an array, and ``rank`` and the
    Lyapunov kernel take one matrix only.
    """

    matrix: np.ndarray
    trace: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for a in (self.matrix, self.eigenvalues, self.eigenvectors):
            a.setflags(write=False)

    @functools.cached_property
    def sqrt(self) -> np.ndarray:
        """V diag(sqrt(l')) V^dag: the :func:`spectral_factor` times V^dag, symmetrized
        (matrix by matrix on a stack)."""
        a = spectral_factor(self) @ self.eigenvectors.conj().mT
        a = (a + a.conj().mT) / 2
        a.setflags(write=False)
        return a

    @functools.cached_property
    def rank(self) -> int:
        w = self.eigenvalues  # ascending, so the count above the cut is a search
        return w.size - int(w.searchsorted(_spectral_zero(self), side="right"))

    @functools.cached_property
    def _pair_sums(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The sums l_i + l_j of :func:`lyapunov_eigenbasis` and where they are
        above the spectral zero (on the support), None when that is everywhere.

        Rounded addition is monotone, so l_0 + l_0 = 2 l_0 is the smallest sum
        and the support is full exactly when it is above the cut.
        """
        lam = self.eigenvalues
        denom = lam[:, None] + lam[None, :]
        denom.setflags(write=False)
        cut = _spectral_zero(self)
        if 2.0 * lam.item(0) > cut:
            return denom, None
        keep = denom > cut
        keep.setflags(write=False)
        return denom, keep


def _spectral_zero(st1: SpectralDecomposition, st2: SpectralDecomposition | None = None):
    """The cut at or below which a value is zero, and the one reader of ``CLAMP``:
    ``CLAMP`` * max|l| of ``st1``, or given ``st2`` ``CLAMP`` * sqrt(l1_max l2_max),
    the bound of the singular values of sqrt(rho1) sqrt(rho2). A float for single
    decompositions and an array per member of a stack."""
    w1 = st1.eigenvalues
    if st2 is None:
        if w1.ndim == 1:  # max|l| of an ascending spectrum, as floats
            return CLAMP * max(-w1.item(0), w1.item(-1))
        return CLAMP * np.maximum(-w1[..., 0], w1[..., -1])
    w2 = st2.eigenvalues
    if w1.ndim == w2.ndim == 1:  # floats: no 0-d arrays, the same bytes
        return CLAMP * math.sqrt(w1.item(-1) * w2.item(-1))
    return CLAMP * np.sqrt(w1[..., -1] * w2[..., -1])


@functools.lru_cache(maxsize=32)  # distinct decomposed matrices one process keeps
def _decompose(data: bytes, shape: tuple[int, int]) -> SpectralDecomposition:
    """The decomposition of the matrix with the given complex128 bytes; a
    refusal raises and so is not cached."""
    m = _hermitian_part(np.ndarray(shape, np.complex128, data), data)
    w, v = _lapack("eigh_lo", m)
    # The reduction ``m.trace()`` makes, without its method call.
    return SpectralDecomposition(m, float(np.add.reduce(m.diagonal()).real), w, v)


def spectral_decompose(h) -> SpectralDecomposition:
    """The memoised eigendecomposition of a Hermitian matrix (or ``h`` itself,
    if it is already one), with ascending eigenvalues.

    ``h`` must be Hermitian within ``ADMIT_TOL``; other input is rejected
    with the measured asymmetry in the message.
    """
    if isinstance(h, SpectralDecomposition):
        return h
    m = _as_array(h, "matrix", np.complex128)  # the full gate runs on a memo miss
    return _decompose(m.tobytes(), m.shape)


def lyapunov_eigenbasis(dec: SpectralDecomposition, h) -> tuple[np.ndarray, np.ndarray]:
    """Solve X rho + rho X = H in the eigenbasis of rho = V diag(l) V^dag.

    Returns (H', X'), H' = V^dag H V and X'_ij = H'_ij / (l_i + l_j), zero where
    l_i + l_j is at or below the spectral zero (off the support), so
    X = V X' V^dag. The Bures metric (1/2) Tr[X H] and the tangent generator
    share this kernel.
    """
    v = dec.eigenvectors
    h_eig = v.conj().T @ h @ v
    denom, keep = dec._pair_sums
    if keep is None:  # full support: the same division, unmasked
        return h_eig, h_eig / denom
    return h_eig, np.divide(h_eig, denom, out=np.zeros_like(h_eig), where=keep)


def _lyapunov_solution(dec: SpectralDecomposition, h) -> np.ndarray:
    """X of X rho + rho X = H: the X' of :func:`lyapunov_eigenbasis` rotated back,
    V X' V^dag, and symmetrized, (X + X^dag) / 2."""
    _, x_eig = lyapunov_eigenbasis(dec, h)
    v = dec.eigenvectors
    x = v @ x_eig @ v.conj().T
    return (x + x.conj().T) / 2


def spectral_factor(dec: SpectralDecomposition) -> np.ndarray:
    """The square-root factor V diag(sqrt(l')) of a positive semidefinite matrix,
    a purification: F F^dag = rho.

    The one clamp rule: the root is taken only above the spectral zero, and the
    rest of the spectrum stays exact zero, so no roundoff negative reaches the
    root. Only l_min < -max(ADMIT_TOL, spectral zero) is refused: for a state
    that is the PSD rule of ``states.admit``, so every admitted state passes. A
    stack comes from ``states._admit_stack``, which has made that check; the
    rule holds member by member, with the scalar bytes.
    """
    w = dec.eigenvalues
    cut = _spectral_zero(dec)
    if w.ndim == 1:
        low = w.item(0)
        if not low >= -max(ADMIT_TOL, cut):
            raise NotPositiveSemidefiniteError(
                f"not positive semidefinite: min eigenvalue {low:.6e} is below "
                f"-{max(ADMIT_TOL, cut):.1e}")
        if low > cut:  # full support: nothing to mask
            return dec.eigenvectors * np.sqrt(w)
    kept = np.where((w.T > cut).T, w, 0.0)  # .T: a stack's cuts run along its members
    return dec.eigenvectors * np.sqrt(kept)[..., None, :]
