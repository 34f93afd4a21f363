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

Tolerance policy: every numerical threshold is named once, in the table
below, which every module reads; the only per-call override is the admission
tolerance of ``states.admit``/``validate_density`` (the CLI ``--tol``).
One spectral rule takes every function of a state, in two shapes: the factor
V diag(f(l)) of :func:`spectral_factor` and the matrix V diag(f(l)) V^dag of
:func:`spectral_function`. Eigenvalues within ``CLAMP * max|eigenvalue|`` of
zero count as exact zeros, so boundary (rank-deficient) states reached
through roundoff behave like their idealized counterparts. Every refusal is
written so that a NaN measurement triggers it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# One name per numerical decision.
CLAMP = 1e-12                 # relative spectral zero: |l| <= CLAMP * max|l| counts as 0
ADMIT_TOL = 1e-10             # invariants of outside input: Hermiticity, PSD, norms,
                              # gauge, purification, orthogonality, traceless variation
TRACE_TOL = 1e-12             # strict unit trace of a density matrix
ROUNDOFF = 1e-12              # absolute slack: s range, direction and phase cuts,
                              # qubit |y| <= 1 and tau's l_minus >= 0
CONDITION_LIMIT = 1e12        # l_max / l_min beyond which the tangent solve is refused
# Default ``--tol`` of the CLI gates, and the fixed sun-check reconstruction gate.
GATE_TOL = {"werner-sweep": 1e-10, "qubit-orbit": 1e-9, "solve-g": 1e-8,
            "sun-check": 1e-12, "reconstruction": 1e-9}


class NotHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix has an eigenvalue below the negativity tolerance."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a non-empty square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"expected a non-empty matrix, got the empty shape {m.shape}")
    return m


def require_hermitian(a) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (H + H^dag)/2.

    Symmetrization absorbs the roundoff asymmetry accumulated by repeated
    matrix products; an asymmetry larger than ``ADMIT_TOL`` (relative to the
    largest entry, with a floor of 1) is rejected, and so are NaN or inf
    entries, which make that scale itself non-finite.
    """
    m = as_complex_matrix(a)
    scale = max(float(np.abs(m).max()), 1.0)
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    mh = m.conj().T
    defect = float(np.abs(m - mh).max())
    if not defect <= ADMIT_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e} "
            f"exceeds tolerance {ADMIT_TOL:.1e} (scale {scale:.3e})")
    return (m + mh) / 2


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """A Hermitian matrix decomposed once: the symmetrized ``matrix``, its
    ``trace`` and its eigensystem; ``sqrt``, the principal square root, and
    ``rank``, the eigenvalues above ``CLAMP`` * the largest, are computed on
    first use.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns. Degenerate eigenvectors are
    whatever the eigensolver returns; no canonicalization is applied, and all
    downstream formulas are covariant under that basis freedom. Instances
    come from the memo of :func:`spectral_decompose`. Construction marks the
    arrays read-only; equality and hashing go by identity.
    """

    matrix: np.ndarray
    trace: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for a in (self.matrix, self.eigenvalues, self.eigenvectors):
            a.flags.writeable = False

    @functools.cached_property
    def sqrt(self) -> np.ndarray:
        a = spectral_function(self, np.sqrt)
        a.flags.writeable = False
        return a

    @functools.cached_property
    def rank(self) -> int:
        w = self.eigenvalues
        return int(np.count_nonzero(w > CLAMP * max(w[-1], 0.0)))


@functools.lru_cache(maxsize=32)  # distinct decomposed matrices one process keeps
def _decompose(data: bytes, shape: tuple[int, int]) -> SpectralDecomposition:
    """The decomposition of the matrix with the given complex128 bytes; a
    refusal raises and so is not cached."""
    m = require_hermitian(np.frombuffer(data, dtype=np.complex128).reshape(shape))
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(m, float(np.trace(m).real), w, v)


def spectral_decompose(h) -> SpectralDecomposition:
    """The memoised eigendecomposition of a Hermitian matrix (or ``h`` itself,
    if it is already one), with ascending eigenvalues.

    ``h`` must be Hermitian within ``ADMIT_TOL``; other input is rejected
    with the measured asymmetry in the message.
    """
    if isinstance(h, SpectralDecomposition):
        return h
    m = as_complex_matrix(h)
    return _decompose(m.tobytes(), m.shape)


def lyapunov_eigenbasis(dec: SpectralDecomposition, h) -> tuple[np.ndarray, np.ndarray]:
    """Solve X rho + rho X = H in the eigenbasis of rho = V diag(l) V^dag.

    Returns (H', X'), H' = V^dag H V and X'_ij = H'_ij / (l_i + l_j), zero where
    l_i + l_j <= CLAMP * l_max (off the support), so X = V X' V^dag. The Bures
    metric (1/2) Tr[X H] and the tangent generator share this kernel.
    """
    lam, v = dec.eigenvalues, dec.eigenvectors
    h_eig = v.conj().T @ h @ v
    denom = lam[:, None] + lam[None, :]
    keep = denom > CLAMP * float(lam[-1])
    x_eig = np.zeros_like(h_eig)
    x_eig[keep] = h_eig[keep] / denom[keep]
    return h_eig, x_eig


def spectral_factor(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]
                    ) -> np.ndarray:
    """The factor V diag(f(w')) of a positive semidefinite matrix's spectral function.

    The one clamp rule: an eigenvalue below ``-CLAMP * max|w|`` is refused, f
    is applied only on w > CLAMP * max|w|, and the rest of the spectrum stays
    exact zero. So square roots and other fractional powers see no roundoff
    negatives, and inverse powers give the pseudo-inverse on rank-deficient
    input. With f = sqrt the factor F is a purification, F F^dag = rho, that
    costs no product with V^dag.
    """
    w = dec.eigenvalues
    threshold = CLAMP * float(np.abs(w).max())
    if not w[0] >= -threshold:
        raise NotPositiveSemidefiniteError(
            f"not positive semidefinite: min eigenvalue {w[0]:.6e} is below "
            f"-{threshold:.1e}")
    support = w > threshold
    fw = np.zeros_like(w)
    fw[support] = f(w[support])
    return dec.eigenvectors * fw


def spectral_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]
                      ) -> np.ndarray:
    """Apply a scalar function f to the spectrum of a positive semidefinite matrix.

    Returns V diag(f(w')) V^dag, the :func:`spectral_factor` times V^dag,
    symmetrized.
    """
    out = spectral_factor(dec, f) @ dec.eigenvectors.conj().T
    return (out + out.conj().T) / 2
