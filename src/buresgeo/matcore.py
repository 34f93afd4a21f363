"""Dense complex Hermitian linear algebra with an explicit tolerance policy.

Everything downstream (fidelities, transport operators, metric evaluations)
reduces to spectral decompositions of small Hermitian matrices, spectral
functions of those matrices, and the polar absolute value |A| = sqrt(A A^dag).
All functions are pure, never write to their inputs, and return fresh arrays,
so they are safe for unrestricted concurrent use. The memos of ``states`` and
``geodesy`` keep some of those arrays and share them read-only.

Tolerance policy: every numerical threshold is named once, in the table
below, which every module reads; the only per-call override is the admission
tolerance of ``states.admit``/``validate_density`` (the CLI ``--tol``).
One spectral rule, :func:`spectral_function`, takes every function of a
state: eigenvalues within ``CLAMP * max|eigenvalue|`` of zero count as exact
zeros, so boundary (rank-deficient) states reached through roundoff behave
like their idealized counterparts. Every refusal is written so that a NaN
measurement triggers it.
"""

from __future__ import annotations

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
                              # qubit tau's |y| <= 1 and l_minus >= 0
CONDITION_LIMIT = 1e12        # l_max / l_min beyond which the tangent solve is refused
EIGENVECTOR_CUT = 1e-14       # relative cut of the closed-form qubit tau eigenvectors
TINY = 1e-300                 # scale guard against dividing by an exact zero
# Default ``--tol`` of the CLI gates, and the fixed sun-check reconstruction gate.
GATE_TOL = {"werner-sweep": 1e-10, "qubit-orbit": 1e-9, "solve-g": 1e-8,
            "sun-check": 1e-12, "reconstruction": 1e-9}


class NotHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix has an eigenvalue below the negativity tolerance."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns. Degenerate eigenvectors are
    whatever the eigensolver returns; no canonicalization is applied, and all
    downstream formulas are covariant under that basis freedom.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def spectral_decompose(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    ``h`` must be Hermitian within ``ADMIT_TOL``; other input is rejected
    with the measured asymmetry in the message.
    """
    m = require_hermitian(h)
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, v)


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


def spectral_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]
                      ) -> np.ndarray:
    """Apply a scalar function f to the spectrum of a positive semidefinite matrix.

    Returns V diag(f(w')) V^dag under the one clamp rule: an eigenvalue below
    ``-CLAMP * max|w|`` is refused, f is applied only on w > CLAMP * max|w|,
    and the rest of the spectrum stays exact zero. So square roots and other
    fractional powers see no roundoff negatives, and inverse powers give the
    pseudo-inverse on rank-deficient input.
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
    v = dec.eigenvectors
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2


def sqrtm_psd(h) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    return spectral_function(spectral_decompose(h), np.sqrt)


def inv_sqrtm_psd(h) -> np.ndarray:
    """Inverse square root on the support of a PSD matrix (the pseudo-inverse root)."""
    return spectral_function(spectral_decompose(h), lambda w: 1.0 / np.sqrt(w))


def polar_positive(a) -> np.ndarray:
    """Positive factor |A| = sqrt(A A^dagger) of the polar decomposition."""
    m = as_complex_matrix(a)
    return sqrtm_psd(m @ m.conj().T)
