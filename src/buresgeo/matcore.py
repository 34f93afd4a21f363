"""Dense complex Hermitian linear algebra with an explicit tolerance policy.

Everything downstream (fidelities, transport operators, metric evaluations)
reduces to spectral decompositions of small Hermitian matrices, spectral
functions of those matrices, and the polar absolute value |A| = sqrt(A A^dag).
All functions are pure, operate on immutable inputs, and return fresh arrays,
so they are safe for unrestricted concurrent use.

Tolerance policy: eigenvalues within ``clamp * max|eigenvalue|`` of zero are
treated as exact zeros before square roots or inverse powers are taken, so
boundary (rank-deficient) states reached through roundoff behave like their
idealized counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_CLAMP = 1e-12
DEFAULT_HERMITICITY_TOL = 1e-10


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


def require_hermitian(a, tol: float = DEFAULT_HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (H + H^dag)/2.

    Symmetrization absorbs the roundoff asymmetry accumulated by repeated
    matrix products; an asymmetry larger than ``tol`` (relative to the
    largest entry, with a floor of 1) is rejected, and so are NaN or inf
    entries, which make that scale itself non-finite.
    """
    m = as_complex_matrix(a)
    scale = max(float(np.max(np.abs(m))), 1.0)
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e} "
            f"exceeds tolerance {tol:.1e} (scale {scale:.3e})")
    return (m + m.conj().T) / 2


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


def spectral_decompose(h, tol: float = DEFAULT_HERMITICITY_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    ``h`` must be Hermitian within the positive tolerance ``tol``; other input
    is rejected with the measured asymmetry in the message.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    m = require_hermitian(h, tol)
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, v)


def lyapunov_eigenbasis(dec: SpectralDecomposition, h,
                        clamp: float = DEFAULT_CLAMP) -> tuple[np.ndarray, np.ndarray]:
    """Solve X rho + rho X = H in the eigenbasis of rho = V diag(l) V^dag.

    Returns (H', X'), H' = V^dag H V and X'_ij = H'_ij / (l_i + l_j), zero where
    l_i + l_j <= clamp * l_max (off the support), so X = V X' V^dag. The Bures
    metric (1/2) Tr[X H] and the tangent generator share this kernel.
    """
    lam, v = dec.eigenvalues, dec.eigenvectors
    h_eig = v.conj().T @ h @ v
    denom = lam[:, None] + lam[None, :]
    keep = denom > clamp * float(lam[-1])
    x_eig = np.zeros_like(h_eig)
    x_eig[keep] = h_eig[keep] / denom[keep]
    return h_eig, x_eig


def spectral_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray],
                      clamp: float = DEFAULT_CLAMP, *,
                      nonnegative: bool = False,
                      support_only: bool = False) -> np.ndarray:
    """Apply a scalar function f to the spectrum of an existing decomposition.

    Returns V diag(f(w')) V^dag where w' are the eigenvalues after the clamp
    policy: eigenvalues with |w| <= clamp * max|w| are snapped to exact zero.
    ``nonnegative`` is for square roots and other fractional powers:
    eigenvalues below ``-clamp * max|w|`` are rejected, and small negatives
    inside the band are treated as zero. ``support_only`` applies f only on
    the nonzero part of the spectrum and keeps exact zeros untouched, which
    gives pseudo-inverse semantics for inverse powers on rank-deficient input.
    """
    w = dec.eigenvalues.copy()
    scale = float(np.max(np.abs(w)))
    threshold = clamp * scale
    if nonnegative and w[0] < -threshold:
        raise NotPositiveSemidefiniteError(
            f"not positive semidefinite: min eigenvalue {w[0]:.6e} is below "
            f"-{threshold:.1e}")
    zero = np.abs(w) <= threshold
    w[zero] = 0.0
    if nonnegative:
        w = np.maximum(w, 0.0)
    if support_only:
        fw = np.zeros_like(w)
        if np.any(~zero):
            fw[~zero] = f(w[~zero])
    else:
        fw = np.asarray(f(w), dtype=float)
    v = dec.eigenvectors
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2


def hermitian_function(h, f: Callable[[np.ndarray], np.ndarray],
                       clamp: float = DEFAULT_CLAMP, *,
                       nonnegative: bool = False,
                       support_only: bool = False) -> np.ndarray:
    """Decompose a Hermitian matrix, then apply :func:`spectral_function`."""
    return spectral_function(spectral_decompose(h), f, clamp,
                             nonnegative=nonnegative, support_only=support_only)


def sqrtm_psd(h, clamp: float = DEFAULT_CLAMP) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    return hermitian_function(h, np.sqrt, clamp, nonnegative=True)


def inv_sqrtm_psd(h, clamp: float = DEFAULT_CLAMP) -> np.ndarray:
    """Inverse square root on the support of a PSD matrix.

    Eigenvalues inside the clamp band count as exact zeros and stay zero,
    so rank-deficient input yields the pseudo-inverse square root.
    """
    return hermitian_function(h, lambda w: 1.0 / np.sqrt(w), clamp,
                              nonnegative=True, support_only=True)


def polar_positive(a) -> np.ndarray:
    """Positive factor |A| = sqrt(A A^dagger) of the polar decomposition."""
    m = as_complex_matrix(a)
    return sqrtm_psd(m @ m.conj().T)
