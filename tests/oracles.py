"""Spectral-function oracles for the tests.

The library takes every function of a state through
``matcore.spectral_function`` on a memoised decomposition; these wrappers
apply it to a bare matrix, so a test can build the textbook square root,
inverse root and polar factor directly, and from them the root fidelity and
the gauge as the nuclear norm and the polar factor of sqrt(rho1) sqrt(rho2).
"""

import numpy as np

from buresgeo import matcore


def sqrtm_psd(h) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    return matcore.spectral_function(matcore.spectral_decompose(h), np.sqrt)


def inv_sqrtm_psd(h) -> np.ndarray:
    """Inverse square root on the support of a PSD matrix (the pseudo-inverse root)."""
    return matcore.spectral_function(matcore.spectral_decompose(h), lambda w: 1.0 / np.sqrt(w))


def polar_positive(a) -> np.ndarray:
    """Positive factor |A| = sqrt(A A^dagger) of the polar decomposition."""
    m = matcore.as_complex_matrix(a)
    return sqrtm_psd(m @ m.conj().T)


def nuclear_norm_root_fidelity(rho1, rho2) -> float:
    """Root fidelity as the nuclear norm of sqrt(rho1) sqrt(rho2), both roots formed."""
    return float(np.linalg.svd(sqrtm_psd(rho1) @ sqrtm_psd(rho2), compute_uv=False).sum())


def polar_gauge(rho1, rho2) -> np.ndarray:
    """The unitary L R^dag of sqrt(rho1) sqrt(rho2) = L S R^dag, both roots formed."""
    left, _, right_h = np.linalg.svd(sqrtm_psd(rho1) @ sqrtm_psd(rho2))
    return left @ right_h
