"""Spectral-function oracles for the tests.

The library takes every function of a state through
``matcore.spectral_function`` on a memoised decomposition; these wrappers
apply it to a bare matrix, so a test can build the textbook square root,
inverse root and polar factor directly.
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
