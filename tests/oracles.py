"""Spectral-function oracles for the tests.

The library takes every function of a state through
``matcore.spectral_function`` on a memoised decomposition; these wrappers
apply it to a bare matrix, so a test can build the textbook square root,
inverse root and polar factor directly, and from them the root fidelity and
the gauge as the nuclear norm and the polar factor of sqrt(rho1) sqrt(rho2).
The other helpers rebuild the library's hot paths by the general formulas
they skip.
"""

import numpy as np

from buresgeo import geodesy, matcore, states, sun


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


def masked_spectral_factor(dec, f) -> np.ndarray:
    """The factor V diag(f(w')) by the support mask on every spectrum, the
    formula ``matcore.spectral_factor`` skips when the support is full."""
    w = dec.eigenvalues
    threshold = matcore.CLAMP * float(np.abs(w).max())
    support = w > threshold
    fw = np.zeros_like(w)
    fw[support] = f(w[support])
    return dec.eigenvectors * fw


def masked_lyapunov_eigenbasis(dec, h) -> tuple[np.ndarray, np.ndarray]:
    """(H', X') of ``matcore.lyapunov_eigenbasis``, with the sums l_i + l_j,
    their mask and the fancy-indexed division rebuilt on every call."""
    lam, v = dec.eigenvalues, dec.eigenvectors
    h_eig = v.conj().T @ h @ v
    denom = lam[:, None] + lam[None, :]
    keep = denom > matcore.CLAMP * float(lam[-1])
    x_eig = np.zeros_like(h_eig)
    x_eig[keep] = h_eig[keep] / denom[keep]
    return h_eig, x_eig


def measured_require_hermitian(a) -> np.ndarray:
    """``matcore.require_hermitian`` with the asymmetry measured on every input,
    exactly Hermitian input too, and its maxima taken by ``np.max(np.abs(.))``."""
    m = matcore.as_complex_matrix(a, "matrix")
    scale = max(float(np.max(np.abs(m))), 1.0)
    mh = m.conj().T
    defect = float(np.max(np.abs(m - mh)))
    if not defect <= matcore.ADMIT_TOL * scale:
        raise matcore.NotHermitianError(
            f"matrix is not Hermitian: max |H - H^dagger| = {defect:.3e} "
            f"exceeds tolerance {matcore.ADMIT_TOL:.1e} (scale {scale:.3e})")
    return (m + mh) / 2


def measured_decomposition(h) -> matcore.SpectralDecomposition:
    """A decomposition of ``measured_require_hermitian(h)`` by ``np.linalg.eigh``,
    outside the memo."""
    m = measured_require_hermitian(h)
    w, v = np.linalg.eigh(m)
    return matcore.SpectralDecomposition(m, float(m.trace().real), w, v)


def scaled_traceless_rule(d) -> bool:
    """Whether ``geodesy.hubner_metric`` accepts the variation ``d`` as traceless:
    |Tr d| <= ``ADMIT_TOL`` * max(max|d|, 1), the scale taken on every call."""
    scale = max(float(np.max(np.abs(d))), 1.0)
    return abs(float(np.trace(d).real)) <= matcore.ADMIT_TOL * scale


def masked_hubner_metric(rho, drho) -> float:
    """(1/2) Tr[X' H'] by the masked kernel on measured decompositions."""
    d_eig, x_eig = masked_lyapunov_eigenbasis(measured_decomposition(rho),
                                              measured_require_hermitian(drho))
    return float(0.5 * np.vdot(d_eig, x_eig).real)


def masked_tangent_solve(x, xdot, basis) -> tuple[float, np.ndarray, np.ndarray]:
    """(g0, g, G) of ``sun.solve_tangent_G`` from ``sun.expand``, a measured
    decomposition and the masked kernel."""
    dec = measured_decomposition(sun.expand(1.0, x, basis))
    _, g_eig = masked_lyapunov_eigenbasis(dec, sun.expand(0.0, xdot, basis))
    v = dec.eigenvectors
    gm = v @ g_eig @ v.conj().T
    gm = (gm + gm.conj().T) / 2
    _, g = sun.coefficients(gm, basis)
    return float(-(2.0 / basis.dim) * (x @ g) + 0.0), g, gm


def expanded_unitary_tangent(y, x, basis) -> tuple[np.ndarray, np.ndarray]:
    """(g, G) of ``sun.unitary_tangent``, G = [X, Y] / (2 i N) from ``sun.expand``."""
    c = sun.expand(0.0, x, basis) @ sun.expand(0.0, y, basis)
    gm = (basis.dim / 2j) * (c - c.conj().T)
    return sun.coefficients(gm, basis)[1], gm


def counted_rank(dec) -> int:
    """Eigenvalues above ``CLAMP`` * the largest, counted one by one."""
    w = dec.eigenvalues
    return int(np.count_nonzero(w > matcore.CLAMP * max(w[-1], 0.0)))


def checked_horizontal_lift(a0, path, s):
    """``geodesy.horizontal_lift`` with the a0 projection check run for every a0,
    the start's own root too, and its defect taken by ``np.max(np.abs(.))``."""
    a0m = (a0.matrix if isinstance(a0, states.Purification)
           else matcore.as_complex_matrix(a0, "a0"))
    matcore.require_same_shape(a0m, path.rho1)
    defect = float(np.max(np.abs(a0m @ a0m.conj().T - path.rho1)))
    if not defect <= matcore.ADMIT_TOL:
        raise ValueError(f"purification does not project to the initial state: max "
                         f"entry defect {defect:.3e}")
    f, g = geodesy.transport_coefficients(s, path.s_star)
    m = g * path.m_star
    m.flat[::m.shape[0] + 1] += f
    rho = (f * f) * path.rho1 + (f * g) * path.cross + (g * g) * path.rho2
    return states.Purification(matrix=m @ a0m, target=rho)
