"""Spectral-function oracles and test-only helpers.

The library takes every function of a state through ``matcore.spectral_factor``
on a memoised decomposition; :func:`spectral_function` multiplies that factor
by V^dag, and the wrappers below apply it to a bare matrix, so a test can
build the textbook square root, inverse root and polar factor directly, and
from them the root fidelity and the gauge as the nuclear norm and the polar
factor of sqrt(rho1) sqrt(rho2). The state helpers read a purification or a
state back through ``states.admit``, and ``qubit_tau`` is the closed form of
tau that the erratum ledger's checks read. The other helpers rebuild the
library's hot paths by the general formulas they skip.
"""

from dataclasses import dataclass

import numpy as np

from buresgeo import closedform, geodesy, matcore, states, sun


def spectral_function(dec, f) -> np.ndarray:
    """V diag(f(w')) V^dag of a PSD decomposition: the ``matcore.spectral_factor``
    times V^dag, symmetrized, as ``SpectralDecomposition.sqrt`` forms it for sqrt."""
    out = matcore.spectral_factor(dec, f) @ dec.eigenvectors.conj().T
    return (out + out.conj().T) / 2


def sqrtm_psd(h) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    return spectral_function(matcore.spectral_decompose(h), np.sqrt)


def inv_sqrtm_psd(h) -> np.ndarray:
    """Inverse square root on the support of a PSD matrix (the pseudo-inverse root)."""
    return spectral_function(matcore.spectral_decompose(h), lambda w: 1.0 / np.sqrt(w))


def project(a) -> np.ndarray:
    """The state A A^dag of a purification A, admitted at the loose trace ``ADMIT_TOL``."""
    m = matcore.as_complex_matrix(a, "a")
    return states.admit(m @ m.conj().T, trace_tol=matcore.ADMIT_TOL).matrix


def bloch_from_density(rho, basis) -> np.ndarray:
    """Coordinates x_i = (N/2) Tr[rho sigma_i] of an admitted state."""
    return sun.coefficients(states.admit(rho).matrix, basis)[1]


def _direction(x, fallback) -> np.ndarray:
    """Unit vector along x; ill-defined directions fall back to y-hat or z-hat."""
    for v in (x, fallback):
        norm = float(np.linalg.norm(v))
        if norm >= matcore.ROUNDOFF:
            return v / norm
    return np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class QubitTau:
    """Coefficients of tau = sqrt(rho1) rho2 sqrt(rho1) = tau0 I + tau_vec.sigma."""

    tau0: float
    tau_vec: np.ndarray
    lambda_plus: float
    lambda_minus: float


def qubit_tau(x, y) -> QubitTau:
    """Bloch coefficients of tau = sqrt(rho1) rho2 sqrt(rho1) for qubit endpoints.

    With y split along xhat into y_par xhat + y_perp,

        tau0    = (1 + |x| y_par) / 4,
        tau_vec = ((|x| + y_par) xhat + sqrt(1 - |x|^2) y_perp) / 4,

    and eigenvalues lambda_pm = tau0 +- |tau_vec|. An ill-defined xhat falls
    back to y-hat, then z-hat. The perpendicular coefficient sqrt(1 - |x|^2)
    is fixed by the x -> 0 limit tau = rho2/2 and by the entrywise spectral
    oracle (see ``closedform.ERRATA``).
    """
    x, y = closedform._bloch_pair(x, y)
    xn = float(np.linalg.norm(x))
    xhat = _direction(x, fallback=y)
    y_par = float(y @ xhat)
    y_perp = y - y_par * xhat
    tau0 = 0.25 * (1.0 + xn * y_par)
    tau_vec = 0.25 * ((xn + y_par) * xhat + np.sqrt(1.0 - xn * xn) * y_perp)
    tnorm = float(np.linalg.norm(tau_vec))
    lam_minus = tau0 - tnorm
    if not lam_minus >= -matcore.ROUNDOFF:
        raise ValueError(f"tau is not PSD: lambda_minus = {lam_minus!r}")
    return QubitTau(tau0=tau0, tau_vec=tau_vec,
                    lambda_plus=tau0 + tnorm, lambda_minus=max(lam_minus, 0.0))


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
