"""Bures geodesics between density matrices via the geometric-mean operator.

Given endpoints rho1 and rho2, the positive operator

    M* = rho1^{-1/2} sqrt(rho1^{1/2} rho2 rho1^{1/2}) rho1^{-1/2}

satisfies M* rho1 M* = rho2 and Tr[M* rho1] = sqrt(F), the Uhlmann root
fidelity. Each endpoint is decomposed once, and one SVD of
B = sqrt(rho1) sqrt(rho2) = U S V^dag gives both sqrt(F) = sum(S) and, since
tau = rho1^{1/2} rho2 rho1^{1/2} = B B^dag, sqrt(tau) = U S U^dag. With the
total arclength s* = arccos(sqrt(F)), the one-parameter family

    M(s) = (sin(s* - s) I + sin(s) M*) / sin(s*)

transports rho1 along the geodesic, rho(s) = M(s) rho1 M(s), and lifts any
purification horizontally through the bundle, A(s) = M(s) A(0). The affine
parameter s is always the Bures angle in radians, so the root fidelity from
the start decays as cos(s) along the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, states


class GeodesicUndefinedError(ValueError):
    """The geodesic construction is not defined for the given endpoints."""


@dataclass(frozen=True)
class BuresSummary:
    """Root fidelity with the two distances it induces."""

    root_fidelity: float
    bures_angle: float
    bures_distance: float


@dataclass(frozen=True)
class GeodesicPath:
    """Endpoints with the cached transport data for geodesic sampling.

    ``s_star`` is the total Bures angle. ``degenerate`` marks endpoints that
    are identical within tolerance (the path is constant and M(s) = I);
    ``orthogonal`` marks s* = pi/2 endpoints, where M* comes from the rank-1
    construction for pure states. Instances are immutable and safe to share
    across concurrent samplers.
    """

    rho1: np.ndarray
    rho2: np.ndarray
    m_star: np.ndarray
    s_star: float
    degenerate: bool = False
    orthogonal: bool = False

    @property
    def dim(self) -> int:
        return self.rho1.shape[0]


def _check_same_dims(r1: np.ndarray, r2: np.ndarray) -> None:
    if r1.shape != r2.shape:
        raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")


def _decompose_pair(rho1, rho2):
    (r1, dec1), (r2, dec2) = states.decompose_density(rho1), states.decompose_density(rho2)
    _check_same_dims(r1, r2)
    return r1, dec1, r2, dec2


def _sqrt(dec: matcore.SpectralDecomposition) -> np.ndarray:
    return matcore.spectral_function(dec, np.sqrt, nonnegative=True)


def root_fidelity(rho1, rho2) -> float:
    """Uhlmann root fidelity Tr sqrt(rho1^{1/2} rho2 rho1^{1/2}).

    Computed as the nuclear norm of sqrt(rho1) sqrt(rho2), which is the same
    quantity but avoids squaring small singular values, so identical
    endpoints give exactly 1 and states with orthogonal supports give
    exactly 0. The result is clamped to [0, 1].
    """
    r1, dec1, r2, dec2 = _decompose_pair(rho1, rho2)
    if np.array_equal(r1, r2):
        return 1.0
    sigma = np.linalg.svd(_sqrt(dec1) @ _sqrt(dec2), compute_uv=False)
    return float(min(max(float(sigma.sum()), 0.0), 1.0))


def bures(rho1, rho2) -> BuresSummary:
    """Root fidelity, Bures angle arccos(sqrt F), and distance sqrt(2 - 2 sqrt F)."""
    sf = root_fidelity(rho1, rho2)
    return BuresSummary(root_fidelity=sf,
                        bures_angle=float(np.arccos(sf)),
                        bures_distance=float(np.sqrt(max(2.0 - 2.0 * sf, 0.0))))


def _phase_fixed_top_eigenvector(dec: matcore.SpectralDecomposition) -> np.ndarray:
    """Dominant eigenvector with its first nonzero component made real positive."""
    v = dec.eigenvectors[:, -1].copy()
    idx = int(np.argmax(np.abs(v) > matcore.ROUNDOFF))
    phase = v[idx] / abs(v[idx])
    return v * phase.conj()


def _rank(dec: matcore.SpectralDecomposition) -> int:
    w = dec.eigenvalues
    return int(np.count_nonzero(w > matcore.CLAMP * max(w[-1], 0.0)))


def geometric_mean_operator(rho1, rho2) -> GeodesicPath:
    """Construct the geodesic cache (M*, s*) for the given endpoints.

    The start state may be rank deficient only if the support of rho2 lies
    inside the support of rho1 (checked through the support-projector
    residual); rho1^{-1/2} is then the pseudo-inverse root on the support.
    Orthogonal endpoints (cos s* below tolerance) are admitted only when both
    are pure: the transport operator is then |psi2><psi1| + |psi1><psi2| with
    the vector phases fixed by making the first nonzero component of each
    real positive. Orthogonal mixed endpoints are refused, since infinitely
    many geodesics connect them and picking one silently would be arbitrary.
    """
    r1, dec1, r2, dec2 = _decompose_pair(rho1, rho2)
    u, sigma, _ = np.linalg.svd(_sqrt(dec1) @ _sqrt(dec2))
    sf = 1.0 if np.array_equal(r1, r2) else float(min(max(float(sigma.sum()), 0.0), 1.0))
    s_star = float(np.arccos(sf))

    if float(np.max(np.abs(r1 - r2))) <= matcore.ROUNDOFF or s_star < matcore.DEGENERATE_S_TOL:
        return GeodesicPath(rho1=r1, rho2=r2, m_star=np.eye(len(r1), dtype=np.complex128),
                            s_star=0.0, degenerate=True)

    if sf < matcore.ORTHOGONAL_COS_TOL:
        if _rank(dec1) == 1 and _rank(dec2) == 1:
            psi1 = _phase_fixed_top_eigenvector(dec1)
            psi2 = _phase_fixed_top_eigenvector(dec2)
            m = np.outer(psi2, psi1.conj()) + np.outer(psi1, psi2.conj())
            return GeodesicPath(rho1=r1, rho2=r2, m_star=(m + m.conj().T) / 2,
                                s_star=np.pi / 2, orthogonal=True)
        raise GeodesicUndefinedError(
            "M singular at s*=pi/2: orthogonal mixed endpoints admit "
            "infinitely many geodesics; only the pure-pure case is constructed")

    kept = dec1.eigenvalues > matcore.CLAMP * float(dec1.eigenvalues[-1])
    if not np.all(kept):
        v_sup = dec1.eigenvectors[:, kept]
        proj = v_sup @ v_sup.conj().T
        residual = float(np.max(np.abs(r2 - proj @ r2 @ proj)))
        if not residual <= matcore.SUPPORT_RESIDUAL_TOL:
            raise GeodesicUndefinedError(
                f"geodesic undefined through rank-deficient start: the final "
                f"state leaks outside the initial support by {residual:.3e}")

    inv_sqrt1 = matcore.spectral_function(dec1, lambda w: 1.0 / np.sqrt(w),
                                          nonnegative=True, support_only=True)
    m = inv_sqrt1 @ ((u * sigma) @ u.conj().T) @ inv_sqrt1
    return GeodesicPath(rho1=r1, rho2=r2, m_star=(m + m.conj().T) / 2,
                        s_star=s_star)


def transport_coefficients(s: float, s_star: float) -> tuple[float, float]:
    """Coefficients f(s) = sin(s* - s)/sin(s*), g(s) = sin(s)/sin(s*) of M(s).

    f(0) = g(s*) = 1, f(s*) = g(0) = 0, and s* = 0 gives (1, 0). s is clamped
    onto [0, s*] within matcore.ROUNDOFF and refused farther out, or when NaN.
    """
    s = float(s)
    if not -matcore.ROUNDOFF <= s <= s_star + matcore.ROUNDOFF:
        raise ValueError(f"s = {s!r} outside the geodesic range [0, {s_star!r}]")
    s = min(max(s, 0.0), s_star)
    sin_star = np.sin(s_star)
    if sin_star == 0.0:
        return 1.0, 0.0
    return float(np.sin(s_star - s) / sin_star), float(np.sin(s) / sin_star)


def transport_operator(path: GeodesicPath, s: float) -> np.ndarray:
    """Transport operator M(s) = f(s) I + g(s) M* on 0 <= s <= s*.

    M(0) = I and M(s*) = M*; a degenerate path returns the identity.
    """
    n = path.dim
    if path.degenerate:
        return np.eye(n, dtype=np.complex128)
    f, g = transport_coefficients(s, path.s_star)
    return f * np.eye(n, dtype=np.complex128) + g * path.m_star


def geodesic_point(path: GeodesicPath, s: float) -> np.ndarray:
    """Intermediate state rho(s) = M(s) rho1 M(s)."""
    m = transport_operator(path, s)
    out = m @ path.rho1 @ m
    return (out + out.conj().T) / 2


def initial_tangent(path: GeodesicPath) -> np.ndarray:
    """Initial generator G0 = (M* - I cos s*)/sin s* of the horizontal lift.

    G0 is Hermitian, the lift tangent is A'(0) = G0 A(0), and it has unit
    length with Tr[A'(0) A(0)^dag] = 0 for any purification A(0) of rho1.
    """
    if path.degenerate:
        raise ValueError("tangent undefined for the constant path between "
                         "identical endpoints")
    n = path.dim
    return (path.m_star - np.cos(path.s_star) * np.eye(n)) / np.sin(path.s_star)


def horizontal_lift(a0: states.Purification, path: GeodesicPath,
                    s: float) -> states.Purification:
    """Horizontal lift A(s) = M(s) A(0) of the geodesic through a0.

    The starting purification must project onto the initial endpoint.
    """
    a0m = a0.matrix if isinstance(a0, states.Purification) else matcore.as_complex_matrix(a0)
    defect = float(np.max(np.abs(a0m @ a0m.conj().T - path.rho1)))
    if not defect <= matcore.ADMIT_TOL:
        raise ValueError(
            f"purification does not project to the initial state: max entry "
            f"defect {defect:.3e}")
    m = transport_operator(path, s)
    return states.Purification(matrix=m @ a0m, target=geodesic_point(path, s))


def hlc_residual(a, adot) -> float:
    """Horizontality defect max |A'^dag A - A^dag A'| of a bundle tangent.

    Zero means A'^dag A is Hermitian, i.e. the tangent is horizontal
    (orthogonal to the gauge fibers); tangents of the form A' = G A with G
    Hermitian always satisfy this, while vertical tangents i A H do not.
    """
    am = np.asarray(a, dtype=np.complex128)
    dm = np.asarray(adot, dtype=np.complex128)
    if am.shape != dm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {dm.shape}")
    k = dm.conj().T @ am
    return float(np.max(np.abs(k - k.conj().T)))


def hubner_metric(rho, drho) -> float:
    """Infinitesimal squared Bures distance (1/2) sum |<i|drho|j>|^2 / (l_i + l_j).

    Evaluated in the eigenbasis of rho by :func:`matcore.lyapunov_eigenbasis`,
    the kernel that also solves for the tangent generator in :mod:`sun`;
    eigenvalue pairs with l_i + l_j below the clamp are skipped, which
    restricts the sum to the support. The variation must be traceless.
    """
    r, dec = states.decompose_density(rho)
    d = matcore.require_hermitian(drho)
    _check_same_dims(r, d)
    scale = max(float(np.max(np.abs(d))), 1.0)
    tr = float(np.trace(d).real)
    if not abs(tr) <= matcore.ADMIT_TOL * scale:
        raise ValueError(f"variation must be traceless: Tr[drho] = {tr!r}")
    d_eig, x_eig = matcore.lyapunov_eigenbasis(dec, d)
    return float(0.5 * np.vdot(d_eig, x_eig).real)


def uhlmann_unitary(rho1, rho2) -> np.ndarray:
    """The unitary U = sqrt(rho1^{1/2} rho2 rho1^{1/2}) rho1^{-1/2} rho2^{-1/2}.

    Both inputs must be invertible (full rank within the clamp). With
    sqrt(rho1) sqrt(rho2) = W S V^dag, sqrt(tau) = W S W^dag and
    rho1^{-1/2} rho2^{-1/2} = W S^{-1} V^dag, so U is the polar factor W V^dag.
    U satisfies U^dag U = U U^dag = I and Tr[U sqrt(rho2) sqrt(rho1)] equals
    the root fidelity, which exhibits the optimal relative gauge between the
    two canonical purifications.
    """
    r1, dec1, r2, dec2 = _decompose_pair(rho1, rho2)
    for name, dec in (("rho1", dec1), ("rho2", dec2)):
        w = dec.eigenvalues
        if not w[0] > matcore.CLAMP * w[-1]:
            raise ValueError(
                f"construction requires invertible inputs: {name} has "
                f"min eigenvalue {w[0]:.3e}")
    left, _, right_h = np.linalg.svd(_sqrt(dec1) @ _sqrt(dec2))
    return left @ right_h
