"""Density matrices, Bloch coordinates, Werner families, and purifications.

States are plain complex numpy arrays validated at the entry points:
Hermitian, unit trace, and positive semidefinite within tolerance. A
purification is a square matrix A with A A^dag = rho; the projection back to
the state is pi(A) = A A^dag and is invariant under the gauge freedom
A -> A U for unitary U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, sun

TRACE_TOL = 1e-12
PSD_TOL = 1e-10
PURIFICATION_TOL = 1e-10


def decompose_density(rho, trace_tol: float = TRACE_TOL, psd_tol: float = PSD_TOL
                      ) -> tuple[np.ndarray, matcore.SpectralDecomposition]:
    """Check the density-matrix invariants; return the symmetrized state and
    the eigendecomposition that decided positivity, for reuse by the caller.

    Rejects non-Hermitian input, a trace away from 1 by more than
    ``trace_tol``, or an eigenvalue below ``-psd_tol``.
    """
    r = matcore.require_hermitian(rho)
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"not normalized: trace = {tr!r} differs from 1 "
                         f"by {abs(tr - 1.0):.3e}")
    w, v = np.linalg.eigh(r)
    if w[0] < -psd_tol:
        raise ValueError(f"not a state: most negative eigenvalue {float(w[0]):.6e}")
    return r, matcore.SpectralDecomposition(w, v)


def validate_density(rho, trace_tol: float = TRACE_TOL,
                     psd_tol: float = PSD_TOL) -> np.ndarray:
    """The symmetrized state checked by :func:`decompose_density`."""
    return decompose_density(rho, trace_tol, psd_tol)[0]


def snap_to_state(rho) -> np.ndarray:
    """Canonicalize a matrix admitted near the boundary of the state space.

    Eigenvalues below the spectral-function clamp are clipped to zero and the
    trace is renormalized; input that already satisfies the strict invariants
    is returned unchanged, bit for bit. Meant for loosely validated entry
    points (user Bloch vectors, files), where admission is more forgiving
    than the downstream clamp policy.
    """
    r = matcore.require_hermitian(rho)
    w, v = np.linalg.eigh(r)
    tr = float(np.trace(r).real)
    clipped = w[0] < -matcore.DEFAULT_CLAMP * max(float(w[-1]), 0.0)
    if not clipped and abs(tr - 1.0) <= TRACE_TOL:
        return r
    if clipped:
        r = (v * np.maximum(w, 0.0)) @ v.conj().T
        tr = float(np.trace(r).real)
    r = r / tr
    return (r + r.conj().T) / 2


def maximally_mixed(n: int) -> np.ndarray:
    """The state I/N."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    return np.eye(n, dtype=np.complex128) / n


def pure_density(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a unit vector psi."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector is not normalized: |psi| = {norm!r}")
    return np.outer(v, v.conj())


def ghz_state() -> np.ndarray:
    """(|000> + |111>)/sqrt(2) in the three-qubit basis |abc> -> 4a + 2b + c."""
    v = np.zeros(8, dtype=np.complex128)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return v


def w_state() -> np.ndarray:
    """(|001> + |010> + |100>)/sqrt(3) in the basis |abc> -> 4a + 2b + c."""
    v = np.zeros(8, dtype=np.complex128)
    v[1] = v[2] = v[4] = 1.0 / np.sqrt(3.0)
    return v


def werner(kind: str, p: float, n_qubits: int = 3) -> np.ndarray:
    """Werner mixture (1 - p) I/8 + p |Phi><Phi| with Phi in {GHZ, W}.

    The spectrum is {(1 + 7p)/8 once, (1 - p)/8 sevenfold} for either kind;
    only the eigenvectors differ.
    """
    if n_qubits != 3:
        raise ValueError(f"only 3-qubit Werner states are supported, got {n_qubits}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p}")
    kinds = {"GHZ": ghz_state, "W": w_state}
    try:
        phi = kinds[kind.upper()]()
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(kinds)}, got {kind!r}") from None
    dim = 2 ** n_qubits
    return (1.0 - p) * np.eye(dim, dtype=np.complex128) / dim + p * np.outer(phi, phi.conj())


def density_from_bloch(x, basis: sun.GeneratorBasis) -> np.ndarray:
    """State rho = (1/N)(I + x . sigma) for a coordinate vector inside the body.

    Coordinates that leave the positive cone are rejected with the most
    negative eigenvalue reported; coordinates admitted inside the boundary
    tolerance band are snapped onto the cone.
    """
    rho = sun.expand(1.0, x, basis)
    return snap_to_state(validate_density(rho, trace_tol=1e-10, psd_tol=PSD_TOL))


def bloch_from_density(rho, basis: sun.GeneratorBasis) -> np.ndarray:
    """Coordinates x_i = (N/2) Tr[rho sigma_i] of a state."""
    r = validate_density(rho)
    _, x = sun.coefficients(r, basis)
    return x


@dataclass(frozen=True)
class Purification:
    """A bundle-space representative: matrix A with A A^dag equal to target."""

    matrix: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        a = matcore.as_complex_matrix(self.matrix)
        defect = float(np.max(np.abs(a @ a.conj().T - self.target)))
        if defect > PURIFICATION_TOL:
            raise ValueError(
                f"matrix does not purify the target state: max entry defect "
                f"{defect:.3e}")


def canonical_purification(rho, gauge=None) -> Purification:
    """Purification A = sqrt(rho) U, with U = I when no gauge is given.

    The gauge must be unitary within tolerance; every gauge choice projects
    back to the same state.
    """
    r, dec = decompose_density(rho)
    a = matcore.spectral_function(dec, np.sqrt, nonnegative=True)
    if gauge is not None:
        u = matcore.as_complex_matrix(gauge)
        if u.shape != r.shape:
            raise ValueError(f"gauge shape {u.shape} does not match state "
                             f"shape {r.shape}")
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(r.shape[0]))))
        if defect > 1e-10:
            raise ValueError(f"gauge is not unitary: max |U^dag U - I| = {defect:.3e}")
        a = a @ u
    return Purification(matrix=a, target=r)


def project(a) -> np.ndarray:
    """Projection pi(A) = A A^dagger, validated as a density matrix."""
    m = matcore.as_complex_matrix(a)
    rho = m @ m.conj().T
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"not normalized: Tr[A A^dagger] = {tr!r}")
    return validate_density(rho, trace_tol=1e-10)


def purification_vector(a) -> np.ndarray:
    """State-vector form of a matrix purification.

    Flattens A row-major into a bipartite vector whose partial trace over the
    second factor reproduces A A^dag. Provided as a conversion for tests; the
    matrix form is primary everywhere else.
    """
    return matcore.as_complex_matrix(a).reshape(-1).copy()
