"""Density matrices, Bloch coordinates, Werner families, and purifications.

A state enters through :func:`admit`, the one density check: Hermitian, unit
trace, and positive semidefinite within tolerance. It returns the state's
memoised :class:`matcore.SpectralDecomposition`, so each distinct state is
decomposed once per process; the trace and PSD tolerance checks run again on
every call against its cached values, and ``admit(rho).matrix`` is the
checked, symmetrized state; ``_admit_stack`` keeps only its trace and PSD
bounds, for a stack outside the memo. Loosely admitted input (Bloch vectors,
state files) is snapped onto the state space by :func:`_snap_to_state`. A
purification is a square matrix A with A A^dag = rho; the state is recovered
as A A^dag, which is invariant under the gauge freedom A -> A U for unitary U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, sun


def admit(rho, trace_tol: float = matcore.TRACE_TOL,
          psd_tol: float = matcore.ADMIT_TOL) -> matcore.SpectralDecomposition:
    """The memoised decomposition of a density matrix (or of a decomposition), checked.

    Rejects non-Hermitian input, a trace away from 1 by more than
    ``trace_tol``, or an eigenvalue below ``-psd_tol``, calling it "matrix". A
    tolerance is a real number >= 0, inf included.
    """
    if not (type(trace_tol) is type(psd_tol) is float and trace_tol >= 0.0 and psd_tol >= 0.0):
        trace_tol, psd_tol = _tolerance(trace_tol, "trace_tol"), _tolerance(psd_tol, "psd_tol")
    st = matcore.spectral_decompose(rho)
    if not abs(st.trace - 1.0) <= trace_tol:
        raise ValueError(f"matrix is not normalized: trace = {st.trace!r} differs from 1 "
                         f"by {abs(st.trace - 1.0):.3e}")
    low = st.eigenvalues.item(0)
    if not low >= -psd_tol:
        raise ValueError(f"matrix is not a state: most negative eigenvalue {low:.6e}")
    return st


def _tolerance(value, name: str) -> float:
    """A tolerance of :func:`admit`: a real number >= 0, inf included."""
    value = matcore.as_real_scalar(value, name)
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _admit_stack(ms: np.ndarray) -> matcore.SpectralDecomposition:
    """:func:`admit` at its default tolerances of each member of a stack (S, N, N),
    decomposed by one stacked ``eigh`` outside the memo.

    The stack copies only admit's trace and PSD bounds: a member that is not
    exactly its own symmetrization (H + H^dag)/2 or whose trace is off goes to
    :func:`admit` before the ``eigh``, one with an eigenvalue below
    ``-ADMIT_TOL`` after it. So every refusal is admit's own, word for word:
    that of the first member refused before the ``eigh``, else of the first
    with a negative eigenvalue.
    """
    with np.errstate(all="ignore"):  # a non-finite member is named by admit below
        h = ms + ms.conj().mT
        h /= 2  # the bytes of require_hermitian's (m + mh)/2
        trace = np.add.reduce(h.diagonal(axis1=-2, axis2=-1), axis=-1).real
        # h - m == 0 is h == m for finite entries; an inf entry gives NaN.
        ok = (h - ms == 0).all(axis=(-2, -1)) & (abs(trace - 1.0) <= matcore.TRACE_TOL)
    for k in np.flatnonzero(~ok):
        admit(ms[k])
    w, v = matcore._lapack("eigh_lo", h)
    for k in np.flatnonzero(~(w[:, 0] >= -matcore.ADMIT_TOL)):
        admit(ms[k])
    return matcore.SpectralDecomposition(h, trace, w, v)


def _snap_to_state(rho) -> np.ndarray:
    """Canonicalize a matrix or decomposition admitted near the boundary of the state space.

    Eigenvalues below minus the spectral zero (the cut of ``rank``) are clipped
    to zero and the trace is renormalized, or refused when it is not positive
    (every eigenvalue <= 0); input that already satisfies the strict invariants
    is returned unchanged, bit for bit, as the memo's read-only array. Meant
    for loosely validated entry points (user Bloch vectors, files), where
    admission is more forgiving than the downstream clamp policy.
    """
    st = matcore.spectral_decompose(rho)
    w, v = st.eigenvalues, st.eigenvectors
    clipped = w[0] < -matcore._spectral_zero(st)
    if not clipped and abs(st.trace - 1.0) <= matcore.TRACE_TOL:
        return st.matrix
    r = (v * np.maximum(w, 0.0)) @ v.conj().T if clipped else st.matrix
    tr = float(np.trace(r).real)
    if not tr > 0.0:
        raise ValueError(f"matrix is not a state: the trace to renormalize by, {tr!r}, "
                         f"is not positive")
    r = r / tr
    return (r + r.conj().T) / 2


def maximally_mixed(n: int) -> np.ndarray:
    """The state I/N."""
    n = matcore.as_dimension(n, "dimension", 1)
    return np.eye(n, dtype=np.complex128) / n


def unit_vector(psi, name: str = "psi") -> np.ndarray:
    """A state vector: a finite complex vector of unit norm within ``ADMIT_TOL``."""
    v = matcore.as_vector(psi, name, dtype=np.complex128)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= matcore.ADMIT_TOL:
        raise ValueError(f"{name} is not normalized: |{name}| = {norm!r}")
    return v


def pure_density(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a unit vector psi."""
    v = unit_vector(psi)
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


def werner(kind: str, p: float) -> np.ndarray:
    """Werner mixture (1 - p) I/8 + p |Phi><Phi| with Phi in {GHZ, W}.

    The spectrum is {(1 + 7p)/8 once, (1 - p)/8 sevenfold} for either kind;
    only the eigenvectors differ.
    """
    p = matcore.as_real_scalar(p, "p")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _werner(kind, p)


def _werner(kind: str, p):
    """:func:`werner` with p unchecked: a float, or a column (S, 1, 1) of
    probabilities in [0, 1] for the stack of their states."""
    kinds = {"GHZ": ghz_state, "W": w_state}
    if not isinstance(kind, str) or kind.upper() not in kinds:
        raise ValueError(f"kind must be one of {sorted(kinds)}, got {kind!r}")
    phi = kinds[kind.upper()]()
    return (1.0 - p) * np.eye(8, dtype=np.complex128) / 8 + p * np.outer(phi, phi.conj())


def density_from_bloch(x, basis: sun.GeneratorBasis) -> np.ndarray:
    """State rho = (1/N)(I + x . sigma) for a coordinate vector inside the body.

    Coordinates that leave the positive cone are rejected as "x is not a state",
    with the most negative eigenvalue reported; coordinates admitted inside the
    boundary tolerance band are snapped onto the cone.
    """
    sun._require_basis(basis)
    x = matcore.as_vector(x, "x", basis.size)
    return matcore._named(lambda m: _snap_to_state(admit(m, trace_tol=matcore.ADMIT_TOL)),
                          sun._assemble(1.0, x, basis.dim), "x")


@dataclass(frozen=True)
class Purification:
    """A bundle-space representative, the one purification check: A A^dag equals target
    within ``ADMIT_TOL``. It keeps the complex128 ``matrix`` and ``target`` it checked."""

    matrix: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        a = matcore.as_complex_matrix(self.matrix)
        target = matcore._as_array(self.target, "target", np.complex128)
        matcore.require_same_shape(a, target, "matrix", "target")
        defect = matcore._max_modulus(a @ a.conj().T - target)
        if not defect <= matcore.ADMIT_TOL:
            matcore._finite(target, "target")
            raise ValueError(f"matrix does not purify the target state: max entry defect "
                             f"{defect:.3e}")
        if a is not self.matrix or target is not self.target:  # coercion made a new array
            object.__setattr__(self, "matrix", a)
            object.__setattr__(self, "target", target)


def canonical_purification(rho, gauge=None) -> Purification:
    """Purification A = sqrt(rho) U, with U = I when no gauge is given.

    The gauge must be unitary within tolerance; every gauge choice projects
    back to the same state.
    """
    st = admit(rho)
    r, a = st.matrix, st.sqrt
    if gauge is not None:
        u = matcore.as_complex_matrix(gauge, "gauge")
        matcore.require_same_shape(u, r, "gauge", "rho")
        defect = matcore._max_modulus(u.conj().T @ u - np.eye(r.shape[0]))
        if not defect <= matcore.ADMIT_TOL:
            raise ValueError(f"gauge is not unitary: max |U^dag U - I| = {defect:.3e}")
        a = a @ u
    return Purification(matrix=a, target=r)

