"""Generalized Gell-Mann generators of su(N) and the tangent-generator solvers.

The basis fixes the coordinates used everywhere else: a unit-trace state and a
Hermitian generator expand as

    rho = (1/N) (I + x . sigma),      G = (1/N) (g0 I + g . sigma),

with real coordinate vectors of length N^2 - 1. The module solves for the
Hermitian generator G of the flow  drho/dt = G rho + rho G  from (x, dx/dt)
through the eigenbasis kernel it shares with the Bures metric, gives the
unitary-evolution specialization as commutator products, and computes the
characteristic-polynomial invariants of a state (which need no
diagonalization). The structure constants f and d of :class:`GeneratorBasis`
are built only on request, as oracles for the tests and the identity report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import matcore

MAX_DIM = 16
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GeneratorBasis:
    """Traceless Hermitian generators of su(N).

    Generator ordering: all symmetric off-diagonal pairs first (lexicographic
    in (j, k)), then all antisymmetric pairs, then the diagonal ladder. The
    ordering is part of the coordinate contract. The dense structure
    constants ``f`` and ``d`` (m x m x m with m = N^2 - 1) are read-only
    oracles built on first access; the solvers never read them.
    """

    dim: int
    sigmas: np.ndarray  # (N^2 - 1, N, N)

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    @property
    def f(self) -> np.ndarray:
        """Antisymmetric structure constants f_ijk = Tr([s_i, s_j] s_k) / (4 i)."""
        return self._structure_constants[0]

    @property
    def d(self) -> np.ndarray:
        """Symmetric structure constants d_ijk = Tr({s_i, s_j} s_k) / 4."""
        return self._structure_constants[1]

    @cached_property
    def _structure_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """(f, d) from one pass over t_i[j, k] = Tr[s_i s_j s_k], one i at a time.

        Cyclicity gives Tr[s_j s_i s_k] = t_i[k, j], so t_i -+ t_i^T are the
        (anti)commutator traces and temporaries stay at O(m N^2).
        """
        sig = self.sigmas
        m, n = sig.shape[0], sig.shape[1]
        sig_flat_t = np.ascontiguousarray(sig.transpose(0, 2, 1).reshape(m, n * n))
        f, d = np.empty((m, m, m)), np.empty((m, m, m))
        for i in range(m):
            t = (sig[i] @ sig).reshape(m, n * n) @ sig_flat_t.T
            f[i] = (t - t.T).imag / 4.0
            d[i] = (t + t.T).real / 4.0
        for out in (f, d):
            out.setflags(write=False)
        return f, d


def _generator_matrices(n: int) -> np.ndarray:
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.sqrt(2.0 / (k * (k + 1))) * np.diag(diag).astype(np.complex128))
    return np.array(mats)


@lru_cache(maxsize=None)
def generator_basis(n: int) -> GeneratorBasis:
    """Build (and cache) the su(N) generator basis for 2 <= N <= 16.

    For N = 2 the generators are the Pauli matrices in (x, y, z) order, with
    f the Levi-Civita symbol and d identically zero.
    """
    if not (2 <= n <= MAX_DIM):
        raise ValueError(f"dimension must be between 2 and {MAX_DIM}, got {n}")
    sig = _generator_matrices(n)
    sig.setflags(write=False)
    return GeneratorBasis(dim=n, sigmas=sig)


def _coordinates(basis: GeneratorBasis, *vectors) -> tuple[np.ndarray, ...]:
    """Validate real coordinate vectors: length N^2 - 1 and finite entries."""
    out = tuple(np.asarray(v, dtype=float) for v in vectors)
    for v in out:
        if v.shape != (basis.size,):
            raise ValueError(f"coordinate vectors must have length {basis.size}, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coordinate vectors must be finite (NaN or inf entry)")
    return out


def expand(coeff0: float, coeffs, basis: GeneratorBasis) -> np.ndarray:
    """Assemble (1/N) (coeff0 I + coeffs . sigma) as a matrix."""
    (c,) = _coordinates(basis, coeffs)
    n = basis.dim
    out = np.tensordot(c, basis.sigmas, axes=(0, 0)).astype(np.complex128)
    out += coeff0 * np.eye(n)
    return out / n


def coefficients(m, basis: GeneratorBasis) -> tuple[float, np.ndarray]:
    """Project a matrix onto (coeff0, coeffs) with coeff_i = (N/2) Tr[m sigma_i]."""
    a = matcore.as_complex_matrix(m)
    if a.shape[0] != basis.dim:
        raise ValueError(f"matrix dimension {a.shape[0]} does not match basis "
                         f"dimension {basis.dim}")
    c0 = float(np.trace(a).real)
    c = 0.5 * basis.dim * np.einsum('iab,ba->i', basis.sigmas, a).real
    return c0, c


@dataclass(frozen=True)
class TangentGenerator:
    """Hermitian generator G = (1/N)(g0 I + g . sigma) of a state flow."""

    g0: float
    g: np.ndarray
    matrix: np.ndarray


def solve_tangent_G(x, xdot, basis: GeneratorBasis,
                    psd_tol: float = 1e-10) -> TangentGenerator:
    """Solve drho = G rho + rho G for G, with rho = expand(1, x).

    One eigendecomposition of rho feeds the kernel shared with the Bures
    metric, G_ij = drho_ij / (l_i + l_j) in the eigenbasis. This solves
    (I + X + D) g = (N/2) dx/dt without forming it; g0 = -(2/N) x . g. The
    condition number of G -> G rho + rho G is l_max / l_min; beyond 1e12 (x
    on or near the pure-state boundary) the solve is refused.
    """
    x, xdot = _coordinates(basis, x, xdot)
    dec = matcore.spectral_decompose(expand(1.0, x, basis))
    lam = dec.eigenvalues
    if lam[0] < -psd_tol:
        raise ValueError(f"not a state: most negative eigenvalue {float(lam[0]):.6e}")
    cond = float(lam[-1] / lam[0]) if lam[0] > 0 else np.inf
    if cond > CONDITION_LIMIT:
        raise ValueError(
            f"tangent system is singular beyond the conditioning threshold "
            f"(cond = {cond:.3e}); the state is on or beyond the boundary")
    _, g_eig = matcore.lyapunov_eigenbasis(dec, expand(0.0, xdot, basis))
    v = dec.eigenvectors
    _, g = coefficients(v @ g_eig @ v.conj().T, basis)
    g0 = float(-(2.0 / basis.dim) * (x @ g) + 0.0)
    return TangentGenerator(g0=g0, g=g, matrix=expand(g0, g, basis))


def unitary_tangent(y, x, basis: GeneratorBasis) -> TangentGenerator:
    """Generator G = [X, Y] / (2 i N) of unitary evolution driven by y.

    With X = x . sigma and Y = y . sigma this is g = Dt y with
    Dt_kj = sum_i x_i f_ijk and g0 = 0; x . g vanishes identically.
    """
    x, y = _coordinates(basis, x, y)
    xm, ym = expand(0.0, x, basis), expand(0.0, y, basis)  # X / N, Y / N
    _, g = coefficients((basis.dim / 2j) * (xm @ ym - ym @ xm), basis)
    return TangentGenerator(g0=0.0, g=g, matrix=expand(0.0, g, basis))


def hamiltonian_from_Y(y, x, basis: GeneratorBasis
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective field B = [I + X(x) + D(x)] y and its split along x.

    B = y - (2/N) x (x . y) + coefficients({X, Y} / (2N)) with X = x . sigma
    and Y = y . sigma. Returns (B, B_parallel, B_perp). The parallel part
    generates rotations about x (a dynamical phase); the perpendicular part
    drives the orbit. For x = 0 the split is (0, B).
    """
    x, y = _coordinates(basis, x, y)
    n = basis.dim
    xm, ym = expand(0.0, x, basis), expand(0.0, y, basis)  # X / N, Y / N
    _, dy = coefficients((n / 2.0) * (xm @ ym + ym @ xm), basis)
    b = y - (2.0 / n) * x * (x @ y) + dy
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        return b, np.zeros_like(b), b
    xhat = x / norm
    b_par = (b @ xhat) * xhat
    return b, b_par, b - b_par


def characteristic_invariants(rho) -> np.ndarray:
    """Elementary symmetric polynomials S_1..S_N of the spectrum of rho.

    Built from power traces through Newton's identities,

        S_k = (1/k) sum_{j=1..k} (-1)^(j-1) S_{k-j} Tr[rho^j],  S_0 = 1,

    so no diagonalization is involved. S_1 = Tr[rho] = 1 for any state, and
    S_N = det(rho).
    """
    r = matcore.require_hermitian(rho)
    n = r.shape[0]
    power = np.eye(n, dtype=np.complex128)
    ptraces = []
    for _ in range(n):
        power = power @ r
        ptraces.append(float(np.trace(power).real))
    s = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (-1.0) ** (j - 1) * s[k - j] * ptraces[j - 1]
        s.append(acc / k)
    return np.array(s[1:])
