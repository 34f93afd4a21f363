"""Generalized Gell-Mann generators of su(N) and the tangent-generator solvers.

The basis fixes the coordinates used everywhere else: a unit-trace state and a
Hermitian generator expand as

    rho = (1/N) (I + x . sigma),      G = (1/N) (g0 I + g . sigma),

with real coordinate vectors of length N^2 - 1. The module solves for the
Hermitian generator G of the flow  drho/dt = G rho + rho G  from (x, dx/dt)
through the eigenbasis kernel it shares with the Bures metric, gives the
unitary-evolution specialization as commutator products, and reads the
characteristic-polynomial invariants of a state from its memoised spectrum.
Coordinates and matrices convert in O(N^2) through an index map of the
generator ordering. A :class:`GeneratorBasis` is its dimension: its dense
generator stack is scattered through the same map on first read, and it and
the structure constants f and d are oracles read only by ``sun-check``, the
tests and the bench tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import matcore, states

MAX_DIM = 16


@dataclass(frozen=True)
class GeneratorBasis:
    """Traceless Hermitian generators of su(N): the basis is its dimension.

    Generator ordering: all symmetric off-diagonal pairs first (lexicographic
    in (j, k)), then all antisymmetric pairs, then the diagonal ladder. The
    ordering is part of the coordinate contract; :func:`_index_map` writes it.
    The dense stack ``sigmas`` (scattered through that map) and the structure
    constants ``f`` and ``d`` (m x m x m with m = N^2 - 1) are read-only oracles,
    built on first read; no conversion or solver reads them.
    """

    dim: int

    def __post_init__(self):
        n = matcore.as_dimension(self.dim, "dimension", 2, MAX_DIM)
        object.__setattr__(self, "dim", n)  # a numpy integer is stored as an int

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    @cached_property
    def sigmas(self) -> np.ndarray:
        """The (N^2 - 1, N, N) stack scattered through the index map. The antisymmetric
        pairs are written as -1j and 1j, not as conjugates, so that the signed
        zeros are those of a matrix-by-matrix build."""
        n, m = self.dim, self.size
        upper, lower, ladder = _index_map(n)
        p = upper.size
        pair = np.arange(p)
        sig = np.zeros((m, n, n), dtype=np.complex128)
        flat = sig.reshape(m, n * n)
        flat[pair, upper] = 1.0
        flat[pair, lower] = 1.0
        flat[p + pair, upper] = -1j
        flat[p + pair, lower] = 1j
        flat[2 * p:, ::n + 1] = ladder
        sig.setflags(write=False)
        return sig

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


_basis = lru_cache(maxsize=None)(GeneratorBasis)  # keyed on the checked int


def generator_basis(n: int) -> GeneratorBasis:
    """The cached su(N) generator basis for 2 <= N <= 16.

    For N = 2 the generators are the Pauli matrices in (x, y, z) order, with
    f the Levi-Civita symbol and d identically zero.
    """
    return _basis(matcore.as_dimension(n, "dimension", 2, MAX_DIM))


generator_basis.cache_clear = _basis.cache_clear  # the next call builds a fresh basis


@lru_cache(maxsize=None)
def _index_map(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions of the upper (j, k) and lower (k, j) entries of the pairs,
    j < k lexicographic, and the (N - 1) x N ladder of the diagonal generators."""
    j, k = np.triu_indices(n, 1)
    rung = np.arange(1, n)
    steps = np.tri(n - 1, n) - np.diag(rung, 1)[:-1]  # row k - 1: k ones, then -k
    return j * n + k, k * n + j, np.sqrt(2.0 / (rung * (rung + 1)))[:, None] * steps


def _assemble(c0: float, c: np.ndarray, n: int) -> np.ndarray:
    """(1/N) (c0 I + c . sigma) in O(N^2): scatter the pairs and the ladder."""
    upper, lower, ladder = _index_map(n)
    p = upper.size
    z = c[:p] + 1j * c[p:2 * p]  # entries (k, j); the (j, k) entries are their conjugates
    out = np.zeros(n * n, dtype=np.complex128)
    out[lower] = z
    out[upper] = z.conj()
    out[::n + 1] = c0 + ladder.T @ c[2 * p:]
    return out.reshape(n, n) / n


def _project(a: np.ndarray, n: int) -> np.ndarray:
    """Coordinates (N/2) Tr[a sigma_i] in O(N^2): gather the pairs and the diagonal.
    A stack (S, N, N) gives one row per matrix, with the bytes of each alone."""
    upper, lower, ladder = _index_map(n)
    if a.ndim > 2:  # each diagonal as a column, so the ladder product keeps gemv's bytes
        flat = a.reshape(len(a), n * n)
        up, lo = flat[:, upper], flat[:, lower]
        diag = (ladder @ flat[:, ::n + 1, None].real)[..., 0]
    else:
        flat = a.reshape(-1)
        up, lo = flat[upper], flat[lower]
        diag = ladder @ flat[::n + 1].real
    return (0.5 * n) * np.concatenate(((up + lo).real, (lo - up).imag, diag), axis=-1)


def _require_basis(basis) -> None:
    """Refuse a ``basis`` that is not a :class:`GeneratorBasis`."""
    if not isinstance(basis, GeneratorBasis):
        raise ValueError(f"basis must be a GeneratorBasis, got {type(basis).__name__}")


def expand(coeff0: float, coeffs, basis: GeneratorBasis) -> np.ndarray:
    """Assemble (1/N) (coeff0 I + coeffs . sigma) as a matrix."""
    _require_basis(basis)
    c0 = matcore.as_real_scalar(coeff0, "coeff0", finite=True)
    c = matcore.as_vector(coeffs, "coeffs", basis.size)
    return _assemble(c0, c, basis.dim)


def coefficients(m, basis: GeneratorBasis) -> tuple[float, np.ndarray]:
    """Project a matrix onto (coeff0, coeffs) with coeff_i = (N/2) Tr[m sigma_i]."""
    _require_basis(basis)
    a = matcore.as_complex_matrix(m, "m")
    if a.shape[0] != basis.dim:
        raise ValueError(f"m: matrix dimension {a.shape[0]} does not match basis "
                         f"dimension {basis.dim}")
    return float(np.trace(a).real), _project(a, basis.dim)


@dataclass(frozen=True)
class TangentGenerator:
    """Hermitian generator G = (1/N)(g0 I + g . sigma) of a state flow."""

    g0: float
    g: np.ndarray
    matrix: np.ndarray


def solve_tangent_G(x, xdot, basis: GeneratorBasis) -> TangentGenerator:
    """Solve drho = G rho + rho G for G, with rho = expand(1, x) admitted by ``states.admit``.

    One eigendecomposition of rho feeds the kernel shared with the Bures
    metric, G_ij = drho_ij / (l_i + l_j) in the eigenbasis. This solves
    (I + X + D) g = (N/2) dx/dt without forming it; g0 = -(2/N) x . g. The
    condition number of G -> G rho + rho G is l_max / l_min; beyond
    ``matcore.CONDITION_LIMIT`` (x on or near the pure-state boundary) the
    solve is refused.
    """
    _require_basis(basis)
    x = matcore.as_vector(x, "x", basis.size)
    xdot = matcore.as_vector(xdot, "xdot", basis.size)
    dec = matcore._named(lambda m: states.admit(m, trace_tol=np.inf),  # Tr = 1 by construction
                         _assemble(1.0, x, basis.dim), "x")
    lam = dec.eigenvalues
    cond = float(lam[-1] / lam[0]) if lam[0] > 0 else np.inf
    if not cond <= matcore.CONDITION_LIMIT:
        raise ValueError(
            f"tangent system is singular beyond the conditioning threshold "
            f"(cond = {cond:.3e}); the state is on or beyond the boundary")
    gm = matcore._lyapunov_solution(dec, _assemble(0.0, xdot, basis.dim))
    g = _project(gm, basis.dim)
    g0 = float(-(2.0 / basis.dim) * (x @ g) + 0.0)
    return TangentGenerator(g0=g0, g=g, matrix=gm)


def unitary_tangent(y, x, basis: GeneratorBasis) -> TangentGenerator:
    """Generator G = [X, Y] / (2 i N) of unitary evolution driven by y.

    With X = x . sigma and Y = y . sigma this is g = Dt y with
    Dt_kj = sum_i x_i f_ijk and g0 = 0; x . g vanishes identically.
    """
    _require_basis(basis)
    x = matcore.as_vector(x, "x", basis.size)
    y = matcore.as_vector(y, "y", basis.size)
    c = _assemble(0.0, x, basis.dim) @ _assemble(0.0, y, basis.dim)  # C = XY / N^2
    gm = (basis.dim / 2j) * (c - c.conj().T)  # [X, Y] / N^2 = C - C^dag
    g = _project(gm, basis.dim)
    return TangentGenerator(g0=0.0, g=g, matrix=gm)


def hamiltonian_from_Y(y, x, basis: GeneratorBasis
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective field B = [I + X(x) + D(x)] y and its split along x.

    B = y - (2/N) x (x . y) + coefficients({X, Y} / (2N)) with X = x . sigma
    and Y = y . sigma. Returns (B, B_parallel, B_perp). The parallel part
    generates rotations about x (a dynamical phase); the perpendicular part
    drives the orbit. For x = 0 the split is (0, B).
    """
    _require_basis(basis)
    x = matcore.as_vector(x, "x", basis.size)
    y = matcore.as_vector(y, "y", basis.size)
    n = basis.dim
    c = _assemble(0.0, x, n) @ _assemble(0.0, y, n)  # C = XY / N^2
    dy = _project((n / 2.0) * (c + c.conj().T), n)  # {X, Y} / N^2 = C + C^dag
    b = y - (2.0 / n) * x * (x @ y) + dy
    norm = float(np.linalg.norm(x))
    if norm < matcore.ROUNDOFF:
        return b, np.zeros_like(b), b
    xhat = x / norm
    b_par = (b @ xhat) * xhat
    return b, b_par, b - b_par


def characteristic_invariants(rho) -> np.ndarray:
    """Elementary symmetric polynomials S_1..S_N of the spectrum of rho.

    Read from the memoised eigenvalues of :func:`matcore.spectral_decompose`,
    which takes any Hermitian matrix or a decomposition, and built one
    eigenvalue l at a time by the product recurrence S_k <- S_k + l S_(k-1),
    S_0 = 1, the coefficients of prod (x + l). For a state every term is
    non-negative, so nothing cancels. S_1 = sum(l), within a few ulps of
    Tr[rho] = 1, and S_N = det(rho). Of degree N, S can overflow from gated input
    and is then refused.
    """
    w = matcore._named(matcore.spectral_decompose, rho, "rho").eigenvalues
    s = np.zeros(w.size + 1)
    s[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, lam in enumerate(w.tolist(), 1):
            s[1:k + 1] += lam * s[:k]
    if not matcore._max_modulus(s) < np.inf:  # NaN fails too
        raise ValueError("rho is too large: its invariants overflow")
    return s[1:]
