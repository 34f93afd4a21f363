"""Bures geodesics between density matrices via the geometric-mean operator.

Each endpoint is decomposed once, rho = V diag(l) V^dag, and one SVD of
sqrt(rho1) F2 = U S W'^dag, with the eigen-factor F2 = V2 diag(sqrt(l2)) of
rho2, gives the root fidelity sqrt(F) = sum(S) and the purification
A2 = F2 W' U^dag parallel to A1 = sqrt(rho1), A1^dag A2 = U S U^dag >= 0
(Uhlmann's purification picture). As sqrt(rho2) = F2 V2^dag, this is the SVD
of B = sqrt(rho1) sqrt(rho2) = U S V^dag with V = V2 W', so A2 = sqrt(rho2) W
for the gauge W = V U^dag, and sqrt(rho2) itself is never formed. The
geodesic is the projection of the great circle through them,

    rho(s) = f(s)^2 rho1 + f(s) g(s) C + g(s)^2 rho2,   C = A1 A2^dag + A2 A1^dag,

with f(s) = sin(s* - s)/sin(s*), g(s) = sin(s)/sin(s*) and the Bures angle
s* = 2 arcsin(|A1 - A2|_F / 2); no inverse root is taken. The great circle
itself, A(s) = f(s) A1 + g(s) A2, is the horizontal lift through A1: it
projects to rho(s) = A(s) A(s)^dag, and A1^dag A(s) = f A1^dag A1 + g U S U^dag
is Hermitian (Uhlmann's parallel transport). When rank rho1 >= rank rho2, the
paper's operator M* solves M* rho1 + rho1 M* = C (for invertible rho1 it is
rho1^{-1/2} sqrt(rho1^{1/2} rho2 rho1^{1/2}) rho1^{-1/2}) and maps A1 to A2, so
M(s) = f(s) I + g(s) M* gives rho(s) = M(s) rho1 M(s), and the lift through
any other purification A(0) of rho1 is M(s) A(0); otherwise no M* exists, as
M rho1 M cannot raise the rank, and only the lift through A1 does. The path
builds C and M* on first read, from the start's decomposition and the parallel
root A2 it holds, so sampling rho(s) or lifting A1 never needs M*. The root
fidelity from the start decays as cos(s).

Endpoints are the memoised decompositions of ``states.admit``. A second LRU
memo of fixed size ``PAIR_MEMO_SIZE``, keyed on the pair of them, keeps the
polar data of B: U W'^dag, rank B, the parallel root A2 and the pair's Bures
values, with the exact ones of identical endpoints (1, 0, 0) and of
orthogonal supports (rank B = 0: angle pi/2, distance sqrt(2)) decided there
once. So one pair costs one SVD across ``bures``, ``geometric_mean_operator``
and ``uhlmann_unitary``. Its arrays are read-only.

A sweep takes its points, root fidelities and Bures angles as stacks, outside
both memos: ``_points`` samples rho(s) over a grid of s, and
``_root_fidelities`` and ``_bures_angles`` take S pairs of stacked
decompositions, one LAPACK call per quantity. Each value has the bytes of the
public scalar function on its row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore, states

PAIR_MEMO_SIZE = 16           # polar pairs of memoised states one process keeps


class GeodesicUndefinedError(ValueError):
    """The geodesic construction is not defined for the given endpoints."""


@dataclass(frozen=True)
class BuresSummary:
    """Root fidelity with the two distances it induces."""

    root_fidelity: float
    bures_angle: float
    bures_distance: float


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """Endpoints with the cached data for geodesic sampling.

    ``start`` and ``end`` are the decompositions of the endpoints ``rho1`` and
    ``rho2``, ``a2`` the purification of rho2 parallel to A1 = sqrt(rho1)
    (A1^dag A2 >= 0) and ``s_star`` the total Bures angle; A1 and A2 are the
    ends of the great circle that :func:`horizontal_lift` returns for A1.
    ``cross``, the cross term C = A1 A2^dag + A2 A1^dag, and ``m_star``, the
    solution of M* rho1 + rho1 M* = C, are built on first read from ``start``
    and ``a2``, so reading them makes no eigensolve; ``m_star`` is None when
    rank rho1 < rank rho2 and no M* exists. ``orthogonal`` marks orthogonal
    pure endpoints, joined through the gauge A2 = |psi2><psi1|. Every array is
    read-only, so instances are immutable and safe to share across concurrent
    samplers; threads that read ``cross`` or ``m_star`` first at once build the
    same bytes. A path also remembers its last sample: f(s), g(s) and the
    read-only rho(s) at one s, so :func:`geodesic_point` and
    :func:`horizontal_lift` at the same s evaluate them once. Concurrent
    samplers that replace each other's sample only recompute it.
    """

    start: matcore.SpectralDecomposition
    end: matcore.SpectralDecomposition
    a2: np.ndarray
    s_star: float
    orthogonal: bool = False

    def __post_init__(self):
        self.a2.setflags(write=False)

    @property
    def rho1(self) -> np.ndarray:
        return self.start.matrix

    @property
    def rho2(self) -> np.ndarray:
        return self.end.matrix

    @functools.cached_property
    def cross(self) -> np.ndarray:
        half = self.start.sqrt @ self.a2.conj().T
        c = half + half.conj().T
        c.setflags(write=False)
        return c

    @functools.cached_property
    def m_star(self) -> np.ndarray | None:
        if self.start.rank < self.end.rank:
            return None
        m = matcore._lyapunov_solution(self.start, self.cross)
        m.setflags(write=False)
        return m

    def _sample(self, s) -> tuple[float, float, np.ndarray]:
        """(f(s), g(s), rho(s)) of :func:`transport_coefficients` and :func:`_point`,
        with rho(s) read-only. The last sample is kept in one slot, written as
        ``cached_property`` writes ``cross`` and keyed on the bits of the coerced
        s: an equal float of the same sign, so -0.0 and 0.0 never share it, and
        NaN never matches. A refused s raises before the slot is written, and a
        sampler that finds another s there computes its own."""
        s = matcore.as_real_scalar(s, "s")
        slot = self.__dict__.get("_last_sample")
        if (slot is not None and slot[0] == s
                and math.copysign(1.0, slot[0]) == math.copysign(1.0, s)):
            return slot[1]
        f, g = transport_coefficients(s, self.s_star)
        rho = _point(self, f, g)
        rho.setflags(write=False)
        self.__dict__["_last_sample"] = (s, (f, g, rho))
        return f, g, rho

    @property
    def degenerate(self) -> bool:
        """s* = 0: a constant path."""
        return self.s_star == 0.0

    @property
    def dim(self) -> int:
        return self.rho1.shape[0]


def _require_path(path) -> None:
    """Refuse a ``path`` that is not a :class:`GeodesicPath`."""
    if not isinstance(path, GeodesicPath):
        raise ValueError(f"path must be a GeodesicPath, got {type(path).__name__}")


def _admit_pair(rho1, rho2) -> tuple[matcore.SpectralDecomposition,
                                     matcore.SpectralDecomposition]:
    st1 = matcore._named(states.admit, rho1, "rho1")
    st2 = matcore._named(states.admit, rho2, "rho2")
    matcore.require_same_shape(st1.matrix, st2.matrix, "rho1", "rho2")
    return st1, st2


def _unit(x) -> float:
    """x as a float clamped to [0, 1]; NaN stays NaN."""
    x = float(x)
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _same(st1: matcore.SpectralDecomposition, st2: matcore.SpectralDecomposition) -> bool:
    """Equal content: one memo entry, or else equal traces and first entries, then
    equal matrices. Unit traces are often equal to the last bit, so the first
    entry settles most distinct pairs before the full comparison."""
    a, b = st1.matrix, st2.matrix
    return st1 is st2 or (st1.trace == st2.trace and a.item(0) == b.item(0)
                          and np.array_equal(a, b))


def _same_members(st1: matcore.SpectralDecomposition,
                  st2: matcore.SpectralDecomposition) -> np.ndarray:
    """:func:`_same` of S pairs, either side a stack or one matrix: equal
    matrices, member by member (equal matrices have equal traces)."""
    return (st1.matrix == st2.matrix).all(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class _PolarPair:
    """Of the SVD sqrt(rho1) F2 = U S W'^dag of a pair (F2 = V2 diag(sqrt(l2))):
    ``gauge_eig`` = U W'^dag, the gauge U V^dag in rho2's eigenbasis (gauge =
    gauge_eig V2^dag), rank B (the singular values above the spectral zero of
    the pair), the parallel root A2 = F2 W' U^dag
    (sqrt(rho2) for identical endpoints) and the pair's :class:`BuresSummary`.
    Construction marks the arrays read-only."""

    gauge_eig: np.ndarray
    rank: int
    a2: np.ndarray
    summary: BuresSummary

    def __post_init__(self):
        for a in (self.gauge_eig, self.a2):
            a.setflags(write=False)


def _root_product(st1: matcore.SpectralDecomposition, st2: matcore.SpectralDecomposition
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(F2, B): the eigen-factor F2 = V2 diag(sqrt(l2)) and B = sqrt(rho1) F2."""
    f2 = matcore.spectral_factor(st2)
    return f2, st1.sqrt @ f2


@functools.lru_cache(maxsize=PAIR_MEMO_SIZE)
def _polar_pair(st1: matcore.SpectralDecomposition,
                st2: matcore.SpectralDecomposition) -> _PolarPair:
    """The polar data of a pair of memoised states, kept per pair (keyed by identity)."""
    f2, b = _root_product(st1, st2)
    u, sigma, wh = matcore._lapack("svd_f", b)
    gauge_eig = u @ wh
    rank = int(np.count_nonzero(sigma > matcore._spectral_zero(st1, st2)))
    if _same(st1, st2):
        return _PolarPair(gauge_eig, rank, st2.sqrt, BuresSummary(1.0, 0.0, 0.0))
    a2 = f2 @ gauge_eig.conj().T
    if rank == 0:
        angle, distance = np.pi / 2, float(np.sqrt(2.0))
    else:
        d = (st1.sqrt - a2).ravel()  # |A1 - A2|_F as np.linalg.norm sums it
        distance = math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))
        angle = 2.0 * float(np.arcsin(distance / 2.0))
    return _PolarPair(gauge_eig, rank, a2, BuresSummary(_unit(sigma.sum()), angle, distance))


def root_fidelity(rho1, rho2) -> float:
    """Uhlmann root fidelity Tr sqrt(rho1^{1/2} rho2 rho1^{1/2}).

    Computed as the nuclear norm of sqrt(rho1) F2, F2 = V2 diag(sqrt(l2)) the
    eigen-factor of rho2: F2 = sqrt(rho2) V2, so this is the nuclear norm of
    sqrt(rho1) sqrt(rho2), the same quantity, but it avoids squaring small
    singular values and forming sqrt(rho2). Identical endpoints give exactly 1
    and states with orthogonal supports give exactly 0. The result is clamped
    to [0, 1].
    """
    st1, st2 = _admit_pair(rho1, rho2)
    if _same(st1, st2):
        return 1.0
    return _unit(np.add.reduce(matcore._lapack("svd", _root_product(st1, st2)[1])))


def _root_fidelities(st1: matcore.SpectralDecomposition,
                     st2: matcore.SpectralDecomposition) -> np.ndarray:
    """:func:`root_fidelity` of S pairs of admitted states, either side a stack
    (``states._admit_stack``) or one state: one stacked SVD, with the bytes of
    the single calls and exactly 1 for equal matrices."""
    sf = np.clip(np.add.reduce(matcore._lapack("svd", _root_product(st1, st2)[1]), axis=-1),
                 0.0, 1.0)
    sf[_same_members(st1, st2)] = 1.0
    return sf


def _bures_angles(st1: matcore.SpectralDecomposition,
                  st2: matcore.SpectralDecomposition) -> np.ndarray:
    """The ``bures_angle`` of :func:`bures` for S pairs taken as by
    :func:`_root_fidelities`, with the bytes of :func:`_polar_pair`: 0 for equal
    matrices, pi/2 where rank B = 0, else 2 arcsin(|A1 - A2|_F / 2), the norm
    summed as ``np.linalg.norm`` sums it."""
    f2, b = _root_product(st1, st2)
    u, sigma, wh = matcore._lapack("svd_f", b)
    orthogonal = ~(sigma > matcore._spectral_zero(st1, st2)[..., None]).any(axis=-1)
    diff = st1.sqrt - f2 @ (u @ wh).conj().mT
    diff = diff.reshape(*diff.shape[:-2], -1)
    distance = np.sqrt(np.vecdot(diff.real, diff.real) + np.vecdot(diff.imag, diff.imag))
    angle = 2.0 * np.arcsin(distance / 2.0)
    angle[orthogonal] = np.pi / 2
    angle[_same_members(st1, st2)] = 0.0
    return angle


def bures(rho1, rho2) -> BuresSummary:
    """Root fidelity sum(S) with the Bures distance and angle of the parallel purifications.

    The distance is d = |A1 - A2|_F with A1 = sqrt(rho1) and A2 = sqrt(rho2) V U^dag,
    the angle 2 arcsin(d/2), the s* of :func:`geometric_mean_operator`. Unlike
    arccos(sqrt F) and sqrt(2 - 2 sqrt F) they keep their digits for nearby
    endpoints. Identical endpoints give (1, 0, 0), and orthogonal supports
    (rank B = 0) give the angle pi/2 and the distance sqrt(2).
    """
    return _polar_pair(*_admit_pair(rho1, rho2)).summary


def _phase_fixed_top_eigenvector(dec: matcore.SpectralDecomposition) -> np.ndarray:
    """Dominant eigenvector with its first nonzero component made real positive."""
    v = dec.eigenvectors[:, -1].copy()
    idx = int(np.argmax(np.abs(v) > matcore.ROUNDOFF))
    phase = v[idx] / abs(v[idx])
    return v * phase.conj()


def geometric_mean_operator(rho1, rho2) -> GeodesicPath:
    """Construct the geodesic cache (A2, s*, and C and M* on first read) for the given endpoints.

    The geodesic is unique exactly when rank B = min(rank rho1, rank rho2), for
    B = sqrt(rho1) sqrt(rho2) = U S V^dag with its singular values counted above
    ``CLAMP`` times their bound sqrt(l1_max l2_max). The gauge W = V U^dag is free
    only on the columns of U that span ker B^dag and of V that span ker B. If
    rank B = rank rho1, ker B^dag = ker sqrt(rho1), so sqrt(rho1) kills the free
    columns of U; if rank B = rank rho2, sqrt(rho2) kills those of V. Either way
    A1 A2^dag = sqrt(rho1) U V^dag sqrt(rho2) is fixed, and with it C; below
    both ranks it is not, and the pair is refused. Identical endpoints take W = I.
    Orthogonal pure endpoints (rank B = 0) take A2 = |psi2><psi1|, each vector's
    first nonzero component real positive, so that M* = |psi1><psi2| +
    |psi2><psi1|; orthogonal mixed endpoints admit infinitely many geodesics
    and are refused. ``m_star`` is None when rank rho1 < rank rho2.
    """
    st1, st2 = _admit_pair(rho1, rho2)
    polar = _polar_pair(st1, st2)
    rank_b = polar.rank
    orthogonal = False
    if rank_b == st2.rank or rank_b == st1.rank:  # rank rho1 is read only if needed
        a2 = polar.a2
    elif rank_b == 0 and st1.rank == st2.rank == 1:
        orthogonal = True
        a2 = np.outer(_phase_fixed_top_eigenvector(st2),
                      _phase_fixed_top_eigenvector(st1).conj())
    elif rank_b == 0:
        raise GeodesicUndefinedError(
            "M singular at s*=pi/2: orthogonal mixed endpoints admit "
            "infinitely many geodesics; only the pure-pure case is constructed")
    else:
        raise GeodesicUndefinedError(
            f"geodesic not unique: sqrt(rho1) sqrt(rho2) has rank {rank_b} below "
            f"both rank rho1 = {st1.rank} and rank rho2 = {st2.rank}")
    return GeodesicPath(start=st1, end=st2, a2=a2, s_star=polar.summary.bures_angle,
                        orthogonal=orthogonal)


def transport_coefficients(s: float, s_star: float) -> tuple[float, float]:
    """Coefficients f(s) = sin(s* - s)/sin(s*), g(s) = sin(s)/sin(s*) of M(s).

    f(0) = g(s*) = 1, f(s*) = g(0) = 0, and s* = 0 gives (1, 0). s is clamped
    onto [0, s*] within matcore.ROUNDOFF and refused farther out, or when
    :func:`matcore.as_real_scalar` refuses it. s* must be finite and >= 0.
    """
    if not 0.0 <= s_star < math.inf:  # NaN fails too
        raise ValueError(f"s_star = {s_star!r} is not a finite angle >= 0")
    s = matcore.as_real_scalar(s, "s")
    if not -matcore.ROUNDOFF <= s <= s_star + matcore.ROUNDOFF:
        raise ValueError(f"s = {s!r} outside the geodesic range [0, {s_star!r}]")
    s = min(max(s, 0.0), s_star)
    sin_star = math.sin(s_star)  # the bytes of np.sin, without the ufunc call
    if sin_star == 0.0:
        return 1.0, 0.0
    return math.sin(s_star - s) / sin_star, math.sin(s) / sin_star


def _coefficients(s, s_star: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`transport_coefficients` at each s of a grid, as the arrays f and g;
    the grid is refused at its first refused s."""
    fg = np.array([transport_coefficients(t, s_star) for t in s]).reshape(-1, 2)
    return fg[:, 0], fg[:, 1]


def _m_star(path: GeodesicPath) -> np.ndarray:
    """``path.m_star``, or the refusal of a path that has none."""
    if path.m_star is None:
        raise GeodesicUndefinedError(
            f"no M*: rank rho1 = {path.start.rank} < rank rho2 = {path.end.rank}, "
            "and M rho1 M cannot raise the rank")
    return path.m_star


def _transport(m_star: np.ndarray, f: float, g: float) -> np.ndarray:
    """M = f I + g M*: g M* with f added on the diagonal."""
    m = g * m_star
    m.flat[::m.shape[0] + 1] += f
    return m


def _point(path: GeodesicPath, f, g) -> np.ndarray:
    """rho = f^2 rho1 + f g C + g^2 rho2, summed left to right into the first
    product, with one temporary for the other two. Columns f and g of shape
    (S, 1, 1) give the stack of S points."""
    rho = path.rho1 * (f * f)
    term = path.cross * (f * g)
    rho += term
    rho += np.multiply(path.rho2, g * g, out=term)
    return rho


def _points(path: GeodesicPath, s) -> np.ndarray:
    """:func:`geodesic_point` at each s of a grid, as one stack (S, N, N)."""
    f, g = _coefficients(s, path.s_star)
    return _point(path, f[:, None, None], g[:, None, None])


def transport_operator(path: GeodesicPath, s: float) -> np.ndarray:
    """Transport operator M(s) = f(s) I + g(s) M* on 0 <= s <= s*.

    M(0) = I and M(s*) = M*; on a degenerate path only s = 0 is in range.
    A path with rank rho1 < rank rho2 has no M* and is refused.
    """
    _require_path(path)
    return _transport(_m_star(path), *transport_coefficients(s, path.s_star))


def geodesic_point(path: GeodesicPath, s: float) -> np.ndarray:
    """Intermediate state rho(s) = f^2 rho1 + f g C + g^2 rho2, exactly rho2 at s*.

    The result is a fresh, writable copy of the path's read-only sample at s.
    """
    _require_path(path)
    return path._sample(s)[2].copy()


def initial_tangent(path: GeodesicPath) -> np.ndarray:
    """Initial generator G0 = (M(s*) - I cos s*)/sin s* of the horizontal lift.

    G0 is Hermitian, the lift tangent is A'(0) = G0 A(0), and it has unit
    length with Tr[A'(0) A(0)^dag] = 0 for any purification A(0) of rho1.
    """
    _require_path(path)
    if path.degenerate:
        raise ValueError("tangent undefined for the constant path between "
                         "identical endpoints")
    m = transport_operator(path, path.s_star)
    return (m - np.cos(path.s_star) * np.eye(path.dim)) / np.sin(path.s_star)


def horizontal_lift(a0: states.Purification, path: GeodesicPath,
                    s: float) -> states.Purification:
    """Horizontal lift A(s) of the geodesic through a0.

    When the matrix of a0 is, or equals, the start's own root ``path.start.sqrt``
    (``canonical_purification(rho1)`` without a gauge), the lift is the great circle
    A(s) = f(s) A1 + g(s) A2 through the parallel roots. It exists on every built
    path, rank-raising ones included, and reads no M*; where M* exists it agrees
    with M(s) A1 to a few ulps. That root is not checked: its defect
    |sqrt(rho1) sqrt(rho1)^dag - rho1| is the eigenvalues counted as zero, at
    most ``CLAMP`` * l_max above 0 and ``ADMIT_TOL`` below, plus roundoff. Any
    other a0 is checked by :class:`states.Purification` against rho1 ("a0 does
    not purify ..."), lifted as M(s) A(0), and refused on a path with no M*. The
    lift takes f(s) and g(s), and its target rho(s), from the path's sample at
    s, which :func:`geodesic_point` at that s also reads; the target is that
    shared read-only array. The result keeps its own Purification check.
    """
    _require_path(path)
    a0m = (a0.matrix if isinstance(a0, states.Purification)
           else matcore.as_complex_matrix(a0, "a0"))
    if a0m is path.start.sqrt or np.array_equal(a0m, path.start.sqrt):
        f, g, rho = path._sample(s)
        lift = path.a2 * g
        lift += path.start.sqrt * f  # f A1 + g A2: addition is commutative to the bit
    else:
        matcore._named(lambda a: states.Purification(matrix=a, target=path.rho1), a0m, "a0")
        m_star = _m_star(path)
        f, g, rho = path._sample(s)
        lift = _transport(m_star, f, g) @ a0m
    return states.Purification(matrix=lift, target=rho)


def hlc_residual(a, adot) -> float:
    """Horizontality defect max |A'^dag A - A^dag A'| of a bundle tangent.

    Zero means A'^dag A is Hermitian, i.e. the tangent is horizontal
    (orthogonal to the gauge fibers); tangents of the form A' = G A with G
    Hermitian always satisfy this, while vertical tangents i A H do not.
    """
    am, dm = matcore.as_complex_matrix(a, "a"), matcore.as_complex_matrix(adot, "adot")
    matcore.require_same_shape(am, dm, "a", "adot")
    k = dm.conj().T @ am
    return matcore._max_modulus(k - k.conj().T)


def hubner_metric(rho, drho) -> float:
    """Infinitesimal squared Bures distance (1/2) sum |<i|drho|j>|^2 / (l_i + l_j).

    Evaluated in the eigenbasis of rho by :func:`matcore.lyapunov_eigenbasis`,
    the kernel that also solves for the tangent generator in :mod:`sun`;
    eigenvalue pairs with l_i + l_j below the clamp are skipped, which
    restricts the sum to the support. The variation must be traceless; entries
    within ``matcore.ENTRY_LIMIT`` keep the sum finite (at most N^4 L^2 over the
    spectral cut).
    """
    st = matcore._named(states.admit, rho, "rho")
    d = matcore._named(matcore.require_hermitian, drho, "drho")
    matcore.require_same_shape(st.matrix, d, "rho", "drho")
    tr = float(d.trace().real)
    if not abs(tr) <= matcore.ADMIT_TOL:  # the scale is at least 1: only then can it matter
        scale = max(matcore._max_modulus(d), 1.0)
        if not abs(tr) <= matcore.ADMIT_TOL * scale:
            raise ValueError(f"variation must be traceless: Tr[drho] = {tr!r}")
    d_eig, x_eig = matcore.lyapunov_eigenbasis(st, d)
    return float(0.5 * np.vdot(d_eig, x_eig).real)


def uhlmann_unitary(rho1, rho2) -> np.ndarray:
    """The unitary U = sqrt(rho1^{1/2} rho2 rho1^{1/2}) rho1^{-1/2} rho2^{-1/2}.

    Both inputs must be invertible (full rank within the clamp). U is the polar
    factor L R^dag of sqrt(rho1) sqrt(rho2) = L S R^dag, the adjoint of the gauge
    of :func:`geometric_mean_operator`: it is unitary, and
    Tr[U sqrt(rho2) sqrt(rho1)] equals the root fidelity.
    """
    st1, st2 = _admit_pair(rho1, rho2)
    for name, st in (("rho1", st1), ("rho2", st2)):
        if st.rank < st.matrix.shape[0]:
            raise ValueError(
                f"construction requires invertible inputs: {name} has "
                f"min eigenvalue {st.eigenvalues[0]:.3e}")
    return _polar_pair(st1, st2).gauge_eig @ st2.eigenvectors.conj().T
