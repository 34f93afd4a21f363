"""Analytic closed forms for special geodesic families, oracle-gated.

Every function here has an independent numeric route through
:mod:`buresgeo.geodesy` / :mod:`buresgeo.matcore`, and the test suite holds
the two routes against each other. Where a commonly quoted algebraic form
fails its oracle (a sign, a coefficient, or a root-branch choice), the
rejected variant is recorded in ``ERRATA`` together with the corrected form
and the evidence; the numeric pipeline is authoritative.

Covered families: the maximally mixed state to an arbitrary pure state in
any dimension, the three-qubit GHZ/W Werner mixtures, geodesics between
orthogonal pure states, and fully general qubit endpoints in the Bloch ball.
The qubit geodesic is r(s) = f^2 x + g^2 y + (f g / sqrt(F)) (x + y) with the
trace-determinant root fidelity sqrt(F), so no function here makes an
eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geodesy, matcore, states, sun


def maxmixed_to_pure(n: int, psi, s: float) -> np.ndarray:
    """State at arclength s on the geodesic from I/N to the projector on psi.

    The endpoints are at s* = arccos(1/sqrt(N)) apart, and

        rho(s) = f(s)^2 I/N + (g(s)^2 + 2 f(s) g(s)/sqrt(N)) |psi><psi|.
    """
    n = matcore.as_dimension(n, "dimension", 2)
    proj = states.pure_density(psi)
    if proj.shape[0] != n:
        raise ValueError(f"psi has dimension {proj.shape[0]}, expected {n}")
    f, g = geodesy.transport_coefficients(s, float(np.arccos(1.0 / np.sqrt(n))))
    return (f * f / n) * np.eye(n, dtype=np.complex128) + \
        (g * g + 2.0 * f * g / np.sqrt(n)) * proj


def werner_root_fidelity(p: float, q: float) -> float:
    """Root fidelity between the GHZ Werner state at p and the W Werner state at q.

        (1/8) ( 6 sqrt((1-p)(1-q)) + sqrt((1-p)(1+7q)) + sqrt((1-q)(1+7p)) ),

    which at q = p reduces to (1/4)(3(1-p) + sqrt((1-p)(1+7p))).
    """
    p, q = matcore.as_real_scalar(p, "p"), matcore.as_real_scalar(q, "q")
    for name, val in (("p", p), ("q", q)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    return _werner_root_fidelity(p, q)


def _werner_root_fidelity(p, q):
    """:func:`werner_root_fidelity` of p and q in [0, 1], unchecked: floats, or
    arrays for a sweep."""
    return (6.0 * np.sqrt((1.0 - p) * (1.0 - q))
            + np.sqrt((1.0 - p) * (1.0 + 7.0 * q))
            + np.sqrt((1.0 - q) * (1.0 + 7.0 * p))) / 8.0


def _flip() -> np.ndarray:
    m = np.zeros((8, 8), dtype=np.complex128)
    m[0, 7] = m[7, 0] = 1.0
    return m


def _middle_projectors() -> np.ndarray:
    m = np.zeros((8, 8), dtype=np.complex128)
    for idx in range(1, 7):
        m[idx, idx] = 1.0
    return m


def werner_mean_operator(p: float) -> np.ndarray:
    """Closed-form transport endpoint operator between equal-p GHZ/W Werner states.

        M* = (1 + sqrt((1-p)/(1+7p))) |GHZ><GHZ|
             - (|000><111| + |111><000|)
             + (-1 + sqrt((1+7p)/(1-p))) |W><W|
             + sum of the six projectors |001|..|110|,

    which satisfies M* rho_GHZ(p) M* = rho_W(p) and Tr[M* rho_GHZ(p)] equal to
    the root fidelity. The W coefficient diverges as p -> 1, where the
    endpoint states become orthogonal.
    """
    p = matcore.as_real_scalar(p, "p")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"M singular at p=1; p must lie in [0, 1), got {p}")
    g = states.ghz_state()
    w = states.w_state()
    return ((1.0 + np.sqrt((1.0 - p) / (1.0 + 7.0 * p))) * np.outer(g, g.conj())
            - _flip()
            + (-1.0 + np.sqrt((1.0 + 7.0 * p) / (1.0 - p))) * np.outer(w, w.conj())
            + _middle_projectors())


def werner_cross_term(p: float) -> np.ndarray:
    """Closed form of M* rho_GHZ(p) + rho_GHZ(p) M* for equal-p Werner endpoints.

    With u = sqrt((1-p)(1+7p)),

        (1/4)((1-p) + u) |GHZ><GHZ| - (1/4)(1-p)(|000><111| + |111><000|)
        + (1/4)(u - (1-p)) |W><W| + (1/4)(1-p) (six middle projectors).

    The trace equals twice the root fidelity, and the whole operator
    vanishes as p -> 1. The W coefficient includes the +u/4 restoration term
    required by the trace identity (see ERRATA).
    """
    p = matcore.as_real_scalar(p, "p")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"cross term is built from M*, singular at p=1; got {p}")
    u = np.sqrt((1.0 - p) * (1.0 + 7.0 * p))
    g = states.ghz_state()
    w = states.w_state()
    return 0.25 * (((1.0 - p) + u) * np.outer(g, g.conj())
                   - (1.0 - p) * _flip()
                   + (u - (1.0 - p)) * np.outer(w, w.conj())
                   + (1.0 - p) * _middle_projectors())


def _orthonormal_pair(psi1, psi2) -> tuple[np.ndarray, np.ndarray]:
    """psi1 and psi2 as state vectors of one length, orthogonal within ``ADMIT_TOL``."""
    v1, v2 = states.unit_vector(psi1, "psi1"), states.unit_vector(psi2, "psi2")
    if v1.shape != v2.shape:
        raise ValueError(f"psi1 has length {v1.size}, psi2 has length {v2.size}")
    overlap = abs(np.vdot(v1, v2))
    if not overlap <= matcore.ADMIT_TOL:
        raise ValueError(f"states are not orthogonal: |<psi1|psi2>| = {overlap:.3e}")
    return v1, v2


def orthogonal_mean_operator(psi1, psi2) -> np.ndarray:
    """Transport endpoint |psi1><psi2| + |psi2><psi1| for orthogonal pure states.

    Satisfies M |psi1> = |psi2> and the cross-term identity
    M P1 + P1 M = M with P1 = |psi1><psi1|.
    """
    v1, v2 = _orthonormal_pair(psi1, psi2)
    return np.outer(v1, v2.conj()) + np.outer(v2, v1.conj())


def orthogonal_pure_geodesic(psi1, psi2, s: float) -> tuple[np.ndarray, np.ndarray]:
    """One geodesic between orthogonal pure states, in state-vector form.

    Returns (A(s), rho(s)) with A(s) = cos(s) psi1 + sin(s) psi2 and
    rho(s) = A A^dag, which carries the coherence cross terms
    cos(s) sin(s) (|psi1><psi2| + |psi2><psi1|). Orthogonal states sit at
    s* = pi/2 and admit infinitely many geodesics; this is the one generated
    by the rank-1 transport operator above.
    """
    v1, v2 = _orthonormal_pair(psi1, psi2)
    f, g = geodesy.transport_coefficients(s, np.pi / 2)
    a = f * v1 + g * v2
    return a, np.outer(a, a.conj())


# ---------------------------------------------------------------------------
# Qubit closed forms
# ---------------------------------------------------------------------------

def _direction(x: np.ndarray) -> np.ndarray:
    """Unit vector along x; an ill-defined direction falls back to z-hat."""
    norm = float(np.linalg.norm(x))
    if norm >= matcore.ROUNDOFF:
        return x / norm
    return np.array([0.0, 0.0, 1.0])


def qubit_root(x) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root and inverse root of rho = (I + x.sigma)/2.

    With a_pm = sqrt(1/2 +- sqrt(det rho)) and det rho = (1 - |x|^2)/4,

        sqrt(rho) = (a_plus I + a_minus xhat.sigma) / sqrt(2),

    which is the PSD branch: a_plus multiplies the identity, so the x -> 0
    limit is I/sqrt(2). (Swapping the coefficients also squares to rho but is
    indefinite; see ERRATA.) The inverse root is the matrix inverse and
    requires |x| < 1.
    """
    x = matcore.as_vector(x, "x", 3)
    r2 = float(x @ x)
    if r2 >= 1.0:
        raise ValueError(f"|x| = {np.sqrt(r2)!r} must be below 1 for an "
                         f"invertible state")
    det = 0.25 * (1.0 - r2)
    a_plus = np.sqrt(0.5 + np.sqrt(det))
    a_minus = np.sqrt(max(0.5 - np.sqrt(det), 0.0))
    xhat_sigma = 2.0 * sun.expand(0.0, _direction(x), sun.generator_basis(2))
    root = (a_plus * np.eye(2, dtype=np.complex128) + a_minus * xhat_sigma) / np.sqrt(2.0)
    return root, np.linalg.inv(root)


def _bloch_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as real 3-vectors of qubit endpoints: |x| < 1 and |y| <= 1."""
    x, y = matcore.as_vector(x, "x", 3), matcore.as_vector(y, "y", 3)
    xn, yn = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    if xn >= 1.0:
        raise ValueError(f"|x| = {xn!r} must be below 1")
    if not yn <= 1.0 + matcore.ROUNDOFF:
        raise ValueError(f"|y| = {yn!r} must be at most 1")
    return x, y


def _fidelity_legs(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """sqrt(F) and 1 - F of valid Bloch vectors; with c = sqrt((1 - |x|^2)(1 - |y|^2)),

        F = (1 + x.y + c) / 2,   1 - F = (|d|^2 - |x cross d|^2) / (2 (1 - x.y + c)),

    d = y - x. The second form has no cancellation for nearby endpoints.
    """
    c = np.sqrt(max((1.0 - x @ x) * (1.0 - y @ y), 0.0))
    d = y - x
    one_minus_f = (d @ d - np.sum(np.cross(x, d) ** 2)) / (2.0 * (1.0 - x @ y + c))
    return float(min(np.sqrt(0.5 * (1.0 + x @ y + c)), 1.0)), float(max(one_minus_f, 0.0))


def qubit_fidelity(x, y) -> float:
    """Root fidelity sqrt(F) = sqrt(Tr[rho1 rho2] + 2 sqrt(det rho1 det rho2)).

    This trace-determinant form equals sqrt(lambda_plus) + sqrt(lambda_minus)
    of tau = sqrt(rho1) rho2 sqrt(rho1) and matches the general spectral
    route; y.y = 1 gives exactly sqrt((1 + x.y)/2).
    """
    return _fidelity_legs(*_bloch_pair(x, y))[0]


def qubit_orbit(x, y, s: float) -> np.ndarray:
    """Bloch vector r(s) = f^2 x + g^2 y + (f g / sqrt(F)) (x + y) of the qubit geodesic.

    By Cayley-Hamilton sqrt(tau) = (tau + sqrt(det tau) I) / sqrt(F), so the
    cross term M* rho1 + rho1 M* = ({rho1, rho2} + 2 sqrt(det rho1 det rho2) I)
    / sqrt(F) has trace 2 sqrt(F) and Bloch vector (x + y) / sqrt(F); no
    eigensolve is made. s* = arctan2(sqrt(1 - F), sqrt(F)). The transport
    pipeline in :mod:`buresgeo.geodesy` is the authority this is gated against.
    """
    return _qubit_orbits(x, y, (s,))[0]


def _qubit_legs(x, y) -> tuple[np.ndarray, np.ndarray, float, float]:
    """x and y checked, sqrt(F), and the closed form's s* = arctan2(sqrt(1 - F), sqrt(F))."""
    x, y = _bloch_pair(x, y)
    sqrt_f, one_minus_f = _fidelity_legs(x, y)
    return x, y, sqrt_f, float(np.arctan2(np.sqrt(one_minus_f), sqrt_f))


def _qubit_orbits(x, y, s) -> np.ndarray:
    """:func:`qubit_orbit` at each s of a grid, one row per s, with the fidelity
    legs and s* derived once; the grid is refused at its first refused s."""
    x, y, sqrt_f, s_star = _qubit_legs(x, y)
    f, g = geodesy._coefficients(s, s_star)
    f, g = f[:, None], g[:, None]
    return f * f * x + g * g * y + (f * g / sqrt_f) * (x + y)


# ---------------------------------------------------------------------------
# Erratum ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Erratum:
    """A closed-form variant that fails its numeric gate, with the fix."""

    formula: str
    rejected: str
    implemented: str
    evidence: str


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        formula="qubit principal square root",
        rejected="sqrt(rho) = (a_minus I + a_plus xhat.sigma)/sqrt(2)",
        implemented="sqrt(rho) = (a_plus I + a_minus xhat.sigma)/sqrt(2)",
        evidence="the rejected branch squares to rho but is indefinite; at "
                 "x -> 0 it gives xhat.sigma/sqrt(2) instead of I/sqrt(2); "
                 "spectral square-root oracle agrees with the implemented "
                 "branch to 1e-12",
    ),
    Erratum(
        formula="qubit tau perpendicular coefficient",
        rejected="tau_vec_perp = -(1/2)(1 - |x|^2) y_perp / 4",
        implemented="tau_vec_perp = sqrt(1 - |x|^2) y_perp / 4",
        evidence="the x -> 0 limit must give tau = rho2/2, i.e. tau_vec = y/4; "
                 "entrywise comparison with sqrt(rho1) rho2 sqrt(rho1) "
                 "confirms the implemented coefficient to 1e-12",
    ),
    Erratum(
        formula="tau eigenvector second component",
        rejected="(tau3 +- |tau|, tau1 + tau2)",
        implemented="(tau3 +- |tau|, tau1 + i tau2), Bloch vectors +-tau_vec/|tau_vec|",
        evidence="eigenvectors of a Hermitian 2x2 matrix carry the complex "
                 "off-diagonal entry tau1 + i tau2; the real sum fails the "
                 "eigenvector residual check whenever tau2 != 0",
    ),
    Erratum(
        formula="qubit orbit cross-term perpendicular sign",
        rejected="v_i = w_par - w_perp / sqrt(1 - |x|^2)",
        implemented="v_i = w_par + w_perp / sqrt(1 - |x|^2): sum_i sqrt(lambda_i) v_i "
                    "= (x + y)/(2 sqrt F)",
        evidence="at x = 0 the cross term must equal sum_i sqrt(lambda_i)(I + "
                 "w_i.sigma); with w_pm = +-tau_vec/|tau_vec| only the + sign gives "
                 "the Bloch vector of the trace-determinant cross term the orbit "
                 "evaluates; the - sign misses the transport pipeline beyond 1e-9",
    ),
    Erratum(
        formula="equal-p GHZ/W Werner cross term",
        rejected="W-projector coefficient -(1/4)(1-p)",
        implemented="W-projector coefficient (1/4)(sqrt((1-p)(1+7p)) - (1-p))",
        evidence="the trace of M* rho + rho M* must equal twice the root "
                 "fidelity; the restoration term sqrt((1-p)(1+7p))/4 is "
                 "required and the corrected operator matches the pipeline "
                 "entrywise to 1e-10",
    ),
)


def errata_table() -> str:
    """Render the erratum ledger as an aligned plain-text table."""
    headers = ("formula", "rejected form", "implemented form", "evidence")
    rows = [(e.formula, e.rejected, e.implemented, e.evidence) for e in ERRATA]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    def fmt(row):
        return " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
