"""Analytic closed forms for special geodesic families, oracle-gated.

Every function here has an independent numeric route through
:mod:`buresgeo.geodesy` / :mod:`buresgeo.matcore`, and the test suite holds
the two routes against each other. Where a commonly quoted algebraic form
fails its oracle (a sign, a coefficient, or a root-branch choice), the
corrected form is implemented and the rejected variant is recorded in
``ERRATA`` together with the evidence; the numeric pipeline is authoritative.

Covered families: the maximally mixed state to an arbitrary pure state in
any dimension, the three-qubit GHZ/W Werner mixtures, geodesics between
orthogonal pure states, and fully general qubit endpoints in the Bloch ball.
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
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
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
    for name, val in (("p", p), ("q", q)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
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
    if not 0.0 <= p < 1.0:
        raise ValueError(f"cross term is built from M*, singular at p=1; got {p}")
    u = np.sqrt((1.0 - p) * (1.0 + 7.0 * p))
    g = states.ghz_state()
    w = states.w_state()
    return 0.25 * (((1.0 - p) + u) * np.outer(g, g.conj())
                   - (1.0 - p) * _flip()
                   + (u - (1.0 - p)) * np.outer(w, w.conj())
                   + (1.0 - p) * _middle_projectors())


def orthogonal_mean_operator(psi1, psi2) -> np.ndarray:
    """Transport endpoint |psi1><psi2| + |psi2><psi1| for orthogonal pure states.

    Satisfies M |psi1> = |psi2> and the cross-term identity
    M P1 + P1 M = M with P1 = |psi1><psi1|.
    """
    v1 = np.asarray(psi1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(psi2, dtype=np.complex128).reshape(-1)
    overlap = abs(np.vdot(v1, v2))
    if overlap > 1e-10:
        raise ValueError(f"states are not orthogonal: |<psi1|psi2>| = {overlap:.3e}")
    return np.outer(v1, v2.conj()) + np.outer(v2, v1.conj())


def orthogonal_pure_geodesic(psi1, psi2, s: float) -> tuple[np.ndarray, np.ndarray]:
    """One geodesic between orthogonal pure states, in state-vector form.

    Returns (A(s), rho(s)) with A(s) = cos(s) psi1 + sin(s) psi2 and
    rho(s) = A A^dag, which carries the coherence cross terms
    cos(s) sin(s) (|psi1><psi2| + |psi2><psi1|). Orthogonal states sit at
    s* = pi/2 and admit infinitely many geodesics; this is the one generated
    by the rank-1 transport operator above.
    """
    v1 = np.asarray(psi1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(psi2, dtype=np.complex128).reshape(-1)
    for name, v in (("psi1", v1), ("psi2", v2)):
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"{name} is not normalized: |{name}| = {norm!r}")
    overlap = abs(np.vdot(v1, v2))
    if overlap > 1e-10:
        raise ValueError(f"states are not orthogonal: |<psi1|psi2>| = {overlap:.3e}")
    f, g = geodesy.transport_coefficients(s, np.pi / 2)
    a = f * v1 + g * v2
    return a, np.outer(a, a.conj())


# ---------------------------------------------------------------------------
# Qubit closed forms
# ---------------------------------------------------------------------------

def _dot_sigma(v: np.ndarray) -> np.ndarray:
    return np.tensordot(v, sun.generator_basis(2).sigmas, axes=1)


def _as_bloch3(v, name: str) -> np.ndarray:
    out = np.asarray(v, dtype=float).reshape(-1)
    if out.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has non-finite entries (NaN or inf): {out.tolist()}")
    return out


def _direction(x: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Unit vector along x; ill-defined directions fall back to y-hat or z-hat."""
    norm = float(np.linalg.norm(x))
    if norm >= 1e-12:
        return x / norm
    if fallback is not None:
        fnorm = float(np.linalg.norm(fallback))
        if fnorm >= 1e-12:
            return fallback / fnorm
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
    x = _as_bloch3(x, "x")
    r2 = float(x @ x)
    if r2 >= 1.0:
        raise ValueError(f"|x| = {np.sqrt(r2)!r} must be below 1 for an "
                         f"invertible state")
    det = 0.25 * (1.0 - r2)
    a_plus = np.sqrt(0.5 + np.sqrt(det))
    a_minus = np.sqrt(max(0.5 - np.sqrt(det), 0.0))
    xhat = _direction(x)
    root = (a_plus * np.eye(2, dtype=np.complex128) + a_minus * _dot_sigma(xhat)) / np.sqrt(2.0)
    return root, np.linalg.inv(root)


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

    and eigenvalues lambda_pm = tau0 +- |tau_vec|. The perpendicular
    coefficient sqrt(1 - |x|^2) is fixed by the x -> 0 limit tau = rho2/2
    and by the entrywise spectral oracle (see ERRATA).
    """
    x = _as_bloch3(x, "x")
    y = _as_bloch3(y, "y")
    xn = float(np.linalg.norm(x))
    yn = float(np.linalg.norm(y))
    if xn >= 1.0:
        raise ValueError(f"|x| = {xn!r} must be below 1")
    if yn > 1.0 + 1e-12:
        raise ValueError(f"|y| = {yn!r} must be at most 1")
    xhat = _direction(x, fallback=y)
    y_par = float(y @ xhat)
    y_perp = y - y_par * xhat
    tau0 = 0.25 * (1.0 + xn * y_par)
    tau_vec = 0.25 * ((xn + y_par) * xhat + np.sqrt(1.0 - xn * xn) * y_perp)
    tnorm = float(np.linalg.norm(tau_vec))
    lam_minus = tau0 - tnorm
    if lam_minus < -1e-12:
        raise ValueError(f"tau is not PSD: lambda_minus = {lam_minus!r}")
    return QubitTau(tau0=tau0, tau_vec=tau_vec,
                    lambda_plus=tau0 + tnorm, lambda_minus=max(lam_minus, 0.0))


def qubit_fidelity(x, y) -> float:
    """Root fidelity between qubit states: sqrt(l_plus) + sqrt(l_minus).

    Equals sqrt(Tr[rho1 rho2] + 2 sqrt(det rho1 det rho2)) and matches the
    general spectral route.
    """
    tau = qubit_tau(x, y)
    return float(min(np.sqrt(tau.lambda_plus) + np.sqrt(max(tau.lambda_minus, 0.0)), 1.0))


def _tau_eigenvector_bloch(tau: QubitTau) -> list[np.ndarray]:
    """Bloch vectors of the tau eigenvectors, lambda_plus branch first.

    Uses the explicit two-component form
    (tau3 +- |tau|, tau1 + i tau2) / sqrt(2 |tau| (|tau| +- tau3)); when
    |tau| vanishes or tau points along -+z the denominators degenerate and
    the spectral decomposition takes over.
    """
    t1, t2, t3 = tau.tau_vec
    tnorm = float(np.linalg.norm(tau.tau_vec))
    scale = max(tau.tau0, tnorm, 1e-300)
    degenerate = tnorm <= 1e-14 * scale or min(tnorm + t3, tnorm - t3) <= 1e-14 * tnorm
    if degenerate:
        mat = tau.tau0 * np.eye(2, dtype=np.complex128) + _dot_sigma(tau.tau_vec)
        dec = matcore.spectral_decompose(mat)
        vecs = [dec.eigenvectors[:, 1], dec.eigenvectors[:, 0]]
    else:
        vecs = []
        for sign in (+1.0, -1.0):
            v = np.array([t3 + sign * tnorm, t1 + 1j * t2], dtype=np.complex128)
            vecs.append(v / np.sqrt(2.0 * tnorm * (tnorm + sign * t3)))
    out = []
    for v in vecs:
        out.append(np.array([2.0 * (v[0].conjugate() * v[1]).real,
                             2.0 * (v[0].conjugate() * v[1]).imag,
                             float(abs(v[0]) ** 2 - abs(v[1]) ** 2)]))
    return out


def qubit_orbit(x, y, s: float) -> np.ndarray:
    """Bloch vector r(s) of the geodesic between qubit states x and y.

    r(s) = f^2 x + g^2 y + 2 f g sum_i sqrt(lambda_i) v_i, where v_i rescales
    the Bloch vector w_i of each tau eigenvector as

        v_i = w_par + w_perp / sqrt(1 - |x|^2)

    (components parallel and perpendicular to xhat). The + sign on the
    perpendicular part is fixed by the x -> 0 limit, where the cross term
    must reduce to sum_i sqrt(lambda_i)(I + w_i.sigma); see ERRATA. The
    transport pipeline in :mod:`buresgeo.geodesy` is the authority this
    formula is gated against.
    """
    x = _as_bloch3(x, "x")
    y = _as_bloch3(y, "y")
    tau = qubit_tau(x, y)
    sf = qubit_fidelity(x, y)
    s_star = float(np.arccos(sf))
    f, g = geodesy.transport_coefficients(s, s_star)
    if s_star < 1e-8:
        return x.copy()
    xn = float(np.linalg.norm(x))
    xhat = _direction(x, fallback=y)
    stretch = 1.0 / np.sqrt(1.0 - xn * xn)
    cross = np.zeros(3)
    for lam, w in zip((tau.lambda_plus, tau.lambda_minus),
                      _tau_eigenvector_bloch(tau)):
        w_par = (w @ xhat) * xhat
        w_perp = w - w_par
        cross += np.sqrt(max(lam, 0.0)) * (w_par + stretch * w_perp)
    return f * f * x + g * g * y + 2.0 * f * g * cross


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
        implemented="(tau3 +- |tau|, tau1 + i tau2)",
        evidence="eigenvectors of a Hermitian 2x2 matrix carry the complex "
                 "off-diagonal entry tau1 + i tau2; the real sum fails the "
                 "eigenvector residual check whenever tau2 != 0",
    ),
    Erratum(
        formula="qubit orbit cross-term perpendicular sign",
        rejected="v_i = w_par - w_perp / sqrt(1 - |x|^2)",
        implemented="v_i = w_par + w_perp / sqrt(1 - |x|^2)",
        evidence="at x = 0 the cross term must equal "
                 "sum_i sqrt(lambda_i)(I + w_i.sigma); the Bloch orbit matches "
                 "the transport pipeline to 1e-9 only with the + sign",
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
