"""Spectral-function oracles and test-only helpers.

The library takes one function of a state, the square root, through
``matcore.spectral_factor`` on a memoised decomposition;
:func:`spectral_function` takes any function f on the same rule, V diag(f(w'))
times V^dag after the library's PSD refusal, and the wrappers below apply it
to a bare matrix, so a test can build the textbook square root, inverse root
and polar factor directly, and from them the root fidelity and the gauge as
the nuclear norm and the polar factor of sqrt(rho1) sqrt(rho2). The state helpers read a purification or a
state back through ``states.admit``, and ``qubit_tau`` is the closed form of
tau that the erratum ledger's checks read. The other helpers rebuild the
library's hot paths by the general formulas they skip, and
:func:`generator_matrices` is the su(N) generator stack built one matrix at a
time, the reference for the scattered ``GeneratorBasis.sigmas``. The
exact references are commuting pairs at N = 4^k whose root fidelity and
Bures angle are sums over two spectra: Walsh-Hadamard rotations of dyadic
spectra, which float64 holds exactly, and the n-qubit GHZ/W Werner pairs; a
dyadic spectrum's characteristic invariants are exact integer sums.
:func:`exp_map` shoots a geodesic from a state along a generator, the
exponential map that ``geometric_mean_operator`` inverts up to
:func:`cut_angle`. The
``retired_*`` functions are the CLI sweeps as they were before they were
stacked: one public scalar call per row, and
:func:`clamp_refusing_spectral_factor` is the spectral rule as it was before
admission alone decided what is a state.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from buresgeo import cli, closedform, geodesy, matcore, states, sun


def spectral_function(dec, f) -> np.ndarray:
    """V diag(f(w')) V^dag of a PSD decomposition, symmetrized as
    ``SpectralDecomposition.sqrt`` forms it: the factor is ``matcore.spectral_factor``
    for sqrt, and :func:`masked_spectral_factor` after the library's PSD refusal
    for any other f."""
    factor = matcore.spectral_factor(dec)  # refuses what the library refuses
    if f is not np.sqrt:
        factor = masked_spectral_factor(dec, f)
    out = factor @ dec.eigenvectors.conj().T
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
    formula ``matcore.spectral_factor`` skips for sqrt when the support is full."""
    w = dec.eigenvalues
    threshold = matcore.CLAMP * float(np.abs(w).max())
    support = w > threshold
    fw = np.zeros_like(w)
    fw[support] = f(w[support])
    return dec.eigenvectors * fw


def textbook_spectral_factor(dec, f) -> np.ndarray:
    """V diag(f(w')) as the textbook writes it, one eigenpair at a time: column j
    is f(w_j) v_j for w_j above ``CLAMP`` * max|w|, and 0 v_j for the rest."""
    w, v = dec.eigenvalues, dec.eigenvectors
    cut = matcore.CLAMP * max(abs(x) for x in w)
    return np.column_stack([v[:, j] * (f(x) if x > cut else 0.0) for j, x in enumerate(w)])


def clamp_refusing_spectral_factor(dec) -> np.ndarray:
    """``matcore.spectral_factor`` under the rule that refused an eigenvalue below
    -``CLAMP`` * max|w|, stacks member by member, naming the first member refused.
    Admission allows down to -``ADMIT_TOL``, so this rule refused some admitted
    states; wherever it returns, the library's factor has its bytes."""
    w = dec.eigenvalues
    if w.ndim > 1:
        low = w[..., 0]
        threshold = matcore.CLAMP * np.maximum(-low, w[..., -1])
        refused = ~(low >= -threshold)
        if refused.any():
            k = int(refused.argmax())
            raise matcore.NotPositiveSemidefiniteError(
                f"not positive semidefinite: min eigenvalue {float(low[k]):.6e} is "
                f"below -{float(threshold[k]):.1e}")
        if (low > threshold).all():
            return dec.eigenvectors * np.sqrt(w)[..., None, :]
        support = w > threshold[..., None]
        fw = np.zeros_like(w)
        fw[support] = np.sqrt(w[support])
        return dec.eigenvectors * fw[..., None, :]
    low = float(w[0])
    threshold = matcore.CLAMP * max(-low, float(w[-1]))
    if not low >= -threshold:
        raise matcore.NotPositiveSemidefiniteError(
            f"not positive semidefinite: min eigenvalue {low:.6e} is below "
            f"-{threshold:.1e}")
    if low > threshold:
        return dec.eigenvectors * np.sqrt(w)
    support = w > threshold
    fw = np.zeros_like(w)
    fw[support] = np.sqrt(w[support])
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
    the start's own root too, and its defect taken by ``np.max(np.abs(.))``. The
    start's own root (the array ``path.start.sqrt``) takes the great circle
    f A1 + g A2, every other a0 M(s) a0."""
    a0m = (a0.matrix if isinstance(a0, states.Purification)
           else matcore.as_complex_matrix(a0, "a0"))
    matcore.require_same_shape(a0m, path.rho1)
    defect = float(np.max(np.abs(a0m @ a0m.conj().T - path.rho1)))
    if not defect <= matcore.ADMIT_TOL:
        raise ValueError(f"purification does not project to the initial state: max "
                         f"entry defect {defect:.3e}")
    f, g = geodesy.transport_coefficients(s, path.s_star)
    if a0m is path.start.sqrt:
        lift = f * a0m + g * path.a2
    else:
        m = g * path.m_star
        m.flat[::m.shape[0] + 1] += f
        lift = m @ a0m
    rho = (f * f) * path.rho1 + (f * g) * path.cross + (g * g) * path.rho2
    return states.Purification(matrix=lift, target=rho)


def generator_matrices(n: int) -> np.ndarray:
    """The su(N) generators one matrix at a time: the symmetric pairs, the
    antisymmetric pairs (written with -1j and 1j), then the diagonal ladder."""
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


DYADIC_BITS = 52  # spectra are k / 2^52 for integers k summing to 2^52


def walsh_hadamard(n: int) -> np.ndarray:
    """H_N / sqrt(N) for N = 4^k: symmetric, its own inverse, entries +-2^-k."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return h / math.sqrt(n)


def dyadic_state(h: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """(rho, a): rho = H diag(a) H with a = counts / 2^52, counts nonnegative
    integers summing to 2^52. Each entry of rho is a signed sum of the a_i
    times 1/N, so it is exact in float64, and so is its unit trace."""
    counts = [int(c) for c in counts]
    if sum(counts) != 2**DYADIC_BITS or min(counts) < 0:
        raise ValueError("counts must be nonnegative integers summing to 2^52")
    a = np.array(counts, dtype=np.float64) / 2.0**DYADIC_BITS
    return (h * a) @ h, a


def commuting_root_fidelity(a, b) -> float:
    """sqrt(F) = sum_i sqrt(a_i b_i) of two states diagonal in one basis."""
    return math.fsum(math.sqrt(x) * math.sqrt(y) for x, y in zip(a, b))


def commuting_bures_angle(a, b) -> float:
    """s* = 2 arcsin(|sqrt(a) - sqrt(b)| / 2) of two states diagonal in one basis,
    each difference taken as (a_i - b_i) / (sqrt(a_i) + sqrt(b_i)), which keeps
    its digits when a and b nearly agree."""
    d2 = math.fsum(((x - y) / (math.sqrt(x) + math.sqrt(y))) ** 2
                   for x, y in zip(a, b) if x or y)
    return 2.0 * math.asin(math.sqrt(d2) / 2.0)


def exp_map(rho, g, s) -> np.ndarray:
    """The Bures exponential map rho(s) = M rho M, M = cos s I + sin s G, of a
    state rho along a generator G (G rho + rho G = drho), symmetrized: the
    geodesic with the horizontal lift M A1, at unit speed when Tr[G rho G] = 1,
    and minimal up to :func:`cut_angle`."""
    m = math.cos(s) * np.eye(len(rho)) + math.sin(s) * np.asarray(g)
    out = m @ rho @ m
    return (out + out.conj().T) / 2


def cut_angle(g) -> float:
    """arccot(-l_min(G)), where cos s I + sin s G stops being PSD, or pi/2 when G >= 0."""
    return math.atan2(1.0, max(-float(np.linalg.eigvalsh(g)[0]), 0.0))


def exact_invariants(a) -> list[float]:
    """The elementary symmetric polynomials S_1..S_N of a dyadic spectrum a
    (entries k / 2^52), summed exactly in integers and rounded once each."""
    s = [1] + [0] * len(a)
    for k, c in enumerate((int(x * 2**DYADIC_BITS) for x in a), 1):
        for j in range(k, 0, -1):
            s[j] += c * s[j - 1]
    return [float(Fraction(v, 2**(DYADIC_BITS * k))) for k, v in enumerate(s[1:], 1)]


def qubit_werner(kind: str, n: int, p: float) -> np.ndarray:
    """p |phi><phi| + (1 - p) I / N for the n-qubit GHZ or W state phi, N = 2^n."""
    dim = 2**n
    phi = np.zeros(dim)
    if kind == "GHZ":
        phi[[0, -1]] = 1.0 / math.sqrt(2.0)
    else:
        phi[[2**j for j in range(n)]] = 1.0 / math.sqrt(n)
    return p * np.outer(phi, phi) + (1.0 - p) * np.eye(dim) / dim


def werner_pair_root_fidelity(dim: int, p: float) -> float:
    """sqrt(F) of the GHZ and W Werner states at one p: they commute (the two
    vectors are orthogonal), with spectra that differ only on the two vectors,
    so sqrt(F) = ((N - 2)(1 - p) + 2 sqrt((1 - p)(1 + (N - 1) p))) / N."""
    return ((dim - 2) * (1.0 - p) + 2.0 * math.sqrt((1.0 - p) * (1.0 + (dim - 1) * p))) / dim


def werner_pair_bures_angle(dim: int, p: float) -> float:
    """s* of the same pair: the spectra differ by x = p + (1 - p)/N against
    y = (1 - p)/N on the two vectors, so |sqrt(a) - sqrt(b)| = sqrt(2) p / (sqrt(x) + sqrt(y))."""
    x, y = p + (1.0 - p) / dim, (1.0 - p) / dim
    return 2.0 * math.asin(math.sqrt(2.0) * p / (math.sqrt(x) + math.sqrt(y)) / 2.0)


def retired_geodesic_rows(path, samples: int):
    """The rows of ``cli._geodesic_rows``, one sample at a time."""
    basis2 = sun.generator_basis(2) if path.dim == 2 else None
    rows = []
    for s in np.linspace(0.0, path.s_star, samples):
        rho_s = geodesy.geodesic_point(path, s)
        row = {"s": float(s),
               "root_fidelity_to_start": geodesy.root_fidelity(path.rho1, rho_s),
               "trace": float(np.trace(rho_s).real),
               "purity": float(np.trace(rho_s @ rho_s).real),
               "eigenvalues": [float(v) for v in states.admit(rho_s).eigenvalues]}
        if basis2 is not None:
            _, bloch = sun.coefficients(rho_s, basis2)
            row["bloch"] = [float(v) for v in bloch]
        rows.append(row)
    return rows


def retired_werner_sweep(args) -> int:
    """``cli.cmd_werner_sweep``, one p at a time."""
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    rows = []
    worst = 0.0
    for p in np.linspace(0.0, 1.0, args.steps):
        p = float(p)
        rho_ghz, rho_w = states.werner("GHZ", p), states.werner("W", p)
        sf = geodesy.root_fidelity(rho_ghz, rho_w)
        angle = geodesy.bures(rho_ghz, rho_w).bures_angle
        closed = closedform.werner_root_fidelity(p, p)
        if p < 1.0:
            worst = max(worst, abs(sf - closed))
        rows.append({"p": p,
                     "root_fidelity": sf,
                     "s_star_over_half_pi": angle / (np.pi / 2),
                     "root_fidelity_closed_form": closed})
    failure = None if worst <= args.tol else (
        f"spectral vs closed-form root fidelity differ by {worst:.3e} > {args.tol:.1e}")
    return cli._report(args, {"steps": args.steps, "rows": rows}, list(rows[0]), rows,
                       failure)


def retired_qubit_orbit(args) -> int:
    """``cli.cmd_qubit_orbit``, one s at a time."""
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    x = cli._parse_vector(args.x, 3, "--x")
    y = cli._parse_vector(args.y, 3, "--y")
    basis = sun.generator_basis(2)
    rho1 = states.density_from_bloch(x, basis)
    rho2 = states.density_from_bloch(y, basis)
    path = geodesy.geometric_mean_operator(rho1, rho2)
    rows = []
    worst = 0.0
    for s in np.linspace(0.0, path.s_star, args.samples):
        try:
            r = closedform.qubit_orbit(x, y, float(s))
        except ValueError as exc:  # the refusal that names a near-pure endpoint
            raise cli._qubit_range_cause(exc, path, x, y) from None
        _, pipeline = sun.coefficients(geodesy.geodesic_point(path, s), basis)
        dev = float(np.max(np.abs(r - pipeline)))
        worst = max(worst, dev)
        rows.append({"s": float(s), "r_x": float(r[0]), "r_y": float(r[1]),
                     "r_z": float(r[2]), "pipeline_deviation": dev})
    failure = None if worst <= args.tol else (
        f"closed-form orbit deviates from the transport pipeline by {worst:.3e} "
        f"> {args.tol:.1e}")
    return cli._report(args, {"s_star": path.s_star, "rows": rows}, list(rows[0]), rows,
                       failure)


def scalar_qubit_orbit(x, y, s) -> np.ndarray:
    """``closedform.qubit_orbit`` as one evaluation of the closed form at one s."""
    x, y = closedform._bloch_pair(x, y)
    sqrt_f, one_minus_f = closedform._fidelity_legs(x, y)
    f, g = geodesy.transport_coefficients(s, float(np.arctan2(np.sqrt(one_minus_f), sqrt_f)))
    return f * f * x + g * g * y + (f * g / sqrt_f) * (x + y)
