"""Propagating singularities, the symplectic energy-flux form and the
Mandelstam outgoing/incoming decomposition.

A line eigenvalue ``lambda = -1/2 + i*eta`` with angular (generalized)
eigenvectors generates fields of the form

    s = r^lambda * sum_p  c_p (log r)^p / p!

truncated by a radial cutoff.  On such fields the energy flux through the
sphere of radius ``r``,

    q(u, v) = int sigma (d_r u conj(v) - u d_r conj(v)) r^2 dtheta,

is ``r^(lam_u + conj(lam_v) + 1)`` times a polynomial in ``log r`` whose
coefficients are sigma-weighted angular Grams; the ``r -> 0`` limit exists
exactly because the oscillatory coefficients cancel, which this module
asserts rather than assumes.  The Gram matrix of the flux form is
anti-Hermitian and non-degenerate with balanced signature, which yields a
basis of outgoing waves (flux ``+i``) and their incoming conjugates
(flux ``-i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .cap import PencilMatrices, _at_gauss_points
from .errors import (DimensionMismatch, FluxLimitNonexistent,
                     NearQuarterDegenerate, OddDimensionInternalError,
                     SignatureMismatch)
from .spectrum import LineEigenvalue

LOG_COEFF_TOL = 1e-9
FLUX_ANTIHERM_TOL = 1e-10
FLUX_DEGENERACY_TOL = 1e-8
MANDELSTAM_TOL = 1e-10
CLASSIFY_DEAD_BAND = 1e-10

OUTGOING = "outgoing"
INCOMING = "incoming"
UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class LogPolynomial:
    """``sum_p coeffs[p] * (log r)^p / p!`` with angular dof-vector
    coefficients; the leading coefficient is nonzero."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def plain(self):
        """Coefficients of ``sum_p a_p L^p`` (factorials absorbed)."""
        return [np.asarray(c) / factorial(p) for p, c in enumerate(self.coeffs)]


@dataclass(frozen=True)
class Hypersingularity:
    """One propagating singularity ``chi(r) * r^lam * (log-polynomial)``.

    ``chain_level`` is the Jordan-chain level of the line eigenvalue of
    ``mode`` it is built from (0 for the eigenvector itself); the cutoff
    ``chi`` equals 1 for ``r <= cutoff_rho / 2`` and 0 beyond ``cutoff_rho``,
    so all flux evaluations live where the field is an exact power-log
    solution.
    """

    lam: complex
    eta: float
    poly: LogPolynomial
    cutoff_rho: float
    chain_level: int
    mode: int
    conjugated: bool
    pencil: PencilMatrices


def build_singularity(le: LineEigenvalue, chain_level: int = 0, rho: float = 1.0,
                      conjugate: bool = False) -> Hypersingularity:
    """Assemble the singularity of the eigenvector or a generalized one.

    Chain level ``l`` uses coefficients ``c_p = phi_{l-p}`` walking down the
    Jordan chain; ``conjugate=True`` builds the mirror field with
    ``lam = -1/2 - i*eta`` and conjugated angular vectors.
    """
    if rho <= 0:
        raise DimensionMismatch("rho must be positive")
    vectors = (le.vector, *le.chain)
    if not 0 <= chain_level < len(vectors):
        raise DimensionMismatch("chain level beyond available chain")
    coeffs = [vectors[chain_level - p] for p in range(chain_level + 1)]
    lam = complex(-0.5, le.eta)
    if conjugate:
        lam = np.conj(lam)
        coeffs = [np.conj(c) for c in coeffs]
    return Hypersingularity(lam=complex(lam), eta=le.eta,
                            poly=LogPolynomial(coeffs=tuple(coeffs)),
                            cutoff_rho=float(rho),
                            chain_level=chain_level,
                            mode=le.mode, conjugated=conjugate, pencil=le.pencil)


@dataclass(frozen=True)
class SingularSpace:
    """Span of all singularities of a coefficient: both branches of every
    line eigenvalue and every chain level, so the dimension is even.
    Members are ordered by (mode, eta, chain_level) with each conjugate
    directly after its partner."""

    members: tuple

    @property
    def dim(self) -> int:
        return len(self.members)

    def conjugate_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the complex-conjugate field: swap each (+,-) pair
        and conjugate the weights."""
        if len(x) != self.dim:
            raise DimensionMismatch("coordinate length mismatch")
        y = np.conj(np.asarray(x, dtype=complex))
        out = np.empty_like(y)
        out[0::2], out[1::2] = y[1::2], y[0::2]
        return out


def singular_space(line_evs, rho: float = 1.0) -> SingularSpace:
    """Collect the singular space of a list of line eigenvalues (any modes)."""
    members = []
    for le in sorted(line_evs, key=lambda l: (l.mode, l.eta)):
        if le.near_quarter:
            raise NearQuarterDegenerate(
                f"eta={le.eta:.2e} too close to the double root")
        for level in range(len(le.chain) + 1):
            members.append(build_singularity(le, level, rho, False))
            members.append(build_singularity(le, level, rho, True))
    if len(members) % 2:
        raise OddDimensionInternalError("singular space dimension is odd")
    return SingularSpace(members=tuple(members))


def _check_provenance(u: Hypersingularity, v: Hypersingularity):
    cu, cv = u.pencil.cap, v.pencil.cap
    if cu is not None and cv is not None:
        if cu.geometry != cv.geometry or cu.material != cv.material:
            raise DimensionMismatch("fields come from different caps")


def _flux_polynomial(u: Hypersingularity, v: Hypersingularity):
    """Exponent ``s = lam_u + conj(lam_v) + 1`` and the log-polynomial
    coefficients of the surface flux ``r^s * R(log r)``, together with the
    per-coefficient cancellation scale."""
    B = u.pencil.B
    a = u.poly.plain()
    b = v.poly.plain()
    R = np.zeros(len(a) + len(b) - 1, dtype=complex)
    mag = np.zeros(len(R))
    lam_diff = u.lam - np.conj(v.lam)
    for p, ap in enumerate(a):
        for q, bq in enumerate(b):
            g = complex(ap @ (B @ np.conj(bq)))
            t = lam_diff * g
            R[p + q] += t
            mag[p + q] += abs(t)
            if p >= 1:
                R[p - 1 + q] += p * g
                mag[p - 1 + q] += p * abs(g)
            if q >= 1:
                R[p + q - 1] -= q * g
                mag[p + q - 1] += q * abs(g)
    s = u.lam + np.conj(v.lam) + 1.0
    return s, R, mag


def flux_pairing(u: Hypersingularity, v: Hypersingularity) -> complex:
    """Closed-form flux limit ``q(u, v)``.

    Fields of distinct azimuthal modes decouple exactly.  The radial powers
    match (``s = 0``, exactly) when both fields come from the same line
    eigenvalue on the same branch; then the limit is the constant coefficient
    of the flux polynomial and all log coefficients must cancel; otherwise
    the whole polynomial must cancel (cross-frequency orthogonality).  A surviving
    coefficient means the limit does not exist, which signals an upstream
    multiplicity error.
    """
    _check_provenance(u, v)
    if u.mode != v.mode:
        return 0j
    s, R, mag = _flux_polynomial(u, v)
    tol = LOG_COEFF_TOL * np.maximum(1.0, mag)
    if s == 0:
        if np.any(np.abs(R[1:]) > tol[1:]):
            raise FluxLimitNonexistent(
                f"log coefficients {np.abs(R[1:]).max():.2e} survive at matched power")
        return complex(R[0])
    if np.any(np.abs(R) > tol):
        raise FluxLimitNonexistent(
            f"oscillatory power r^{s:.3e} carries coefficient {np.abs(R).max():.2e}")
    return 0j


def flux_integrand_at(u: Hypersingularity, v: Hypersingularity, radius: float) -> complex:
    """Closed-form surface flux at a finite radius (no limit extraction);
    useful to validate the log algebra against the quadrature oracle."""
    _check_provenance(u, v)
    if u.mode != v.mode:
        return 0j
    s, R, _ = _flux_polynomial(u, v)
    L = np.log(radius)
    return complex(radius ** s * sum(c * L ** k for k, c in enumerate(R)))


def flux_quadrature_oracle(u: Hypersingularity, v: Hypersingularity,
                           radius: float) -> complex:
    """Flux through the sphere of given radius by angular Gauss quadrature
    and exact radial differentiation of the log-polynomial.

    The radius must lie in ``(0, rho/2]`` where the cutoff is identically 1.
    This route never touches the assembled matrices, so it is an independent
    check of :func:`flux_pairing`.
    """
    _check_provenance(u, v)
    rho = min(u.cutoff_rho, v.cutoff_rho)
    if not 0 < radius <= rho / 2:
        raise DimensionMismatch(f"radius must lie in (0, {rho / 2}]")
    if u.mode != v.mode:
        return 0j
    cap = u.pencil.cap
    if cap is None:
        raise DimensionMismatch("fields carry no quadrature data")
    L = np.log(radius)

    def values(h):
        plain = h.poly.plain()
        val = sum(c * L ** p for p, c in enumerate(plain))
        dlog = sum(p * c * L ** (p - 1) for p, c in enumerate(plain) if p >= 1)
        return (radius ** h.lam * _at_gauss_points(cap, val),
                radius ** (h.lam - 1) * _at_gauss_points(cap, h.lam * val + dlog))

    uv, du = values(u)
    vv, dv = values(v)
    w = cap.quad_weight * np.cos(cap.quad_lat) * cap.quad_sigma.real
    integrand = du * np.conj(vv) - uv * np.conj(dv)
    return complex(radius ** 2 * np.sum(w * integrand))


@dataclass(frozen=True)
class FluxMatrix:
    """Gram matrix ``Q[a, b] = q(e_a, e_b)`` of a singular space."""

    Q: np.ndarray
    basis_ref: SingularSpace

    def __post_init__(self):
        self.Q.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def pair(self, x: np.ndarray, y: np.ndarray) -> complex:
        """Flux of two coordinate combinations (linear in x, antilinear y)."""
        return complex(np.asarray(x) @ (self.Q @ np.conj(np.asarray(y))))

    @property
    def hermitian_part(self) -> np.ndarray:
        """The Hermitian matrix H with ``Im q(u, u) = x^H H x``."""
        return -1j * self.Q.T


def flux_matrix(space: SingularSpace) -> FluxMatrix:
    """Assemble the flux Gram matrix and assert its structure: anti-Hermitian,
    non-degenerate, and balanced (N, N) signature on an even dimension."""
    n = space.dim
    if n % 2:
        raise OddDimensionInternalError("odd singular space")
    Q = np.empty((n, n), dtype=complex)
    for a, ua in enumerate(space.members):
        for b, vb in enumerate(space.members):
            Q[a, b] = flux_pairing(ua, vb)
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv[0] == 0:
        raise SignatureMismatch("flux form vanishes")
    if np.linalg.norm(Q + Q.conj().T, 2) > FLUX_ANTIHERM_TOL * sv[0]:
        raise SignatureMismatch("flux matrix is not anti-Hermitian")
    if sv[-1] <= FLUX_DEGENERACY_TOL * sv[0]:
        raise SignatureMismatch(f"flux form degenerate: sigma_min/sigma_max={sv[-1] / sv[0]:.2e}")
    fm = FluxMatrix(Q=Q, basis_ref=space)
    evals = np.linalg.eigvalsh(fm.hermitian_part)
    if np.sum(evals > 0) != n // 2 or np.sum(evals < 0) != n // 2:
        raise SignatureMismatch("flux signature is not (N, N)")
    return fm


@dataclass(frozen=True)
class MandelstamBasis:
    """Outgoing/incoming flux-orthonormal basis.

    Columns of ``plus_coords`` are the outgoing members ``s+_j`` in singular
    space coordinates (flux ``+i`` each, mutually flux-orthogonal); the
    incoming partners are their conjugate fields.  ``residual`` is the largest
    deviation from the orthonormalization conditions.
    """

    plus_coords: np.ndarray
    minus_coords: np.ndarray
    flux: FluxMatrix
    residual: float
    h_eigenvalues: tuple

    def __post_init__(self):
        self.plus_coords.setflags(write=False)
        self.minus_coords.setflags(write=False)

    @property
    def n(self) -> int:
        return self.plus_coords.shape[1]


def mandelstam_basis(fm: FluxMatrix) -> MandelstamBasis:
    """Diagonalize the Hermitian flux energy within each (mode, eta) block.

    Positive-flux eigendirections scaled to flux ``+i`` become the outgoing
    basis; their conjugates are the incoming one.  Conjugation maps the
    positive eigenspace onto the negative one, which makes the cross
    conditions hold automatically; the residuals are still measured and
    recorded.
    """
    space = fm.basis_ref
    H = fm.hermitian_part
    keys = [(m.mode, m.eta) for m in space.members]
    blocks, seen = [], {}
    for i, k in enumerate(keys):
        if k not in seen:
            seen[k] = len(blocks)
            blocks.append([])
        blocks[seen[k]].append(i)

    plus, h_eigs = [], []
    for idx in blocks:
        idx = np.array(idx)
        Hb = H[np.ix_(idx, idx)]
        d, U = np.linalg.eigh(Hb)
        n_pos = int(np.sum(d > 0))
        if n_pos != len(idx) - n_pos:
            raise SignatureMismatch(
                f"block signature ({n_pos}, {len(idx) - n_pos}) is unbalanced")
        order = np.argsort(-d)[:n_pos]
        for j in order:
            x = np.zeros(space.dim, dtype=complex)
            x[idx] = U[:, j] / np.sqrt(d[j])
            k = int(np.argmax(np.abs(x)))
            x *= np.conj(x[k]) / abs(x[k])
            plus.append(x)
            h_eigs.append(float(d[j]))
    P = np.array(plus).T
    Mn = np.column_stack([space.conjugate_coords(P[:, j]) for j in range(P.shape[1])])

    n = P.shape[1]
    eye = np.eye(n)
    qpp = P.T @ fm.Q @ np.conj(P)
    qmm = Mn.T @ fm.Q @ np.conj(Mn)
    qpm = P.T @ fm.Q @ np.conj(Mn)
    residual = float(max(np.abs(qpp - 1j * eye).max(),
                         np.abs(qmm + 1j * eye).max(),
                         np.abs(qpm).max()))
    basis = MandelstamBasis(plus_coords=P, minus_coords=Mn, flux=fm,
                            residual=residual, h_eigenvalues=tuple(h_eigs))
    if residual > MANDELSTAM_TOL:
        raise SignatureMismatch(f"orthonormalization residual {residual:.2e}")
    return basis


@dataclass(frozen=True)
class WaveClass:
    kind: str
    flux_value: complex


def classify_wave(x: np.ndarray, fm: FluxMatrix) -> WaveClass:
    """Outgoing / incoming / unclassified by the sign of ``Im q(u, u)``, with
    a dead band ``CLASSIFY_DEAD_BAND`` around zero scaled to the
    combination's size."""
    x = np.asarray(x, dtype=complex)
    q = fm.pair(x, x)
    scale = np.linalg.norm(fm.Q, 2) * float(np.real(np.conj(x) @ x))
    band = CLASSIFY_DEAD_BAND * max(scale, 1e-300)
    if q.imag > band:
        return WaveClass(OUTGOING, q)
    if q.imag < -band:
        return WaveClass(INCOMING, q)
    return WaveClass(UNCLASSIFIED, q)


def trapped_energy(mu_basis: MandelstamBasis | None, c_mu_plus, c_mu_minus,
                   eps_basis: MandelstamBasis | None, c_eps_plus, c_eps_minus,
                   omega: float) -> float:
    """Energy trapped at the tip by a pair of singular parts:
    ``Im( q_mu(s_mu, s_mu) + omega^2 q_eps(s_eps, s_eps) )``.

    With outgoing-only unit coefficients on orthonormalized bases this equals
    ``|c_mu+|^2 + omega^2 |c_eps+|^2``.
    """

    def part(basis, cp, cm):
        if basis is None:
            if len(np.atleast_1d(cp)) or len(np.atleast_1d(cm)):
                raise DimensionMismatch("coefficients given without a basis")
            return 0j
        cp = np.asarray(cp, dtype=complex)
        cm = np.asarray(cm, dtype=complex)
        if len(cp) != basis.n or len(cm) != basis.n:
            raise DimensionMismatch("coefficient length does not match basis")
        x = basis.plus_coords @ cp + basis.minus_coords @ cm
        return basis.flux.pair(x, x)

    q_mu = part(mu_basis, c_mu_plus, c_mu_minus)
    q_eps = part(eps_basis, c_eps_plus, c_eps_minus)
    return float(np.imag(q_mu + omega * omega * q_eps))


def power_integral(s: float, a: float, b: float) -> float:
    """Exact ``int_a^b r^s dr`` (log form at ``s = -1``)."""
    if b <= a or a < 0:
        raise DimensionMismatch("need 0 <= a < b")
    if abs(s + 1.0) < 1e-12:
        if a == 0:
            raise DimensionMismatch("divergent at r=0")
        return float(np.log(b / a))
    if a == 0 and s + 1.0 < 0:
        raise DimensionMismatch("divergent at r=0")
    return float((b ** (s + 1.0) - (a ** (s + 1.0) if a > 0 else 0.0)) / (s + 1.0))


def radial_gradient_sq_integral(lam: complex, a: float, b: float) -> float:
    """Exact ``int_a^b |d_r r^lam|^2 r^2 dr = |lam|^2 int_a^b r^(2 Re lam) dr``;
    for ``lam = -1/2 + i*eta`` on [delta, 1] this is ``(1/4 + eta^2) |log delta|``."""
    return float(abs(lam) ** 2 * power_integral(2 * np.real(lam), a, b))


def _cutoff_polynomial(rho: float) -> np.polynomial.Polynomial:
    # quintic smoothstep descending from 1 at rho/2 to 0 at rho
    t = np.polynomial.Polynomial([-1.0, 2.0 / rho])
    return 1.0 - (10 * t ** 3 - 15 * t ** 4 + 6 * t ** 5)


def singular_sequence_norm(s: Hypersingularity, n: int) -> float:
    """``||grad( chi * r^(1/n) * s )||^2`` for a simple singularity.

    The radial integrals of power functions are evaluated exactly piecewise
    (pure power inside ``rho/2``, polynomial-times-power across the cutoff),
    and multiply the angular mass and stiffness quadratic forms of the
    eigenvector.  The sequence grows like ``n/2 * |lam + 1/n|^2 * (rho/2)^(2/n)``.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    if s.poly.degree != 0:
        raise DimensionMismatch("blow-up sequence needs a simple singularity")
    phi = s.poly.coeffs[0]
    P = s.pencil
    g_mass = float(np.real(np.conj(phi) @ (P.mass_one @ phi)))
    g_stiff = float(np.real(np.conj(phi) @ (P.stiffness_one @ phi)))
    mu = s.lam + 1.0 / n
    rho = s.cutoff_rho
    re2 = 2 * np.real(mu)

    grad_r = abs(mu) ** 2 * power_integral(re2, 0.0, rho / 2)
    val_r = power_integral(re2, 0.0, rho / 2)

    gamma = _cutoff_polynomial(rho).coef
    for k1, g1 in enumerate(gamma):
        for k2, g2 in enumerate(gamma):
            c = g1 * g2
            if c == 0.0:
                continue
            val_r += c * power_integral(k1 + k2 + re2, rho / 2, rho)
            grad_r += c * float(np.real((k1 + mu) * np.conj(k2 + mu))) \
                * power_integral(k1 + k2 + re2, rho / 2, rho)
    return grad_r * g_mass + val_r * g_stiff


def blowup_rate(s: Hypersingularity, n_list) -> tuple:
    """Linear fit of the blow-up norms against n: returns (slope, r_squared)."""
    n_arr = np.asarray(sorted(n_list), dtype=float)
    if len(n_arr) < 4:
        raise DimensionMismatch("need at least 4 sequence indices")
    vals = np.array([singular_sequence_norm(s, int(n)) for n in n_arr])
    slope, intercept = np.polyfit(n_arr, vals, 1)
    fitted = slope * n_arr + intercept
    ss_res = float(np.sum((vals - fitted) ** 2))
    ss_tot = float(np.sum((vals - vals.mean()) ** 2))
    if ss_tot == 0:
        raise DimensionMismatch("degenerate fit")
    return float(slope), 1.0 - ss_res / ss_tot
