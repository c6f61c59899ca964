"""Generalized eigensolve of the symbol pencil and the energy-line machinery.

The pencil ``A f = Lambda B f`` has complex symmetric matrices and an
indefinite weight.  Its coefficient is constant on each side of the interface
dof, so the pencil is the kappa-independent weight-one pencil
``(stiffness_one, mass_one)`` plus one rank-one row: its eigenvalues are the
roots of the weight-one secular function, found from the symmetric
weight-one eigenbasis in O(n^2) per contrast (real roots bracketed by
certified sign changes, complex ones by Aberth-Ehrlich sweeps), and each
eigenvector is a combination ``V y`` of that basis with an explicit
coefficient vector ``y``.  Every pair is certified in coefficient space by an
upper bound on its backward error, and a vector is formed only when it is
read.  This is the package's one eigensolver; dense QZ lives in the tests, as
its oracle.

Eigenvalues map to singular exponents through ``Lambda = lambda*(lambda+1)``;
eigenvalues with real ``Lambda < -1/4`` sit on the energy line
``Re(lambda) = -1/2`` and generate propagating (black-hole) singularities.
At such a ``Lambda`` both region blocks are definite on their interior dofs,
so a kernel vector is fixed by its interface value and each line eigenvalue
has exactly one eigenvector.  This module detects line eigenvalues on a
solved spectrum (``conetip.interval.has_blackhole`` counts them from the
region Schur complements instead), grows a Jordan chain above the
eigenvector when its sigma-weighted self-product ``phi^T B phi`` vanishes (a
fold of the dispersion relation, where the Krein sign changes), and derives
radial weight exponents from the spectrum right of the line; for a definite
pencil (both coefficients positive, no dissipation) that is its lowest
eigenpair alone, found and certified on the band (:func:`_lowest_pair`).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .cap import PencilMatrices, _from_bands
from .errors import DimensionMismatch

RESIDUAL_TOL = 1e-8
LINE_TOL = 1e-6
ETA_MIN = 1e-4
JORDAN_THRESHOLD = 1e-10
JORDAN_MAX_CHAIN = 4

_EPS = np.finfo(float).eps
_ABERTH_SWEEPS = 100


class EigenPair:
    """An eigenvalue ``Lambda``, its weight-one normalized eigenvector and the
    ``residual`` that certifies the pair: an upper bound on the vector's
    backward error (:func:`_backward_error`).

    ``vector`` may be given as a function of no arguments instead of an
    array: the vector is then formed when it is first read, and kept.  The
    array is read-only, and the pair is immutable.
    """

    __slots__ = ("Lambda", "residual", "_vector")

    def __init__(self, Lambda: complex, vector, residual: float):
        object.__setattr__(self, "Lambda", Lambda)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "_vector", vector)
        if not callable(vector):
            vector.setflags(write=False)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def vector(self) -> np.ndarray:
        v = self._vector
        if callable(v):
            v = v()
            v.setflags(write=False)
            object.__setattr__(self, "_vector", v)
        return v

    def __repr__(self):
        return f"EigenPair(Lambda={self.Lambda!r}, residual={self.residual!r})"


@dataclass(frozen=True)
class SpectrumResult:
    """Residual-certified pencil spectrum, in the order of :func:`solve_pencil`;
    ``Lambdas`` holds the pairs' eigenvalues as one read-only array."""

    pairs: tuple
    mode: int
    pencil: PencilMatrices
    n_rejected: int
    Lambdas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Lams = np.array([p.Lambda for p in self.pairs], dtype=complex)
        Lams.setflags(write=False)
        object.__setattr__(self, "Lambdas", Lams)

    @property
    def lambda_view(self) -> np.ndarray:
        """Per eigenvalue, the exponent pair ``(-1/2 + s, -1/2 - s)`` with
        ``s = sqrt(Lambda + 1/4)`` (principal branch), as :func:`lambda_from_Lambda`."""
        s = np.sqrt(self.Lambdas + 0.25)
        return np.stack([-0.5 + s, -0.5 - s], axis=-1)


def lambda_from_Lambda(Lambda: complex):
    """Both roots of ``lambda*(lambda+1) = Lambda``; their sum is exactly -1."""
    s = np.sqrt(complex(Lambda) + 0.25)
    return (-0.5 + s, -0.5 - s)


def _times(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``M @ V``; a real ``M`` times a C-contiguous complex vector or block
    ``V`` multiplies its real and imaginary parts as one real block, with no
    complex copy of M."""
    if np.iscomplexobj(M) or not np.iscomplexobj(V):
        return M @ V
    W = V.reshape(len(V), -1).view(float)
    return (M @ W).view(complex).reshape(V.shape)


def _lower_times(Mb: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ X`` for a symmetric ``M`` in lower band storage ``Mb`` (row
    ``k`` the ``k``-th subdiagonal), summed diagonal by diagonal: O(n u) per
    column, and each column of the product has the same bits whatever the
    other columns of ``X`` (a dense product blocks its sums by the width of
    ``X``)."""
    X2 = X.reshape(len(X), -1)
    out = Mb[0][:, None] * X2
    for k in range(1, len(Mb)):
        d = Mb[k, :-k][:, None]
        out[:-k] += d * X2[k:]
        out[k:] += d * X2[:-k]
    return out.reshape(X.shape)


def _columns(Mb: np.ndarray) -> np.ndarray:
    """The symmetric matrix ``M`` of lower band storage ``Mb`` (half-bandwidth
    ``u``) in diagonal-ordered storage, as ``scipy.linalg.solve_banded``
    takes it: row ``u + i - j`` holds ``M[i, j]``, so column ``j`` lists the
    band of column ``j`` of ``M`` in row order."""
    u, n = len(Mb) - 1, Mb.shape[1]
    C = np.zeros((2 * u + 1, n), dtype=Mb.dtype)
    C[u:] = Mb
    for k in range(1, u + 1):
        C[u - k, k:] = Mb[k, :n - k]
    return C


def _row(Mb: np.ndarray, p: int) -> np.ndarray:
    """Row ``p`` of the symmetric matrix of lower band storage ``Mb``, with
    its zeros."""
    n = Mb.shape[1]
    r = np.zeros(n, dtype=Mb.dtype)
    for k in range(len(Mb)):
        if k <= p:
            r[p - k] = Mb[k, p - k]
        if 0 < k < n - p:
            r[p + k] = Mb[k, p]
    return r


def _norm(Mb: np.ndarray) -> float:
    """Largest column 2-norm of the symmetric matrix of lower band storage
    ``Mb``: a lower bound of ``||M||_2`` within a factor ``sqrt(n)``, and the
    matrix scale of every residual and Gram test.  Each column is summed in
    row order, as over the dense column (its zeros add nothing)."""
    return float(np.linalg.norm(_columns(Mb), axis=0).max())


def _one_norm(Mb: np.ndarray) -> float:
    """``||M||_1`` of the symmetric matrix of lower band storage ``Mb``."""
    return float(np.abs(_columns(Mb)).sum(axis=0).max())


def _col_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``Re(X[:, j]^H Y[:, j])`` for every column, with no n x n temporary."""
    return np.einsum("ij,ij->j", X.real, Y.real) + np.einsum("ij,ij->j", X.imag, Y.imag)


def _normalize_one(V: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Scale each column of ``V`` (or the one vector ``V``) to unit weight-one
    norm, ``m1`` the lower band storage of ``M1``, and rotate its largest
    entry onto the positive real axis (its imaginary part, at rounding level
    after the rotation, is zeroed).  A column gets the same bits alone as in
    a block."""
    W = np.array(V, dtype=complex, order="C").reshape(len(V), -1)
    W /= np.sqrt(_col_dot(W, _lower_times(m1, W)))
    top = (np.argmax(np.abs(W), axis=0), np.arange(W.shape[1]))
    W *= np.conj(W[top]) / np.abs(W[top])
    W[top] = W[top].real
    return W.reshape(np.shape(V))


def _backward_error(P: PencilMatrices, V, Lams):
    """Backward error ``||A v - Lambda B v|| / (||A|| + |Lambda| ||B||)`` (Tisseur,
    LAA 2000) of each pair ``(Lams[j], V[:, j])`` of the pencil ``P``, ``V``
    complex and C-contiguous, on the band; the norms are the largest column
    2-norms, lower bounds, so it over-estimates the error."""
    Ab, Bb = P.bands.A, P.bands.B
    R = _lower_times(Bb, V)
    R *= Lams
    R -= _lower_times(Ab, V)
    return np.sqrt(_col_dot(R, R)) / (_norm(Ab) + np.abs(Lams) * _norm(Bb))


def solve_pencil(P: PencilMatrices) -> SpectrumResult:
    """Solve ``A v = Lambda B v`` of a pencil assembled from a cap (B is never
    inverted) through its kappa-independent weight-one eigenbasis
    (:func:`_weight_one_solve`); a pencil without a cap raises
    :class:`~conetip.errors.DimensionMismatch`.

    Each pair is certified in coefficient space (:func:`_certificates`): its
    ``residual`` is an upper bound on the backward error of its vector, and
    the vector, ``V y`` from the eigenvalue alone (:func:`_formed`), is formed
    when it is read.  A pair whose bound misses ``RESIDUAL_TOL`` is formed at
    once and checked with :func:`_backward_error`; if that misses too, it gets
    one inverse-iteration step at its eigenvalue (:func:`_inverse_step`) and
    is checked again, and the pairs that still fail count in ``n_rejected``.
    Pairs are sorted by real part, then by the sign of the imaginary part;
    the members of a conjugate pair of an undamped pencil have the same real
    part, bit for bit.
    """
    if P.cap is None:
        raise DimensionMismatch("solve_pencil takes a pencil assembled from a cap")
    S = _secular_terms(P)
    Lams = _weight_one_solve(S)
    res = _certificates(P, S, Lams)
    vecs = [partial(_formed, S, P.bands.mass_one, Lam) for Lam in Lams]
    for j in np.flatnonzero(~(res < RESIDUAL_TOL)):
        v = vecs[j]()
        res[j] = _backward_error(P, v[:, None], Lams[j])[0]
        if not res[j] < RESIDUAL_TOL:
            x = _inverse_step(P, Lams[j], v)
            if x is not None:
                v = _normalize_one(x, P.bands.mass_one)
                res[j] = _backward_error(P, v[:, None], Lams[j])[0]
        vecs[j] = v
    keep = res < RESIDUAL_TOL
    pairs = tuple(EigenPair(complex(Lams[j]), vecs[j], float(res[j]))
                  for j in np.lexsort((np.sign(Lams.imag), Lams.real)) if keep[j])
    return SpectrumResult(pairs=pairs, mode=P.cap.mode, pencil=P,
                          n_rejected=int(np.count_nonzero(~keep)))


def _formed(S, m1, Lam):
    """The normalized eigenvector ``V y`` of the eigenvalue ``Lam``."""
    y = _cauchy(S, np.array([Lam], dtype=complex))[:, 0]
    return _normalize_one(_times(S.V, y), m1)


class _Secular(NamedTuple):
    """The weight-one form of a cap's pencil (see :func:`_weight_one_solve`)."""

    mu: np.ndarray          # weight-one eigenvalues, ascending
    V: np.ndarray           # weight-one eigenvectors, V^T M1 V = I
    u: np.ndarray           # V[p]
    alpha: np.ndarray       # V^T a
    beta: np.ndarray        # V^T b
    w: np.ndarray           # alpha - mu beta
    gamma: complex          # 1 / (1 + u . beta)
    undamped: object        # the terms at delta = 0 when delta > 0, else None


def _secular_terms(P: PencilMatrices, basis=None) -> _Secular:
    """The weight-one form of a cap's pencil: the basis ``(mu, V)``
    (:func:`_weight_one_basis` with its close poles deflated,
    :func:`_deflate_close_poles`, or ``basis`` when given), ``u = V[p]`` and
    the rank-one row ``(a, b)`` in that basis, read from row ``p`` of the
    pencil's bands; its eigenvalues are those of ``diag(mu) + gamma u w^T``."""
    cap, bands = P.cap, P.bands
    p = cap.interface_dof
    s_plus = cap.material.sigma_plus + (1j * P.delta if P.delta else 0.0)
    A_p, B_p, K1_p, M1_p = (_row(Mb, p) for Mb in bands)
    ab = np.stack([A_p, B_p]) / s_plus - np.stack([K1_p, M1_p])
    mu, V = basis or _deflate_close_poles(
        bands, p, *_weight_one_basis(P.stiffness_one, bands.mass_one))
    alpha, beta = ab.real @ V + 1j * (ab.imag @ V) if np.iscomplexobj(ab) else ab @ V
    u = V[p]
    undamped = None
    if P.delta:
        real = bands._replace(A=bands.A.real, B=bands.B.real)
        undamped = _secular_terms(_from_bands(real, cap, 0.0), (mu, V))
    return _Secular(mu, V, u, alpha, beta, alpha - mu * beta, 1.0 / (1.0 + beta @ u),
                    undamped)


def _weight_one_solve(S: _Secular) -> np.ndarray:
    """Eigenvalues of a cap's pencil, from its weight-one form ``S``.

    Rows of ``A - Lambda B`` below the interface dof ``p`` are ``s_minus``
    times those of ``K1 - Lambda M1`` (``stiffness_one``, ``mass_one``) and
    rows above it ``s_plus`` times, with ``s = sigma + i delta``.  Dividing
    these factors out leaves ``K1 - Lambda M1 + e_p (a - Lambda b)^T``, with
    ``a`` and ``b`` read from row ``p`` of the pencil itself.  With
    ``K1 V = M1 V diag(mu)``, ``V^T M1 V = I`` (:func:`_weight_one_basis`:
    a banded Cholesky factor of M1 and one symmetric eigensolve, independent
    of kappa and delta) and ``u = V[p]``, the eigenvalues are those of
    ``diag(mu) + gamma u w^T``, ``w = V^T a - mu V^T b``,
    ``gamma = 1 / (1 + u . V^T b)``: the roots of the secular function
    ``f(Lambda) = 1 + gamma sum_i c_i / (mu_i - Lambda)``, ``c = u w``
    (:func:`_secular_roots`), and a component with ``c_i = 0`` deflates to
    ``mu_i``.  At ``kappa = 1``, where ``w = 0``, every component deflates and
    the eigenvalues are ``mu``, in order.  Vectors come from :func:`_formed`.

    Every dense step runs in numpy's BLAS: numpy and scipy ship one OpenBLAS
    each, with its own worker threads, and handing the CPU from one to the
    other between large products stalls.  The band factor and substitutions
    of the basis are scipy's LAPACK, but ``dpbtrf`` and ``dtbtrs`` are
    level-2 band routines that start no worker threads.
    """
    start = None
    if S.undamped is not None:
        start = _secular_roots(S.undamped.mu, S.undamped.u * S.undamped.w,
                               -1.0 / S.undamped.gamma)
    return _secular_roots(S.mu, S.u * S.w, -1.0 / S.gamma, start)


def _cauchy(S: _Secular, Lams: np.ndarray) -> np.ndarray:
    """Coefficient vectors ``y`` (columns) of the eigenvalues ``Lams``: the
    Cauchy vector ``y = u / (mu - Lambda)``.

    The entry of ``y`` at the pole ``mu_i`` nearest to ``Lambda_j`` loses its
    digits as ``mu_i - Lambda_j`` approaches the eigenvalue's rounding error.
    It is then taken from the secular equation ``gamma w^T y = -1`` instead,
    when that formula has the smaller relative error bound (cancellation in
    its sum against ``|Lambda_j| / |mu_i - Lambda_j|``).  So a component with
    ``u_i`` near 0 deflates to ``v_i`` plus the coupling to the other
    components, and an exactly vanishing ``mu_i - Lambda_j`` with ``w_i = 0``
    gives ``v_i``.  An entry with ``u_i = 0`` (a deflated pole,
    :func:`_deflate_close_poles`) is exactly 0 off its pole, so the nearest
    pole is sought among the others unless ``Lambda_j`` sits on it.
    """
    mu, u, w, gamma = S.mu, S.u, S.w, S.gamma
    cols = np.arange(len(Lams))
    # the pole nearest to each Lambda_j (mu is real and ascending) among
    # those with u_i != 0, or the deflated pole that Lambda_j sits on
    k = np.flatnonzero(u != 0)
    t = np.clip(np.searchsorted(mu[k], Lams.real), 1, len(k) - 1)
    t -= np.abs(mu[k[t - 1]] - Lams) < np.abs(mu[k[t]] - Lams)
    i = k[t]
    on = np.minimum(np.searchsorted(mu, Lams.real), len(mu) - 1)
    on_deflated = (mu[on] == Lams) & (u[on] == 0)
    i[on_deflated] = on[on_deflated]
    gap = mu[i] - Lams
    with np.errstate(divide="ignore", invalid="ignore"):
        Y = np.subtract(mu[:, None], Lams)
        np.divide(u[:, None], Y, out=Y)
        Y[i[gap == 0], cols[gap == 0]] = 0.0
        w_pole = w[i] * Y[i, cols]
        num = -1.0 / gamma - (w @ Y - w_pole)
        bound = (abs(1.0 / gamma) + np.abs(w) @ np.abs(Y) - abs(w_pole)) / abs(num)
        y_sec = num / w[i]
        sec = (bound < abs(Lams) / abs(gap)) & np.isfinite(y_sec)
    Y[i[sec], cols[sec]] = y_sec[sec]
    exact = (gap == 0) & ~sec
    Y[:, exact] = 0.0
    Y[i[exact], cols[exact]] = 1.0
    return Y


def _certificates(P: PencilMatrices, S: _Secular, Lams) -> np.ndarray:
    """Upper bound on the backward error of each pair ``(Lams[j], V y_j)``
    after normalization, ``y_j`` the Cauchy vector of ``Lams[j]``
    (:func:`_cauchy`), from coefficient space alone (no vector formed).

    With ``E = K1 V - M1 V diag(mu)`` (on the band, once per solve) and
    ``g = M1 V u - e_p``, and for each ``y`` the split
    ``(mu - Lambda) y = tau u + r`` (``tau`` the projection on ``u``: 1 for a
    Cauchy vector, ``r`` nonzero only at an entry taken from the secular
    equation; 0 for ``y = e_i``), the residual is exactly
    ``(A - Lambda B) V y = S (E y + M1 V r + tau g + e_p phi)``, ``S`` the
    diagonal of ``s`` and ``phi = tau + (V^T a - Lambda V^T b) . y`` the
    row-``p`` residual (the secular function, at a root of it).  With
    ``||M1 V r|| <= ||M1||^1/2 ||r||`` and
    ``||E y|| <= sum_i |y_i| ||E e_i||`` it is bounded by
    ``max|s| (sum |y_i| ||E e_i|| + ||M1||^1/2 ||r|| + |tau| ||g||)
    + |s_plus| |phi|``, plus ``n eps`` times the magnitudes summed into
    ``phi`` (its worst-case rounding), plus
    ``2 eps (||A||_1 + |Lambda| ||B||_1) sum_i |y_i| ||v_i||`` for forming
    and checking ``V y``: one rounding per entry of the vector and of the
    residual, to first order (their worst case grows with the length of the
    sums, their observed error stays a tenth of this; see
    ``tests/test_spectrum.py``).  It is divided by
    ``(||A|| + |Lambda| ||B||) ||y||`` (``||y||`` is ``||V y||`` in the
    weight-one norm; norms of A and B as in :func:`_backward_error`).  At
    ``kappa = 1`` (``y = e_j``, no Cauchy block) the bound is ``|s| ||E e_j||``
    plus that rounding.
    """
    bands, V, mu, u = P.bands, S.V, S.mu, S.u
    n, p = len(mu), P.cap.interface_dof
    e_norm, v_norm = _basis_residual_norms(bands, V, mu)
    s_minus, s_plus = (abs(s + 1j * P.delta) for s in
                       (P.cap.material.sigma_minus, P.cap.material.sigma_plus))
    s_max = max(s_minus, s_plus)
    A1, B1 = _one_norm(bands.A), _one_norm(bands.B)
    A_c, B_c = _norm(bands.A), _norm(bands.B)
    if not S.w.any():               # kappa = 1: every y is e_j
        L = np.abs(Lams)
        return (s_max * e_norm + 2.0 * _EPS * (A1 + L * B1) * v_norm) / (A_c + L * B_c)
    Y = _cauchy(S, Lams)
    g = _lower_times(bands.mass_one, V @ u)
    g[p] -= 1.0
    g_norm, m1_half, uu = np.linalg.norm(g), np.sqrt(_one_norm(bands.mass_one)), u @ u
    norms, rows = np.stack([e_norm, v_norm, np.abs(S.alpha), np.abs(S.beta)]), \
        np.stack([S.alpha, S.beta])

    def bound(Lam, Yt):
        Y, L = Yt.T, np.abs(Lam)
        e_y, v_y, a_y, b_y = norms @ np.abs(Y)
        R = np.subtract(mu[:, None], Lam) * Y
        tau = u @ R / uu
        R -= u[:, None] * tau
        a_c, b_c = rows @ Y
        phi_err = n * _EPS * (np.abs(tau) + a_y + L * b_y)
        num = (s_max * (e_y + m1_half * np.sqrt(_col_dot(R, R)) + np.abs(tau) * g_norm)
               + s_plus * (np.abs(tau + a_c - Lam * b_c) + phi_err)
               + 2.0 * _EPS * (A1 + L * B1) * v_y)
        return (num / ((A_c + L * B_c) * np.sqrt(_col_dot(Y, Y))),)

    return _in_columns(bound, Lams, Y.T)[0]


def _basis_residual_norms(bands, V, mu):
    """Column 2-norms of ``E = K1 V - M1 V diag(mu)`` and of ``V``, a block
    of columns at a time: ``E`` is summed along the pencil's ``bands`` of
    ``K1`` and ``M1``, diagonal ``k`` contributing ``K1_k - M1_k mu_j`` times
    the shifted rows of ``V``."""
    K1b, M1b, n = bands.stiffness_one, bands.mass_one, len(V)

    def norms(mu, Vt):
        X = Vt.T
        E = X * (K1b[0][:, None] - M1b[0][:, None] * mu)
        for k in range(1, len(K1b)):
            W = K1b[k, :n - k, None] - M1b[k, :n - k, None] * mu
            E[:-k] += W * X[k:]
            E[k:] += W * X[:-k]
        return np.linalg.norm(E, axis=0), np.linalg.norm(X, axis=0)

    return _in_columns(norms, mu, V.T)


def _secular_roots(mu, c, target, start=None) -> np.ndarray:
    """All roots of ``h(Lambda) = sum_i c_i / (mu_i - Lambda) = target``
    (``mu`` ascending), one per component: ``mu_i`` where ``c_i = 0``
    (deflation), and the roots of the secular function of the others.

    Undamped (real ``c``), the real roots come first (:func:`_real_roots`,
    ascending), then the complex ones as exact conjugate pairs, adjacent,
    ``Im > 0`` first: Aberth-Ehrlich sweeps (:func:`_aberth`) move one root
    of each pair in the upper half-plane, with the real roots and the
    conjugates in the sums.  They start one in each fold band and otherwise
    at the middle of the pole gaps that hold no real root, gaps whose end
    limits share a sign opposite to that far from the poles first.  (The
    real roots and the fold bands leave an even count; were a real root lost
    to rounding at the end of a piece, the one root left over is NaN, and
    its pair is rejected.)  Damped, ``start`` holds the undamped roots of the
    same basis, and the sweeps move all roots from there; a start on a pole
    is moved ``sqrt(eps)`` (relative) off it.
    """
    live = c != 0
    out = np.empty(len(mu), dtype=complex)
    out[:np.count_nonzero(~live)] = mu[~live]
    mu, c = mu[live], c[live]
    if not len(mu):
        return out
    if start is not None:
        z0 = np.array(start, dtype=complex)
        for m in out[:len(out) - len(mu)]:
            z0 = np.delete(z0, np.argmin(np.abs(z0 - m)))
        on_pole = np.isin(z0, mu)
        z0[on_pole] += 1j * np.sqrt(_EPS) * np.maximum(np.abs(z0[on_pole]), 1.0)
        out[len(out) - len(mu):], _ = _aberth(mu, c, target, z0, np.empty(0), False)
        return out
    real, bands = _real_roots(mu, c, target)
    k = len(out) - len(mu)
    out[k:k + len(real)] = real
    z, _ = _aberth(mu, c, target, _pair_starts(mu, c, target, real, bands,
                                               (len(mu) - len(real)) // 2), real, True)
    pairs = out[k + len(real):]
    pairs[:2 * len(z):2], pairs[1:2 * len(z):2] = z, np.conj(z)
    pairs[2 * len(z):] = np.nan
    return out


def _real_roots(mu, c, target):
    """Real roots of ``h(Lambda) = sum_i c_i / (mu_i - Lambda) = target``
    (``mu`` ascending, no ``c_i = 0``), ascending, and the midpoints of the
    fold bands, each of which holds two roots within rounding.

    The axis is cut at the poles, and :func:`_certified_roots` searches each
    pole gap and the two outer rays (the left ray from 32 pieces geometric in
    the distance to ``mu_0``).  No root lies within
    ``rho_i = |c_i| / (2 S_i + |target|) / 2`` of ``mu_i``,
    ``S_i = sum_{k != i} |c_k| / |mu_k - mu_i|`` (there the pole's term
    outweighs the rest, within half the distance to the next pole), nor
    beyond ``D = sum |c| / |target|`` of the outer poles (``|h| < |target|``
    there).  Where ``rho_i`` falls below the spacing of the floating-point
    numbers at ``mu_i``, a piece starts at the neighbour of ``mu_i``, and a
    root between the two shows as a sign at that neighbour opposite to the
    pole's limit: it is ``mu_i``.
    """
    with np.errstate(divide="ignore"):
        Sk = np.abs(c) / np.abs(mu - mu[:, None])
    np.fill_diagonal(Sk, 0.0)
    gaps = np.diff(mu)
    half = 0.5 * np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
    rho = 0.5 * np.minimum(np.abs(c) / (2.0 * Sk.sum(axis=1) + abs(target)), half)
    right_of, left_of = mu + rho, mu - rho
    right_of[right_of == mu] = np.nextafter(mu, np.inf)[right_of == mu]
    left_of[left_of == mu] = np.nextafter(mu, -np.inf)[left_of == mu]
    D = np.abs(c).sum() / abs(target)
    ray_a, ray_b = _left_ray(mu[0], D, left_of[0])
    a = np.r_[ray_a, right_of]
    b = np.r_[ray_b, left_of[1:], mu[-1] + D]
    pole_a = np.r_[np.full(len(ray_a), -np.inf), mu]
    pole_b = np.r_[np.full(len(ray_a), mu[0]), mu[1:], np.inf]
    ok = a < b
    roots, bands = _certified_roots(-c, -mu, target, a[ok], b[ok], pole_a[ok], pole_b[ok])
    roots = [roots]
    # a root closer to a pole than the next floating-point number
    for edge, limit_above in ((right_of, c < 0), (left_of, c > 0)):
        j = np.flatnonzero(np.abs(edge - mu) <= np.spacing(np.abs(mu)))
        if len(j):
            h = (c[:, None] / (mu[:, None] - edge[j])).sum(axis=0)
            roots.append(mu[j[(h > target) != limit_above[j]]])
    return np.sort(np.concatenate(roots)), bands


def _left_ray(mu0, far, end):
    """32 pieces ``(a, b)`` of ``[mu0 - far, end]``, geometric in the
    distance to ``mu0 > end`` (none when the interval is empty)."""
    if not mu0 - far < end:
        return np.empty(0), np.empty(0)
    x = mu0 - np.geomspace(far, mu0 - end, 33)
    x[-1] = end
    return x[:-1], x[1:]


def _certified_roots(c, d, target, a, b, pole_a, pole_b):
    """Roots of ``h(x) = sum_k c_k / (d_k + x) = target`` on the pole-free
    intervals ``[a_j, b_j]`` (the poles of h nearest to them are ``pole_a_j
    < a_j`` and ``pole_b_j > b_j``, infinite where there is none), and the
    midpoints of their fold bands.

    Each term is monotone in ``x`` on an interval, so the sums of the
    termwise minima and maxima of the endpoint values enclose ``h``, and
    likewise ``h'``; both enclosures are widened by ``4 n eps`` times the sum
    of the terms' magnitudes (and ``|target|``), which bounds the rounding
    of each sum.  Every interval is, in one vectorized step per round,
    dropped when its enclosure excludes the target, kept as a root when
    ``h'`` keeps one sign and ``h - target`` changes sign at its endpoints
    (exactly one root), and split otherwise (:func:`_split`).  An interval
    where ``h'`` may vanish and the width of the ``h`` enclosure is within
    twice its widening sits at a fold of the dispersion relation, where two
    roots meet within rounding: it is not split again, which bounds the work
    there.  Touching fold intervals form one fold band, one midpoint, unless
    ``h`` lies on its extremum's side of the target at both ends of the
    band: the fold's two roots are then the sign changes outside it.  The
    roots are polished inside their brackets by Newton steps, with a split
    where a step leaves the bracket or does not halve the previous one,
    until ``h - target`` or the step is within rounding, and then by one
    more step where it stays inside the bracket: the rounding bound is a
    worst case, and stopping on it left roots up to 1e-11 (relative) off.
    """
    d = d[:, None]
    c_pos, c_neg, c_abs = np.maximum(c, 0.0), np.minimum(c, 0.0), np.abs(c)
    widen = 4.0 * len(c) * _EPS

    def h(x):
        return (c @ (1.0 / (d + x)),)

    def enclose(a, b):
        # a term is decreasing where c_k > 0, increasing where c_k < 0, and
        # each 1 / (d_k + x)^2 is monotone; h' = -sum c_k / (d_k + x)^2
        Ia, Ib = 1.0 / (d + a), 1.0 / (d + b)
        Qa, Qb = Ia * Ia, Ib * Ib
        Q_hi, Q_lo = np.maximum(Qa, Qb), np.minimum(Qa, Qb)
        return (c_pos @ Ib + c_neg @ Ia, c_pos @ Ia + c_neg @ Ib,
                widen * (c_abs @ np.sqrt(Q_hi) + abs(target)),
                -(c_pos @ Q_hi + c_neg @ Q_lo), -(c_pos @ Q_lo + c_neg @ Q_hi),
                widen * (c_abs @ Q_hi))

    # one value per point, so touching intervals see the same sign there
    points, at = np.unique(np.concatenate([a, b]), return_inverse=True)
    ha, hb = np.split(_in_columns(h, points)[0][at], 2)
    roots, folds = [], []
    while len(a):
        lo, hi, e_h, g_lo, g_hi, e_g = _in_columns(enclose, a, b)
        m = _split(a, b, pole_a, pole_b)
        hit = (lo - e_h <= target) & (target <= hi + e_h)
        monotone = (g_lo - e_g > 0) | (g_hi + e_g < 0)
        root = hit & monotone & ((ha > target) != (hb > target))
        fold = hit & ~monotone & ((hi - lo <= 2.0 * e_h) | ~((a < m) & (m < b)))
        split = hit & ~monotone & ~fold
        roots.append(np.stack([a, b, ha, pole_a, pole_b])[:, root])
        folds.append(np.stack([a, b, ha, hb])[:, fold])
        a, b, m, ha, hb, pole_a, pole_b = (
            v[split] for v in (a, b, m, ha, hb, pole_a, pole_b))
        hm, = _in_columns(h, m)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        ha, hb = np.concatenate([ha, hm]), np.concatenate([hm, hb])
        pole_a, pole_b = np.concatenate([pole_a, pole_a]), np.concatenate([pole_b, pole_b])
    folds = np.hstack(folds)
    fa, fb, fha, fhb = folds[:, np.argsort(folds[0])]
    x_band = np.empty(0)
    if len(fa):
        # one band per run of touching fold intervals
        first = np.flatnonzero(np.r_[True, fb[:-1] != fa[1:]])
        last = np.r_[first[1:] - 1, len(fa) - 1]
        mid = 0.5 * (fa[first] + fb[last])
        peak = c @ (1.0 / (d + mid)) ** 3 < 0      # h'' < 0: a maximum
        outside = ((fha[first] > target) == peak) & ((fhb[last] > target) == peak)
        x_band = mid[~outside]
    a, b, ha, pole_a, pole_b = np.hstack(roots)
    above = ha > target

    def value_and_slope(x):
        inv = 1.0 / (d + x)
        return c @ inv - target, c @ (inv * inv), widen * (c_abs @ np.abs(inv) + abs(target))

    x = _split(a, b, pole_a, pole_b)
    step = np.full(len(x), np.inf)
    live = np.flatnonzero((a < x) & (x < b))
    while len(live):
        xl = x[live]
        r, slope, e_r = _in_columns(value_and_slope, xl)
        right = (r > 0) == above[live]        # the root lies right of xl
        a[live] = np.where(right, xl, a[live])
        b[live] = np.where(right, b[live], xl)
        al, bl = a[live], b[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = r / slope
        xn = xl + dx
        # within rounding: one last step, which costs no evaluation, where it
        # stays in the bracket
        converged = (np.abs(r) <= e_r) | (np.abs(dx) <= 2.0 * _EPS * np.abs(xl))
        last = np.where((al <= xn) & (xn <= bl), xn, xl)
        # Newton inside the bracket, or a split where it leaves it or stalls
        newton = (al < xn) & (xn < bl) & (np.abs(dx) <= 0.5 * step[live])
        xn = np.where(newton, xn, _split(al, bl, pole_a[live], pole_b[live]))
        x[live] = np.where(converged, last, xn)
        step[live] = np.abs(xn - xl)
        live = live[~(converged | ~((al < xn) & (xn < bl)))]
    return x, x_band


def _in_columns(f, *xs):
    """``f(*xs)`` (a tuple of arrays along ``xs``) evaluated 64 entries of
    ``xs`` at a time: with n terms a call makes n x 64 temporaries, which
    stay in cache (a third of the time of one n x n pass at n = 511)."""
    parts = [f(*(x[i:i + 64] for x in xs)) for i in range(0, len(xs[0]), 64)]
    if not parts:
        return tuple(np.empty(0) for _ in f(*(x[:0] for x in xs)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _split(a, b, pole_a, pole_b):
    """Split points of the intervals ``[a, b]`` between the poles ``pole_a``
    and ``pole_b``: the point at the geometric mean of the distances to a
    pole when one is 16 times the other, else the midpoint."""
    with np.errstate(invalid="ignore"):
        ra, rb = a - pole_a, b - pole_a
        sa, sb = pole_b - a, pole_b - b
        m = np.where(rb > 16.0 * ra, pole_a + np.sqrt(ra * rb), 0.5 * (a + b))
        return np.where((sa > 16.0 * sb) & ~(rb > 16.0 * ra), pole_b - np.sqrt(sa * sb), m)


def _pair_starts(mu, c, target, real, bands, n_pairs):
    """Upper half-plane starts of the Aberth sweeps for ``n_pairs`` conjugate
    pairs (see :func:`_secular_roots`): one ``sqrt(eps)`` (relative) above
    each fold band, where two roots within rounding ``eps`` split, then
    the middles of the pole gaps (and of the outer rays) ranked by whether
    they hold no real root, whether the limits of ``h - target`` at their
    ends share a sign opposite to the sign far from the poles (there a pair
    is where the two roots of the gap went), and how close ``h`` comes to the
    target there, each ``i w / 2`` above the axis for a gap of width ``w``."""
    starts = bands + 1j * np.sqrt(_EPS) * np.maximum(np.abs(bands), 1.0)
    edges = np.r_[mu[0] - (mu[-1] - mu[0] + 1.0) / len(mu), mu,
                  mu[-1] + (mu[-1] - mu[0] + 1.0) / len(mu)]
    mid, width = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    counts = np.bincount(np.searchsorted(mu, np.r_[real, bands.real]), minlength=len(mid))
    bulk = target < 0                        # h - target > 0 far from the poles
    left, right = np.r_[bulk, c < 0], np.r_[c > 0, bulk]
    F = c[:, None] / (mu[:, None] - mid)
    close = np.abs(F.sum(axis=0) - target) / (np.abs(F).sum(axis=0) + abs(target))
    rank = np.lexsort((close, left == bulk, ~((counts == 0) & (left == right))))
    pick = rank[:n_pairs - len(bands)]
    return np.r_[starts, mid[pick] + 0.5j * width[pick]]


def _aberth(mu, c, target, z, fixed, mirror):
    """Aberth-Ehrlich sweeps on the roots ``z`` of the polynomial
    ``(h(x) - target) prod_i (mu_i - x)``, ``h = sum_i c_i / (mu_i - x)``,
    with the roots ``fixed`` (and, when ``mirror``, the conjugates of ``z``)
    held in the sums; every root moves at once, and stops after the sweep in
    which its correction is below rounding or ``h - target`` is within its
    rounding bound, ``4 n eps`` times the summed magnitudes (the rule of the
    Newton polish of :func:`_certified_roots`): the correction of a
    converged root carries the rounding of n terms, so it may never fall
    below ``2 eps |z|``.  Mirrored roots stay in the upper half-plane.
    Returns the roots and the number of sweeps made."""
    z = np.array(z, dtype=complex)
    live = np.arange(len(z))
    widen, c_abs = 4.0 * len(c) * _EPS, np.abs(c)
    sweeps = 0
    while len(live) and sweeps < _ABERTH_SWEEPS:
        sweeps += 1
        zl = z[live]
        others = np.concatenate([fixed, z, np.conj(z)] if mirror else [fixed, z])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 1.0 / (mu - zl[:, None])
            R = 1.0 / (zl[:, None] - others)
            R[~np.isfinite(R)] = 0.0               # the root itself
            r = q @ c - target
            corr = 1.0 / ((q * q) @ c / r - q.sum(axis=1) - R.sum(axis=1))
            done = np.abs(r) <= widen * (np.abs(q) @ c_abs + abs(target))
        ok = np.isfinite(corr)
        z[live[ok]] = zl[ok] - corr[ok]
        if mirror:
            z.imag = np.abs(z.imag)
        live = live[ok & ~done & (np.abs(corr) > 2.0 * _EPS * np.abs(zl))]
    return z, sweeps


def _weight_one_basis(K1: np.ndarray, M1b: np.ndarray):
    """``(mu, V)`` with ``K1 V = M1 V diag(mu)``, ``V^T M1 V = I``, ``mu``
    ascending: one symmetric eigensolve of ``C = L^-1 K1 L^-T``.

    ``M1 = L L^T`` is factored from its lower band storage ``M1b``
    (half-bandwidth the element order) by LAPACK's banded Cholesky
    ``dpbtrf``, and ``C`` and ``V = L^-T Q`` come from banded triangular
    substitutions ``dtbtrs`` on the dense ``K1``, so each solve costs
    O(n^2 u), not a dense O(n^3) LU.  A mass matrix that is not positive
    definite raises :class:`numpy.linalg.LinAlgError`."""
    L = _band_cholesky(M1b)
    if L is None:
        raise np.linalg.LinAlgError("mass matrix not positive definite")
    mu, Q = np.linalg.eigh(_lower_solve(L, _lower_solve(L, K1).T))
    return mu, _lower_solve(L, Q, trans="T")


def _deflate_close_poles(bands, p, mu, V):
    """The basis ``(mu, V)`` with every two adjacent columns whose ``mu``
    differ by less than their residuals resolve rotated in their plane, so
    that the smaller of their interface entries ``V[p]`` vanishes: that
    component of the secular function then deflates exactly to its ``mu``
    (Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978).

    A rotation by the angle ``theta`` adds at most
    ``|sin theta| (mu_{i+1} - mu_i) ||M1 v||`` to each of the two columns of
    ``E = K1 V - M1 V diag(mu)``, which the certificates read; two columns
    are rotated when that is at most their larger column norm of ``E``
    (:func:`_basis_residual_norms`), as Dongarra and Sorensen (SIAM J. Sci.
    Stat. Comput. 8, 1987) deflate.  A backward-stable eigensolve leaves
    ``E`` at rounding level, so only gaps below ``sqrt(eps) |mu|`` are
    examined.  Without the rotation, two poles a rounding error apart keep a
    coupling ``u_i w_i`` of rounding size and are both taken for roots.
    ``bands`` are the pencil's (:class:`~conetip.cap.PencilBands`)."""
    close = np.flatnonzero(np.diff(mu) <= np.sqrt(_EPS) * np.abs(mu[1:]))
    if not len(close):
        return mu, V
    V = V.copy()
    for i in close:
        pair = [i, i + 1]
        zero, keep = pair if abs(V[p, i]) <= abs(V[p, i + 1]) else pair[::-1]
        x, y = V[p, zero], V[p, keep]
        if x == 0.0:
            continue
        # rows (y, -x) / r and (x, y) / r take (x, y) to (0, r); each new
        # column gains at most |x| / r (mu_{i+1} - mu_i) ||M1 v|| in E
        r = np.hypot(x, y)
        e, _ = _basis_residual_norms(bands, V[:, pair], mu[pair])
        gain = abs(x) / r * (mu[i + 1] - mu[i]) * np.linalg.norm(
            _lower_times(bands.mass_one, V[:, pair]), axis=0).max()
        if gain <= e.max():
            V[:, zero], V[:, keep] = (y * V[:, zero] - x * V[:, keep]) / r, \
                (x * V[:, zero] + y * V[:, keep]) / r
    return mu, V


def _band_cholesky(Hb: np.ndarray):
    """Lower factor of LAPACK's banded Cholesky ``dpbtrf`` of the symmetric
    matrix in lower band storage ``Hb``, or None when the factorization
    breaks down (the matrix is not numerically positive definite)."""
    from scipy.linalg import lapack
    L, info = lapack.dpbtrf(Hb, lower=1)
    return L if info == 0 else None


def _lower_solve(L: np.ndarray, X: np.ndarray, trans: str = "N") -> np.ndarray:
    """``L^-1 X`` (``trans="T"``: ``L^-T X``) for the lower band factor ``L``
    of :func:`_weight_one_basis`."""
    from scipy.linalg import lapack
    Y, info = lapack.dtbtrs(L, X, uplo="L", trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular band factor (info {info})")
    return Y


def _inverse_step(P: PencilMatrices, Lam: complex, v: np.ndarray):
    """One inverse-iteration step ``(A - Lam B) x = B v`` at the fixed shift
    ``Lam``, by a banded LU on the pencil's bands (half-bandwidth = element
    order); None when the shifted matrix is exactly singular."""
    import scipy.linalg
    Ab, Bb = P.bands.A, P.bands.B
    u = len(Ab) - 1
    try:
        return scipy.linalg.solve_banded(
            (u, u), _columns(Ab - Lam * Bb),
            _lower_times(Bb, v), check_finite=False)
    except np.linalg.LinAlgError:
        return None



@dataclass(frozen=True)
class LineEigenvalue:
    """A pencil eigenvalue on the energy line with its one eigenvector.

    ``eta > 0`` with ``lambda = -1/2 + i*eta`` and ``Lambda = -1/4 - eta**2``.
    ``vector`` is the kernel vector ``phi`` (weight-one normalized), ``gram``
    its sigma-weighted self-product ``phi^T B phi``, whose vanishing signals a
    Jordan chain, and ``chain`` the generalized vectors above ``phi`` (empty
    when the eigenvalue is non-defective).  The arrays are read-only.
    """

    eta: float
    Lambda: float
    mode: int
    vector: np.ndarray
    gram: complex
    pencil: PencilMatrices
    chain: tuple = ()
    near_quarter: bool = False

    def __post_init__(self):
        for v in (self.vector, *self.chain):
            v.setflags(write=False)

    @property
    def multiplicity(self) -> int:
        """Geometric multiplicity, always 1."""
        return 1

    @property
    def lam(self) -> complex:
        return complex(-0.5, self.eta)


def classify_eigenvalue(Lambda: complex) -> str:
    """``"line"`` for an eigenvalue on the energy line (on the real axis,
    ``|Im Lambda| <= LINE_TOL * max(1, |Re Lambda|)``, with
    ``Re Lambda < -1/4``), ``"real"`` for the rest of the real axis, else
    ``"complex"``.  ``LINE_TOL`` (1e-6) is the package's one line criterion."""
    if abs(Lambda.imag) > LINE_TOL * max(1.0, abs(Lambda.real)):
        return "complex"
    return "line" if Lambda.real < -0.25 else "real"


def line_eigenvalues(spec: SpectrumResult) -> list:
    """Extract eigenvalues on the energy line.

    An eigenvalue qualifies when :func:`classify_eigenvalue` calls it
    ``"line"``.  Eigenvalues closer than ``LINE_TOL`` (relative) are one line
    eigenvalue (an eigensolver splits an exact Jordan pair by about 1e-8):
    ``Lambda`` is their mean and the eigenvector that of the member with the
    smallest residual (the first on ties).  Two members whose nonzero
    ``Im Lambda`` have opposite signs are a conjugate pair (as next to a
    fold of the dispersion relation), two eigenvalues with two
    eigenvectors, and are not merged.  The eigenvector is normalized by
    :func:`_normalize_one` and then rotated so that its interface entry
    ``phi[p]`` is real and positive (a kernel vector is fixed by its
    interface value, so ``phi[p] != 0``; the largest entry, which fixes the
    phase of other vectors, can tie at rounding level); a pencil without a
    cap keeps the largest-entry phase.  Line eigenvalues with
    ``eta < ETA_MIN`` are flagged ``near_quarter`` (the double root
    ``lambda = -1/2`` is special-cased out of basis construction downstream).
    """
    cands = [p for p in spec.pairs if classify_eigenvalue(p.Lambda) == "line"]
    cands.sort(key=lambda p: p.Lambda.real)
    clusters = []
    for p in cands:
        q = clusters[-1][-1].Lambda if clusters else None
        if q is not None and p.Lambda.imag * q.imag >= 0 \
                and abs(p.Lambda.real - q.real) <= LINE_TOL * max(1.0, abs(p.Lambda.real)):
            clusters[-1].append(p)
        else:
            clusters.append([p])
    out = []
    P = spec.pencil
    for cl in clusters:
        lam_mean = float(np.mean([p.Lambda.real for p in cl]))
        eta = float(np.sqrt(max(-lam_mean - 0.25, 0.0)))
        v = _normalize_one(min(cl, key=lambda p: p.residual).vector, P.bands.mass_one)
        if P.cap is not None:
            p = P.cap.interface_dof
            v *= abs(v[p]) / v[p]
            v[p] = v[p].real
        out.append(LineEigenvalue(
            eta=eta, Lambda=lam_mean, mode=spec.mode, vector=v,
            gram=complex(v @ _times(P.B, v)), pencil=P,
            near_quarter=eta < ETA_MIN))
    out.sort(key=lambda le: le.eta)
    return out


def jordan_indicator(le: LineEigenvalue) -> float:
    """``|phi^T B phi|`` over its natural scale ``||B|| / ||M1||`` (the sigma
    self-product of a weight-one normalized vector, norms by :func:`_norm`);
    values below ``JORDAN_THRESHOLD`` signal a Jordan chain."""
    P = le.pencil
    return float(abs(le.gram) * _norm(P.bands.mass_one) / _norm(P.bands.B))


def jordan_chains(P: PencilMatrices, le: LineEigenvalue) -> LineEigenvalue:
    """Populate the Jordan chain of a line eigenvalue.

    The chain equation above the eigenvector ``phi_0`` is
    ``(A - Lambda B) phi_1 = 2i eta B phi_0`` (and
    ``(A - Lambda B) phi_{k+1} = 2i eta B phi_k + B phi_{k-1}`` further up),
    solvable exactly when ``phi_0^T B phi_0`` vanishes.  A chain is grown when
    :func:`jordan_indicator` is below ``JORDAN_THRESHOLD``, up to
    ``JORDAN_MAX_CHAIN`` vectors while its residual is below ``RESIDUAL_TOL``.
    """
    if le.pencil is not P:
        raise DimensionMismatch("line eigenvalue does not belong to this pencil")
    chain = []
    if jordan_indicator(le) < JORDAN_THRESHOLD:
        M = P.A - le.Lambda * P.B
        prev2, prev1 = None, le.vector
        while len(chain) < JORDAN_MAX_CHAIN - 1:
            B_prev1 = _times(P.B, prev1)
            rhs = 2j * le.eta * B_prev1
            if prev2 is not None:
                rhs += _times(P.B, prev2)
            x, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            res = np.linalg.norm(_times(M, x) - rhs) / np.linalg.norm(B_prev1)
            if res > RESIDUAL_TOL:
                break
            chain.append(x)
            prev2, prev1 = prev1, x
    return replace(le, chain=tuple(chain))


@dataclass(frozen=True)
class SpectralWeights:
    """Radial weight exponent: distance from the energy line to the nearest
    spectrum strictly right of it (the Neumann variant is capped at 5/2).

    ``beta_err`` is the first-order error bound of ``beta`` certified by the
    residual and the eigenvalue condition number of the selected eigenpair
    (see :func:`spectral_weights`); it is 0 when ``beta`` is the exact 5/2
    cap with no eigenvalue at it (``nearest_lambda`` is then None).
    """

    beta: float
    bc_kind: str
    nearest_lambda: complex | None
    beta_err: float = 0.0


NEUMANN_CAP = 2.5
WEIGHT_CAP = 0.5
_BLOCK = 4
_MAX_STEPS = 100


def _weight_spectrum(P: PencilMatrices) -> SpectrumResult:
    """What :func:`spectral_weights` reads of one mode's pencil: the one-pair
    spectrum of its certified lowest pair (:func:`_lowest_pair`) when the
    pencil is definite and the pair passes, else its full spectrum."""
    pair = _lowest_pair(P)
    if pair is None:
        return solve_pencil(P)
    return SpectrumResult(pairs=(pair,), mode=P.cap.mode, pencil=P, n_rejected=0)


def _lowest_pair(P: PencilMatrices):
    """The lowest eigenpair of a definite cap pencil, certified twice; None
    for any other pencil, or when a certificate fails.

    With both coefficients positive and no dissipation, ``A`` is positive
    semidefinite and ``B`` positive definite, so the spectrum is real and
    ``>= 0``.  The pair comes from block inverse iteration on the band
    (:func:`_lowest_ritz_pair`) and is normalized as :func:`solve_pencil`
    normalizes.  Its ``residual`` is its :func:`_backward_error`, which must
    be below ``RESIDUAL_TOL``, and :func:`_is_lowest` must find no
    eigenvalue below it.  The rule needs a definite pencil, so it is chosen
    from the material, not by an option.
    """
    cap = P.cap
    if cap is None or P.delta != 0 or not cap.material.sigma_minus > 0:
        return None
    Ab, Bb = P.bands.A, P.bands.B
    Lam, x = _lowest_ritz_pair(Ab, Bb)
    if x is None:
        return None
    v = _normalize_one(x, P.bands.mass_one)
    residual = _backward_error(P, v[:, None], Lam)[0]
    if not (residual < RESIDUAL_TOL and _is_lowest(Ab, Bb, Lam, x)):
        return None
    return EigenPair(complex(Lam), v, float(residual))


def _lowest_ritz_pair(Ab, Bb):
    """Lowest Ritz pair ``(Lambda, x)`` of block inverse iteration on the
    definite pencil ``(A, B)`` in lower band storage: ``_BLOCK`` columns
    from a fixed start of cosines, a banded Cholesky factor of ``A - s B``,
    and a Rayleigh-Ritz step on each new block.  The shift ``s`` starts at
    ``-1/4``, below the spectrum, and moves up to
    ``theta_0 - (theta_1 - theta_0) / 8`` whenever the pencil still factors
    there (so ``s`` stays below every eigenvalue).  It stops when the
    residual of the lowest Ritz pair stops falling, and returns the pair
    with the smallest residual (``(None, None)`` when ``A + B / 4`` does not
    factor)."""
    import scipy.linalg
    from scipy.linalg import lapack
    n = Ab.shape[1]
    X = np.cos(np.pi * np.outer(np.linspace(0.0, 1.0, n), np.arange(_BLOCK)))
    shift, L = -0.25, _band_cholesky(Ab + 0.25 * Bb)
    if L is None:
        return None, None
    best = (np.inf, None, None)
    for _ in range(_MAX_STEPS):
        Y, _info = lapack.dpbtrs(L, _lower_times(Bb, X), lower=1)
        Q = np.linalg.qr(Y)[0]
        AQ, BQ = _lower_times(Ab, Q), _lower_times(Bb, Q)
        theta, Z = scipy.linalg.eigh(Q.T @ AQ, Q.T @ BQ)
        X = Q @ Z
        r = AQ @ Z[:, 0] - theta[0] * (BQ @ Z[:, 0])
        res = np.linalg.norm(r) / np.linalg.norm(X[:, 0])
        if not res < best[0]:
            break
        best = (res, theta[0], X[:, 0])
        s = theta[0] - (theta[1] - theta[0]) / 8.0
        L_s = _band_cholesky(Ab - s * Bb) if s > shift else None
        if L_s is not None:
            shift, L = s, L_s
    return best[1], best[2]


def _is_lowest(Ab, Bb, Lam, x) -> bool:
    """Whether the definite pencil ``(A, B)`` (lower band storage) has no
    eigenvalue below ``sigma = Lam - rho - delta``, by one banded Cholesky.

    ``rho = ||r||_{B^-1} / ||x||_B``, ``r = A x - Lam B x``, is the inclusion
    radius of the pair: an eigenvalue lies within ``rho`` of ``Lam``
    (Parlett, The Symmetric Eigenvalue Problem).  A and B are semidefinite,
    so with ``D = diag(A) + |sigma| diag(B)`` :func:`_certainly_definite`
    can certify ``A - sigma B`` positive definite, and by Sylvester's law of
    inertia no eigenvalue is then ``<= sigma``.  ``delta``,
    ``4 c x^T D x / x^T B x`` (``c`` of :func:`_definite_margin`), is the
    room the test needs for ``c D`` when ``x`` is the lowest eigenvector.  The lowest eigenvalue does not exceed
    the Rayleigh quotient ``Lam``, so a pass puts it in ``(sigma, Lam]``."""
    from scipy.linalg import lapack
    Ax, Bx = _lower_times(Ab, x), _lower_times(Bb, x)
    xBx = x @ Bx
    r = Ax - Lam * Bx
    LB = _band_cholesky(Bb)
    if LB is None:
        return False
    rho = np.sqrt(abs(r @ lapack.dpbtrs(LB, r, lower=1)[0]) / xBx)
    delta = 4.0 * _definite_margin(Ab) * ((x * x) @ (Ab[0] + abs(Lam) * Bb[0])) / xBx
    sigma = Lam - rho - delta
    return _certainly_definite(Ab - sigma * Bb, Ab[0] + abs(sigma) * Bb[0])


def _definite_margin(Hb) -> float:
    """``c = 2 (2u + 1) (u + 5) eps`` of :func:`_certainly_definite`, for the
    half-bandwidth ``u`` of the lower band storage ``Hb``."""
    u = len(Hb) - 1
    return 2.0 * (2 * u + 1) * (u + 5) * _EPS


def _certainly_definite(Hb, D) -> bool:
    """Whether the symmetric matrix ``H`` of lower band storage ``Hb`` is
    positive definite, by one banded Cholesky of ``H - c diag(D)``
    (:func:`_definite_margin`), given ``|H_ij| <= sqrt(D_i D_j)``.

    A factorization that runs to completion is exact for a matrix within
    ``(u + 5) eps sqrt(D_i D_j)`` of it entrywise: the backward error of the
    band factorization, ``gamma_{u+2} |L||L^T|`` (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 10), and of forming
    the shifted matrix.  A band of ``2u + 1`` such entries is below
    ``(2u + 1) (u + 5) eps D`` in the Loewner order, half of ``c D``, so
    ``H`` itself is then positive definite."""
    H = np.array(Hb)
    H[0] -= _definite_margin(Hb) * D
    return _band_cholesky(H) is not None


def _beta_error(pencil: PencilMatrices, pair: EigenPair) -> float:
    # The pencil is complex symmetric, so the left eigenvector is conj(v) and
    # to first order |dLambda| <= ||A v - Lambda B v|| ||v|| / |v^T B v|
    # (Tisseur, LAA 2000); beta = +-Re sqrt(Lambda + 1/4) + const gives
    # |dbeta| <= |dLambda| / (2 |sqrt(Lambda + 1/4)|).
    v, Lam = pair.vector, pair.Lambda
    Bv = _lower_times(pencil.bands.B, v)
    r = _lower_times(pencil.bands.A, v) - Lam * Bv
    d_Lambda = np.linalg.norm(r) * np.linalg.norm(v) / abs(v @ Bv)
    return float(d_Lambda / (2.0 * abs(np.sqrt(Lam + 0.25))))


def spectral_weights(specs, bc_kind: str) -> SpectralWeights:
    """Weight exponent from a collection of per-mode spectra.

    Both exponent roots of every eigenvalue that :func:`classify_eigenvalue`
    does not call ``"line"`` are considered, and of these the roots
    strictly right of the line, so the weight measures off-line spectrum only.
    The selected eigenpair's error bound is reported as ``beta_err``.  For
    ``"neumann"`` a ``beta`` within ``beta_err`` of 5/2 is reported as exactly
    5/2 (keeping its eigenvalue and bound), and one certifiably above 5/2 as
    the bare cap, so the cap decision does not rest on the sign of rounding
    noise.

    A spectrum may be a mode's full spectrum or the one-pair spectrum of its
    certified lowest pair (:func:`_weight_spectrum`, the CLI ``weights``
    path): a definite pencil has a real spectrum ``>= 0``, whose nearest
    root right of the line is ``sqrt(Lambda_min + 1/4)`` of its lowest
    eigenvalue, so both give the same ``beta`` and the same cap decision.
    """
    if bc_kind not in ("dirichlet", "neumann"):
        raise DimensionMismatch(f"unknown bc kind {bc_kind!r}")
    best, best_lam, best_at = np.inf, None, None
    n_total = 0
    for spec in specs:
        for p, roots in zip(spec.pairs, spec.lambda_view):
            n_total += 1
            if classify_eigenvalue(p.Lambda) == "line":
                continue
            for lam in roots:
                d = lam.real + 0.5
                if 0.0 < d < best:
                    best, best_lam, best_at = d, lam, (spec.pencil, p)
    if n_total == 0:
        raise DimensionMismatch("empty spectrum")
    if best_at is None:
        if bc_kind == "dirichlet":
            raise DimensionMismatch("no spectrum right of the line")
        return SpectralWeights(beta=NEUMANN_CAP, bc_kind=bc_kind, nearest_lambda=None)
    err = _beta_error(*best_at)
    if bc_kind == "neumann":
        if best > NEUMANN_CAP + err:
            return SpectralWeights(beta=NEUMANN_CAP, bc_kind=bc_kind,
                                   nearest_lambda=None)
        if best >= NEUMANN_CAP - err:
            best = NEUMANN_CAP
    return SpectralWeights(beta=float(best), bc_kind=bc_kind,
                           nearest_lambda=best_lam, beta_err=err)


def weight_star(dirichlet: SpectralWeights, neumann: SpectralWeights):
    """Combined exponent ``min(beta_D, beta_N, 1/2)`` with its inputs.

    A ``beta`` within its ``beta_err`` of 1/2 counts as 1/2, so only a
    ``beta`` certifiably below 1/2 becomes the star.  The record holds both
    exponents, their bounds (``beta_D_err``, ``beta_N_err``), the ``cap`` and
    ``cap_margin_dec``: the smallest distance, in decades, of a gap
    ``|beta - 1/2|`` from its bound (None when no beta has both a nonzero gap
    and a nonzero bound, so no decision could flip).
    """
    star, margins = WEIGHT_CAP, []
    for w in (dirichlet, neumann):
        gap = abs(w.beta - WEIGHT_CAP)
        if gap > w.beta_err:
            star = min(star, w.beta)
        if gap > 0.0 and w.beta_err > 0.0:
            margins.append(abs(float(np.log10(gap / w.beta_err))))
    return star, {"beta_D": dirichlet.beta, "beta_N": neumann.beta,
                  "beta_D_err": dirichlet.beta_err, "beta_N_err": neumann.beta_err,
                  "cap": WEIGHT_CAP, "cap_margin_dec": min(margins, default=None)}
