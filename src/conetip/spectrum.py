"""Generalized eigensolve of the symbol pencil and the energy-line machinery.

The pencil ``A f = Lambda B f`` has complex symmetric matrices and an
indefinite weight.  Its coefficient is constant on each side of the interface
dof, so the pencil is the kappa-independent weight-one pencil
``(stiffness_one, mass_one)`` plus one rank-one row: a cap's pencil is solved
from the symmetric weight-one eigenbasis and a diagonal-plus-rank-one
eigenproblem, and every pair is certified by :func:`_backward_error`.  This
is the package's one eigensolver; dense QZ lives in the tests, as its oracle.

Eigenvalues map to singular exponents through ``Lambda = lambda*(lambda+1)``;
eigenvalues with real ``Lambda < -1/4`` sit on the energy line
``Re(lambda) = -1/2`` and generate propagating (black-hole) singularities.
At such a ``Lambda`` both region blocks are definite on their interior dofs,
so a kernel vector is fixed by its interface value and each line eigenvalue
has exactly one eigenvector.  This module detects line eigenvalues (on a
solved spectrum, or counted from the secular function alone by
:func:`_line_census`), grows a Jordan chain above the eigenvector when its
sigma-weighted self-product ``phi^T B phi`` vanishes (a fold of the
dispersion relation, where the Krein sign changes), and derives radial
weight exponents from the spectrum right of the line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .cap import PencilMatrices, _band
from .errors import DimensionMismatch, NotApplicableDissipative

RESIDUAL_TOL = 1e-8
LINE_TOL = 1e-6
ETA_MIN = 1e-4
JORDAN_THRESHOLD = 1e-10
JORDAN_MAX_CHAIN = 4


@dataclass(frozen=True)
class EigenPair:
    Lambda: complex
    vector: np.ndarray
    residual: float

    def __post_init__(self):
        self.vector.setflags(write=False)


@dataclass(frozen=True)
class SpectrumResult:
    """Residual-certified pencil spectrum, in the order of :func:`solve_pencil`."""

    pairs: tuple
    mode: int
    pencil: PencilMatrices
    n_rejected: int

    @property
    def Lambdas(self) -> np.ndarray:
        return np.array([p.Lambda for p in self.pairs])

    @property
    def lambda_view(self) -> np.ndarray:
        """Per eigenvalue, the exponent pair ``(-1/2 + s, -1/2 - s)`` with
        ``s = sqrt(Lambda + 1/4)`` (principal branch)."""
        return np.array([lambda_from_Lambda(p.Lambda) for p in self.pairs])


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


def _norm(M: np.ndarray) -> float:
    """Largest column 2-norm of ``M``: a lower bound of ``||M||_2`` within a
    factor ``sqrt(n)``, and the matrix scale of every residual and Gram test."""
    return float(np.linalg.norm(M, axis=0).max())


def _col_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``Re(X[:, j]^H Y[:, j])`` for every column, with no n x n temporary."""
    return np.einsum("ij,ij->j", X.real, Y.real) + np.einsum("ij,ij->j", X.imag, Y.imag)


def _normalize_one(V: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Scale each column of ``V`` (or the one vector ``V``) to unit weight-one
    norm and rotate its largest entry onto the positive real axis (its
    imaginary part, at rounding level after the rotation, is zeroed)."""
    W = np.array(V, dtype=complex, order="C").reshape(len(V), -1)
    _normalize_columns(W, m1)
    return W.reshape(np.shape(V))


def _normalize_columns(W: np.ndarray, m1: np.ndarray) -> None:
    """:func:`_normalize_one` in place on the C-contiguous complex block ``W``."""
    W /= np.sqrt(_col_dot(W, _times(m1, W)))
    top = (np.argmax(np.abs(W), axis=0), np.arange(W.shape[1]))
    W *= np.conj(W[top]) / np.abs(W[top])
    W[top] = W[top].real


def _backward_error(A, B, V, Lams):
    """Backward error ``||A v - Lambda B v|| / (||A|| + |Lambda| ||B||)`` (Tisseur,
    LAA 2000) of each pair ``(Lams[j], V[:, j])``, ``V`` C-contiguous; the norms
    are the largest column 2-norms, lower bounds, so it over-estimates the error."""
    R = _times(B, V)
    R *= Lams
    R -= _times(A, V)
    return np.sqrt(_col_dot(R, R)) / (_norm(A) + np.abs(Lams) * _norm(B))


def solve_pencil(P: PencilMatrices) -> SpectrumResult:
    """Solve ``A v = Lambda B v`` of a pencil assembled from a cap (B is never
    inverted) through its kappa-independent weight-one eigenbasis
    (:func:`_weight_one_solve`); a pencil without a cap raises
    :class:`~conetip.errors.DimensionMismatch`.

    Eigenvectors are normalized by :func:`_normalize_one`; a pair is kept
    when its :func:`_backward_error` is below ``RESIDUAL_TOL``.  A pair above
    it gets one inverse-iteration step at its eigenvalue
    (:func:`_inverse_step`) and is certified again; the pairs that still fail
    count in ``n_rejected``.  Pairs are sorted by real part, then by the sign
    of the imaginary part.  LAPACK returns a conjugate pair of a real matrix
    adjacently, ``Im > 0`` first, with real parts that may differ in the last
    bits, so both members of a pair of an undamped pencil are sorted by their
    mean.
    """
    if P.cap is None:
        raise DimensionMismatch("solve_pencil takes a pencil assembled from a cap")
    w, V = _weight_one_solve(P)
    _normalize_columns(V, P.mass_one)
    res = _backward_error(P.A, P.B, V, w)
    for j in np.flatnonzero(~(res < RESIDUAL_TOL)):
        x = _inverse_step(P, w[j], V[:, j])
        if x is not None:
            V[:, j] = x = _normalize_one(x, P.mass_one)
            res[j] = _backward_error(P.A, P.B, x[:, None], w[j])[0]
    keep = res < RESIDUAL_TOL
    re = w.real.copy()
    if np.isrealobj(P.A) and np.isrealobj(P.B):
        j = np.flatnonzero(w.imag > 0)
        re[j] = re[j + 1] = 0.5 * (re[j] + re[j + 1])
    # one array per pair: n x n blocks kept across solves fragment the heap
    pairs = tuple(EigenPair(complex(w[j]), V[:, j].copy(), float(res[j]))
                  for j in np.lexsort((np.sign(w.imag), re)) if keep[j])
    return SpectrumResult(pairs=pairs, mode=P.cap.mode, pencil=P,
                          n_rejected=int(np.count_nonzero(~keep)))


def _weight_one_solve(P: PencilMatrices):
    """Eigenvalues and (unnormalized, C-contiguous) eigenvectors of a cap's
    pencil from the eigenbasis of its weight-one pencil.

    Rows of ``A - Lambda B`` below the interface dof ``p`` are ``s_minus``
    times those of ``K1 - Lambda M1`` (``stiffness_one``, ``mass_one``) and
    rows above it ``s_plus`` times, with ``s = sigma + i delta``.  Dividing
    these factors out leaves ``K1 - Lambda M1 + e_p (a - Lambda b)^T``, with
    ``a`` and ``b`` read from row ``p`` of the pencil itself.  With
    ``K1 V = M1 V diag(mu)``, ``V^T M1 V = I`` (:func:`_weight_one_basis`:
    a banded Cholesky factor of M1 and one symmetric eigensolve, independent
    of kappa and delta) and ``u = V[p]``, the eigenvalues are those of
    ``diag(mu) + gamma u w^T``, ``w = V^T a - mu V^T b``,
    ``gamma = 1 / (1 + u . V^T b)``.  At ``kappa = 1``, where ``w = 0``, the
    pencil is the weight-one pencil, and ``(mu, V)`` is returned as it is
    (as complex arrays).  Otherwise the eigenvector of ``Lambda_j`` is
    ``V y`` with the Cauchy vector ``y = u / (mu - Lambda_j)``, all of them
    from one product.

    The entry of ``y`` at the pole ``mu_i`` nearest to ``Lambda_j`` loses its
    digits as ``mu_i - Lambda_j`` approaches the eigenvalue's rounding error.
    It is then taken from the secular equation ``gamma w^T y = -1`` instead,
    when that formula has the smaller relative error bound (cancellation in
    its sum against ``|Lambda_j| / |mu_i - Lambda_j|``).  So a component with
    ``u_i`` near 0 deflates to ``v_i`` plus the coupling to the other
    components, and an exactly vanishing ``mu_i - Lambda_j`` gives ``v_i``.

    Every dense step runs in numpy's BLAS: numpy and scipy ship one OpenBLAS
    each, with its own worker threads, and handing the CPU from one to the
    other between large products stalls.  The band factor and substitutions
    of the basis are scipy's LAPACK, but ``dpbtrf`` and ``dtbtrs`` are
    level-2 band routines that start no worker threads.
    """
    mu, V, u, w, gamma = _secular_terms(P)
    if not w.any():
        return mu.astype(complex), np.array(V, dtype=complex, order="C")
    Lams = np.linalg.eigvals(np.diag(mu) + gamma * np.outer(u, w)).astype(complex)
    cols = np.arange(len(mu))
    # the pole nearest to each Lambda_j (mu is real and ascending)
    i = np.clip(np.searchsorted(mu, Lams.real), 1, len(mu) - 1)
    i -= np.abs(mu[i - 1] - Lams) < np.abs(mu[i] - Lams)
    gap = mu[i] - Lams
    with np.errstate(divide="ignore", invalid="ignore"):
        Y = np.subtract(mu[:, None], Lams)
        np.divide(u[:, None], Y, out=Y)
        w_pole = w[i] * Y[i, cols]
        num = -1.0 / gamma - (w @ Y - w_pole)
        bound = (abs(1.0 / gamma) + np.abs(w) @ np.abs(Y) - abs(w_pole)) / abs(num)
        y_sec = num / w[i]
        sec = (bound < abs(Lams) / abs(gap)) & np.isfinite(y_sec)
    Y[i[sec], cols[sec]] = y_sec[sec]
    exact = gap == 0
    Y[:, exact] = 0.0
    Y[i[exact], cols[exact]] = 1.0
    return Lams, _times(V, Y)


def _secular_terms(P: PencilMatrices):
    """``(mu, V, u, w, gamma)`` of a cap's pencil, whose eigenvalues are those
    of ``diag(mu) + gamma u w^T`` (see :func:`_weight_one_solve`): the
    weight-one basis ``(mu, V)``, ``u = V[p]``, ``w = V^T a - mu V^T b`` and
    ``gamma = 1 / (1 + u . V^T b)``, with ``a`` and ``b`` read from row ``p``
    of the pencil."""
    cap, K1, M1 = P.cap, P.stiffness_one, P.mass_one
    p = cap.interface_dof
    s_plus = cap.material.sigma_plus + (1j * P.delta if P.delta else 0.0)
    ab = np.stack([P.A[p], P.B[p]]) / s_plus - np.stack([K1[p], M1[p]])
    mu, V = _weight_one_basis(K1, M1, cap.mesh.element_order)
    Vab = ab.real @ V + 1j * (ab.imag @ V) if np.iscomplexobj(ab) else ab @ V
    u = V[p]
    return mu, V, u, Vab[0] - mu * Vab[1], 1.0 / (1.0 + Vab[1] @ u)


def _line_census(P: PencilMatrices) -> np.ndarray:
    """Ascending ``eta`` of the energy-line eigenvalues of an undamped cap
    pencil, from its secular function alone (no eigensolve, no vectors).

    With ``Lambda = -1/4 - t``, ``t = eta^2``, the line eigenvalues are the
    roots ``t > 0`` of ``h(t) = sum c_i / (d_i + t) = -1/gamma``, with
    ``c = u w`` and ``d = mu + 1/4 > 0`` (:func:`_secular_terms`), so ``h``
    has no pole on the line; no root lies beyond the tail bound
    ``T = sum |c_i| / |1/gamma| - min d``.  Each term is monotone in ``t``,
    so on ``[a, b]`` the sums of the termwise minima and maxima of the
    endpoint values enclose ``h``, and likewise ``h'``; both enclosures are
    widened by ``4 n eps`` times the sum of the terms' magnitudes (and
    ``|1/gamma|``), which bounds the rounding of each sum.

    Starting from a partition of ``[0, T]`` geometric in ``min d + t``,
    every interval is, in one vectorized step per round, dropped when its
    enclosure excludes the target, kept as a root when ``h'`` keeps one sign
    and ``h - target`` changes sign at its endpoints (exactly one root), and
    split at its midpoint otherwise.  An interval where ``h'`` may vanish and
    the width of the ``h`` enclosure is within twice its widening sits at a
    fold of the dispersion relation, where two roots meet within rounding: it
    is not split again, which bounds the work there.  Touching fold intervals
    form one fold band, one witness at its midpoint, unless ``h`` lies on
    its extremum's side of the target at both ends of the band: the fold's
    two roots are then the sign changes outside it.  The roots are bisected
    together to rounding.  At ``kappa = 1`` (``w = 0``) ``T < 0``: no root.
    """
    if P.delta != 0:
        raise NotApplicableDissipative("pencil carries dissipation")
    mu, _, u, w, gamma = _secular_terms(P)
    c, d, target = (u * w)[:, None], (mu + 0.25)[:, None], -1.0 / gamma
    widen = 4.0 * len(mu) * np.finfo(float).eps

    def h(t):
        return (c / (d + t)).sum(axis=0)

    d0 = d.min()
    T = np.abs(c).sum() / abs(target) - d0
    if not T > 0:
        return np.empty(0)
    edges = np.geomspace(d0, d0 + T, 33) - d0
    h_edges = h(edges)
    a, b, ha, hb = edges[:-1], edges[1:], h_edges[:-1], h_edges[1:]
    roots, folds = [], []
    while len(a):
        Fa, Fb = c / (d + a), c / (d + b)
        lo, hi = np.minimum(Fa, Fb).sum(axis=0), np.maximum(Fa, Fb).sum(axis=0)
        e_h = widen * (np.abs(Fa).sum(axis=0) + abs(target))
        Ga, Gb = Fa / (d + a), Fb / (d + b)       # h' = -sum G
        g_lo, g_hi = -np.maximum(Ga, Gb).sum(axis=0), -np.minimum(Ga, Gb).sum(axis=0)
        e_g = widen * np.abs(Ga).sum(axis=0)
        hit = (lo - e_h <= target) & (target <= hi + e_h)
        monotone = (g_lo - e_g > 0) | (g_hi + e_g < 0)
        root = hit & monotone & ((ha > target) != (hb > target))
        fold = hit & ~monotone & (hi - lo <= 2.0 * e_h)
        split = hit & ~monotone & ~fold
        roots.append(np.stack([a, b, ha])[:, root])
        folds.append(np.stack([a, b, ha, hb])[:, fold])
        a, b, ha, hb = a[split], b[split], ha[split], hb[split]
        m = 0.5 * (a + b)
        hm = h(m)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        ha, hb = np.concatenate([ha, hm]), np.concatenate([hm, hb])
    folds = np.hstack(folds)
    fa, fb, fha, fhb = folds[:, np.argsort(folds[0])]
    t_band = np.empty(0)
    if len(fa):
        # one band per run of touching fold intervals
        first = np.flatnonzero(np.r_[True, fb[:-1] != fa[1:]])
        last = np.r_[first[1:] - 1, len(fa) - 1]
        mid = 0.5 * (fa[first] + fb[last])
        peak = (c / (d + mid) ** 3).sum(axis=0) < 0      # h'' < 0: a maximum
        outside = ((fha[first] > target) == peak) & ((fhb[last] > target) == peak)
        t_band = mid[~outside]
    # the roots, bisected together to rounding
    a, b, ha = np.hstack(roots)
    above = ha > target
    while True:
        m = 0.5 * (a + b)
        if not np.any((a < m) & (m < b)):
            break
        right = (h(m) > target) == above
        a, b = np.where(right, m, a), np.where(right, b, m)
    t = np.sort(np.concatenate([0.5 * (a + b), t_band]))
    return np.sqrt(t)


def _weight_one_basis(K1: np.ndarray, M1: np.ndarray, u: int):
    """``(mu, V)`` with ``K1 V = M1 V diag(mu)``, ``V^T M1 V = I``, ``mu``
    ascending: one symmetric eigensolve of ``C = L^-1 K1 L^-T``.

    ``M1 = L L^T`` is factored on its band (half-bandwidth ``u``, the element
    order) by LAPACK's banded Cholesky ``dpbtrf``, and ``C`` and
    ``V = L^-T Q`` come from banded triangular substitutions ``dtbtrs``, so
    each solve costs O(n^2 u), not a dense O(n^3) LU.  A mass matrix that is
    not positive definite raises :class:`numpy.linalg.LinAlgError`."""
    L, info = scipy.linalg.lapack.dpbtrf(_band(M1, u)[u:], lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"mass matrix not positive definite (info {info})")
    mu, Q = np.linalg.eigh(_lower_solve(L, _lower_solve(L, K1).T))
    return mu, _lower_solve(L, Q, trans="T")


def _lower_solve(L: np.ndarray, X: np.ndarray, trans: str = "N") -> np.ndarray:
    """``L^-1 X`` (``trans="T"``: ``L^-T X``) for the lower band factor ``L``
    of :func:`_weight_one_basis`."""
    Y, info = scipy.linalg.lapack.dtbtrs(L, X, uplo="L", trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular band factor (info {info})")
    return Y


def _inverse_step(P: PencilMatrices, Lam: complex, v: np.ndarray):
    """One inverse-iteration step ``(A - Lam B) x = B v`` at the fixed shift
    ``Lam``, by a banded LU (half-bandwidth = element order); None when the
    shifted matrix is exactly singular."""
    u = P.cap.mesh.element_order
    try:
        return scipy.linalg.solve_banded(
            (u, u), _band(P.A, u) - Lam * _band(P.B, u),
            _times(P.B, np.ascontiguousarray(v)), check_finite=False)
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
    eigenvectors, and are not merged.  Line eigenvalues with
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
        v = _normalize_one(min(cl, key=lambda p: p.residual).vector, P.mass_one)
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
    return float(abs(le.gram) * _norm(P.mass_one) / _norm(P.B))


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


def _beta_error(pencil: PencilMatrices, pair: EigenPair) -> float:
    # The pencil is complex symmetric, so the left eigenvector is conj(v) and
    # to first order |dLambda| <= ||A v - Lambda B v|| ||v|| / |v^T B v|
    # (Tisseur, LAA 2000); beta = +-Re sqrt(Lambda + 1/4) + const gives
    # |dbeta| <= |dLambda| / (2 |sqrt(Lambda + 1/4)|).
    v, Lam = pair.vector, pair.Lambda
    Bv = _times(pencil.B, v)
    r = _times(pencil.A, v) - Lam * Bv
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


def conjugate_pairing_check(spec: SpectrumResult) -> float:
    """Hausdorff distance between the eigenvalue multiset and its conjugate;
    meaningful only for undamped (real) pencils."""
    if spec.pencil.delta != 0:
        raise NotApplicableDissipative("pencil carries dissipation")
    lam = spec.Lambdas
    if len(lam) == 0:
        return 0.0
    d = np.abs(lam[:, None] - np.conj(lam)[None, :])
    return float(d.min(axis=1).max())
