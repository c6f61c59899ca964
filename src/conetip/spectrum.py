"""Generalized eigensolve of the symbol pencil and the energy-line machinery.

The pencil ``A f = Lambda B f`` has complex symmetric matrices and an
indefinite weight, so the eigensolve is one dense QZ (no symmetry shortcuts)
certified by :func:`_backward_error`.  Eigenvalues map to singular exponents
through ``Lambda = lambda*(lambda+1)``; eigenvalues with real
``Lambda < -1/4`` sit on the energy line ``Re(lambda) = -1/2`` and generate
propagating (black-hole) singularities.  This module detects line
eigenvalues, computes Jordan chains when the sigma-weighted Gram of the
eigenspace degenerates, and derives radial weight exponents from the spectrum
right of the line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .cap import PencilMatrices
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
    """``M @ V`` for a C-contiguous complex block ``V``; a real ``M`` multiplies
    its real and imaginary parts as one real block, with no complex copy of M."""
    if np.iscomplexobj(M):
        return M @ V
    return (M @ V.view(float)).view(complex)


def _col_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``Re(X[:, j]^H Y[:, j])`` for every column, with no n x n temporary."""
    return np.einsum("ij,ij->j", X.real, Y.real) + np.einsum("ij,ij->j", X.imag, Y.imag)


def _normalize_one(V: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Scale each column of ``V`` (or the one vector ``V``) to unit weight-one
    norm and rotate its largest entry onto the positive real axis (its
    imaginary part, at rounding level after the rotation, is zeroed)."""
    W = np.array(V, dtype=complex, order="C").reshape(len(V), -1)
    W /= np.sqrt(_col_dot(W, _times(m1, W)))
    top = (np.argmax(np.abs(W), axis=0), np.arange(W.shape[1]))
    W *= np.conj(W[top]) / np.abs(W[top])
    W[top] = W[top].real
    return W.reshape(np.shape(V))


def _backward_error(A, B, V, Lams):
    """Backward error ``||A v - Lambda B v|| / (||A|| + |Lambda| ||B||)`` (Tisseur,
    LAA 2000) of each pair ``(Lams[j], V[:, j])``, ``V`` C-contiguous; the norms
    are the largest column 2-norms, lower bounds, so it over-estimates the error."""
    R = _times(B, V)
    R *= Lams
    R -= _times(A, V)
    norm_a, norm_b = (np.linalg.norm(M, axis=0).max() for M in (A, B))
    return np.sqrt(_col_dot(R, R)) / (norm_a + np.abs(Lams) * norm_b)


def solve_pencil(P: PencilMatrices) -> SpectrumResult:
    """Solve ``A v = Lambda B v`` by dense QZ (B is never inverted).

    Eigenvectors are normalized by :func:`_normalize_one`; a pair is kept when
    its :func:`_backward_error` is below ``RESIDUAL_TOL`` (the rest, infinite
    eigenvalues included, count in ``n_rejected``).  Pairs are sorted by real
    part, then by the sign of the imaginary part.  LAPACK returns a conjugate
    pair of a real pencil adjacently, ``Im > 0`` first, with real parts that
    may differ in the last bits, so both members are sorted by their mean.
    """
    w, V = scipy.linalg.eig(P.A, P.B)
    finite = np.isfinite(w)
    w = np.where(finite, w, 0.0)
    V = _normalize_one(V, P.mass_one)
    res = _backward_error(P.A, P.B, V, w)
    keep = finite & (res < RESIDUAL_TOL)
    re = w.real.copy()
    if np.isrealobj(P.A) and np.isrealobj(P.B):
        j = np.flatnonzero(w.imag > 0)
        re[j] = re[j + 1] = 0.5 * (re[j] + re[j + 1])
    # one array per pair: n x n blocks kept across solves fragment the heap
    pairs = tuple(EigenPair(complex(w[j]), V[:, j].copy(), float(res[j]))
                  for j in np.lexsort((np.sign(w.imag), re)) if keep[j])
    return SpectrumResult(pairs=pairs, mode=P.cap.mode if P.cap else -1,
                          pencil=P, n_rejected=int(np.count_nonzero(~keep)))


@dataclass(frozen=True)
class LineEigenvalue:
    """A (clustered) pencil eigenvalue on the energy line.

    ``eta > 0`` with ``lambda = -1/2 + i*eta`` and ``Lambda = -1/4 - eta**2``.
    ``eigenvectors`` span the discrete kernel, orthonormalized in the
    weight-one inner product; ``gram`` is the bilinear sigma-weighted Gram
    ``G[i, j] = phi_i^T B phi_j`` whose degeneracy signals Jordan chains.
    ``chains[k]`` lists the generalized vectors above ``eigenvectors[k]``
    (empty tuple when the eigenvalue is non-defective).
    """

    eta: float
    Lambda: float
    mode: int
    eigenvectors: tuple
    gram: np.ndarray
    pencil: PencilMatrices
    chains: tuple = ()
    near_quarter: bool = False
    jordan_ambiguous: bool = False

    @property
    def multiplicity(self) -> int:
        return len(self.eigenvectors)

    @property
    def lam(self) -> complex:
        return complex(-0.5, self.eta)


def _one_orthonormalize(vectors, m1):
    """Gram-Schmidt in the sesquilinear weight-one inner product."""
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        for u in out:
            v = v - (np.conj(u) @ (m1 @ v)) * u
        out.append(_normalize_one(v, m1))
    return out


def _bilinear_gram(vectors, B):
    V = np.array(vectors)
    return (V @ (B @ V.T)).T   # G[i, j] = v_j^T B v_i


def classify_eigenvalue(Lambda: complex, tol: float = LINE_TOL) -> str:
    """``"line"`` for an eigenvalue on the energy line (on the real axis,
    ``|Im Lambda| <= tol * max(1, |Re Lambda|)``, with ``Re Lambda < -1/4``),
    ``"real"`` for the rest of the real axis, else ``"complex"``."""
    if abs(Lambda.imag) > tol * max(1.0, abs(Lambda.real)):
        return "complex"
    return "line" if Lambda.real < -0.25 else "real"


def line_eigenvalues(spec: SpectrumResult, tol: float = LINE_TOL) -> list:
    """Extract eigenvalues on the energy line.

    An eigenvalue qualifies when :func:`classify_eigenvalue` calls it
    ``"line"``.  Eigenvalues closer than ``tol`` (relative) form one cluster
    whose size is its geometric multiplicity.  Clusters with ``eta < ETA_MIN``
    are flagged ``near_quarter`` (the double root ``lambda = -1/2`` is
    special-cased out of basis construction downstream).
    """
    cands = [p for p in spec.pairs if classify_eigenvalue(p.Lambda, tol) == "line"]
    cands.sort(key=lambda p: p.Lambda.real)
    clusters = []
    for p in cands:
        if clusters and abs(p.Lambda.real - clusters[-1][-1].Lambda.real) \
                <= tol * max(1.0, abs(p.Lambda.real)):
            clusters[-1].append(p)
        else:
            clusters.append([p])
    out = []
    m1 = spec.pencil.mass_one
    for cl in clusters:
        lam_mean = float(np.mean([p.Lambda.real for p in cl]))
        eta = float(np.sqrt(max(-lam_mean - 0.25, 0.0)))
        vecs = _one_orthonormalize([p.vector for p in cl], m1)
        G = _bilinear_gram(vecs, spec.pencil.B)
        out.append(LineEigenvalue(
            eta=eta, Lambda=lam_mean, mode=spec.mode,
            eigenvectors=tuple(vecs), gram=G, pencil=spec.pencil,
            chains=tuple(() for _ in vecs), near_quarter=eta < ETA_MIN))
    out.sort(key=lambda le: le.eta)
    return out


def _gram_scale(le: LineEigenvalue, svals: np.ndarray) -> float:
    # natural magnitude of sigma-grams of weight-one-normalized vectors;
    # keeps the threshold meaningful for geometric multiplicity one
    P = le.pencil
    floor = np.linalg.norm(P.B, 2) / np.linalg.norm(P.mass_one, 2)
    return float(max(svals[0] if len(svals) else 0.0, floor))


def jordan_indicator(le: LineEigenvalue) -> float:
    """Smallest singular value of the sigma-Gram over its scale; values below
    the Jordan threshold signal generalized eigenvectors."""
    svals = np.linalg.svd(le.gram, compute_uv=False)
    return float(svals[-1] / _gram_scale(le, svals))


def jordan_chains(P: PencilMatrices, le: LineEigenvalue) -> LineEigenvalue:
    """Populate Jordan chains of a line eigenvalue.

    The chain equation above a root ``phi_0`` is
    ``(A - Lambda B) phi_1 = 2i eta B phi_0`` (and
    ``(A - Lambda B) phi_{k+1} = 2i eta B phi_k + B phi_{k-1}`` further up),
    solvable exactly when the sigma-Gram of the eigenspace is singular.  Roots
    are the Gram's directions below ``JORDAN_THRESHOLD``; a chain grows to
    ``JORDAN_MAX_CHAIN`` vectors while its residual is below ``RESIDUAL_TOL``.
    """
    if le.pencil is not P:
        raise DimensionMismatch("line eigenvalue does not belong to this pencil")
    U, svals, Vh = np.linalg.svd(le.gram)
    scale = _gram_scale(le, svals)
    ambiguous = JORDAN_THRESHOLD / 10 < svals[-1] / scale < JORDAN_THRESHOLD * 10
    if svals[-1] >= JORDAN_THRESHOLD * scale:
        return replace(le, chains=tuple(() for _ in le.eigenvectors),
                       jordan_ambiguous=ambiguous)

    M = P.A - le.Lambda * P.B
    two_i_eta = 2j * le.eta
    basis = np.array(le.eigenvectors).T
    new_vectors, new_chains = [], []
    null_mask = svals < JORDAN_THRESHOLD * scale
    # defective roots first (null directions of the Gram), then the rest
    order = list(np.where(null_mask)[0]) + list(np.where(~null_mask)[0])
    for j in order:
        w = Vh[j].conj()
        phi0 = basis @ w
        new_vectors.append(phi0)
        if not null_mask[j]:
            new_chains.append(())
            continue
        chain = []
        prev2, prev1 = None, phi0
        while len(chain) < JORDAN_MAX_CHAIN - 1:
            rhs = two_i_eta * (P.B @ prev1)
            if prev2 is not None:
                rhs = rhs + P.B @ prev2
            x, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            res = np.linalg.norm(M @ x - rhs) / np.linalg.norm(P.B @ prev1)
            if res > RESIDUAL_TOL:
                break
            chain.append(x)
            prev2, prev1 = prev1, x
        new_chains.append(tuple(chain))
    return replace(le, eigenvectors=tuple(new_vectors), chains=tuple(new_chains),
                   jordan_ambiguous=ambiguous)


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
    Bv = pencil.B @ v
    d_Lambda = np.linalg.norm(pencil.A @ v - Lam * Bv) * np.linalg.norm(v) / abs(v @ Bv)
    return float(d_Lambda / (2.0 * abs(np.sqrt(Lam + 0.25))))


def spectral_weights(specs, bc_kind: str) -> SpectralWeights:
    """Weight exponent from a collection of per-mode spectra.

    Both exponent roots of every eigenvalue are considered; eigenvalues within
    ``LINE_TOL`` of the line are excluded so the weight measures off-line
    spectrum only.  The selected eigenpair's error bound is reported as
    ``beta_err``.  For ``"neumann"`` a ``beta`` within ``beta_err`` of 5/2 is
    reported as exactly 5/2 (keeping its eigenvalue and bound), and one
    certifiably above 5/2 as the bare cap, so the cap decision does not rest
    on the sign of rounding noise.
    """
    if bc_kind not in ("dirichlet", "neumann"):
        raise DimensionMismatch(f"unknown bc kind {bc_kind!r}")
    best, best_lam, best_at = np.inf, None, None
    n_total = 0
    for spec in specs:
        for p, roots in zip(spec.pairs, spec.lambda_view):
            for lam in roots:
                n_total += 1
                d = lam.real + 0.5
                if d > LINE_TOL and d < best:
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
