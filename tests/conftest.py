import numpy as np
import pytest
import scipy.linalg

import conetip as ct
from conetip.spectrum import (RESIDUAL_TOL, _backward_error, _certified_roots, _left_ray,
                              _normalize_one, _secular_terms)


@pytest.fixture(scope="session")
def quarter_tip():
    return ct.CapGeometry("internal", np.pi / 4)


@pytest.fixture(scope="session")
def critical_material():
    return ct.MaterialSpec.from_contrast(-0.5)


@pytest.fixture(scope="session")
def positive_material():
    return ct.MaterialSpec.from_contrast(1.0)


@pytest.fixture(scope="session")
def critical_pencil(quarter_tip, critical_material):
    return ct.assemble_pencil(ct.build_cap(quarter_tip, critical_material, 0, 64, 2))


@pytest.fixture(scope="session")
def critical_spectrum(critical_pencil):
    return ct.solve_pencil(critical_pencil)


@pytest.fixture(scope="session")
def line_evs(quarter_tip, critical_material):
    evs = []
    for mode in range(5):
        spec = ct.solve_pencil(ct.pencil_for(quarter_tip, critical_material, mode, 64, 2))
        evs.extend(ct.line_eigenvalues(spec))
    return evs


@pytest.fixture(scope="session")
def multi_eta_evs(quarter_tip):
    """kappa = -0.85 carries two line eigenvalues in mode 1 and one in mode 0."""
    mat = ct.MaterialSpec.from_contrast(-0.85)
    evs = []
    for mode in range(3):
        spec = ct.solve_pencil(ct.pencil_for(quarter_tip, mat, mode, 96, 2))
        evs.extend(ct.line_eigenvalues(spec))
    return evs


@pytest.fixture(scope="session")
def singular_space_small(line_evs):
    return ct.singular_space(line_evs, rho=1.0)


@pytest.fixture(scope="session")
def flux_small(singular_space_small):
    return ct.flux_matrix(singular_space_small)


@pytest.fixture(scope="session")
def basis_small(flux_small):
    return ct.mandelstam_basis(flux_small)


@pytest.fixture(scope="session")
def space_multi(multi_eta_evs):
    return ct.singular_space(multi_eta_evs, rho=1.0)


@pytest.fixture(scope="session")
def flux_multi(space_multi):
    return ct.flux_matrix(space_multi)


@pytest.fixture(scope="session")
def basis_multi(flux_multi):
    return ct.mandelstam_basis(flux_multi)


def qz_spectrum(P):
    """Dense-QZ spectrum of any pencil, a hand-built one (``cap=None``)
    included: the oracle the weight-one solve of ``solve_pencil`` is held
    against.  Same normalization, ``RESIDUAL_TOL`` cut and pair order as
    ``solve_pencil``; infinite eigenvalues count as rejected."""
    w, V = scipy.linalg.eig(P.A, P.B)
    finite = np.isfinite(w)
    w = np.where(finite, w, 0.0)
    V = _normalize_one(V, P.bands.mass_one)
    res = _backward_error(P, V, w)
    keep = finite & (res < RESIDUAL_TOL)
    re = w.real.copy()
    if np.isrealobj(P.A) and np.isrealobj(P.B):
        j = np.flatnonzero(w.imag > 0)
        re[j] = re[j + 1] = 0.5 * (re[j] + re[j + 1])
    pairs = tuple(ct.EigenPair(complex(w[j]), V[:, j].copy(), float(res[j]))
                  for j in np.lexsort((np.sign(w.imag), re)) if keep[j])
    return ct.SpectrumResult(pairs=pairs, mode=-1 if P.cap is None else P.cap.mode,
                             pencil=P, n_rejected=int(np.count_nonzero(~keep)))


def full_spectrum_witnesses(geometry, kappa, modes, elements=64, order=2):
    """``(mode, eta)`` of every line eigenvalue of the full spectrum, by
    ``line_eigenvalues(solve_pencil(P))`` per mode: an oracle of the line
    census behind ``has_blackhole``, which builds no pencil and solves no
    spectrum.  A fold band, which the census counts once, is a conjugate
    pair here, two line eigenvalues within ``LINE_TOL`` of the axis and none
    beyond it."""
    mat = ct.MaterialSpec.from_contrast(kappa)
    return [(m, le.eta) for m in modes for le in ct.line_eigenvalues(
        ct.solve_pencil(ct.pencil_for(geometry, mat, m, elements, order)))]


def _line_census(P):
    """Ascending ``eta`` of the energy-line eigenvalues of an undamped cap
    pencil, from its weight-one secular function alone: the other oracle of
    ``has_blackhole``'s census, on the pencil and its weight-one eigenbasis.

    They are the real roots ``Lambda = -1/4 - eta^2`` below ``-1/4`` of the
    secular function of ``spectrum._secular_roots``, found as
    ``spectrum._real_roots`` finds them on the left ray, with the ray cut at
    ``-1/4``: the weight-one eigenvalues are ``mu_i >= 0``, so no pole lies
    on the line, and each fold band, where two roots meet within rounding,
    counts as one ``eta``.  At ``kappa = 1`` (``w = 0``) there is no root."""
    S = _secular_terms(P)
    c = S.u * S.w
    live = c != 0
    mu, c, target = S.mu[live], c[live], -1.0 / S.gamma
    if not len(mu):
        return np.empty(0)
    a, b = _left_ray(mu[0], np.abs(c).sum() / abs(target), -0.25)
    roots, bands = _certified_roots(-c, -mu, target, a, b,
                                    np.full(len(a), -np.inf), np.full(len(a), mu[0]))
    return np.sqrt(np.sort(-0.25 - np.concatenate([roots, bands])))


def secular_witnesses(geometry, kappa, modes, elements=64, order=2):
    """``(mode, eta)`` of :func:`_line_census` per mode."""
    mat = ct.MaterialSpec.from_contrast(kappa)
    return [(m, float(eta)) for m in modes for eta in _line_census(
        ct.pencil_for(geometry, mat, m, elements, order))]


def bisect_fold(curve, a, b, g_a=None, g_b=None):
    """The fold search of ``interval._fold`` by bisection alone: the oracle
    that its interpolating search is held against.  ``curve(eta) = (y, g)``,
    ``g`` negative at ``a`` and nonnegative at ``b`` (the values ``g_a`` and
    ``g_b`` are not read); the bracket is halved on the sign of ``g`` until
    it is within ``sqrt(eps)`` of its right end, and the largest ``y`` met is
    returned."""
    top = -np.inf
    while b - a > np.sqrt(np.finfo(float).eps) * b:
        x = 0.5 * (a + b)
        y, g = curve(x)
        top = max(top, y)
        if g < 0:
            a = x
        else:
            b = x
    return top


def defective_pencil(eta=1.0):
    """Exactly defective 2x2 symbol pencil: eigenvalue on the line with a
    sigma-self-orthogonal eigenvector and a Jordan chain of length 2."""
    Lam = -0.25 - eta * eta
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = Lam * B + np.array([[0.0, 0.0], [0.0, 1.0]])
    one = np.eye(2)
    return ct.PencilMatrices(A=A, B=B, stiffness_one=one.copy(),
                             mass_one=one.copy(), cap=None, delta=0.0)


def defective_line_eigenvalue(eta=1.0):
    """The defective pencil with its exact eigenvector, built by hand so the
    chain and flux tests do not rest on an eigensolver (``line_eigenvalues``
    finds the same line eigenvalue from :func:`qz_spectrum`; the pencil has
    no cap, so ``solve_pencil`` refuses it)."""
    P = defective_pencil(eta)
    phi = np.array([1.0 + 0j, 0.0])
    le = ct.LineEigenvalue(eta=eta, Lambda=-0.25 - eta * eta, mode=0,
                           vector=phi, gram=complex(phi @ (P.B @ phi)),
                           pencil=P)
    return P, le
