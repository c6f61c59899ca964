import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import conetip as ct
from conetip import spectrum
from conetip.errors import DimensionMismatch
from conetip.spectrum import LINE_TOL, RESIDUAL_TOL, _normalize_one, classify_eigenvalue

from conftest import defective_line_eigenvalue, defective_pencil, qz_spectrum


def legendre_Lambdas(l_max):
    return np.array([l * (l + 1) for l in range(l_max + 1)], dtype=float)


def test_positive_coefficient_legendre_m0(quarter_tip, positive_material):
    spec = ct.solve_pencil(ct.pencil_for(quarter_tip, positive_material, 0, 128, 2))
    lams = np.sort(spec.Lambdas.real)[:5]
    expected = legendre_Lambdas(4)
    rel = np.abs(lams - expected) / np.maximum(1.0, expected)
    assert rel.max() < 1e-4


def test_positive_coefficient_legendre_m1(quarter_tip, positive_material):
    spec = ct.solve_pencil(ct.pencil_for(quarter_tip, positive_material, 1, 128, 2))
    lams = np.sort(spec.Lambdas.real)[:3]
    assert_allclose(lams, [2.0, 6.0, 12.0], rtol=1e-4)


def test_residuals_certified(critical_spectrum):
    assert all(p.residual < 1e-8 for p in critical_spectrum.pairs)


_RIM_GEOMETRIES = [ct.CapGeometry("internal", np.pi / 4)] + [
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4, outer_bc=bc)
    for bc in ("dirichlet", "neumann")]


def _per_vector_reference(P):
    # the former solve: one eigenvector at a time, residual over the SVD
    # 2-norms of A and B; returns the certified (Lambda, vector, residual)
    # triples in QZ order and the rejected count
    A, B = np.asarray(P.A), np.asarray(P.B)
    w, vr = scipy.linalg.eig(A, B)
    norm_a, norm_b = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    pairs, n_rejected = [], 0
    for lam, v in zip(w, vr.T):
        if not np.isfinite(lam):
            n_rejected += 1
            continue
        v = _normalize_one(v, P.mass_one)
        res = np.linalg.norm(A @ v - lam * (B @ v)) / (norm_a + abs(lam) * norm_b)
        if res < RESIDUAL_TOL:
            pairs.append((complex(lam), v, float(res)))
        else:
            n_rejected += 1
    return pairs, n_rejected


def test_solve_matches_per_vector_reference(critical_material):
    by_Lambda = lambda t: (t[0].real, t[0].imag)
    for g, order, mode, delta in itertools.product(
            _RIM_GEOMETRIES, (1, 2), (0, 1, 2), (0.0, 1e-3)):
        cap = ct.build_cap(g, critical_material, mode, 24, order)
        P = ct.assemble_dissipative_pencil(cap, delta) if delta else ct.assemble_pencil(cap)
        # the QZ oracle of the weight-one solve (see
        # test_weight_one_solve_matches_qz) against the per-vector reference
        spec = qz_spectrum(P)
        ref, n_rejected = _per_vector_reference(P)
        assert spec.n_rejected == n_rejected
        new = [(p.Lambda, p.vector, p.residual) for p in spec.pairs]
        assert len(new) == len(ref)
        for (Lam, v, res), (Lam_ref, v_ref, res_ref) in zip(
                sorted(new, key=by_Lambda), sorted(ref, key=by_Lambda)):
            assert Lam == Lam_ref
            assert np.abs(v - v_ref).max() < 1e-13
            # column-norm bounds never exceed the 2-norms: never looser
            assert res >= res_ref


_ORACLE_GEOMETRIES = [
    ct.CapGeometry("internal", np.pi / 4), ct.CapGeometry("internal", 1.1),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc="dirichlet"),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4, outer_bc="neumann")]


def _assert_matches_qz(P):
    # the weight-one solve against the QZ oracle on the same matrices: same
    # kept and rejected counts, eigenvalues in the same order, residuals at
    # QZ's level, and each vector inside the span of QZ's vectors of its
    # eigenvalue (a span: on a mirror-symmetric mesh one eigenvalue can be
    # double, and any basis of its eigenspace is then right)
    spec, qz = ct.solve_pencil(P), qz_spectrum(P)
    assert (len(spec.pairs), spec.n_rejected) == (len(qz.pairs), qz.n_rejected)
    Lams, Lams_qz = spec.Lambdas, qz.Lambdas
    scale = np.maximum(1.0, np.abs(Lams_qz))
    assert np.all(np.abs(Lams - Lams_qz) <= 1e-9 * scale)
    assert max(p.residual for p in spec.pairs) <= 1e-9
    Q = np.array([p.vector for p in qz.pairs]).T
    for p in spec.pairs:
        S = Q[:, np.abs(Lams_qz - p.Lambda) <= 1e-9 * max(1.0, abs(p.Lambda))]
        G, b = S.conj().T @ P.mass_one @ S, S.conj().T @ (P.mass_one @ p.vector)
        assert np.sqrt(abs(np.conj(b) @ np.linalg.solve(G, b))) >= 1 - 1e-8


@pytest.mark.parametrize("geometry", _ORACLE_GEOMETRIES)
def test_weight_one_solve_matches_qz(geometry):
    for kappa, mode, elements, delta in itertools.product(
            (1.0, 0.5, -0.3, -0.5, -0.85, -0.97), (0, 1, 2, 4), (24, 64), (0.0, 1e-3)):
        cap = ct.build_cap(geometry, ct.MaterialSpec.from_contrast(kappa), mode,
                           elements, 2)
        _assert_matches_qz(ct.assemble_dissipative_pencil(cap, delta) if delta
                           else ct.assemble_pencil(cap))


def test_weight_one_solve_decoupled_pole():
    # the eigenvector at Lambda ~ 722261 barely reaches the interface
    # (u_i ~ 1e-15): its plain Cauchy vector u / (mu - Lambda) has a residual
    # of 1.7, so its pole entry must come from the secular equation
    P = ct.pencil_for(ct.CapGeometry("internal", 1.1),
                      ct.MaterialSpec.from_contrast(-0.3), 4, 256, 2)
    _assert_matches_qz(P)


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 2.0, 3.0, 10.0, -0.3, -0.5, -0.97, -3.0])
def test_near_equal_poles_deflate(kappa):
    # mode 4, N = 32 on the quarter tip: two weight-one eigenvalues are
    # adjacent doubles (11342.885061053668); until they were deflated the
    # solve raised for kappa > 0 and left out one pair for kappa < 0
    P = ct.pencil_for(ct.CapGeometry("internal", np.pi / 4),
                      ct.MaterialSpec.from_contrast(kappa), 4, 32, 2)
    S = spectrum._secular_terms(P)
    i = int(np.argmin(np.diff(S.mu)))
    assert S.mu[i + 1] - S.mu[i] <= np.spacing(S.mu[i])
    assert 0.0 in (S.u[i], S.u[i + 1])
    K1, M1 = P.stiffness_one, P.mass_one
    assert np.abs(S.V.T @ M1 @ S.V - np.eye(P.n)).max() <= 1e-12
    assert np.linalg.norm(K1 @ S.V - M1 @ S.V * S.mu) <= 1e-12 * np.linalg.norm(K1)
    spec = ct.solve_pencil(P)
    assert (len(spec.pairs), spec.n_rejected) == (P.n, 0)
    assert max(p.residual for p in spec.pairs) < 1e-12
    qz = qz_spectrum(P).Lambdas
    assert len(qz) == P.n
    for L in (spec.Lambdas, qz):
        other = qz if L is spec.Lambdas else spec.Lambdas
        assert np.abs(L[:, None] - other).min(axis=1).max() <= 1e-9 * np.abs(qz).max()


def test_close_poles_certified_in_coefficient_space():
    # mode 3, N = 64, kappa = -0.945: two weight-one eigenvalues 11 ulps
    # apart (31061.22085534) left one pair with a certificate of 1.1e-8 and a
    # formed backward error of 1.3e-9; deflated, every certificate is below
    # 1e-12, so no vector is formed to check it
    P = ct.pencil_for(ct.CapGeometry("internal", np.pi / 4),
                      ct.MaterialSpec.from_contrast(-0.945), 3, 64, 2)
    S = spectrum._secular_terms(P)
    assert spectrum._certificates(P, S, spectrum._weight_one_solve(S)).max() < 1e-12


def _assert_basis_contract(P):
    # K1 V = M1 V diag(mu) and V^T M1 V = I from the band factor, mu ascending
    # and equal to the dense symmetric-definite eigenvalues (errors measured
    # against the largest mu: a Neumann rim has mu_0 ~ 1e-13); at kappa = 1
    # the pencil is the weight-one pencil, and solve_pencil returns the basis
    K1, M1 = P.stiffness_one, P.mass_one
    mu, V = spectrum._weight_one_basis(K1, M1, P.cap.mesh.element_order)
    assert np.linalg.norm(K1 @ V - M1 @ V * mu) <= 1e-12 * np.linalg.norm(K1)
    assert np.abs(V.T @ M1 @ V - np.eye(len(mu))).max() <= 1e-12
    assert np.all(np.diff(mu) >= 0)
    ref = scipy.linalg.eigh(K1, M1, eigvals_only=True)
    assert np.abs(mu - ref).max() <= 1e-12 * np.abs(ref).max()
    spec = ct.solve_pencil(P)
    assert spec.n_rejected == 0
    assert np.array_equal(spec.Lambdas, mu)
    W = _normalize_one(V, M1)
    assert all(np.array_equal(p.vector, W[:, j]) for j, p in enumerate(spec.pairs))


@pytest.mark.parametrize("geometry", _RIM_GEOMETRIES)
def test_weight_one_basis_contract(geometry, positive_material):
    for order, mode in itertools.product((1, 2), (0, 1, 2)):
        _assert_basis_contract(ct.pencil_for(geometry, positive_material, mode, 24, order))


def test_weight_one_basis_contract_fine(quarter_tip, positive_material):
    _assert_basis_contract(ct.pencil_for(quarter_tip, positive_material, 1, 256, 2))


def test_weight_one_basis_needs_a_definite_mass(quarter_tip, positive_material):
    P = ct.pencil_for(quarter_tip, positive_material, 1, 24, 2)
    M1 = P.mass_one.copy()
    M1[5, 5] = -M1[5, 5]
    for mass in (M1, -P.mass_one):
        with pytest.raises(np.linalg.LinAlgError):
            spectrum._weight_one_basis(P.stiffness_one, mass, 2)


def test_solve_pencil_refuses_a_pencil_without_cap():
    # the weight-one solve needs the cap's interface dof: a hand-built pencil
    # goes to the QZ oracle of the tests, never to the library
    with pytest.raises(DimensionMismatch):
        ct.solve_pencil(defective_pencil())


def test_failed_pair_is_repaired(monkeypatch, quarter_tip, critical_material):
    # a pair whose vector misses the residual cut gets one inverse-iteration
    # step at its eigenvalue and is kept, not rejected
    P = ct.pencil_for(quarter_tip, critical_material, 1, 32, 2)
    good = ct.solve_pencil(P)
    Lam = spectrum._weight_one_solve(spectrum._secular_terms(P))[3]
    cauchy, inverse_step, steps = spectrum._cauchy, spectrum._inverse_step, []

    def damaged(S, Lams):
        # the fourth eigenvalue's Cauchy vector, in the certificates' block
        # and in the one column that forms its vector
        Y = cauchy(S, Lams)
        j = Lams == Lam
        Y[:, j] += 1e-4 * np.linalg.norm(Y[:, j], axis=0)
        return Y

    def counted(P, Lam, v):
        steps.append(Lam)
        return inverse_step(P, Lam, v)

    monkeypatch.setattr(spectrum, "_cauchy", damaged)
    monkeypatch.setattr(spectrum, "_inverse_step", counted)
    spec = ct.solve_pencil(P)
    assert spec.n_rejected == 0
    assert np.array_equal(spec.Lambdas, good.Lambdas)
    assert max(p.residual for p in spec.pairs) < 1e-12
    assert steps == [Lam]


def test_vector_does_not_depend_on_the_check(monkeypatch, quarter_tip, critical_material):
    # a pair whose certificate misses the cut is formed by the same rule as
    # every vector read later, so its vector does not depend on which check
    # certified it: with the certificates' block damaged for one eigenvalue,
    # that pair passes the check of its formed vector, and every vector
    # keeps the bits of the undamaged solve
    P = ct.pencil_for(quarter_tip, critical_material, 1, 32, 2)
    good = ct.solve_pencil(P)
    Lam = spectrum._weight_one_solve(spectrum._secular_terms(P))[3]
    cauchy = spectrum._cauchy

    def damaged(S, Lams):
        Y = cauchy(S, Lams)
        if len(Lams) > 1:      # the block, not the one column of a formed vector
            j = Lams == Lam
            Y[:, j] += 1e-4 * np.linalg.norm(Y[:, j], axis=0)
        return Y

    monkeypatch.setattr(spectrum, "_cauchy", damaged)
    spec = ct.solve_pencil(P)
    assert spec.n_rejected == 0
    assert np.array_equal(spec.Lambdas, good.Lambdas)
    pair = spec.pairs[int(np.flatnonzero(spec.Lambdas == Lam)[0])]
    formed = spectrum._backward_error(P.A, P.B, pair.vector[:, None], pair.Lambda)[0]
    assert pair.residual == formed < 1e-12
    assert all(np.array_equal(p.vector, q.vector) for p, q in zip(spec.pairs, good.pairs))


def _ulp_perturbed(P, rng):
    # A and B with every nonzero entry moved by one ulp up or down,
    # symmetrically
    def bump(M):
        S = np.triu(rng.choice([-1.0, 1.0], size=M.shape))
        return M + (S + np.triu(S, 1).T) * np.spacing(np.abs(M)) * (M != 0)
    return dataclasses.replace(P, A=bump(P.A), B=bump(P.B))


def test_conjugate_pair_order_ignores_rounding_noise(quarter_tip, critical_material):
    # QZ gives the members of a conjugate pair real parts that differ in the
    # last bits; sorting on those bits flips pairs under every perturbation
    # below.  The row order must be that of the unperturbed pencil.
    rng = np.random.default_rng(0)
    for mode in range(3):
        P = ct.pencil_for(quarter_tip, critical_material, mode, 64, 2)
        Lams = ct.solve_pencil(P).Lambdas
        if mode == 2:
            j = int(np.argmin(np.abs(Lams - complex(3404.70, -92.88))))
            assert_allclose(Lams[j:j + 2], [3404.70 - 92.88j, 3404.70 + 92.88j], rtol=1e-6)
        for _ in range(4):
            perturbed = ct.solve_pencil(_ulp_perturbed(P, rng)).Lambdas
            assert np.array_equal(np.sign(perturbed.imag), np.sign(Lams.imag))
            assert np.abs(perturbed - Lams).max() < 1e-12 * np.abs(Lams).max()


def test_lambda_map_special_points():
    assert ct.lambda_from_Lambda(0.0) == (0.0, -1.0)
    lp, lm = ct.lambda_from_Lambda(-0.25)
    assert lp == lm == -0.5
    lp, lm = ct.lambda_from_Lambda(-0.25 - 4.0)
    assert_allclose([lp, lm], [complex(-0.5, 2.0), complex(-0.5, -2.0)], atol=1e-15)


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_lambda_map_involution(Lam):
    lp, lm = ct.lambda_from_Lambda(Lam)
    assert abs(lp + lm + 1.0) <= 1e-12
    scale = max(1.0, abs(Lam))
    assert abs(lp * (lp + 1) - Lam) < 1e-13 * scale
    assert abs(lm * (lm + 1) - Lam) < 1e-13 * scale


def _assert_conjugate_pair_layout(L):
    # an undamped spectrum equals its conjugate value for value: real
    # eigenvalues are exactly real, and each complex one is listed next to its
    # exact conjugate, Im < 0 first
    assert np.array_equal(np.sort_complex(L), np.sort_complex(np.conj(L)))
    j = np.flatnonzero(L.imag < 0)
    assert np.array_equal(L[j + 1], np.conj(L[j]))
    assert np.count_nonzero(L.imag > 0) == len(j)


def test_conjugate_pairing(critical_spectrum):
    _assert_conjugate_pair_layout(critical_spectrum.Lambdas)
    assert np.count_nonzero(critical_spectrum.Lambdas.imag < 0) > 0


def test_conjugate_pairing_positive(quarter_tip, positive_material):
    # at kappa = 1 every eigenvalue is real
    positive = ct.solve_pencil(ct.pencil_for(quarter_tip, positive_material, 0, 32, 2))
    assert np.all(positive.Lambdas.imag == 0)
    _assert_conjugate_pair_layout(positive.Lambdas)


def test_conjugate_pairing_rejects_dissipative(quarter_tip, critical_material):
    # dissipation breaks the symmetry: a damped spectrum is no conjugate set
    cap = ct.build_cap(quarter_tip, critical_material, 0, 24, 2)
    L = ct.solve_pencil(ct.assemble_dissipative_pencil(cap, 1e-3)).Lambdas
    assert np.abs(L[:, None] - np.conj(L)[None, :]).min(axis=1).max() > 1e-8


def test_line_detection(quarter_tip, line_evs):
    assert len(line_evs) >= 1
    for le in line_evs:
        assert le.eta > 0 and le.Lambda < -0.25
        assert_allclose(le.Lambda, -0.25 - le.eta ** 2, rtol=1e-12)
    # positive coefficient: empty
    for mode in range(3):
        spec = ct.solve_pencil(ct.pencil_for(
            quarter_tip, ct.MaterialSpec.from_contrast(1.0), mode, 48, 2))
        assert ct.line_eigenvalues(spec) == []
    # contrast outside the critical interval: empty
    for mode in range(5):
        spec = ct.solve_pencil(ct.pencil_for(
            quarter_tip, ct.MaterialSpec.from_contrast(-0.1), mode, 64, 2))
        assert ct.line_eigenvalues(spec) == []


def test_line_detection_completeness(critical_spectrum):
    tol = LINE_TOL
    evs = ct.line_eigenvalues(critical_spectrum)
    for p in critical_spectrum.pairs:
        L = p.Lambda
        if abs(L.imag) < tol * max(1.0, abs(L.real)) and L.real < -0.25 - tol:
            hits = [le for le in evs
                    if abs(le.Lambda - L.real) <= tol * max(1.0, abs(L.real))]
            assert len(hits) == 1


def test_eigenvector_normalization(critical_spectrum):
    m1 = critical_spectrum.pencil.mass_one
    for p in critical_spectrum.pairs[:10]:
        v = p.vector
        assert_allclose(np.real(np.conj(v) @ (m1 @ v)), 1.0, rtol=1e-10)
        k = int(np.argmax(np.abs(v)))
        assert v[k].imag == 0.0 and v[k].real > 0


def test_generic_contrast_has_no_chains(line_evs):
    for le in line_evs:
        out = ct.jordan_chains(le.pencil, le)
        assert out.chain == ()
        # the chain criterion integral is nonzero
        assert ct.jordan_indicator(le) > 1e-6


def test_synthetic_defective_chain():
    eta = 1.0
    P, le = defective_line_eigenvalue(eta)
    assert ct.jordan_indicator(le) < 1e-12
    out = ct.jordan_chains(P, le)
    assert len(out.chain) == 1  # chain of length exactly 2
    phi0 = out.vector
    phi1 = out.chain[0]
    res = np.linalg.norm((P.A - le.Lambda * P.B) @ phi1 - 2j * eta * (P.B @ phi0))
    assert res / np.linalg.norm(P.B @ phi0) < 1e-8


def test_solved_defective_pencil_has_one_eigenvector_and_a_chain():
    # QZ returns the Jordan pair as two eigenvalues with nearly parallel
    # vectors: they are one line eigenvalue, one kernel vector and a chain
    eta = 1.0
    P = defective_pencil(eta)
    (le,) = ct.line_eigenvalues(qz_spectrum(P))
    assert le.multiplicity == 1
    M = P.A - le.Lambda * P.B
    phi0 = le.vector
    assert np.linalg.norm(M @ phi0) < 1e-12
    out = ct.jordan_chains(P, le)
    assert len(out.chain) == 1
    phi1 = out.chain[0]
    assert np.linalg.norm(M @ phi1 - 2j * eta * (P.B @ phi0)) < 1e-12
    space = ct.singular_space([out], rho=1.0)
    assert space.dim == 4
    evals = np.linalg.eigvalsh(ct.flux_matrix(space).hermitian_part)
    assert np.sum(evals > 0) == 2 == np.sum(evals < 0)


@pytest.mark.parametrize("geometry", [
    ct.CapGeometry("internal", np.pi / 4),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4,
                   outer_bc="dirichlet"),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4,
                   outer_bc="neumann"),
], ids=["internal", "dirichlet", "neumann"])
def test_line_eigenvalues_are_geometrically_simple(geometry):
    # both region blocks are definite below the line, so the kernel of
    # A - Lambda B is one-dimensional: the second-smallest singular value
    # stays well away from zero (>= 2e-4 of the largest here)
    count = 0
    for kappa, order, mode in itertools.product((-0.3, -0.5, -0.78, -0.95),
                                                (1, 2), (0, 1, 2)):
        P = ct.pencil_for(geometry, ct.MaterialSpec.from_contrast(kappa),
                          mode, 32, order)
        for le in ct.line_eigenvalues(ct.solve_pencil(P)):
            s = np.linalg.svd(P.A - le.Lambda * P.B, compute_uv=False)
            assert s[-2] / s[0] > 1e-6
            count += 1
    assert count >= 8


def test_line_eigenvalue_arrays_are_read_only():
    # the vector and chain a record holds cannot be changed behind it
    P, le = defective_line_eigenvalue()
    out = ct.jordan_chains(P, le)
    (solved,) = ct.line_eigenvalues(qz_spectrum(P))
    assert len(out.chain) == 1 and solved.multiplicity == 1
    for v in (le.vector, out.vector, *out.chain, solved.vector):
        with pytest.raises(ValueError):
            v[0] = 0.0


def test_jordan_contrast_bisection(quarter_tip):
    # mode 1 loses a pair of line eigenvalues through a collision between
    # kappa = -0.79 and -0.78; at the collision the sigma-Gram degenerates.
    def les_at(kappa):
        P = ct.pencil_for(quarter_tip, ct.MaterialSpec.from_contrast(kappa), 1, 96, 2)
        return ct.line_eigenvalues(ct.solve_pencil(P))

    lo, hi = -0.79, -0.78
    assert len(les_at(lo)) == 2 and len(les_at(hi)) == 0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if les_at(mid):
            lo = mid
        else:
            hi = mid
    evs = les_at(lo)
    assert evs
    # the colliding eigenvalues are nearly degenerate and nearly defective
    etas = sorted(le.eta for le in evs)
    assert etas[-1] - etas[0] < 1e-4
    indicator = min(ct.jordan_indicator(le) for le in evs)
    assert indicator < 1e-5


def test_weights_positive_coefficient(quarter_tip, positive_material):
    specs = [ct.solve_pencil(ct.pencil_for(quarter_tip, positive_material, m, 64, 2))
             for m in range(3)]
    wd = ct.spectral_weights(specs, "dirichlet")
    wn = ct.spectral_weights(specs, "neumann")
    assert_allclose(wd.beta, 0.5, atol=1e-3)
    assert_allclose(wn.beta, 0.5, atol=1e-3)
    star, record = ct.weight_star(wd, wn)
    assert star == 0.5 and record["cap"] == 0.5


def test_weights_hemisphere(positive_material):
    for bc, expected in (("dirichlet", 1.5), ("neumann", 0.5)):
        g = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc=bc)
        specs = [ct.solve_pencil(ct.pencil_for(g, positive_material, m, 64, 2))
                 for m in range(3)]
        assert_allclose(ct.spectral_weights(specs, bc).beta, expected, atol=1e-3)


def test_weights_empty_spectrum_error():
    with pytest.raises(Exception):
        ct.spectral_weights([], "dirichlet")


@pytest.mark.parametrize("offset", [-1e-13, 1e-13])
def test_weight_star_cap_within_bound(offset):
    # a beta within its certified bound of 1/2 is the cap, whichever sign the
    # rounding noise that moved it off the cap has
    near = ct.SpectralWeights(0.5 + offset, "dirichlet", None, beta_err=1e-11)
    far = ct.SpectralWeights(1.5, "neumann", None, beta_err=1e-11)
    for wd, wn in ((near, far), (far, near)):
        star, record = ct.weight_star(wd, wn)
        assert star == 0.5 and record["cap"] == 0.5
        assert record["beta_D_err"] == record["beta_N_err"] == 1e-11


def test_weight_star_certifiably_below_cap():
    beta = 0.5 - 1e-6
    star, record = ct.weight_star(
        ct.SpectralWeights(beta, "dirichlet", None, beta_err=1e-11),
        ct.SpectralWeights(0.5, "neumann", None, beta_err=1e-11))
    assert star == beta
    assert_allclose(record["cap_margin_dec"], 5.0)


def _near_line_spectrum(im_Lambda):
    # a real 2x2 pencil with the conjugate pair Lambda = -5/4 +- i im_Lambda
    A = np.array([[-1.25, im_Lambda], [im_Lambda, 1.25]])
    P = ct.PencilMatrices(A=A, B=np.diag([1.0, -1.0]), stiffness_one=np.eye(2),
                          mass_one=np.eye(2), cap=None)
    return qz_spectrum(P)


def test_weights_skip_exactly_the_line_eigenvalues():
    # 1.5e-6 is above LINE_TOL * 5/4: the pair is "complex", and its root
    # -1/2 + 7.5e-7 + i (Re sqrt(-1 + i b) = b/2 to first order) is the weight
    spec = _near_line_spectrum(1.5e-6)
    assert [classify_eigenvalue(L) for L in spec.Lambdas] == ["complex"] * 2
    w = ct.spectral_weights([spec], "dirichlet")
    assert_allclose(w.beta, 7.5e-7, rtol=1e-6)
    # 5e-7 is below it: the pair is "line" and leaves no spectrum right of it;
    # its members have opposite Im Lambda, so they are two line eigenvalues
    # of one eta, not one merged eigenvalue
    spec = _near_line_spectrum(5e-7)
    assert [classify_eigenvalue(L) for L in spec.Lambdas] == ["line"] * 2
    evs = ct.line_eigenvalues(spec)
    assert len(evs) == 2 and evs[0].eta == evs[1].eta
    with pytest.raises(DimensionMismatch):
        ct.spectral_weights([spec], "dirichlet")
    assert ct.spectral_weights([spec], "neumann").beta == 2.5


def _one_pair_spectrum(Lambda, offset=0.0, coupling=1e-10):
    # a 2x2 pencil with eigenvalue ~Lambda whose stored eigenpair
    # (Lambda + offset, e_0) has residual ~coupling, so its certified beta
    # bound is ~coupling / (2 sqrt(Lambda + 1/4))
    A = np.array([[Lambda, coupling], [coupling, Lambda + 4.0]])
    P = ct.PencilMatrices(A=A, B=np.eye(2), stiffness_one=A.copy(),
                          mass_one=np.eye(2), cap=None)
    v = np.array([1.0, 0.0], dtype=complex)
    return ct.SpectrumResult(pairs=(ct.EigenPair(complex(Lambda + offset), v, 0.0),),
                             mode=0, pencil=P, n_rejected=0)


@pytest.mark.parametrize("offset", [-5e-13, 5e-13])
def test_neumann_cap_within_bound(offset):
    # Lambda = 6 is beta = 5/2 exactly; offset moves beta by offset / 5
    w = ct.spectral_weights([_one_pair_spectrum(6.0, offset)], "neumann")
    assert w.beta == 2.5 and w.nearest_lambda is not None
    assert_allclose(w.beta_err, 2e-11, rtol=1e-3)
    dirichlet = ct.spectral_weights([_one_pair_spectrum(6.0, offset)], "dirichlet")
    assert dirichlet.beta != 2.5 and abs(dirichlet.beta - 2.5) < dirichlet.beta_err


def test_neumann_cap_certified_decisions():
    below = ct.spectral_weights([_one_pair_spectrum(6.0 - 5e-3)], "neumann")
    assert 2.4989 < below.beta < 2.5 and below.nearest_lambda is not None
    above = ct.spectral_weights([_one_pair_spectrum(6.0 + 5e-3)], "neumann")
    assert above.beta == 2.5 and above.nearest_lambda is None
    assert above.beta_err == 0.0


def test_weight_bound_covers_cap_noise(quarter_tip, positive_material):
    # kappa = 1: the m = 0 constant mode has Lambda = 0 exactly, so beta = 1/2;
    # the certified bound must cover whatever rounding the solve leaves on
    # it, from the full spectrum and from the lowest pair alone
    hemisphere = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2,
                                outer_bc="neumann")
    for g, bcs in ((quarter_tip, ("dirichlet", "neumann")),
                   (hemisphere, ("neumann",))):
        pencils = [ct.pencil_for(g, positive_material, m, 64, 2) for m in range(3)]
        for solve in (ct.solve_pencil, spectrum._weight_spectrum):
            specs = [solve(P) for P in pencils]
            for bc in bcs:
                w = ct.spectral_weights(specs, bc)
                assert abs(w.beta - 0.5) <= w.beta_err < 1e-8


_WEIGHT_GEOMETRIES = [
    ct.CapGeometry("internal", np.pi / 4), ct.CapGeometry("internal", 1.1),
    # criterion 5's rim, as the Dirichlet and the Neumann variant
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc="dirichlet"),
    ct.CapGeometry("boundary", 0.7, alpha_outer=2.0, outer_bc="neumann")]


def _eigenvalue_bound(P, v, Lam):
    # first-order |dLambda| <= ||A v - Lambda B v|| ||v|| / |v^T B v|, the
    # bound that _beta_error converts to beta
    Bv = P.B @ v
    return np.linalg.norm(P.A @ v - Lam * Bv) * np.linalg.norm(v) / abs(v @ Bv)


@pytest.mark.parametrize("base", _WEIGHT_GEOMETRIES)
def test_lowest_pair_matches_the_full_spectrum(base):
    # every definite pencil of the grid passes both certificates of
    # _lowest_pair, and its pair is the lowest of solve_pencil and of dense
    # eigh(A, B) within their eigenvalue bounds; weights read from one pair
    # per mode take every decision of the full spectra, with a beta within
    # the full path's bound and a bound no larger than it
    variants = [base] if base.kind == "internal" else [
        dataclasses.replace(base, outer_bc=bc) for bc in ("dirichlet", "neumann")]
    for kappa, elements in itertools.product((1.0, 0.3, 3.0), (32, 64, 256)):
        mat = ct.MaterialSpec.from_contrast(kappa)
        weights = {}
        for g in variants:
            full, lowest = [], []
            for mode in range(5):
                P = ct.pencil_for(g, mat, mode, elements, 2)
                pair = spectrum._lowest_pair(P)
                assert pair is not None and pair.residual < RESIDUAL_TOL
                v, Lam = pair.vector, pair.Lambda
                assert Lam.imag == 0 and not v.flags.writeable
                spec = ct.solve_pencil(P)
                first = spec.pairs[0]
                assert abs(Lam - first.Lambda) <= _eigenvalue_bound(P, v, Lam) \
                    + _eigenvalue_bound(P, first.vector, first.Lambda)
                (ref,), x = scipy.linalg.eigh(P.A, P.B, subset_by_index=[0, 0])
                assert abs(Lam - ref) <= _eigenvalue_bound(P, v, Lam) \
                    + _eigenvalue_bound(P, x[:, 0], ref)
                full.append(spec)
                lowest.append(spectrum._weight_spectrum(P))
                assert lowest[-1].pairs == (lowest[-1].pairs[0],)
            for bc in (("dirichlet", "neumann") if g.kind == "internal" else (g.outer_bc,)):
                weights[bc] = ct.spectral_weights(full, bc), ct.spectral_weights(lowest, bc)
        (fd, ld), (fn, ln) = weights["dirichlet"], weights["neumann"]
        assert ct.weight_star(ld, ln)[0] == ct.weight_star(fd, fn)[0]
        for f, w in weights.values():
            assert (w.beta == 2.5, w.nearest_lambda is None) == \
                (f.beta == 2.5, f.nearest_lambda is None)
            assert abs(w.beta - f.beta) <= f.beta_err
            assert w.beta_err <= f.beta_err


def test_lowest_pair_only_for_definite_pencils(quarter_tip, critical_material):
    # an indefinite or damped pencil, or one without a cap, keeps its full
    # spectrum: inertia bounds the bottom of the spectrum of a definite
    # pencil only
    P = ct.pencil_for(quarter_tip, critical_material, 1, 32, 2)
    damped = ct.assemble_dissipative_pencil(
        ct.build_cap(quarter_tip, ct.MaterialSpec.from_contrast(1.0), 1, 32, 2), 1e-3)
    for Q in (P, damped):
        assert spectrum._lowest_pair(Q) is None
        assert spectrum._weight_spectrum(Q).Lambdas.tolist() == \
            ct.solve_pencil(Q).Lambdas.tolist()
    assert spectrum._lowest_pair(defective_pencil()) is None


def test_lowest_pair_certificate_failure_falls_back(monkeypatch, quarter_tip,
                                                    positive_material):
    P = ct.pencil_for(quarter_tip, positive_material, 1, 32, 2)
    spec = ct.solve_pencil(P)
    Ab, Bb = (spectrum._band(M, 2)[2:] for M in (P.A, P.B))
    first, second = ((p.Lambda.real, p.vector.real.copy()) for p in spec.pairs[:2])
    # the inertia test passes on the lowest pair and fails on the next one,
    # whose residual is as small: an eigenvalue lies below it
    assert spectrum._is_lowest(Ab, Bb, *first)
    assert not spectrum._is_lowest(Ab, Bb, *second)
    # forced onto the second pair, or past the residual cut, the pair is
    # refused and the weight reads the full spectrum
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_lowest_ritz_pair", lambda Ab, Bb: second)
        assert spectrum._lowest_pair(P) is None
        assert spectrum._weight_spectrum(P).Lambdas.tolist() == spec.Lambdas.tolist()
    with monkeypatch.context() as m:
        m.setattr(spectrum, "RESIDUAL_TOL", 0.0)
        assert spectrum._lowest_pair(P) is None
    assert spectrum._lowest_pair(P) is not None


def test_line_eigenvalue_against_conical_dispersion(quarter_tip):
    # independent oracle: a line exponent -1/2 + i*eta of the aperture-alpha
    # cap must satisfy the transmission matching of conical Legendre
    # functions, kappa_exact(eta) = -[P(-x0) P'(x0)] / [P(x0) P'(-x0)] with
    # nu = -1/2 + i*eta and x0 = sin(alpha - pi/2); here the material ratio
    # on the cap is sigma_minus/sigma_plus = -2
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    le = ct.line_eigenvalues(ct.solve_pencil(ct.pencil_for(
        quarter_tip, ct.MaterialSpec.from_contrast(-0.5), 0, 64, 2)))[0]
    nu = mp.mpf(-0.5) + 1j * mp.mpf(le.eta)
    x0 = mp.sin(-mp.pi / 2 + mp.pi / 4)
    P = lambda x: mp.legenp(nu, 0, x)
    dP = lambda x: mp.diff(lambda t: mp.legenp(nu, 0, t), x)
    ratio = complex(-(P(-x0) * dP(x0)) / (P(x0) * dP(-x0)))
    assert abs(ratio.imag) < 1e-12
    assert abs(ratio.real - (-2.0)) / 2.0 < 1e-6


@pytest.mark.parametrize("order, meshes, min_rate", [
    (2, (16, 32, 64, 128), 3.5), (1, (32, 64, 128), 1.8)])
def test_line_eigenvalue_mesh_convergence_order(quarter_tip, order, meshes, min_rate):
    # sign-changing coefficient: the mode-0 line eigenvalue eta at
    # kappa = -0.5 against N=512 converges at h^4 (order 2) and h^2 (order 1)
    mat = ct.MaterialSpec.from_contrast(-0.5)

    def eta(elements):
        P = ct.pencil_for(quarter_tip, mat, 0, elements, order)
        return ct.line_eigenvalues(ct.solve_pencil(P))[0].eta

    ref = eta(512)
    errs = np.array([abs(eta(n) - ref) for n in meshes])
    assert np.log2(errs[:-1] / errs[1:]).min() >= min_rate


def test_cross_eta_orthogonality_after_normalization(multi_eta_evs):
    by_mode = {}
    for le in multi_eta_evs:
        by_mode.setdefault(le.mode, []).append(le)
    pair = next(v for v in by_mode.values() if len(v) >= 2)
    B = pair[0].pencil.B
    v1 = pair[0].vector
    v2 = pair[1].vector
    assert abs(v1 @ (B @ np.conj(v2))) < 1e-7


_CERTIFICATE_GEOMETRIES = [ct.CapGeometry("internal", np.pi / 4)] + [
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4, outer_bc=bc)
    for bc in ("dirichlet", "neumann")]


def test_certificate_bounds_the_formed_backward_error():
    # each pair's residual is certified in coefficient space, before any
    # vector is formed; it must bound the backward error of the vector that
    # is formed when read (which is then kept, read-only)
    for g, kappa, delta, mode, elements in itertools.product(
            _CERTIFICATE_GEOMETRIES, (1.0, 0.5, -0.3, -0.5, -0.97), (0.0, 1e-3),
            (0, 1, 4), (24, 64)):
        cap = ct.build_cap(g, ct.MaterialSpec.from_contrast(kappa), mode, elements, 2)
        P = ct.assemble_dissipative_pencil(cap, delta) if delta else ct.assemble_pencil(cap)
        spec = ct.solve_pencil(P)
        V = np.array([p.vector for p in spec.pairs]).T.copy()
        formed = spectrum._backward_error(P.A, P.B, V, spec.Lambdas)
        residual = np.array([p.residual for p in spec.pairs])
        assert np.all(formed <= residual), (g, kappa, delta, mode, elements)
        assert residual.max() < 1e-11
        p = spec.pairs[0]
        assert p.vector is p.vector and not p.vector.flags.writeable


def _secular_roots_of(P):
    S = spectrum._secular_terms(P)
    Lams = spectrum._weight_one_solve(S)
    c = S.u * S.w
    live = c != 0
    _, bands = spectrum._real_roots(S.mu[live], c[live], -1.0 / S.gamma)
    return Lams, bands


def test_secular_root_layout():
    # undamped: real roots exactly real, then exact conjugate pairs, adjacent,
    # Im > 0 first; as many real roots as the QZ oracle finds, except at a
    # fold band, where two roots meet within rounding
    folds = []
    for g, kappa, mode, elements in itertools.product(
            _CERTIFICATE_GEOMETRIES, (0.5, -0.3, -0.5, -0.85, -0.97), (0, 1, 4), (24, 64)):
        P = ct.pencil_for(g, ct.MaterialSpec.from_contrast(kappa), mode, elements, 2)
        Lams, bands = _secular_roots_of(P)
        real = Lams.imag == 0
        r = np.count_nonzero(real)
        assert real[:r].all()
        upper, lower = Lams[r::2], Lams[r + 1::2]
        assert np.all(upper.imag > 0) and np.array_equal(lower, np.conj(upper))
        if len(bands):
            folds.append((g, kappa, mode, elements))
        else:
            assert r == np.count_nonzero(qz_spectrum(P).Lambdas.imag == 0)
        # the solved spectrum keeps each pair adjacent, bit-equal real parts
        L = ct.solve_pencil(P).Lambdas
        j = np.flatnonzero(L.imag < 0)
        assert np.array_equal(L[j + 1], np.conj(L[j]))
    assert folds == []
    # a fold band: the contrast where the census sees one witness for two
    # roots that meet within rounding; the solve makes them a conjugate pair
    # there, and two real roots 3e-13 further from the fold
    kappa0 = -0.7806797994809195
    for kappa, n_bands in ((kappa0, 1), (kappa0 - 3e-13, 0)):
        P = ct.pencil_for(ct.CapGeometry("internal", np.pi / 4),
                          ct.MaterialSpec.from_contrast(kappa), 1, 96, 2)
        Lams, bands = _secular_roots_of(P)
        assert len(bands) == n_bands
        near = Lams[np.abs(Lams + 5.8346) < 1e-3]
        assert len(near) == 2 and (near.imag == 0).all() == (n_bands == 0)


def test_no_pair_rejected_on_the_oracle_grid():
    # the grid of test_weight_one_solve_matches_qz, without its QZ: every
    # pair is kept, as with the dense eigenvalue solve it replaces
    for g, kappa, mode, elements, delta in itertools.product(
            _ORACLE_GEOMETRIES, (1.0, 0.5, -0.3, -0.5, -0.85, -0.97), (0, 1, 2, 4),
            (24, 64), (0.0, 1e-3)):
        cap = ct.build_cap(g, ct.MaterialSpec.from_contrast(kappa), mode, elements, 2)
        P = ct.assemble_dissipative_pencil(cap, delta) if delta else ct.assemble_pencil(cap)
        assert ct.solve_pencil(P).n_rejected == 0


def test_lambdas_and_lambda_view_are_the_per_pair_values(critical_spectrum):
    cap = ct.build_cap(ct.CapGeometry("internal", np.pi / 4),
                       ct.MaterialSpec.from_contrast(-0.5), 1, 24, 2)
    for spec in (critical_spectrum, ct.solve_pencil(ct.assemble_dissipative_pencil(cap, 1e-3)),
                 _one_pair_spectrum(6.0)):
        assert np.array_equal(spec.Lambdas, [p.Lambda for p in spec.pairs])
        assert not spec.Lambdas.flags.writeable
        view = spec.lambda_view
        assert view.shape == (len(spec.pairs), 2)
        assert np.array_equal(view, [ct.lambda_from_Lambda(p.Lambda) for p in spec.pairs])
