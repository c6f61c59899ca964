import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import conetip as ct
from conetip.errors import DimensionMismatch, NearQuarterDegenerate
from conetip.flux import INCOMING, OUTGOING, UNCLASSIFIED, flux_integrand_at

from conftest import defective_line_eigenvalue


def test_simple_singularity_shape(line_evs):
    le = line_evs[0]
    s = ct.build_singularity(le, rho=1.0)
    assert s.poly.degree == 0
    assert s.lam == complex(-0.5, le.eta)
    sc = ct.build_singularity(le, rho=1.0, conjugate=True)
    assert sc.lam == complex(-0.5, -le.eta)
    assert np.array_equal(sc.poly.coeffs[0], np.conj(s.poly.coeffs[0]))
    with pytest.raises(DimensionMismatch):
        ct.build_singularity(le, chain_level=1)


def test_jordan_singularity_coefficients():
    P, le0 = defective_line_eigenvalue(1.0)
    le = ct.jordan_chains(P, le0)
    s1 = ct.build_singularity(le, chain_level=1, rho=1.0)
    assert s1.poly.degree == 1
    assert np.array_equal(s1.poly.coeffs[1], le.vector)
    assert np.array_equal(s1.poly.coeffs[0], le.chain[0])


def test_space_dimensions(line_evs, multi_eta_evs):
    assert ct.singular_space(line_evs[:1], 1.0).dim == 2
    assert ct.singular_space(multi_eta_evs, 1.0).dim == 2 * len(multi_eta_evs)


def test_space_grows_as_aperture_shrinks():
    kappa = -0.5
    dims = []
    for alpha in (np.pi / 3, np.pi / 4):
        g = ct.CapGeometry("internal", alpha)
        evs = []
        for m in range(4):
            spec = ct.solve_pencil(ct.pencil_for(
                g, ct.MaterialSpec.from_contrast(kappa), m, 64, 2))
            evs.extend(ct.line_eigenvalues(spec))
        dims.append(ct.singular_space(evs, 1.0).dim if evs else 0)
    assert dims[1] >= dims[0]


def test_space_rejects_near_quarter(line_evs):
    le = replace(line_evs[0], near_quarter=True)
    with pytest.raises(NearQuarterDegenerate):
        ct.singular_space([le], 1.0)


def test_self_flux_closed_form(line_evs):
    le = line_evs[0]
    s = ct.build_singularity(le, rho=1.0)
    phi = s.poly.coeffs[0]
    g = phi @ (le.pencil.B @ np.conj(phi))
    q = ct.flux_pairing(s, s)
    assert_allclose(q, 2j * le.eta * g, rtol=1e-12)
    assert abs(q.real) < 1e-12 * abs(q)


def test_flux_anti_hermitian_identity(flux_small, singular_space_small):
    Q = flux_small.Q
    assert np.abs(Q + Q.conj().T).max() < 1e-12 * np.abs(Q).max()


def test_cross_eta_flux_vanishes(multi_eta_evs):
    by_mode = {}
    for le in multi_eta_evs:
        by_mode.setdefault(le.mode, []).append(le)
    pair = next(v for v in by_mode.values() if len(v) >= 2)
    u = ct.build_singularity(pair[0], rho=1.0)
    v = ct.build_singularity(pair[1], rho=1.0)
    assert ct.flux_pairing(u, v) == 0j


def test_oracle_matches_closed_form(line_evs):
    le = line_evs[0]
    s = ct.build_singularity(le, rho=1.0)
    q = ct.flux_pairing(s, s)
    vals = [ct.flux_quadrature_oracle(s, s, r) for r in (1e-2, 1e-3, 1e-4)]
    for v in vals:
        assert abs(v - q) < 1e-8 * max(1.0, abs(q))
        assert abs(v.real) < 1e-12 * max(1.0, abs(v))
    assert max(abs(a - b) for a in vals for b in vals) < 1e-8


def test_oracle_radius_domain(line_evs):
    s = ct.build_singularity(line_evs[0], rho=1.0)
    with pytest.raises(DimensionMismatch):
        ct.flux_quadrature_oracle(s, s, 0.75)


def test_cutoff_independence(line_evs):
    le = line_evs[0]
    s1 = ct.build_singularity(le, rho=1.0)
    s2 = ct.build_singularity(le, rho=0.5)
    assert ct.flux_pairing(s1, s1) == ct.flux_pairing(s2, s2)
    r = 0.2  # admissible for both cutoffs
    assert abs(ct.flux_quadrature_oracle(s1, s1, r)
               - ct.flux_quadrature_oracle(s2, s2, r)) < 1e-10


def test_log_algebra_against_oracle(line_evs):
    # synthetic degree-1 fields on a real cap: validates the derivative and
    # log bookkeeping of the closed form pointwise, no limit extraction
    le = line_evs[0]
    rng = np.random.default_rng(7)
    n = len(le.vector)
    poly_u = ct.LogPolynomial(coeffs=(rng.standard_normal(n), rng.standard_normal(n)))
    poly_v = ct.LogPolynomial(coeffs=(rng.standard_normal(n), rng.standard_normal(n)))
    u = replace(ct.build_singularity(le, rho=1.0), poly=poly_u)
    v = replace(ct.build_singularity(le, rho=1.0), poly=poly_v)
    for r in (0.3, 1e-2, 1e-4):
        closed = flux_integrand_at(u, v, r)
        oracle = ct.flux_quadrature_oracle(u, v, r)
        assert abs(closed - oracle) < 1e-9 * max(1.0, abs(closed))


def test_jordan_block_flux():
    # exactly defective pencil: the l=0 member alone carries no flux, the
    # (l=0, l=1) pairing does, and all log coefficients cancel in the limit
    P, le0 = defective_line_eigenvalue(1.0)
    le = ct.jordan_chains(P, le0)
    space = ct.singular_space([le], rho=1.0)
    assert space.dim == 4
    fm = ct.flux_matrix(space)
    s0_idx = next(i for i, m in enumerate(space.members)
                  if m.chain_level == 0 and not m.conjugated)
    assert abs(fm.Q[s0_idx, s0_idx]) < 1e-12
    basis = ct.mandelstam_basis(fm)
    assert basis.residual < 1e-10


def test_length_three_chain_flux():
    # kernel e1, two solvable chain levels: exercises the log^2 algebra
    eta = 1.0
    Lam = -0.25 - eta * eta
    B = np.array([[0., 0., 1.], [0., 1., 0.], [1., 0., 0.]])
    A = Lam * B + np.array([[0., 0., 0.], [0., 0., 1.], [0., 1., 0.]])
    P = ct.PencilMatrices(A=A, B=B, stiffness_one=np.eye(3), mass_one=np.eye(3),
                          cap=None, delta=0.0)
    phi = np.array([1. + 0j, 0, 0])
    le = ct.LineEigenvalue(eta=eta, Lambda=Lam, mode=0, vector=phi,
                           gram=complex(phi @ (B @ phi)), pencil=P)
    out = ct.jordan_chains(P, le)
    assert len(out.chain) == 2
    x1, x2 = out.chain
    M = A - Lam * B
    assert np.linalg.norm(M @ x1 - 2j * eta * (B @ phi)) < 1e-12
    assert np.linalg.norm(M @ x2 - 2j * eta * (B @ x1) - B @ phi) < 1e-12
    space = ct.singular_space([out], rho=1.0)
    assert space.dim == 6
    s2 = next(m for m in space.members if m.chain_level == 2 and not m.conjugated)
    assert s2.poly.degree == 2
    fm = ct.flux_matrix(space)
    evals = np.linalg.eigvalsh(fm.hermitian_part)
    assert np.sum(evals > 0) == 3 == np.sum(evals < 0)
    assert ct.mandelstam_basis(fm).residual < 1e-10


def test_flux_limit_nonexistent_raises():
    # corrupting a chain vector breaks the log-coefficient cancellation and
    # the limit assertion must fire rather than return a bogus number
    from conetip.errors import FluxLimitNonexistent
    P, le0 = defective_line_eigenvalue(1.0)
    le = ct.jordan_chains(P, le0)
    bad = replace(le, chain=(le.chain[0] + np.array([0.0, 0.7]),))
    s1 = ct.build_singularity(bad, chain_level=1, rho=1.0)
    with pytest.raises(FluxLimitNonexistent):
        ct.flux_pairing(s1, s1)


def test_flux_matrix_invariants(flux_small, flux_multi):
    for fm in (flux_small, flux_multi):
        n = fm.dim
        assert n % 2 == 0
        sv = np.linalg.svd(fm.Q, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]
        evals = np.linalg.eigvalsh(fm.hermitian_part)
        assert np.sum(evals > 0) == n // 2 == np.sum(evals < 0)


def test_dim2_block_structure(line_evs):
    space = ct.singular_space(line_evs[:1], 1.0)
    fm = ct.flux_matrix(space)
    le = line_evs[0]
    phi = space.members[0].poly.coeffs[0]
    g = phi @ (le.pencil.B @ np.conj(phi))
    expected = np.diag([2j * le.eta * g, -2j * le.eta * g])
    assert_allclose(fm.Q, expected, atol=1e-12 * abs(g))


def test_mandelstam_conditions(basis_small, basis_multi):
    for basis in (basis_small, basis_multi):
        assert basis.residual < 1e-10
        fm = basis.flux
        n = basis.n
        P, Mn = basis.plus_coords, basis.minus_coords
        assert_allclose(P.T @ fm.Q @ np.conj(P), 1j * np.eye(n), atol=1e-10)
        assert_allclose(Mn.T @ fm.Q @ np.conj(Mn), -1j * np.eye(n), atol=1e-10)
        assert np.abs(P.T @ fm.Q @ np.conj(Mn)).max() < 1e-10
        # conjugation pairing holds coefficientwise
        space = fm.basis_ref
        for j in range(n):
            assert_allclose(Mn[:, j], space.conjugate_coords(P[:, j]), atol=1e-14)
        # restricted positivity: no nonzero outgoing combination is flux-null
        H = fm.hermitian_part
        block = np.conj(P.T) @ (H @ P)
        assert np.linalg.eigvalsh(block).min() > 0


def test_classification(basis_small, basis_multi):
    for basis in (basis_small, basis_multi):
        fm = basis.flux
        for j in range(basis.n):
            sp = basis.plus_coords[:, j]
            out = ct.classify_wave(sp, fm)
            assert out.kind == OUTGOING
            assert_allclose(out.flux_value, 1j, atol=1e-10)
            inc = ct.classify_wave(fm.basis_ref.conjugate_coords(sp), fm)
            assert inc.kind == INCOMING
            assert_allclose(inc.flux_value, -1j, atol=1e-10)
    fm = basis_small.flux
    mixed = ct.classify_wave(basis_small.plus_coords[:, 0]
                             + basis_small.minus_coords[:, 0], fm)
    assert mixed.kind == UNCLASSIFIED


def test_trapped_energy(basis_small, basis_multi):
    z = np.zeros(basis_small.n)
    assert ct.trapped_energy(basis_small, z, z, None, [], [], 1.0) == 0.0
    c = z.copy()
    c[0] = 1.0
    assert_allclose(ct.trapped_energy(basis_small, c, z, None, [], [], 1.0),
                    1.0, atol=1e-10)
    # equal outgoing and incoming amplitudes on one index cancel
    assert abs(ct.trapped_energy(basis_small, c, c, None, [], [], 1.0)) < 1e-10
    # combined electric and magnetic parts
    cm = np.zeros(basis_multi.n)
    cm[0] = 1.0
    omega = 2.0
    val = ct.trapped_energy(basis_multi, cm, np.zeros(basis_multi.n),
                            basis_small, c, z, omega)
    assert_allclose(val, 1.0 + omega ** 2, atol=1e-9)
    with pytest.raises(DimensionMismatch):
        ct.trapped_energy(basis_small, [1.0], [0.0, 0.0], None, [], [], 1.0)


def test_pure_power_radial_integral():
    for eta in (0.5, 1.0, 2.0, 7.3):
        for delta in (1e-2, 1e-4, 1e-8):
            val = ct.radial_gradient_sq_integral(complex(-0.5, eta), delta, 1.0)
            assert_allclose(val, (0.25 + eta * eta) * abs(np.log(delta)),
                            rtol=1e-10)


@given(st.floats(-3.0, 3.0), st.floats(0.01, 0.5), st.floats(0.6, 2.0))
@settings(max_examples=50, deadline=None)
def test_power_integral_against_quadrature(s, a, b):
    from scipy.integrate import quad
    exact = ct.power_integral(s, a, b)
    approx, _ = quad(lambda r: r ** s, a, b)
    assert_allclose(exact, approx, rtol=1e-9)


def test_sequence_norm_growth_and_homogeneity(line_evs):
    le = line_evs[0]
    s = ct.build_singularity(le, rho=1.0)
    vals = [ct.singular_sequence_norm(s, n) for n in (10, 40, 160, 640)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    s2 = replace(s, poly=ct.LogPolynomial(coeffs=(2.0 * s.poly.coeffs[0],)))
    assert_allclose(ct.singular_sequence_norm(s2, 25),
                    4.0 * ct.singular_sequence_norm(s, 25), rtol=1e-12)


def test_blowup_fit(line_evs):
    s = ct.build_singularity(line_evs[0], rho=1.0)
    slope, r2 = ct.blowup_rate(s, [20, 40, 60, 80])
    assert slope > 0 and r2 > 0.999
    slope2, _ = ct.blowup_rate(s, [40, 80, 120, 160])
    assert abs(slope2 - slope) / slope < 0.05
