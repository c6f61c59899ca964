import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conetip as ct
from conetip import spectrum
from conetip.cap import _reference_shapes, _region_bands
from conetip.errors import CriticalContrastExcluded, DimensionMismatch, InvalidGeometry


def test_internal_m0_no_eliminated_dofs(quarter_tip, critical_material):
    cap = ct.build_cap(quarter_tip, critical_material, 0, 32, 2)
    assert cap.n_dof == cap.mesh.n_dof_full
    k = cap.mesh.interface_index
    assert cap.mesh.nodes[k] == -np.pi / 4


def test_internal_m1_eliminates_poles(quarter_tip, critical_material):
    cap = ct.build_cap(quarter_tip, critical_material, 1, 32, 2)
    assert cap.n_dof == cap.mesh.n_dof_full - 2
    assert 0 not in cap.dof_map
    assert cap.mesh.n_dof_full - 1 not in cap.dof_map


def test_boundary_dirichlet_eliminates_outer_node(critical_material):
    g = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2,
                       outer_bc="dirichlet")
    cap = ct.build_cap(g, critical_material, 0, 32, 2)
    assert cap.mesh.n_dof_full - 1 not in cap.dof_map
    assert cap.n_dof == cap.mesh.n_dof_full - 1
    gn = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2,
                        outer_bc="neumann")
    capn = ct.build_cap(gn, critical_material, 0, 32, 2)
    assert capn.n_dof == capn.mesh.n_dof_full


def test_material_guards():
    with pytest.raises(CriticalContrastExcluded):
        ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-1.0)
    with pytest.raises(InvalidGeometry):
        ct.CapGeometry("internal", 0.0)
    with pytest.raises(InvalidGeometry):
        ct.CapGeometry("internal", np.pi)
    with pytest.raises(InvalidGeometry):
        ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 8,
                       outer_bc="dirichlet")


def test_sigma_at_sides(quarter_tip):
    mat = ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-0.5)
    cap = ct.build_cap(quarter_tip, mat, 0, 32, 2)
    assert ct.sigma_at(cap, -np.pi / 2 + np.pi / 8) == -0.5
    assert ct.sigma_at(cap, 0.0) == 1.0
    phi_i = quarter_tip.interface_latitude
    assert ct.sigma_at(cap, phi_i) == 1.0
    assert ct.sigma_at(cap, phi_i, side="minus") == -0.5
    damp = ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-0.5, delta=0.01)
    capd = ct.build_cap(quarter_tip, damp, 0, 32, 2)
    assert ct.sigma_at(capd, 0.0) == 1.0 + 0.01j
    with pytest.raises(InvalidGeometry):
        ct.sigma_at(cap, 2.0)


def test_angular_gram_constants(quarter_tip):
    mat = ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-0.5)
    cap = ct.build_cap(quarter_tip, mat, 0, 32, 2)
    ones = np.ones(cap.n_dof)
    assert_allclose(ct.angular_gram(cap, ones, ones, "one"), 2.0, atol=1e-12)
    # hemispheres: integral of sigma*cos splits as sigma_minus + sigma_plus
    half = ct.CapGeometry("internal", np.pi / 2)
    cap2 = ct.build_cap(half, mat, 0, 32, 2)
    ones2 = np.ones(cap2.n_dof)
    assert_allclose(ct.angular_gram(cap2, ones2, ones2, "sigma"), 0.5, atol=1e-12)
    # the equal-and-opposite hemisphere pair is the excluded contrast -1
    with pytest.raises(CriticalContrastExcluded):
        ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-1.0)


def test_cross_eta_sigma_orthogonality(multi_eta_evs):
    by_mode = {}
    for le in multi_eta_evs:
        by_mode.setdefault(le.mode, []).append(le)
    pair = next(v for v in by_mode.values() if len(v) >= 2)
    a, b = pair[0], pair[1]
    assert a.eta != b.eta
    cap = a.pencil.cap
    val = ct.angular_gram(cap, a.vector, b.vector, "sigma")
    assert abs(val) < 1e-7


def test_pencil_symmetry_and_reality(critical_pencil):
    P = critical_pencil
    assert np.abs(P.A - P.A.T).max() == 0.0
    assert np.abs(P.B - P.B.T).max() == 0.0
    assert P.A.dtype == np.float64 and P.B.dtype == np.float64


def test_pencil_linearity_in_sigma(quarter_tip):
    m1 = ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-0.5)
    m2 = ct.MaterialSpec(sigma_plus=2.0, sigma_minus=-1.0)
    P1 = ct.assemble_pencil(ct.build_cap(quarter_tip, m1, 0, 16, 2))
    P2 = ct.assemble_pencil(ct.build_cap(quarter_tip, m2, 0, 16, 2))
    assert_allclose(P2.A, 2.0 * P1.A, rtol=0, atol=1e-15)
    assert_allclose(P2.B, 2.0 * P1.B, rtol=0, atol=1e-15)


def test_mass_matrix_indefinite(critical_pencil):
    evals = np.linalg.eigvalsh(critical_pencil.B)
    assert evals.min() < 0 < evals.max()


def test_assembly_deterministic(quarter_tip, critical_material):
    P1 = ct.assemble_pencil(ct.build_cap(quarter_tip, critical_material, 2, 24, 2))
    P2 = ct.assemble_pencil(ct.build_cap(quarter_tip, critical_material, 2, 24, 2))
    assert np.array_equal(P1.A, P2.A) and np.array_equal(P1.B, P2.B)


@pytest.mark.parametrize("geometry", [
    ct.CapGeometry("internal", np.pi / 4),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc="dirichlet"),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi, outer_bc="neumann"),
])
def test_pencil_half_bandwidth_is_element_order(geometry, critical_material):
    # the banded trajectory solve relies on this for every cap kind and mode
    for order in (1, 2):
        for mode in (0, 1):
            P = ct.assemble_pencil(ct.build_cap(geometry, critical_material,
                                                mode, 12, order))
            i, j = np.indices(P.A.shape)
            outside = np.abs(i - j) > order
            for M in (P.A, P.B, P.stiffness_one, P.mass_one):
                assert not M[outside].any()
                assert np.diagonal(M, order).any()


def _element_loop_assembly(cap, coefficient):
    """Reference assembly: a loop over elements and Gauss points that
    accumulates ``coefficient(e)``-weighted outer products of the shapes of
    element ``e`` (independent of the cap's quadrature arrays)."""
    mesh = cap.mesh
    order = mesh.element_order
    x, w, shape_n, shape_d = _reference_shapes(order)
    n_full = mesh.n_dof_full
    A = np.zeros((n_full, n_full), dtype=complex)
    B = np.zeros((n_full, n_full), dtype=complex)
    m2 = float(cap.mode * cap.mode)
    for e in range(mesh.n_elements):
        a, b = mesh.nodes[e], mesh.nodes[e + 1]
        h = b - a
        c = np.cos((a + b) / 2 + h / 2 * x)
        dN = shape_d * (2 / h)
        idx = slice(order * e, order * e + order + 1)
        for k in range(len(x)):
            mass_k = np.outer(shape_n[:, k], shape_n[:, k])
            stiff_k = np.outer(dN[:, k], dN[:, k]) * c[k] + (m2 / c[k]) * mass_k
            A[idx, idx] += coefficient(e) * h / 2 * w[k] * stiff_k
            B[idx, idx] += coefficient(e) * h / 2 * w[k] * c[k] * mass_k
    ix = np.ix_(cap.dof_map, cap.dof_map)
    return A[ix], B[ix]


@pytest.mark.parametrize("geometry", [
    ct.CapGeometry("internal", np.pi / 4),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc="dirichlet"),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi, outer_bc="neumann"),
])
def test_assembly_matches_element_loop(geometry):
    for order, mode, delta in itertools.product((1, 2), (0, 1, 2), (0.0, 1e-3)):
        mat = ct.MaterialSpec(sigma_plus=1.0, sigma_minus=-2.0, delta=delta)
        cap = ct.build_cap(geometry, mat, mode, 20, order)
        P = ct.assemble_pencil(cap)
        k = cap.mesh.interface_index
        sigma = lambda e: (mat.sigma_minus if e < k else mat.sigma_plus) + 1j * delta
        ref = (*_element_loop_assembly(cap, sigma),
               *_element_loop_assembly(cap, lambda e: 1.0))
        for M, R in zip((P.A, P.B, P.stiffness_one, P.mass_one), ref, strict=True):
            assert np.abs(M - R).max() <= 1e-14 * np.abs(R).max()
            assert np.array_equal(M, M.T)
        assert (P.A.dtype == np.float64) == (delta == 0.0)


@pytest.mark.parametrize("geometry", [
    ct.CapGeometry("internal", np.pi / 4),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc="dirichlet"),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 8, outer_bc="neumann"),
])
def test_region_bands_of_many_modes_are_each_modes_own(geometry, critical_material):
    # one assembly of modes 0-7, shuffled, gives each mode the bits of its
    # own one-mode call, mode 0 with its pole dofs; the pencil of a cap is
    # its mode's region bands combined with the coefficients
    modes = [5, 0, 7, 2, 4, 1, 6, 3]
    poles = 2 if geometry.kind == "internal" else 1
    for order in (1, 2):
        many = dict(zip(modes, _region_bands(geometry, modes, 24, order), strict=True))
        for mode in modes:
            (p, blocks), = _region_bands(geometry, (mode,), 24, order)
            assert p == many[mode][0] and blocks.shape == many[mode][1].shape
            assert np.array_equal(blocks, many[mode][1])
        assert many[0][0] == many[1][0] + 1
        assert many[0][1].shape[-1] == many[1][1].shape[-1] + poles
        for mode in (0, 3):
            P = ct.assemble_pencil(ct.build_cap(geometry, critical_material, mode, 24, order))
            (A_minus, B_minus), (A_plus, B_plus) = many[mode][1]
            s_minus, s_plus = critical_material.sigma_minus, critical_material.sigma_plus
            for Mb, want in zip(P.bands, (s_minus * A_minus + s_plus * A_plus,
                                          s_minus * B_minus + s_plus * B_plus,
                                          A_minus + A_plus, B_minus + B_plus), strict=True):
                assert np.array_equal(Mb, want)


_TRACED_GEOMETRIES = [
    ct.CapGeometry("internal", np.pi / 4),
    ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi / 2, outer_bc="dirichlet"),
]


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("geometry", _TRACED_GEOMETRIES)
def test_assembly_and_definite_weights_form_no_dense_matrix(geometry, positive_material):
    # at N = 256 the pencil is assembled on the band, and a definite pencil's
    # weight pair is found and certified on it: neither allocates an n x n
    # float array (n = 511 or 512 dofs, about 2 MB)
    cap = ct.build_cap(geometry, positive_material, 1, 256, 2)
    spectrum._weight_spectrum(ct.pencil_for(geometry, positive_material, 1, 16, 2))
    dense = cap.n_dof ** 2 * 8
    assert _peak_bytes(lambda: ct.assemble_pencil(cap)) < dense
    P = ct.assemble_pencil(cap)
    assert _peak_bytes(lambda: spectrum._weight_spectrum(P)) < dense
    assert "A" not in vars(P) and "stiffness_one" not in vars(P)


@pytest.mark.parametrize("geometry", _TRACED_GEOMETRIES)
def test_bands_hold_the_dense_matrices(geometry, critical_material):
    # row k of each band is the k-th subdiagonal and ends in k zeros, also
    # where an eliminated dof cut couplings off (the column norms read that
    # padding); the dense matrices are formed from the bands once, read-only
    for order, mode in itertools.product((1, 2), (0, 1)):
        P = ct.pencil_for(geometry, critical_material, mode, 12, order)
        for name, Mb in zip(("A", "B", "stiffness_one", "mass_one"), P.bands, strict=True):
            assert Mb.shape == (order + 1, P.n) and not Mb.flags.writeable
            M = getattr(P, name)
            assert getattr(P, name) is M and not M.flags.writeable
            for k in range(order + 1):
                assert np.array_equal(Mb[k, :P.n - k], np.diagonal(M, -k))
                assert not Mb[k, P.n - k:].any()
        with pytest.raises(dataclasses.FrozenInstanceError):
            P.A = P.B


def test_dense_pencil_must_fit_its_band(critical_pencil):
    # a pencil built from dense arrays is solved from its bands, so they must
    # hold all of each matrix: symmetric, half-bandwidth the element order
    P = critical_pencil
    wide = P.A.copy()
    wide[0, 3] = wide[3, 0] = 1.0
    skew = P.B.copy()
    skew[0, 1] += 1.0
    for A, B in ((wide, P.B), (P.A, skew)):
        with pytest.raises(DimensionMismatch):
            ct.PencilMatrices(A=A, B=B, stiffness_one=P.stiffness_one,
                              mass_one=P.mass_one, cap=P.cap, delta=0.0)


def test_dissipative_pencil_structure(quarter_tip, critical_material):
    cap = ct.build_cap(quarter_tip, critical_material, 0, 24, 2)
    base = ct.assemble_pencil(cap)
    for delta in (1e-2, 1e-4):
        Pd = ct.assemble_dissipative_pencil(cap, delta)
        assert np.abs(Pd.A.real - base.A).max() == 0.0
        assert np.array_equal(Pd.A.imag, delta * base.stiffness_one)
        assert np.array_equal(Pd.B.imag, delta * base.mass_one)
    with pytest.raises(InvalidGeometry):
        ct.assemble_dissipative_pencil(cap, 0.0)


def test_dissipation_clears_the_line(quarter_tip, critical_material):
    cap = ct.build_cap(quarter_tip, critical_material, 0, 64, 2)
    base_evs = ct.line_eigenvalues(ct.solve_pencil(ct.assemble_pencil(cap)))
    assert base_evs
    spec = ct.solve_pencil(ct.assemble_dissipative_pencil(cap, 1e-3))
    for le in base_evs:
        near = min(spec.pairs, key=lambda p: abs(p.Lambda - le.Lambda))
        assert abs(near.Lambda.imag) > 0


def test_spectrum_depends_only_on_contrast(quarter_tip):
    base = ct.solve_pencil(ct.pencil_for(
        quarter_tip, ct.MaterialSpec(1.0, -2.0), 0, 48, 2)).Lambdas
    for c in (2.0, 10.0):
        scaled = ct.solve_pencil(ct.pencil_for(
            quarter_tip, ct.MaterialSpec(c * 1.0, c * -2.0), 0, 48, 2)).Lambdas
        d = np.abs(base[:, None] - scaled[None, :])
        match = d.min(axis=1) / np.maximum(1.0, np.abs(base))
        assert match.max() < 1e-10


def test_quadrature_exactness_manufactured():
    # order-2 shapes times a quadratic interpolant of cos(phi): degree <= 6,
    # integrated exactly by 4-point Gauss; compare to exact monomial integrals
    x, w, n, d = _reference_shapes(2)
    a, b = 0.3, 0.8
    h = b - a
    nodes = np.array([a, (a + b) / 2, b])
    cvals = np.cos(nodes)
    # quadratic interpolant of cos on the element, in reference coords
    V = np.vander([-1.0, 0.0, 1.0], 3, increasing=True)
    coef = np.linalg.solve(V, cvals)

    def cos_interp(xi):
        return coef[0] + coef[1] * xi + coef[2] * xi * xi

    for i in range(3):
        for j in range(3):
            quad = sum(wk * n[i, k] * n[j, k] * cos_interp(x[k])
                       for k, wk in enumerate(w)) * h / 2
            # exact integral of the degree-6 polynomial via numpy polynomials
            pi = np.polynomial.Polynomial(_shape_coeffs(i))
            pj = np.polynomial.Polynomial(_shape_coeffs(j))
            pc = np.polynomial.Polynomial(coef)
            prod = pi * pj * pc
            exact = prod.integ()(1.0) - prod.integ()(-1.0)
            assert abs(quad - exact * h / 2) < 1e-12


def _shape_coeffs(i):
    return {0: [0.0, -0.5, 0.5], 1: [1.0, 0.0, -1.0], 2: [0.0, 0.5, 0.5]}[i]


def test_eigenvalue_mesh_convergence_order(quarter_tip, positive_material):
    # smooth coefficient: observed eigenvalue convergence order >= 3.5
    target = 12.0  # l = 3
    errs = []
    for ne in (8, 16, 32):
        spec = ct.solve_pencil(ct.pencil_for(quarter_tip, positive_material, 0, ne, 2))
        lam = min(spec.Lambdas, key=lambda L: abs(L - target))
        errs.append(abs(lam - target))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert min(r1, r2) >= 3.5
