"""Boundary-kind caps in the critical regime, low-order elements, and the
degenerate outer-aperture edge case."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import conetip as ct
from conftest import qz_spectrum


@pytest.fixture(scope="module", params=["dirichlet", "neumann"])
def boundary_critical(request):
    g = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4,
                       outer_bc=request.param)
    mat = ct.MaterialSpec.from_contrast(-0.45)
    evs = []
    for m in range(3):
        spec = ct.solve_pencil(ct.pencil_for(g, mat, m, 64, 2))
        evs.extend(ct.line_eigenvalues(spec))
    return g, mat, evs


def test_boundary_kind_full_pipeline(boundary_critical):
    g, mat, evs = boundary_critical
    assert evs, "expected a black-hole wave in the critical regime"
    space = ct.singular_space(evs, rho=1.0)
    fm = ct.flux_matrix(space)
    basis = ct.mandelstam_basis(fm)
    assert basis.residual < 1e-10
    s = space.members[0]
    q = ct.flux_pairing(s, s)
    assert abs(ct.flux_quadrature_oracle(s, s, 1e-3) - q) < 1e-8 * max(1, abs(q))
    sel = ct.select_outgoing_by_absorption(evs)
    report = ct.consistency_report(basis, sel, evs)
    assert isinstance(report.agree, bool)


def test_boundary_scan_has_no_closed_form():
    g = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4,
                       outer_bc="dirichlet")
    ci = ct.scan_interval(g, kappa_range=(-0.5, -0.05), modes=(0,), elements=48)
    assert np.isnan(ci.closed_form)
    assert any("internal tips only" in f for f in ci.flags)
    assert -0.25 < ci.endpoint_outer < -0.05


def test_boundary_bc_kinds_differ(quarter_tip):
    # at a contrast near the Neumann interval edge the two rims disagree
    mat = ct.MaterialSpec.from_contrast(-0.2)
    counts = {}
    for bc in ("dirichlet", "neumann"):
        g = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=3 * np.pi / 4,
                           outer_bc=bc)
        n = 0
        for m in range(3):
            n += len(ct.line_eigenvalues(ct.solve_pencil(
                ct.pencil_for(g, mat, m, 64, 2))))
        counts[bc] = n
    assert counts["dirichlet"] > 0 and counts["neumann"] == 0


def test_outer_aperture_pi_degenerates_to_sphere(positive_material):
    g = ct.CapGeometry("boundary", np.pi / 4, alpha_outer=np.pi,
                       outer_bc="neumann")
    spec = ct.solve_pencil(ct.pencil_for(g, positive_material, 1, 48, 2))
    assert_allclose(np.sort(spec.Lambdas.real)[:3], [2.0, 6.0, 12.0], rtol=1e-3)


def test_order_one_elements(quarter_tip, positive_material):
    spec = ct.solve_pencil(ct.pencil_for(quarter_tip, positive_material, 0, 128, 1))
    assert_allclose(np.sort(spec.Lambdas.real)[:4], [0.0, 2.0, 6.0, 12.0],
                    atol=2e-2)
    # the critical machinery works at order 1 too, just less accurately
    mat = ct.MaterialSpec.from_contrast(-0.5)
    evs = ct.line_eigenvalues(ct.solve_pencil(
        ct.pencil_for(quarter_tip, mat, 0, 256, 1)))
    assert len(evs) == 1
    assert abs(evs[0].eta - 1.6842) < 5e-3


def test_qz_solves_nearly_singular_mass():
    # the QZ oracle of the hand-built pencils never inverts B: cond(B) = 1e14
    # still gives both eigenvalues
    P = ct.PencilMatrices(A=np.eye(2), B=np.diag([1.0, 1e-14]),
                          stiffness_one=np.eye(2), mass_one=np.eye(2),
                          cap=None, delta=0.0)
    spec = qz_spectrum(P)
    assert spec.n_rejected == 0
    assert_allclose(spec.Lambdas.real, [1.0, 1e14], rtol=1e-12)


def test_near_quarter_flagged():
    # eigenvalue a hair below -1/4: flagged, and basis construction refuses it
    Lam = -0.25 - 1e-10
    P = ct.PencilMatrices(A=np.diag([Lam, 3.0]), B=np.eye(2),
                          stiffness_one=np.eye(2), mass_one=np.eye(2),
                          cap=None, delta=0.0)
    evs = ct.line_eigenvalues(qz_spectrum(P))
    assert len(evs) == 1 and evs[0].near_quarter
    with pytest.raises(Exception):
        ct.singular_space(evs, 1.0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_angular_gram_sesquilinear(quarter_tip, critical_material, seed):
    cap = ct.build_cap(quarter_tip, critical_material, 0, 16, 2)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(cap.n_dof) + 1j * rng.standard_normal(cap.n_dof)
    g = rng.standard_normal(cap.n_dof) + 1j * rng.standard_normal(cap.n_dof)
    a = complex(rng.standard_normal(), rng.standard_normal())
    for weight in ("one", "sigma"):
        q_fg = ct.angular_gram(cap, f, g, weight)
        assert abs(ct.angular_gram(cap, a * f, g, weight) - a * q_fg) \
            < 1e-12 * max(1.0, abs(a * q_fg))
        assert abs(ct.angular_gram(cap, f, a * g, weight)
                   - np.conj(a) * q_fg) < 1e-12 * max(1.0, abs(a * q_fg))
        # real weight: conjugate symmetry
        assert abs(ct.angular_gram(cap, g, f, weight) - np.conj(q_fg)) \
            < 1e-12 * max(1.0, abs(q_fg))
