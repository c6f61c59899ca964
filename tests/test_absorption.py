import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conetip as ct
from conetip.absorption import AMBIGUOUS, MINUS_BRANCH, OVERLAP_MIN, PLUS_BRANCH
from conetip.errors import DimensionMismatch, PerturbationDegenerate, TrajectoryLost
from conetip.spectrum import ETA_MIN, RESIDUAL_TOL

DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


@pytest.fixture(scope="module")
def tracked(quarter_tip, critical_material):
    cap = ct.build_cap(quarter_tip, critical_material, 0, 64, 2)
    P0 = ct.assemble_pencil(cap)
    le = ct.line_eigenvalues(ct.solve_pencil(P0))[0]
    points = ct.trajectory(cap, le, DELTAS)
    return cap, P0, le, points


def test_trajectory_continuity(tracked):
    _, P0, le, points = tracked
    assert points[0].delta == 0.0
    assert all(p.overlap > 0.9 for p in points)
    deltas = [p.delta for p in points[1:]]
    assert deltas == DELTAS
    # increments bounded by the slope scale
    (dLam, _, _, _), = ct.perturbation_slope(
        P0, (P0.stiffness_one, P0.mass_one), le)
    C = 2.0 * abs(dLam)
    for a, b in zip(points, points[1:]):
        assert abs(b.Lambda - a.Lambda) <= C * abs(b.delta - a.delta)


def test_trajectory_extrapolates_to_undamped(tracked):
    _, _, le, points = tracked
    p1, p2 = points[-2], points[-1]
    # linear extrapolation to delta = 0 from the two smallest dissipations
    Lam0 = (p2.Lambda * p1.delta - p1.Lambda * p2.delta) / (p1.delta - p2.delta)
    assert abs(Lam0 - le.Lambda) < 1e-6 * max(1.0, abs(le.Lambda))


def test_trajectory_moves_off_axis_linearly(tracked):
    _, _, le, points = tracked
    for p in points[1:]:
        assert abs(p.Lambda.imag) > 0
    d = np.array([p.delta for p in points[1:]])
    dist = np.array([abs(p.Lambda - le.Lambda) for p in points[1:]])
    slope = np.polyfit(np.log(d[-3:]), np.log(dist[-3:]), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_trajectory_point_contract(tracked):
    cap, P0, _, points = tracked
    for p in points:
        P = ct.assemble_dissipative_pencil(cap, p.delta) if p.delta else P0
        v = p.vector
        res = np.linalg.norm(P.A @ v - p.Lambda * (P.B @ v)) / (
            np.linalg.norm(P.A, 2) + abs(p.Lambda) * np.linalg.norm(P.B, 2))
        assert res < RESIDUAL_TOL
        assert abs(np.real(np.conj(v) @ (P0.mass_one @ v)) - 1.0) < 1e-12
        k = int(np.argmax(np.abs(v)))
        assert v[k].imag == 0.0 and v[k].real > 0.0


def _qz_trajectory(cap, le, grid, branch):
    """Dense-QZ reference: at each delta the certified eigenpair of largest
    weight-one overlap with the previous vector; ``None`` once that overlap
    falls below OVERLAP_MIN."""
    m1 = ct.assemble_pencil(cap).mass_one
    v = le.vector
    lam = le.lam if branch == PLUS_BRANCH else np.conj(le.lam)
    out = []
    for d in grid:
        pairs = ct.solve_pencil(ct.assemble_dissipative_pencil(cap, d)).pairs
        overlaps = [abs(np.conj(v) @ (m1 @ p.vector)) for p in pairs]
        best = pairs[int(np.argmax(overlaps))]
        if max(overlaps) < OVERLAP_MIN:
            return None
        root = np.sqrt(best.Lambda + 0.25)
        lam = min((-0.5 + root, -0.5 - root), key=lambda c: abs(c - lam))
        out.append((best.Lambda, lam))
        v = best.vector
    return out


@pytest.mark.parametrize("alpha, kappa, mode, grid, branch, kept", [
    (np.pi / 4, -0.5, 0, [1e-2, 1e-4, 1e-6], PLUS_BRANCH, True),
    (np.pi / 4, -0.75, 0, [1e-3, 1e-5], MINUS_BRANCH, True),
    (np.pi / 4, -0.93, 1, [1e-2, 1e-4], PLUS_BRANCH, True),
    # a shift held fixed at the previous Lambda loses this one
    (1.143, -0.68, 0, [1e-1, 1e-2], PLUS_BRANCH, True),
    # deep contrast, large first step: both must lose the pair
    (np.pi / 4, -0.97, 0, [1e-1, 1e-2], PLUS_BRANCH, False),
])
def test_trajectory_matches_dense_qz(alpha, kappa, mode, grid, branch, kept):
    cap = ct.build_cap(ct.CapGeometry("internal", alpha),
                       ct.MaterialSpec.from_contrast(kappa), mode, 64, 2)
    le = next(e for e in ct.line_eigenvalues(ct.solve_pencil(ct.assemble_pencil(cap)))
              if e.multiplicity == 1 and not e.near_quarter)
    ref = _qz_trajectory(cap, le, grid, branch)
    assert (ref is not None) == kept
    if not kept:
        with pytest.raises(TrajectoryLost):
            ct.trajectory(cap, le, grid, branch)
        return
    points = ct.trajectory(cap, le, grid, branch)
    for p, (Lam, lam) in zip(points[1:], ref, strict=True):
        assert abs(p.Lambda - Lam) <= 1e-10 * abs(Lam)
        assert abs(p.lam - lam) <= 1e-10 * abs(lam)


@pytest.mark.parametrize("kappa", [-0.5, -0.6])
def test_finite_difference_slope_converges(quarter_tip, kappa):
    # The undamped point is certified by the same iteration as the damped
    # ones, so no rounding error of order 1e-12 is divided by delta_min: the
    # FD error keeps falling from delta_min = 1e-6 to 1e-7 (here by a factor
    # 0.03; under 1-ulp perturbations of A and B, below 0.45).  The QZ
    # cluster mean as the undamped point gives factors of 1.1-1.4.
    cap = ct.build_cap(quarter_tip, ct.MaterialSpec.from_contrast(kappa), 0, 64, 2)
    P0 = ct.assemble_pencil(cap)
    le = ct.line_eigenvalues(ct.solve_pencil(P0))[0]
    (_, dlp, _, _), = ct.perturbation_slope(
        P0, (P0.stiffness_one, P0.mass_one), le)
    err = [abs(ct.finite_difference_slope(ct.trajectory(cap, le, grid)) - dlp) / abs(dlp)
           for grid in (DELTAS, DELTAS + [1e-7])]
    assert err[1] < 0.6 * err[0]


def test_perturbation_matches_finite_difference(tracked):
    cap, P0, le, points = tracked
    (dLam, dlp, dlm, _), = ct.perturbation_slope(
        P0, (P0.stiffness_one, P0.mass_one), le)
    fd = ct.finite_difference_slope(points)
    assert abs(fd - dlp) / abs(dlp) < 0.01
    # branch antisymmetry for the real undamped pencil
    assert abs(dlp + np.conj(dlm)) < 1e-10 * max(1.0, abs(dlp))
    # scaling sigma and delta jointly leaves the slope unchanged
    scaled = ct.MaterialSpec(2.0 * cap.material.sigma_plus,
                             2.0 * cap.material.sigma_minus)
    cap2 = ct.build_cap(cap.geometry, scaled, 0, 64, 2)
    P2 = ct.assemble_pencil(cap2)
    le2 = ct.line_eigenvalues(ct.solve_pencil(P2))[0]
    # same eigenvalue; perturbing by i*delta*(weight-one) against the scaled
    # pencil halves dLambda... the joint scaling multiplies A1, B1 by the
    # same factor, restoring the quotient
    (_, dlp2, _, _), = ct.perturbation_slope(
        P2, (2.0 * P2.stiffness_one, 2.0 * P2.mass_one), le2)
    assert abs(dlp2 - dlp) / abs(dlp) < 1e-8


def test_selection_unique_and_stable(quarter_tip, critical_material, tracked):
    _, _, le, _ = tracked
    sel = ct.select_outgoing_by_absorption([le])
    (choice,) = set(sel.choices.values())
    assert choice in (PLUS_BRANCH, MINUS_BRANCH)

    # finite-difference selection on two delta grids agrees
    cap = ct.build_cap(quarter_tip, critical_material, 0, 64, 2)

    def fd_choice(grid):
        pts = ct.trajectory(cap, le, grid)
        return ct.select_outgoing_by_absorption(
            [le], slope_fn=lambda _: ct.finite_difference_slope(pts))

    s1 = fd_choice(DELTAS)
    s2 = fd_choice([1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    assert s1.choices == s2.choices == sel.choices


def test_ambiguous_on_forced_symmetric_slope():
    # synthetic pencil whose weight-one perturbation is proportional to the
    # pencil itself at the eigenvalue: the projected perturbation vanishes
    eta = 1.0
    Lam = -0.25 - eta * eta
    B = np.array([[1.0, 0.0], [0.0, -1.0]])
    A = np.array([[Lam, 0.0], [0.0, 2.0]])
    phi = np.array([1.0 + 0j, 0.0])
    A1 = Lam * np.eye(2)
    B1 = np.eye(2)
    P = ct.PencilMatrices(A=A, B=B, stiffness_one=A1, mass_one=B1,
                          cap=None, delta=0.0)
    le = ct.LineEigenvalue(eta=eta, Lambda=Lam, mode=0, vector=phi,
                           gram=complex(phi @ (B @ phi)), pencil=P)
    sel = ct.select_outgoing_by_absorption([le])
    assert list(sel.choices.values()) == [AMBIGUOUS]


def test_trajectory_guards(tracked):
    cap, _, le, _ = tracked
    with pytest.raises(DimensionMismatch):
        ct.trajectory(cap, le, [1e-6, 1e-3])
    with pytest.raises(DimensionMismatch):
        ct.finite_difference_slope([])
    # the cap must match the pencil the line eigenvalue was found on
    for other in (ct.build_cap(cap.geometry, cap.material, 1, 64, 2),
                  ct.build_cap(cap.geometry, cap.material, 0, 48, 2)):
        with pytest.raises(DimensionMismatch):
            ct.trajectory(other, le, DELTAS)


def test_slope_at_the_near_quarter_guard():
    # one near-quarter rule: a line eigenvalue at eta = ETA_MIN exactly is not
    # near_quarter (that is eta < ETA_MIN), so its slope is taken and its
    # branch selected, as for any line eigenvalue the CLI treats as usable
    eta = ETA_MIN
    Lam = -0.25 - eta * eta
    B = np.diag([1.0, -1.0])
    P = ct.PencilMatrices(A=np.diag([Lam, 2.0]), B=B, stiffness_one=np.zeros((2, 2)),
                          mass_one=np.eye(2), cap=None, delta=0.0)
    phi = np.array([1.0 + 0j, 0.0])
    le = ct.LineEigenvalue(eta=eta, Lambda=Lam, mode=0, vector=phi,
                           gram=complex(phi @ (B @ phi)), pencil=P)
    assert not le.near_quarter
    sel = ct.select_outgoing_by_absorption([le])
    # dLambda = -i Lambda, so dlambda_plus = -Lambda / (2 eta) > 0
    assert sel.choices == {(0, eta): PLUS_BRANCH}
    assert_allclose(sel.slopes[(0, eta)], -Lam / (2.0 * eta), rtol=1e-12)
    with pytest.raises(PerturbationDegenerate):
        ct.perturbation_slope(P, (P.stiffness_one, P.mass_one),
                              dataclasses.replace(le, eta=0.5 * ETA_MIN, near_quarter=True))


def test_perturbation_degenerate_guard():
    eta = 1.0
    Lam = -0.25 - eta * eta
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = Lam * B + np.diag([0.0, 1.0])
    P = ct.PencilMatrices(A=A, B=B, stiffness_one=np.eye(2), mass_one=np.eye(2),
                          cap=None, delta=0.0)
    phi = np.array([1.0 + 0j, 0.0])
    le = ct.LineEigenvalue(eta=eta, Lambda=Lam, mode=0, vector=phi,
                           gram=0j, pencil=P)
    with pytest.raises(PerturbationDegenerate):
        ct.perturbation_slope(P, (P.stiffness_one, P.mass_one), le)


def test_consistency_self_and_orthogonal(line_evs, basis_small):
    sel = ct.select_outgoing_by_absorption(line_evs)
    report = ct.consistency_report(basis_small, sel, line_evs)
    assert report.agree
    for detail in report.details.values():
        assert max(detail["angles"], default=0.0) < 1e-6
    # flipping every choice selects the incoming span: maximal angles
    flipped = ct.AbsorptionSelection(
        choices={k: (MINUS_BRANCH if v == PLUS_BRANCH else PLUS_BRANCH)
                 for k, v in sel.choices.items()},
        slopes=sel.slopes)
    report2 = ct.consistency_report(basis_small, flipped, line_evs)
    assert not report2.agree
    for detail in report2.details.values():
        assert min(detail["angles"]) > np.pi / 2 - 1e-6


def test_consistency_multi_eta(multi_eta_evs, basis_multi):
    sel = ct.select_outgoing_by_absorption(multi_eta_evs)
    report = ct.consistency_report(basis_multi, sel, multi_eta_evs)
    assert set(report.details) == {(le.mode, le.eta) for le in multi_eta_evs}
    assert report.agree


def test_consistency_recorded_at_contrasts(quarter_tip):
    verdicts = {}
    for kappa in (-0.5, -0.6, -0.75):
        evs = []
        for m in range(3):
            spec = ct.solve_pencil(ct.pencil_for(
                quarter_tip, ct.MaterialSpec.from_contrast(kappa), m, 64, 2))
            evs.extend(ct.line_eigenvalues(spec))
        basis = ct.mandelstam_basis(ct.flux_matrix(ct.singular_space(evs, 1.0)))
        sel = ct.select_outgoing_by_absorption(evs)
        verdicts[kappa] = ct.consistency_report(basis, sel, evs)
    # recorded, not asserted: generic agreement is expected but only reported
    assert all(isinstance(v.agree, bool) for v in verdicts.values())
    assert sum(v.agree for v in verdicts.values()) >= 2
