import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import conetip as ct
from conetip.errors import (CriticalContrastExcluded, InvalidGeometry,
                            NoTransitionFound, NotApplicableDissipative,
                            SeriesDomain)
from conetip.spectrum import _line_census

from conftest import full_spectrum_witnesses


def test_hyp2f1_at_zero():
    for abc in ((0.5, 0.5, 1.0), (1.5, 1.5, 2.0), (3.0, -2.0, 0.7)):
        assert ct.hyp2f1(*abc, 0.0) == 1.0


@given(st.floats(0.05, 1.5), st.floats(-0.9, 0.9))
@settings(max_examples=60, deadline=None)
def test_hyp2f1_binomial_identity(a, z):
    # 2F1(a, b; b; z) = (1 - z)^(-a) for any b
    assert_allclose(ct.hyp2f1(a, 0.75, 0.75, z), (1.0 - z) ** (-a), rtol=1e-12)


def test_hyp2f1_elliptic_oracle():
    # 2F1(1/2, 1/2; 1; z) = (2/pi) K(sqrt(z)) with K from direct quadrature
    z = 0.25
    k = np.sqrt(z)
    K, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - k * k * np.sin(t) ** 2),
                0.0, np.pi / 2, epsabs=1e-13, epsrel=1e-13)
    assert_allclose(ct.hyp2f1(0.5, 0.5, 1.0, z), 2.0 / np.pi * K, rtol=1e-10)


def test_hyp2f1_domain_errors():
    with pytest.raises(SeriesDomain):
        ct.hyp2f1(0.5, 0.5, 1.0, 0.995)
    with pytest.raises(SeriesDomain):
        ct.hyp2f1(0.5, 0.5, -2.0, 0.5)


def test_aleph_quarter_aperture():
    assert round(ct.aleph(np.pi / 4), 3) == 0.218


def test_aleph_symmetric_point_exact():
    assert ct.aleph(np.pi / 2) == 1.0


def test_aleph_reciprocal_symmetry():
    for alpha in np.linspace(0.3, np.pi - 0.3, 20):
        assert abs(ct.aleph(alpha) * ct.aleph(np.pi - alpha) - 1.0) < 1e-10


def test_aleph_monotone_guard():
    with pytest.raises(InvalidGeometry):
        ct.aleph(0.05)
    with pytest.raises(InvalidGeometry):
        ct.aleph(np.pi - 0.05)


def test_has_blackhole(quarter_tip):
    flag, wit = ct.has_blackhole(quarter_tip, -0.5, modes=range(5), elements=64)
    assert flag and wit and wit[0][0] == 0
    flag, wit = ct.has_blackhole(quarter_tip, -0.1, modes=range(5), elements=64)
    assert not flag and wit == []
    with pytest.raises(CriticalContrastExcluded):
        ct.has_blackhole(quarter_tip, 0.5)


CENSUS_GEOMETRIES = [
    ct.CapGeometry("internal", 0.6),
    ct.CapGeometry("internal", np.pi / 4),
    ct.CapGeometry("internal", 1.2),
    ct.CapGeometry("boundary", np.pi / 4, np.pi / 2, "dirichlet"),
    ct.CapGeometry("boundary", 1.0, 2.0, "dirichlet"),
    ct.CapGeometry("boundary", np.pi / 4, 3 * np.pi / 4, "neumann"),
]


def _assert_census_matches_full_spectrum(geometry, kappa, elements):
    # per mode: the same count as the full spectrum, the same eta, and each
    # eta on the banded dispersion curve at this contrast
    modes = range(5)
    _, wit = ct.has_blackhole(geometry, kappa, modes=modes, elements=elements)
    oracle = full_spectrum_witnesses(geometry, kappa, modes, elements)
    for m in modes:
        got = [eta for mm, eta in wit if mm == m]
        want = [eta for mm, eta in oracle if mm == m]
        assert len(got) == len(want), (geometry, kappa, m, got, want)
        assert_allclose(got, want, rtol=5e-9, atol=0)
        relation = ct.dispersion_relation(geometry, m, elements)
        for eta in got:
            assert abs(relation(eta)[0] - kappa) <= 1e-10, (geometry, kappa, m, eta)


@pytest.mark.parametrize("geometry", CENSUS_GEOMETRIES)
def test_has_blackhole_census_matches_full_spectrum(geometry):
    for kappa in (-0.3, -0.5, -0.7, -0.9, -0.98):
        _assert_census_matches_full_spectrum(geometry, kappa, 64)


@pytest.mark.parametrize("geometry, kappa", [
    (CENSUS_GEOMETRIES[1], -0.98),
    (CENSUS_GEOMETRIES[5], -0.98),
])
def test_has_blackhole_census_matches_full_spectrum_fine(geometry, kappa):
    _assert_census_matches_full_spectrum(geometry, kappa, 256)


def test_line_census_at_a_fold(quarter_tip):
    # the fold of kappa_1(eta) at N=96, where the full spectrum calls a pair
    # 4e-6 off the real axis one line eigenvalue: the census stops splitting
    # inside the rounding band and reports one witness, in bounded time
    kappa0 = -0.7806797994809195
    pencil = lambda k: ct.pencil_for(quarter_tip, ct.MaterialSpec.from_contrast(k),
                                     1, 96, 2)
    P = pencil(kappa0)
    t0 = time.perf_counter()
    at = _line_census(P)
    assert time.perf_counter() - t0 < 1.0
    assert len(at) == 1 and abs(at[0] - 2.3631823) < 1e-6
    below = _line_census(pencil(kappa0 - 1e-8))
    oracle = [eta for _, eta in full_spectrum_witnesses(quarter_tip, kappa0 - 1e-8, (1,), 96)]
    assert_allclose(below, oracle, rtol=5e-9, atol=0)
    assert_allclose(below, [2.36251158, 2.36385320], rtol=0, atol=1e-8)
    assert _line_census(pencil(kappa0 + 1e-8)).size == 0
    # 3e-13 below the fold the two roots lie 7e-6 apart, outside the band
    # that the rounding bound leaves between them: two witnesses, not three
    assert len(_line_census(pencil(kappa0 - 3e-13))) == 2


def test_line_census_guards(quarter_tip, positive_material):
    # kappa = 1 leaves the weight-one pencil, with no line eigenvalue
    cap = ct.build_cap(quarter_tip, positive_material, 0, 32, 2)
    assert _line_census(ct.assemble_pencil(cap)).size == 0
    cap = ct.build_cap(quarter_tip, ct.MaterialSpec.from_contrast(-0.5), 0, 32, 2)
    with pytest.raises(NotApplicableDissipative):
        _line_census(ct.assemble_dissipative_pencil(cap, 1e-3))


def test_scan_interval_quarter(quarter_tip):
    ci = ct.scan_interval(quarter_tip, kappa_range=(-0.6, -0.05),
                          modes=(0, 1, 2), elements=64)
    assert ci.flags == ()
    target = -ct.aleph(np.pi / 4)
    assert_allclose(ci.closed_form, target, rtol=1e-12)
    assert abs(ci.endpoint_outer - target) / abs(target) < 0.02
    assert ci.attaining_mode == 0
    # detected interval contains every critical contrast, excludes the rest
    for k in np.linspace(-0.6, -0.05, 12):
        flag, _ = ct.has_blackhole(quarter_tip, k, modes=(0, 1, 2), elements=64,
                                   stop_at_first=True)
        between = min(ci.endpoint_inner, ci.endpoint_outer) - 1e-9 <= k \
            <= max(ci.endpoint_inner, ci.endpoint_outer) + 1e-9
        assert flag == between


def test_scan_interval_guards(quarter_tip):
    with pytest.raises(CriticalContrastExcluded):
        ct.scan_interval(quarter_tip, kappa_range=(-1.5, -0.5))
    with pytest.raises(CriticalContrastExcluded):
        ct.scan_interval(quarter_tip, kappa_range=(-0.99, -0.5))
    with pytest.raises(NoTransitionFound):
        ct.scan_interval(quarter_tip, kappa_range=(-0.12, -0.05), modes=(0,),
                         elements=48)


def test_scan_interval_wide_aperture():
    # mirror aperture: the interval flips to the far side of -1 and the
    # endpoint is the reciprocal of the pi/4 one
    g = ct.CapGeometry("internal", 3 * np.pi / 4)
    ci = ct.scan_interval(g, kappa_range=(-7.0, -1.2), modes=(0, 1), elements=64)
    target = -1.0 / ct.aleph(np.pi / 4)
    assert abs(ci.endpoint_outer - target) / abs(target) < 0.02
    assert_allclose(ci.closed_form, -ct.aleph(3 * np.pi / 4), rtol=1e-12)
    assert_allclose(ci.closed_form, target, rtol=1e-10)


def test_line_count_grows_toward_minus_one(quarter_tip):
    counts = []
    for kappa in (-0.5, -0.7, -0.85, -0.95):
        _, wit = ct.has_blackhole(quarter_tip, kappa, modes=range(4), elements=96)
        counts.append(len(wit))
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_dispersion_against_conical_legendre(quarter_tip):
    # independent oracle: the continuum mode-0 relation is the transmission
    # matching of conical Legendre functions (as in
    # test_line_eigenvalue_against_conical_dispersion), which gives the
    # reciprocal ratio sigma_minus / sigma_plus = 1 / kappa
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    relation = ct.dispersion_relation(quarter_tip, 0, 64)
    x0 = mp.sin(-mp.pi / 2 + mp.pi / 4)
    for eta in (0.3, 1.0, 2.5):
        nu = mp.mpf(-0.5) + 1j * mp.mpf(eta)
        P = lambda x: mp.legenp(nu, 0, x)
        dP = lambda x: mp.diff(P, x)
        ratio = complex(-(P(-x0) * dP(x0)) / (P(x0) * dP(-x0)))
        assert abs(ratio.imag) < 1e-12
        kappa, _ = relation(eta)
        assert abs(kappa * ratio.real - 1.0) < 1e-6


@pytest.mark.parametrize("geometry, mode", [
    (ct.CapGeometry("internal", np.pi / 4), 1),
    (ct.CapGeometry("boundary", np.pi / 4, 3 * np.pi / 4, "dirichlet"), 0),
    (ct.CapGeometry("boundary", np.pi / 4, 3 * np.pi / 4, "neumann"), 0),
])
def test_dispersion_against_qz(geometry, mode):
    # the dense QZ spectrum at kappa = kappa_m(eta) carries Lambda = -1/4 - eta^2
    relation = ct.dispersion_relation(geometry, mode, 64)
    for eta in (0.5, 2.0):
        kappa, _ = relation(eta)
        spec = ct.solve_pencil(ct.pencil_for(
            geometry, ct.MaterialSpec.from_contrast(kappa), mode, 64, 2))
        Lam = -0.25 - eta * eta
        assert np.min(np.abs(spec.Lambdas - Lam)) < 1e-9 * abs(Lam)


def test_scan_interval_fold(quarter_tip):
    # mode 1 alone: its far end is an interior fold of kappa_1(eta), where
    # two line eigenvalues collide into a Jordan point (between -0.79 and
    # -0.78, see test_jordan_contrast_bisection)
    ci = ct.scan_interval(quarter_tip, kappa_range=(-0.95, -0.5), modes=(1,),
                          elements=96)
    assert ci.attaining_mode == 1 and ci.flags == ()
    assert -0.79 < ci.endpoint_outer < -0.78
    probe = lambda k: ct.has_blackhole(quarter_tip, k, modes=(1,),
                                       elements=96)[0]
    assert probe(ci.endpoint_outer - 1e-6)
    assert not probe(ci.endpoint_outer + 1e-6)


FOLD_SCANS = [(ct.CapGeometry("internal", alpha), modes, modes[0])
              for alpha in (0.5, np.pi / 4, 1.0, 1.2) for modes in ((1,), (2, 3))] + [
    # mode 0 of a Neumann rim close to the interface folds too
    (ct.CapGeometry("boundary", np.pi / 4, 3 * np.pi / 8, "neumann"), (0, 1, 2, 3, 4), 0),
    (ct.CapGeometry("boundary", 1.0, 1.4, "neumann"), (0, 1, 2, 3, 4), 0),
]


@pytest.mark.parametrize("geometry, modes, attaining", FOLD_SCANS)
def test_scan_interval_far_end_at_a_fold(geometry, modes, attaining):
    # the far end is an interior fold of kappa_m(eta); the scan reaches it at
    # or beyond the largest of 4001 samples of the same curves
    ci = ct.scan_interval(geometry, kappa_range=(-0.97, -0.05), modes=modes,
                          elements=64)
    assert ci.attaining_mode == attaining
    etas = np.linspace(0.0, 64 / np.pi, 4001)
    relations = [ct.dispersion_relation(geometry, m, 64) for m in modes]
    sampled = max(relation(eta)[0] for relation in relations for eta in etas)
    assert sampled <= ci.endpoint_outer <= sampled + 1e-6


def test_scan_interval_witnesses_bracket_an_inner_fold(quarter_tip, monkeypatch):
    # a synthetic curve that moves toward -1 at both ends of [0, 16/pi] and
    # peaks in between, above both ends, after dipping below the inner end:
    # only the witnesses at the inner end bracket that fold
    def relation(eta):   # krein = -dkappa/deta: negative while moving away from -1
        return -0.6 + 0.2 * np.cos(2.0 * eta + 0.5), 0.4 * np.sin(2.0 * eta + 0.5)

    def witnesses(geometry, kappa, modes, elements, order):
        c = np.arccos((kappa + 0.6) / 0.2)
        phases = [s * c + 2.0 * np.pi * n for n in range(3) for s in (-1.0, 1.0)]
        etas = sorted((ph - 0.5) / 2.0 for ph in phases if ph >= 0.5)
        return bool(etas), [(modes[0], eta) for eta in etas]

    monkeypatch.setattr(ct.interval, "dispersion_relation", lambda *args: relation)
    monkeypatch.setattr(ct.interval, "has_blackhole", witnesses)
    ci = ct.scan_interval(quarter_tip, kappa_range=(-0.95, -0.05), modes=(0,),
                          elements=16)
    assert relation(0.0)[0] < -0.42 and relation(16 / np.pi)[0] < -0.65
    assert abs(ci.endpoint_outer + 0.4) < 1e-12


@pytest.mark.parametrize("order, expected", [(1, 2.0), (2, 4.0)])
def test_endpoint_observed_order(quarter_tip, order, expected):
    # kappa_0(0) is the discrete endpoint; its error against aleph converges
    # at the optimal rate h^(2 order)
    target = -ct.aleph(np.pi / 4)
    errs = [abs(ct.dispersion_relation(quarter_tip, 0, N, order)(0.0)[0] - target)
            for N in (16, 32, 64)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= expected - 0.5
