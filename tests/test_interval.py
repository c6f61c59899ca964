import importlib.util
import itertools
import json
import pathlib
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import conetip as ct
from conetip.errors import (CriticalContrastExcluded, InvalidGeometry,
                            NoTransitionFound, SeriesDomain)

from conetip.interval import DEFAULT_MODES
from conetip.io import parse_config

from conftest import bisect_fold, full_spectrum_witnesses, secular_witnesses


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


CENSUS_CONTRASTS = (-0.1, -0.3, -0.5, -0.7, -0.9, -0.98, -2.0, -5.0)


def _assert_census_matches_oracles(geometry, kappa, elements, order=2):
    # per mode: the same count as the secular census on the pencil and as
    # the full spectrum, the same eta, and each eta on the banded dispersion
    # curve at this contrast
    modes = range(5)
    _, wit = ct.has_blackhole(geometry, kappa, modes=modes, elements=elements, order=order)
    oracles = (secular_witnesses(geometry, kappa, modes, elements, order),
               full_spectrum_witnesses(geometry, kappa, modes, elements, order))
    for m in modes:
        got = [eta for mm, eta in wit if mm == m]
        for oracle in oracles:
            want = [eta for mm, eta in oracle if mm == m]
            assert len(got) == len(want), (geometry, kappa, elements, order, m, got, want)
            assert_allclose(got, want, rtol=5e-9, atol=0)
        relation = ct.dispersion_relation(geometry, m, elements, order)
        for eta in got:
            assert abs(relation(eta)[0] - kappa) <= 1e-10, (geometry, kappa, m, eta)


@pytest.mark.parametrize("geometry", CENSUS_GEOMETRIES)
def test_has_blackhole_census_matches_full_spectrum(geometry):
    for kappa, elements, order in itertools.product(CENSUS_CONTRASTS, (32, 64), (1, 2)):
        _assert_census_matches_oracles(geometry, kappa, elements, order)


@pytest.mark.parametrize("geometry, kappa", [
    (CENSUS_GEOMETRIES[1], -0.98),
    (CENSUS_GEOMETRIES[5], -0.98),
])
def test_has_blackhole_census_matches_full_spectrum_fine(geometry, kappa):
    for order in (1, 2):
        _assert_census_matches_oracles(geometry, kappa, 256, order)


def test_line_census_at_a_fold(quarter_tip):
    # the fold of kappa_1(eta) at N=96, where the full spectrum calls a pair
    # 4e-6 off the real axis one line eigenvalue: the census stops splitting
    # inside the rounding band and reports one witness, in bounded time, at
    # the fold (where its two neighbours meet)
    kappa0 = -0.7806797994809195
    census = lambda k: [eta for _, eta in ct.has_blackhole(quarter_tip, k, (1,), 96)[1]]
    t0 = time.perf_counter()
    at = census(kappa0)
    assert time.perf_counter() - t0 < 1.0
    assert len(at) == 1 and abs(at[0] - 2.3631823) < 1e-6
    below = census(kappa0 - 1e-8)
    for oracle in (secular_witnesses, full_spectrum_witnesses):
        assert_allclose(below, [eta for _, eta in oracle(quarter_tip, kappa0 - 1e-8, (1,), 96)],
                        rtol=5e-9, atol=0)
    assert_allclose(below, [2.36251158, 2.36385320], rtol=0, atol=1e-8)
    assert census(kappa0 + 1e-8) == []


def test_line_census_guards(quarter_tip):
    # the census takes negative contrasts; where the two regions' mass Schur
    # complements balance, F has no far end, and the census says so rather
    # than count
    for kappa in (1.0, 0.5):
        with pytest.raises(CriticalContrastExcluded):
            ct.has_blackhole(quarter_tip, kappa)
    for geometry, mode in ((quarter_tip, 1), (CENSUS_GEOMETRIES[5], 0)):
        m_minus, m_plus = ct.interval._Stack(ct.dispersion_relation(geometry, mode, 64).sides).m
        flat = -m_minus / m_plus
        with pytest.raises(CriticalContrastExcluded, match="mass Schur complements"):
            ct.has_blackhole(geometry, flat, modes=(mode,))
        # a contrast a little off it has a far end
        ct.has_blackhole(geometry, flat * (1.0 + 1e-6), modes=(mode,))


def test_stacked_solve_has_each_sides_bits(quarter_tip):
    # one solve of requests from modes 0 and 3, both regions, a side twice:
    # each block's solution has the bits of that side's own solve, and the
    # stack's S and b differ from the side's by less than their rounding
    # bounds (their sums run in another order).  The band entries past the
    # end of each side's block, which its own solve does not read, are set
    # to 1: the stack must not couple its blocks through them
    sides = [side for m in (0, 3) for side in ct.dispersion_relation(quarter_tip, m, 64).sides]
    for side in sides:
        for d in range(1, len(side.A_in)):
            side.A_in[d, -d:] = side.B_in[d, -d:] = 1.0
    stack = ct.interval._Stack(sides)
    blocks = np.array([0, 3, 1, 2, 3, 0])
    Lams = np.array([-0.25, -0.25, -3.0, -1e3, -7.5, -2e5])
    x, at, *_ = stack.solve(blocks, Lams)
    assert at[-1] + len(sides[0].b) == len(x)
    S, b, e_S, e_b = stack.bounded(blocks, Lams)
    for j, (i, Lam) in enumerate(zip(blocks, Lams)):
        _, own = sides[i]._solve(Lam)
        assert np.array_equal(x[at[j]:at[j] + len(own)], own)
        S_own, b_own = sides[i](Lam)
        assert abs(S[j] - S_own) <= e_S[j] and abs(b[j] - b_own) <= e_b[j]


@pytest.mark.parametrize("geometry", [CENSUS_GEOMETRIES[1], CENSUS_GEOMETRIES[5]])
def test_has_blackhole_stop_at_first_is_a_prefix(geometry):
    # the flag of the full call, and its witnesses of the modes up to the
    # first witnessing one, in the order given
    modes = (3, 1, 4, 0, 2)
    for kappa in (-0.1, -0.3, -0.5, -0.7, -0.9, -0.98):
        flag, wit = ct.has_blackhole(geometry, kappa, modes, 64)
        first, partial = ct.has_blackhole(geometry, kappa, modes, 64, stop_at_first=True)
        assert first == flag
        upto = modes[:modes.index(wit[0][0]) + 1] if wit else ()
        assert partial == [w for w in wit if w[0] in upto]


def test_has_blackhole_stop_at_first_raises_nothing_after_a_witness(quarter_tip, monkeypatch):
    # mode 3's interior mass is made indefinite and mode 4's relation fails
    # to build: a call that reaches them raises, one that stops at mode 0's
    # witness does not
    real = ct.interval.dispersion_relation

    def relation(geometry, mode, elements, order):
        if mode == 4:
            raise ValueError("mode 4")
        built = real(geometry, mode, elements, order)
        if mode == 3:
            for side in built.sides:
                side.B_in = -side.B_in
        return built

    monkeypatch.setattr(ct.interval, "dispersion_relation", relation)
    flag, wit = ct.has_blackhole(quarter_tip, -0.5, (0, 3, 4), 64, stop_at_first=True)
    assert flag and {m for m, _ in wit} == {0}
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        ct.has_blackhole(quarter_tip, -0.5, (0, 3, 4), 64)
    with pytest.raises(np.linalg.LinAlgError):
        ct.has_blackhole(quarter_tip, -0.5, (3, 0), 64, stop_at_first=True)
    with pytest.raises(ValueError, match="mode 4"):
        ct.has_blackhole(quarter_tip, -0.5, (4, 0, 3), 64, stop_at_first=True)
    # the modes before a failing one are searched, and stop the call
    flag, wit = ct.has_blackhole(quarter_tip, -0.1, (1, 0), 64, stop_at_first=True)
    assert not flag
    with pytest.raises(ValueError, match="mode 4"):
        ct.has_blackhole(quarter_tip, -0.1, (1, 0, 4), 64, stop_at_first=True)


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


# the apertures of the interval_scan benchmark at seed 7
BENCH_APERTURES = (np.pi / 4, 0.67501145599256, 0.827665656116349, 0.9330822828294232,
                   0.9870248627988709, 1.116019954189347)


def _compare_outputs_scans():
    """``scan_interval`` arguments of every interval config of
    ``tools/compare_outputs.py``, read as the CLI reads them."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    scans = []
    for config in tool.CONFIGS.values():
        if config["subcommand"] == "interval":
            run = parse_config(json.dumps(config))
            scans.append((run.geometry, tuple(run.sweep["kappa_range"]), run.modes,
                          run.mesh["elements"], run.mesh["order"]))
    return scans


ORACLE_SCANS = [(geometry, (-0.97, -0.05), modes, 64, 2) for geometry, modes, _ in FOLD_SCANS] + [
    (ct.CapGeometry("internal", alpha), (-0.9, -0.05), DEFAULT_MODES, elements, 2)
    for alpha in BENCH_APERTURES for elements in (64, 128)] + _compare_outputs_scans()


def _counting(monkeypatch):
    """Count the scan's curve evaluations: the points of its stacked rounds,
    and those of each fold search (one entry per search)."""
    counts = SimpleNamespace(stacked=0, folds=[])
    at, fold = ct.interval._Curves.at, ct.interval._fold

    def counted_at(self, points):
        counts.stacked += len(points)
        return at(self, points)

    def counted_fold(curve, *bracket):
        counts.folds.append(0)

        def counted(eta):
            counts.folds[-1] += 1
            return curve(eta)
        return fold(counted, *bracket)

    monkeypatch.setattr(ct.interval._Curves, "at", counted_at)
    monkeypatch.setattr(ct.interval, "_fold", counted_fold)
    return counts


@pytest.mark.parametrize("scan", ORACLE_SCANS)
def test_fold_search_matches_the_bisection_oracle(scan, monkeypatch):
    # the same decisions as the bisection, and the far end within the noise
    # of a kappa evaluation: each keeps the largest of differently placed
    # samples; at most 12 evaluations per fold
    counts = _counting(monkeypatch)
    ci = ct.scan_interval(*scan)
    assert max(counts.folds, default=0) <= 12, counts.folds
    with monkeypatch.context() as m:
        m.setattr(ct.interval, "_fold", bisect_fold)
        oracle = ct.scan_interval(*scan)
    assert (ci.flags, ci.attaining_mode, ci.endpoint_inner, ci.per_mode) == (
        oracle.flags, oracle.attaining_mode, oracle.endpoint_inner, oracle.per_mode)
    assert abs(ci.endpoint_outer - oracle.endpoint_outer) <= 5e-14 * abs(oracle.endpoint_outer)


def test_default_scan_evaluation_count(quarter_tip, monkeypatch):
    # 10 ends and 10 piece midpoints in two stacked rounds, and two fold
    # searches: 32 evaluations (73 with the bisection)
    counts = _counting(monkeypatch)
    ct.scan_interval(quarter_tip, modes=range(5), elements=64)
    assert counts.stacked == 20 and len(counts.folds) == 2
    assert counts.stacked + sum(counts.folds) <= 45


@pytest.mark.parametrize("geometry", [CENSUS_GEOMETRIES[1], CENSUS_GEOMETRIES[3],
                                      FOLD_SCANS[-2][0]])
def test_stacked_rounds_have_the_bits_of_the_relations(geometry):
    # a stacked round of every mode at the ends and inside the line gives
    # each point the bits of that mode's own dispersion_relation
    modes, elements = (4, 0, 2, 1, 3), 64
    curves = ct.interval._Curves(geometry, modes, elements, 2)
    etas = (0.0, 1e-3, 0.7, 2.5, 9.0, elements / np.pi)
    points = [(j, eta) for eta in etas for j in range(len(modes))]
    relations = [ct.dispersion_relation(geometry, m, elements, 2) for m in modes]
    assert curves.at(points) == [relations[j](eta) for j, eta in points]
    assert curves.at(points) == [curves.relations[j](eta) for j, eta in points]


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

    # the scan reads its curves and stacked rounds from one _Curves, and
    # hands its stack to has_blackhole
    curves = SimpleNamespace(relations=[relation], stack=None,
                             at=lambda points: [relation(eta) for _, eta in points])
    monkeypatch.setattr(ct.interval, "_Curves", lambda *args: curves)
    monkeypatch.setattr(ct.interval, "has_blackhole", lambda *args, _stack: witnesses(*args))
    ci = ct.scan_interval(quarter_tip, kappa_range=(-0.95, -0.05), modes=(0,),
                          elements=16)
    assert relation(0.0)[0] < -0.42 and relation(16 / np.pi)[0] < -0.65
    assert abs(ci.endpoint_outer + 0.4) < 1e-12


RIM_ONLY = "closed form available for internal tips only"
CROSSES = "curves cross -1: the other side of -1 is not scanned"
AT_CUTOFF = "inner end at the mesh cutoff eta_max: it moves with the mesh"


@pytest.mark.parametrize("kappa_range, inner, outer", [
    ((-0.97, -0.05), -0.97, -0.8591),
    ((-5.0, -1.03), -1.03, -2.7535),
])
def test_scan_interval_flags_curves_across_minus_one(kappa_range, inner, outer):
    # on this Neumann rim modes 0-2 start below -1 (-1.081, -2.754, -1.611
    # at eta = 0) and mode 0 folds above it (-0.859): a range on either side
    # of -1 reports its own side and says that the curves cross -1
    g = ct.CapGeometry("boundary", 0.5, 0.7, "neumann")
    ci = ct.scan_interval(g, kappa_range=kappa_range, modes=(0, 1, 2), elements=64)
    assert ci.endpoint_inner == inner
    assert abs(ci.endpoint_outer - outer) < 1e-4
    assert ci.flags == (RIM_ONLY, CROSSES)


@pytest.mark.parametrize("elements, inner", [(32, -1.8329), (64, -1.1966), (128, None)])
def test_scan_interval_flags_an_inner_end_at_the_cutoff(elements, inner):
    # on a Neumann rim with a 0.05 gap every curve still rises toward -1 at
    # eta_max = N/pi, so an unclamped inner end moves with the mesh; at
    # N = 128 the range clamps it
    g = ct.CapGeometry("boundary", 0.5, 0.55, "neumann")
    ci = ct.scan_interval(g, kappa_range=(-20.0, -1.05), modes=(0, 1), elements=elements)
    if inner is None:
        assert ci.endpoint_inner == -1.05 and AT_CUTOFF not in ci.flags
    else:
        assert abs(ci.endpoint_inner - inner) < 1e-4 and AT_CUTOFF in ci.flags
        relation = ct.dispersion_relation(g, 1, elements)
        assert ci.endpoint_inner == relation(elements / np.pi)[0]


@pytest.mark.parametrize("order, expected", [(1, 2.0), (2, 4.0)])
def test_endpoint_observed_order(quarter_tip, order, expected):
    # kappa_0(0) is the discrete endpoint; its error against aleph converges
    # at the optimal rate h^(2 order)
    target = -ct.aleph(np.pi / 4)
    errs = [abs(ct.dispersion_relation(quarter_tip, 0, N, order)(0.0)[0] - target)
            for N in (16, 32, 64)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= expected - 0.5
