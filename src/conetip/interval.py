"""Critical contrast intervals: hypergeometric closed form and dispersion curves.

For an internal circular tip of aperture ``alpha`` the set of contrasts whose
symbol pencil carries energy-line eigenvalues is an interval with one endpoint
at -1; the other endpoint is ``-aleph(alpha)`` with

    aleph(a) = F(1/2,1/2;1;c2) F(3/2,3/2;2;s2) / ( F(1/2,1/2;1;s2) F(3/2,3/2;2;c2) )

where ``c2 = cos(a/2)^2``, ``s2 = sin(a/2)^2`` and F is Gauss's hypergeometric
series.  ``aleph`` satisfies ``aleph(a) * aleph(pi - a) = 1`` and equals 1 at
the half-aperture ``pi/2``.  :func:`scan_interval` finds the same interval as
the union of the ranges of the per-mode dispersion curves ``kappa_m(eta)``;
:func:`has_blackhole` is the independent QZ check of one contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cap import (CapGeometry, MaterialSpec, _band, _region_blocks,
                  assemble_pencil, build_cap)
from .errors import (CriticalContrastExcluded, DimensionMismatch, InvalidGeometry,
                     NoTransitionFound, SeriesDomain, SeriesNonconvergent)
from .spectrum import line_eigenvalues, solve_pencil

SERIES_Z_MAX = 0.99
SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 10 ** 6
ALEPH_ALPHA_GUARD = 0.2
DEFAULT_MODES = (0, 1, 2, 3, 4)
CONTRAST_NEIGHBORHOOD_GUARD = 0.02


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric series, summed until the next term falls below
    1e-16 of the partial sum.  Restricted to ``|z| <= 0.99`` where the plain
    series converges geometrically; no transformation formulas."""
    if abs(z) > SERIES_Z_MAX:
        raise SeriesDomain(f"|z|={abs(z)} > {SERIES_Z_MAX}")
    if c <= 0 and c == int(c):
        raise SeriesDomain(f"c={c} is a nonpositive integer")
    total = 1.0
    term = 1.0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= SERIES_REL_TOL * abs(total):
            return total
    raise SeriesNonconvergent(f"series did not converge at z={z}")


def aleph(alpha: float) -> float:
    """Closed-form critical endpoint magnitude for aperture ``alpha``.

    Guarded away from 0 and pi so both series arguments stay within the
    series domain.  The half-angle arguments are formed from ``cos(alpha)``,
    which makes the symmetric cancellation at ``alpha = pi/2`` exact.
    """
    if not ALEPH_ALPHA_GUARD <= alpha <= np.pi - ALEPH_ALPHA_GUARD:
        raise InvalidGeometry(
            f"alpha={alpha} outside [{ALEPH_ALPHA_GUARD}, pi-{ALEPH_ALPHA_GUARD}]")
    c2 = (1.0 + np.cos(alpha)) / 2.0
    s2 = (1.0 - np.cos(alpha)) / 2.0
    num = hyp2f1(0.5, 0.5, 1.0, c2) * hyp2f1(1.5, 1.5, 2.0, s2)
    den = hyp2f1(0.5, 0.5, 1.0, s2) * hyp2f1(1.5, 1.5, 2.0, c2)
    return num / den


def has_blackhole(geometry: CapGeometry, kappa: float, modes=DEFAULT_MODES,
                  elements: int = 64, order: int = 2, stop_at_first: bool = False):
    """Whether any azimuthal mode carries an energy-line eigenvalue at this
    contrast.  Returns ``(flag, witnesses)`` with witnesses ``(mode, eta)``;
    ``stop_at_first`` short-circuits after the first witnessing mode (the
    flag is unaffected, the witness list is then partial)."""
    if kappa >= 0:
        raise CriticalContrastExcluded("contrast must be negative")
    material = MaterialSpec.from_contrast(kappa)
    witnesses = []
    for m in modes:
        P = assemble_pencil(build_cap(geometry, material, m, elements, order))
        witnesses += [(m, le.eta) for le in line_eigenvalues(solve_pencil(P))]
        if witnesses and stop_at_first:
            break
    return len(witnesses) > 0, witnesses


def _interface_schur(A, B, face, u):
    """``Lambda -> (S, b)`` of one region, interface dof at position ``face``:
    ``S = phi^T (A - Lambda B) phi`` and ``b = phi^T B phi`` for ``phi`` the
    unit interface value extended by one banded solve of the interior rows."""
    inner = slice(1, None) if face == 0 else slice(0, -1)
    B_in, a, b = B[inner, inner], A[inner, face], B[inner, face]
    A_band, B_band = _band(A[inner, inner], u), _band(B_in, u)

    def schur(Lam):
        k = a - Lam * b
        x = scipy.linalg.solve_banded((u, u), A_band - Lam * B_band, -k,
                                      check_finite=False)
        return (A[face, face] - Lam * B[face, face] + k @ x,
                B[face, face] + 2.0 * (b @ x) + x @ (B_in @ x))

    return schur


def dispersion_relation(geometry: CapGeometry, mode: int, elements: int = 64,
                        order: int = 2):
    """Per-mode dispersion relation ``eta -> (kappa_m(eta), krein)``.

    At ``Lambda = -1/4 - eta^2`` the pencil splits by region as
    ``sigma_minus K_minus + sigma_plus K_plus``, each ``K = A - Lambda B``
    positive definite on its region.  Eliminating all dofs but the interface
    one leaves ``kappa_m = -S_minus / S_plus``, the one contrast whose pencil
    carries ``Lambda``.  ``krein = b_minus + kappa b_plus`` has the sign of
    ``dkappa/dLambda``, the Krein sign (Gohberg, Lancaster & Rodman, 2005),
    so it changes sign exactly at a fold, a Jordan point.
    """
    # the region blocks do not depend on the cap's coefficient
    cap = build_cap(geometry, MaterialSpec(1.0, 1.0), mode, elements, order)
    p = int(np.searchsorted(cap.dof_map, order * cap.mesh.interface_index))
    sides = [_interface_schur(*(M[block, block] for M in region), face, order)
             for region, block, face in zip(_region_blocks(cap),
                                            (slice(None, p + 1), slice(p, None)),
                                            (-1, 0))]

    def relation(eta):
        (s_minus, b_minus), (s_plus, b_plus) = (side(-0.25 - eta * eta)
                                                for side in sides)
        kappa = -s_minus / s_plus
        return float(kappa), float(b_minus + kappa * b_plus)

    return relation


@dataclass(frozen=True)
class CriticalInterval:
    """Critical interval with closed-form comparison.

    ``endpoint_outer`` / ``endpoint_inner`` are the ends of the union of the
    dispersion curves' ranges away from and toward -1 (the latter clamped to
    the scan range), ``attaining_mode`` the mode reaching ``endpoint_outer``,
    ``per_mode`` the :func:`has_blackhole` witnesses at ``endpoint_inner``
    and ``flags`` the caveats of the comparison.
    """

    alpha: float
    endpoint_inner: float
    endpoint_outer: float
    closed_form: float
    per_mode: dict
    attaining_mode: int
    flags: tuple


def scan_interval(geometry: CapGeometry, kappa_range=(-0.9, -0.05),
                  grid: int = 24, bisect_tol: float = 1e-3,
                  modes=DEFAULT_MODES, elements: int = 64, order: int = 2,
                  map_fn=map) -> CriticalInterval:
    """Critical interval as the union of the ranges of the dispersion curves
    ``kappa_m(eta)``, ``eta >= 0`` (see :func:`dispersion_relation`).

    Each curve is sampled at ``eta_k = (elements/pi) (k/(grid-1))^2``, i.e.
    up to mesh width times eta of about 1.  Its far end from -1 (``eta = 0``
    in mode 0, a fold in modes >= 1) is refined by bisecting the bracket of
    the extreme sample on the Krein sign down to ``bisect_tol`` in eta.  The
    range must avoid the 0.02 neighborhood of -1 and contain the far end
    (else ``no-transition-found``).  ``map_fn`` may evaluate the modes
    concurrently; the merge is ordered.
    """
    lo, hi = sorted(kappa_range)
    if lo >= 0 or hi >= 0:
        raise CriticalContrastExcluded("range must be negative")
    if min(abs(lo + 1.0), abs(hi + 1.0)) < CONTRAST_NEIGHBORHOOD_GUARD \
            or (lo < -1.0 < hi):
        raise CriticalContrastExcluded(
            f"range must avoid the {CONTRAST_NEIGHBORHOOD_GUARD} neighborhood of -1")
    if grid < 1 or not bisect_tol > 0:
        raise DimensionMismatch("need grid >= 1 eta samples and bisect_tol > 0")
    # curves are compared in the coordinate far * kappa, growing away from -1
    far = 1.0 if lo > -1.0 else -1.0
    etas = elements / np.pi * np.linspace(0.0, 1.0, grid) ** 2

    def curve_range(m):
        relation = dispersion_relation(geometry, m, elements, order)
        ys = [far * relation(eta)[0] for eta in etas]
        k = int(np.argmax(ys))
        a, b = etas[max(k - 1, 0)], etas[min(k + 1, grid - 1)]
        outer = ys[k]
        while b - a > bisect_tol:
            mid = 0.5 * (a + b)
            kappa, krein = relation(mid)
            outer = max(outer, far * kappa)
            if far * krein < 0:   # still moving away from -1 as eta grows
                a = mid
            else:
                b = mid
        return outer, min(ys)

    ranges = list(map_fn(curve_range, modes))
    attaining, (y_outer, _) = max(zip(modes, ranges), key=lambda mr: mr[1][0])
    endpoint_outer = far * y_outer
    if not lo < endpoint_outer < hi:
        raise NoTransitionFound("no criticality transition inside the range")
    endpoint_inner = float(np.clip(far * min(r[1] for r in ranges), lo, hi))

    _, inner_wit = has_blackhole(geometry, endpoint_inner, modes, elements, order)
    per_mode = {m: sorted(eta for (mm, eta) in inner_wit if mm == m) for m in modes}
    # no closed form for caps touching the boundary
    internal = geometry.kind == "internal"
    closed = -aleph(geometry.alpha) if internal else float("nan")
    flags = () if internal else ("closed form available for internal tips only",)
    return CriticalInterval(alpha=geometry.alpha,
                            endpoint_inner=endpoint_inner,
                            endpoint_outer=float(endpoint_outer),
                            closed_form=float(closed),
                            per_mode=per_mode, attaining_mode=attaining,
                            flags=flags)
