"""Critical contrast intervals: hypergeometric closed form and dispersion curves.

For an internal circular tip of aperture ``alpha`` the set of contrasts whose
symbol pencil carries energy-line eigenvalues is an interval with one endpoint
at -1; the other endpoint is ``-aleph(alpha)`` with

    aleph(a) = F(1/2,1/2;1;c2) F(3/2,3/2;2;s2) / ( F(1/2,1/2;1;s2) F(3/2,3/2;2;c2) )

where ``c2 = cos(a/2)^2``, ``s2 = sin(a/2)^2`` and F is Gauss's hypergeometric
series.  ``aleph`` satisfies ``aleph(a) * aleph(pi - a) = 1`` and equals 1 at
the half-aperture ``pi/2``.  :func:`scan_interval` finds the same interval as
the union of the ranges of the per-mode dispersion curves ``kappa_m(eta)``,
with no fixed sampling of the curves and no tolerance option;
:func:`has_blackhole` is the check of one contrast that does not rest on the
interface reduction: it counts the line roots of each mode's secular function
(``spectrum._line_census``).  At the interval's inner end these roots cut
each curve into pieces that lie on one side of that end, and so bracket
every fold the scan refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cap import (CapGeometry, MaterialSpec, _band, _region_blocks,
                  assemble_pencil, build_cap)
from .errors import (CriticalContrastExcluded, InvalidGeometry, NoTransitionFound,
                     SeriesDomain, SeriesNonconvergent)
from .spectrum import _line_census

SERIES_Z_MAX = 0.99
SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 10 ** 6
ALEPH_ALPHA_GUARD = 0.2
DEFAULT_MODES = (0, 1, 2, 3, 4)
CONTRAST_NEIGHBORHOOD_GUARD = 0.02
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


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
    contrast.  Returns ``(flag, witnesses)`` with witnesses ``(mode, eta)``,
    ascending in ``eta`` within a mode; ``stop_at_first`` short-circuits
    after the first witnessing mode (the flag is unaffected, the witness list
    is then partial).

    Each mode's line eigenvalues are counted without a spectrum, as the
    certified roots of the weight-one secular function on the line
    (``spectrum._line_census``).  Two roots that meet at a fold within
    rounding are one witness.  A full spectrum shows the same band as a
    conjugate pair just off the real axis; at the fold of mode 1 at
    ``alpha = pi/4``, N = 96, it lies 1.07e-6 (relative) off it, beyond
    ``LINE_TOL``, so ``line_eigenvalues`` drops the pair as complex while
    the census counts one witness."""
    if kappa >= 0:
        raise CriticalContrastExcluded("contrast must be negative")
    material = MaterialSpec.from_contrast(kappa)
    witnesses = []
    for m in modes:
        P = assemble_pencil(build_cap(geometry, material, m, elements, order))
        witnesses += [(m, float(eta)) for eta in _line_census(P)]
        if witnesses and stop_at_first:
            break
    return len(witnesses) > 0, witnesses


def _interface_schur(A, B, face, u):
    """``Lambda -> (S, b)`` of one region, interface dof at position ``face``:
    ``S = phi^T (A - Lambda B) phi`` and ``b = phi^T B phi`` for ``phi`` the
    unit interface value extended by one solve of the interior rows.  The
    interior block ``A - Lambda B`` is positive definite for every
    ``Lambda <= -1/4``, so it is solved by LAPACK's banded Cholesky ``pbsv``
    on its lower band (half-bandwidth ``u``); a nonzero ``info`` raises
    :class:`numpy.linalg.LinAlgError`."""
    inner = slice(1, None) if face == 0 else slice(0, -1)
    # copies, not views: the relation must not keep the dense blocks alive
    a, b = A[inner, face].copy(), B[inner, face].copy()
    A_ff, B_ff = A[face, face], B[face, face]
    A_low, B_low = (_band(M[inner, inner], u)[u:] for M in (A, B))
    import scipy.linalg
    pbsv, = scipy.linalg.get_lapack_funcs(("pbsv",), (A_low,))
    # x^T B x over the lower band's entries B[i + k, i], off the diagonal twice
    k, i = np.nonzero(B_low)
    w, j = np.where(k > 0, 2.0, 1.0) * B_low[k, i], i + k

    def schur(Lam):
        f = a - Lam * b
        _, x, info = pbsv(A_low - Lam * B_low, -f, lower=1,
                          overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"interior block not positive definite (info {info})")
        return A_ff - Lam * B_ff + f @ x, B_ff + 2.0 * (b @ x) + w @ (x[i] * x[j])

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
    p = cap.interface_dof
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
    dispersion curves' ranges away from and toward -1 (the latter the
    extreme of the curves' values at ``eta = 0`` and ``eta_max``, clamped to
    the scan range), ``attaining_mode`` the mode reaching ``endpoint_outer``
    (the first given on ties), ``per_mode`` the :func:`has_blackhole`
    witnesses at ``endpoint_inner``, which bracket the folds the scan
    refines, and ``flags`` the caveats of the comparison and of the scan
    (see :func:`scan_interval`).
    """

    alpha: float
    endpoint_inner: float
    endpoint_outer: float
    closed_form: float
    per_mode: dict
    attaining_mode: int
    flags: tuple


def scan_interval(geometry: CapGeometry, kappa_range=(-0.9, -0.05),
                  modes=DEFAULT_MODES, elements: int = 64,
                  order: int = 2) -> CriticalInterval:
    """Critical interval as the union of the ranges of the dispersion curves
    ``kappa_m(eta)``, ``0 <= eta <= eta_max = elements/pi`` (mesh width times
    eta of about 1; see :func:`dispersion_relation`).

    The inner end (toward -1) is the extreme of the curves' values at
    ``eta = 0`` and ``eta_max``, clamped to the range.  The
    :func:`has_blackhole` witnesses at that contrast are the points where a
    curve meets it, so they cut ``[0, eta_max]`` into intervals on each of
    which the curve stays on one side; one evaluation at the midpoint tells
    which.  Where it lies beyond the inner end, its extreme is at an end of
    the interval (``eta = 0`` in mode 0 of an internal tip) or, when the
    curve moves away from -1 at the left end and toward it at the right end,
    at the fold between them, found by bisecting on the Krein sign until the
    bracket is within ``sqrt(eps)`` of its end: ``kappa`` is stationary at a
    fold, so its error is then at rounding level.  The far end is the
    extreme over the modes, the first of them on ties.  The range must
    avoid the 0.02 neighborhood of -1 and contain the far end (else
    ``no-transition-found``).  The modes are scanned one after another, in
    the order given.

    ``flags`` names two limits of the scan: a curve value it evaluated lies
    on the other side of -1 from the range (a rim's curves can cross -1, and
    the critical contrasts beyond it are not reported), and the inner end is
    a curve's value at ``eta_max``, not clamped by the range (the curve is
    still moving there, so the end moves with the mesh).
    """
    lo, hi = sorted(kappa_range)
    if lo >= 0 or hi >= 0:
        raise CriticalContrastExcluded("range must be negative")
    if min(abs(lo + 1.0), abs(hi + 1.0)) < CONTRAST_NEIGHBORHOOD_GUARD \
            or (lo < -1.0 < hi):
        raise CriticalContrastExcluded(
            f"range must avoid the {CONTRAST_NEIGHBORHOOD_GUARD} neighborhood of -1")
    # curves are compared in the coordinate far * kappa, growing away from -1
    far = 1.0 if lo > -1.0 else -1.0
    eta_max = elements / np.pi
    seen = []   # every (kappa, krein) the scan evaluates

    def traced(relation):
        def evaluate(eta):
            seen.append(relation(eta))
            return seen[-1]
        return evaluate

    relations = [traced(dispersion_relation(geometry, m, elements, order)) for m in modes]
    ends = [(relation(0.0), relation(eta_max)) for relation in relations]
    y_inner = min(far * kappa for end in ends for kappa, _ in end)
    endpoint_inner = float(np.clip(far * y_inner, lo, hi))
    _, inner_wit = has_blackhole(geometry, endpoint_inner, modes, elements, order)
    per_mode = {m: sorted(eta for (mm, eta) in inner_wit if mm == m) for m in modes}

    def curve_outer(m, relation, start, stop):
        cuts = [0.0, *(eta for eta in per_mode[m] if 0.0 < eta < eta_max), eta_max]
        outer = max(far * start[0], far * stop[0])
        last = len(cuts) - 2
        for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
            mid = 0.5 * (a + b)
            kappa, krein = relation(mid)
            if far * kappa <= far * endpoint_inner:   # not beyond, on all of [a, b]
                continue
            outer = max(outer, far * kappa)
            # the curve leaves the inner end at a witness on the left and
            # returns at one on the right; at eta = 0 and eta_max the Krein
            # sign tells its direction
            if (i > 0 or far * start[1] < 0) and (i < last or far * stop[1] >= 0):
                while True:
                    if far * krein < 0:   # still moving away from -1 as eta grows
                        a = mid
                    else:
                        b = mid
                    if b - a <= _SQRT_EPS * b:
                        break
                    mid = 0.5 * (a + b)
                    kappa, krein = relation(mid)
                    outer = max(outer, far * kappa)
        return outer

    outers = [curve_outer(m, relation, *end)
              for m, relation, end in zip(modes, relations, ends)]
    attaining, y_outer = max(zip(modes, outers), key=lambda mo: mo[1])
    endpoint_outer = far * y_outer
    if not lo < endpoint_outer < hi:
        raise NoTransitionFound("no criticality transition inside the range")
    # no closed form for caps touching the boundary
    internal = geometry.kind == "internal"
    closed = -aleph(geometry.alpha) if internal else float("nan")
    flags = () if internal else ("closed form available for internal tips only",)
    if any(far * (kappa + 1.0) < 0.0 for kappa, _ in seen):
        flags += ("curves cross -1: the other side of -1 is not scanned",)
    if any(endpoint_inner == stop[0] for _, stop in ends):
        flags += ("inner end at the mesh cutoff eta_max: it moves with the mesh",)
    return CriticalInterval(alpha=geometry.alpha,
                            endpoint_inner=endpoint_inner,
                            endpoint_outer=float(endpoint_outer),
                            closed_form=float(closed),
                            per_mode=per_mode, attaining_mode=attaining,
                            flags=flags)
