"""Dissipative eigenvalue trajectories and the absorption selection.

Adding ``i*delta`` to the whole coefficient moves every line eigenvalue off
the energy line; exactly one exponent of each conjugate pair
``lambda = -1/2 +/- i*eta`` gains a positive distance to the line and thereby
becomes admissible in the energy space as ``delta -> 0+``.  Tracking the
eigenvector through a descending delta grid (and, independently, a first-order
perturbation formula) identifies that branch; comparing the selected
subspaces with the flux-outgoing basis gives a consistency verdict that is
reported, never hard-asserted, since the two selections are known to agree
only outside a discrete set of contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cap import DiscreteCap, PencilMatrices, _dissipated
from .errors import DimensionMismatch, PerturbationDegenerate, TrajectoryLost
from .flux import MandelstamBasis
from .spectrum import (ETA_MIN, RESIDUAL_TOL, LineEigenvalue, _backward_error,
                       _inverse_step, _normalize_one, _times)

OVERLAP_MIN = 0.9
ANGLE_TOL = 1e-6
SLOPE_AMBIGUOUS = 1e-10
_RQI_MAX_ITER = 30

PLUS_BRANCH = "plus"
MINUS_BRANCH = "minus"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class TrajectoryPoint:
    delta: float
    Lambda: complex
    lam: complex
    vector: np.ndarray
    overlap: float


def trajectory(cap: DiscreteCap, le: LineEigenvalue, delta_grid,
               branch: str = PLUS_BRANCH) -> list:
    """Continue the eigenpair of ``le`` through a descending delta grid.

    At ``delta = 0`` and each grid delta the point is the certified eigenpair
    of ``A0 + i delta A1 - Lambda (B0 + i delta B1)`` (undamped parts from
    ``le.pencil``, which ``cap`` must match in mode and dof count) reached by
    Rayleigh-quotient iteration from the previous pair (from ``le`` at
    ``delta = 0``): shift-and-invert
    solves on the banded pencil (half-bandwidth = element order), the shift
    updated to the two-sided Rayleigh quotient until rounding level.
    A residual not below ``RESIDUAL_TOL`` or a weight-one overlap with the
    previous vector below 0.9 aborts with ``trajectory-lost``.  The exponent
    branch is continued by proximity (never re-picked from the principal
    root, which would jump across the line); vectors are normalized as in
    :func:`~conetip.spectrum.solve_pencil`.
    """
    deltas = list(delta_grid)
    if any(d <= 0 for d in deltas) or any(np.diff(deltas) >= 0):
        raise DimensionMismatch("delta grid must be positive and descending")
    base = le.pencil
    if cap.mode != le.mode or cap.n_dof != base.n:
        raise DimensionMismatch("cap does not match the line eigenvalue's pencil")
    m1 = base.mass_one
    v_prev = np.asarray(le.vector, dtype=complex)
    Lam_prev = complex(le.Lambda)
    lam_prev = complex(-0.5, le.eta if branch == PLUS_BRANCH else -le.eta)
    points = []
    for d in (0.0, *deltas):
        P = _dissipated(base, d)
        Lam, v, res = _rayleigh_iteration(P, Lam_prev, v_prev)
        if not res < RESIDUAL_TOL:
            raise TrajectoryLost(f"no certified eigenpair at delta={d:g} "
                                 f"(residual {res:.2e})")
        v = _normalize_one(v, m1)
        ov = abs(np.conj(v_prev) @ _times(m1, v))
        if ov < OVERLAP_MIN:
            raise TrajectoryLost(f"overlap {ov:.3f} at delta={d:g}")
        root = np.sqrt(Lam + 0.25)
        lam = min((-0.5 + root, -0.5 - root), key=lambda c: abs(c - lam_prev))
        v.setflags(write=False)
        points.append(TrajectoryPoint(delta=float(d), Lambda=Lam,
                                      lam=complex(lam), vector=v,
                                      overlap=float(ov)))
        v_prev, Lam_prev, lam_prev = v, Lam, lam
    return points


def _rayleigh_iteration(P: PencilMatrices, Lam, v):
    """Eigenpair of the cap pencil ``P`` reached from ``(Lam, v)`` by
    shift-and-invert iteration (:func:`~conetip.spectrum._inverse_step`), the
    shift updated each step to the two-sided Rayleigh quotient
    ``x^T A x / x^T B x`` of the complex symmetric pencil.

    Returns ``(Lambda, vector, residual)``, the residual that certifies
    :func:`~conetip.spectrum.solve_pencil`; it stops at rounding level (below
    ``RESIDUAL_TOL`` and no longer halving), at an exactly singular shift, or
    after ``_RQI_MAX_ITER`` solves.
    """
    A, B = P.A, P.B
    res = np.inf
    for _ in range(_RQI_MAX_ITER):
        x = _inverse_step(P, Lam, v)
        if x is None:
            break
        x = x / np.linalg.norm(x)
        Lam_x = complex(x @ _times(A, x) / (x @ _times(B, x)))
        res_x = _backward_error(A, B, x[:, None], Lam_x)[0]
        if res < RESIDUAL_TOL and not res_x < res / 2:
            break
        Lam, v, res = Lam_x, x, res_x
    return Lam, v, res


def perturbation_slope(P0: PencilMatrices, P1_parts, le: LineEigenvalue):
    """First-order eigenvalue motion under ``sigma + i*delta``.

    With ``phi`` the line eigenvalue's eigenvector,
    ``dLambda/ddelta = i phi^T (A1 - Lambda B1) phi / (phi^T B0 phi)`` and
    ``dlambda/ddelta = dLambda / (2 lambda + 1)`` per branch.  Returns the
    one-element list ``[(dLambda, dlambda_plus, dlambda_minus, phi)]``.
    """
    A1, B1 = P1_parts
    if le.eta < ETA_MIN:
        raise PerturbationDegenerate("eta at the double-root guard")
    phi = np.asarray(le.vector, dtype=complex)
    m = complex(phi @ _times(A1 - le.Lambda * B1, phi))
    g = complex(phi @ _times(P0.B, phi))
    if abs(g) < 1e-12 * max(1.0, abs(m)):
        raise PerturbationDegenerate("sigma-Gram vanishes (Jordan-adjacent)")
    dL = 1j * m / g
    lam_p = complex(-0.5, le.eta)
    lam_m = complex(-0.5, -le.eta)
    return [(dL, dL / (2 * lam_p + 1), dL / (2 * lam_m + 1), phi)]


@dataclass(frozen=True)
class AbsorptionSelection:
    """Which exponent branch each conjugate pair selects under dissipation.

    ``choices`` maps the ``(mode, eta)`` of each line eigenvalue to
    ``"plus"``, ``"minus"`` or ``"ambiguous"``, and ``slopes`` to the
    ``dlambda_plus/ddelta`` it was decided on; the selected branch is the one
    whose exponent moves to the admissible side ``Re(lambda) > -1/2``.
    """

    choices: dict
    slopes: dict

    def branch(self, mode: int, eta: float) -> str:
        return self.choices[(mode, eta)]


def select_outgoing_by_absorption(line_evs, slope_fn=None) -> AbsorptionSelection:
    """Per-pair branch selection from the perturbation slopes.

    ``line_evs`` is an iterable of line eigenvalues (each carrying its
    pencil); ``slope_fn(le) -> dlambda_plus`` may be supplied to select from
    a finite-difference trajectory slope instead of the analytic formula.
    Exactly one branch of each pair has ``Re(dlambda/ddelta) > 0`` unless the
    slope's real part falls inside the ambiguity band, which is flagged
    instead of forced.
    """
    choices, slopes = {}, {}
    for le in line_evs:
        if slope_fn is not None:
            dlp = slope_fn(le)
        else:
            P0 = le.pencil
            (_, dlp, _, _), = perturbation_slope(
                P0, (P0.stiffness_one, P0.mass_one), le)
        key = (le.mode, le.eta)
        scale = max(abs(dlp), 1.0)
        if dlp.real > SLOPE_AMBIGUOUS * scale:
            choices[key] = PLUS_BRANCH
        elif dlp.real < -SLOPE_AMBIGUOUS * scale:
            choices[key] = MINUS_BRANCH
        else:
            choices[key] = AMBIGUOUS
        slopes[key] = dlp
    return AbsorptionSelection(choices=choices, slopes=slopes)


def finite_difference_slope(points) -> complex:
    """Trajectory-based slope ``(lambda(delta_min) - lambda(0)) / delta_min``."""
    if len(points) < 2 or points[0].delta != 0.0:
        raise DimensionMismatch("need the undamped point first")
    last = points[-1]
    return (last.lam - points[0].lam) / last.delta


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Comparison of the absorption-selected subspace with the flux-outgoing
    one, per (mode, eta): principal angles and an overall agreement flag.
    Report only; disagreement is a finding, not a failure."""

    agree: bool
    details: dict


def consistency_report(basis: MandelstamBasis, selection: AbsorptionSelection,
                       line_evs) -> ConsistencyVerdict:
    """Principal angles between span(outgoing) and the absorption-selected
    span in each (mode, eta) block; they agree when none exceeds ``ANGLE_TOL``."""
    import scipy.linalg
    space = basis.flux.basis_ref
    details = {}
    agree = True
    for le in line_evs:
        key = (le.mode, le.eta)
        idx = [i for i, m in enumerate(space.members)
               if m.mode == le.mode and m.eta == le.eta]
        if not idx:
            raise DimensionMismatch("line eigenvalue not represented in the space")
        plus_block = basis.plus_coords[idx, :]
        plus_block = plus_block[:, np.abs(plus_block).sum(axis=0) > 0]

        # the selected field is the eigenvector's level-0 member on the
        # chosen branch (the conjugated one for the minus branch)
        conjugated = {PLUS_BRANCH: False, MINUS_BRANCH: True}.get(
            selection.choices.get(key))
        S = np.array([[m.chain_level == 0 and m.conjugated == conjugated]
                      for m in (space.members[i] for i in idx)], dtype=complex)
        if not S.any():
            details[key] = {"angles": (), "note": "no unambiguous selection"}
            agree = False
            continue
        angles = scipy.linalg.subspace_angles(plus_block, S)
        details[key] = {"angles": tuple(float(a) for a in angles)}
        if angles.size and angles.max() > ANGLE_TOL:
            agree = False
    return ConsistencyVerdict(agree=agree, details=details)
