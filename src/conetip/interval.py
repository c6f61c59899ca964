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
:func:`has_blackhole` is the check of one contrast, on the same interface
reduction: it counts each mode's line eigenvalues as the certified roots of
``S_minus + kappa S_plus``, the two regions' Schur complements that the
dispersion curves evaluate (:func:`_line_witnesses`), with no pencil and no
spectrum.  At the interval's inner end these roots cut each curve into
pieces that lie on one side of that end, and so bracket every fold the scan
refines, by Brent's method on the Krein sign.  The scan assembles every
mode's curve at once and evaluates its curves' ends and piece midpoints in
stacked rounds, on the stack its census runs on (:class:`_Curves`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .cap import CapGeometry, _region_bands
from .errors import (CriticalContrastExcluded, InvalidGeometry, NoTransitionFound,
                     SeriesDomain, SeriesNonconvergent)
from .spectrum import _definite_margin, _lower_times

_EPS = np.finfo(float).eps
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
                  elements: int = 64, order: int = 2, stop_at_first: bool = False,
                  *, _stack=None):
    """Whether any azimuthal mode carries an energy-line eigenvalue at this
    contrast.  Returns ``(flag, witnesses)`` with witnesses ``(mode, eta)``,
    ascending in ``eta`` within a mode; ``stop_at_first`` short-circuits
    after the first witnessing mode (the flag is unaffected, the witness list
    is then partial, and no later mode raises).

    Each mode's line eigenvalues are counted on the interface reduction of
    :func:`dispersion_relation`, with no pencil and no spectrum: they are the
    certified roots ``Lambda = -1/4 - eta^2`` of
    ``S_minus(Lambda) + kappa S_plus(Lambda)``, the two regions' Schur
    complements (:func:`_line_witnesses`, all modes at once).  Two roots that
    meet at a fold within rounding are one witness.  A full spectrum shows
    the same band as a conjugate pair just off the real axis; at the fold of
    mode 1 at ``alpha = pi/4``, N = 96, it lies 1.07e-6 (relative) off it,
    beyond ``LINE_TOL``, so ``line_eigenvalues`` drops the pair as complex
    while the census counts one witness.  A contrast where the two regions'
    mass Schur complements balance (the census has no far end there) raises
    :class:`~conetip.errors.CriticalContrastExcluded`.  :func:`scan_interval`
    hands over the stack of its curves' sides (:class:`_Curves`) as the
    private ``_stack``, and the census runs on it."""
    if kappa >= 0:
        raise CriticalContrastExcluded("contrast must be negative")
    modes = list(modes)
    found = _line_witnesses(modes, lambda m: dispersion_relation(geometry, m, elements, order),
                            kappa, stop_at_first, _stack)
    witnesses = [(m, float(eta)) for m, etas in zip(modes, found) for eta in etas]
    return len(witnesses) > 0, witnesses


class _Side:
    """One region's block reduced to its interface dof, from its matrices in
    lower band storage (half-bandwidth ``u``) with the interface dof first
    (``face = 0``) or last (``face = -1``): called at ``Lambda``, it returns
    ``S = phi^T (A - Lambda B) phi`` and ``b = phi^T B phi = -S'`` for
    ``phi`` the unit interface value extended by one solve of the interior
    rows.  The interior block ``K = A - Lambda B`` is positive definite for
    every ``Lambda <= -1/4``, so it is solved by LAPACK's banded Cholesky
    ``pbsv`` on its lower band; a nonzero ``info`` raises
    :class:`numpy.linalg.LinAlgError`.  The census evaluates many sides and
    points in one solve (:class:`_Stack`).

    In the interior eigenbasis ``S = L(Lambda) - sum_j r_j^2 / (nu_j - Lambda)``
    with ``L`` affine and every ``nu_j > -1/4``, so on ``Lambda <= -1/4``
    ``S`` is decreasing and concave and ``b`` increasing."""

    def __init__(self, A, B, face):
        u, m = len(A) - 1, A.shape[1]
        k = np.arange(1, min(u, m - 1) + 1)
        # the interior's band and its coupling column to the face, with its zeros
        if face == 0:
            A_in, B_in = A[:, 1:], B[:, 1:]
            at = k - 1
            a_k, b_k = A[k, 0], B[k, 0]
        else:
            A_in, B_in = A[:, :-1].copy(), B[:, :-1].copy()
            at = m - 1 - k
            a_k, b_k = A[k, at], B[k, at]
            A_in[k, at] = B_in[k, at] = 0.0
        self.A_in, self.B_in = A_in, B_in
        self.a, self.b = np.zeros(m - 1), np.zeros(m - 1)
        self.a[at], self.b[at] = a_k, b_k
        self.A_ff, self.B_ff = A[0, face], B[0, face]
        self._norms = (A_in[0].max(), B_in[0].max(),
                       np.sqrt(self.a @ self.a), np.sqrt(self.b @ self.b))
        import scipy.linalg
        self._pbsv, = scipy.linalg.get_lapack_funcs(("pbsv",), (A_in,))

    def _solve(self, Lam):
        f = self.a - Lam * self.b
        _, x, info = self._pbsv(self.A_in - Lam * self.B_in, -f, lower=1,
                                overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"interior block not positive definite (info {info})")
        return f, x

    def __call__(self, Lam):
        f, x = self._solve(Lam)
        return _interface(self.A_ff, self.B_ff, Lam, f, x, self.b, self.B_in,
                          _products(x, len(self.B_in) - 1))


def _products(x, u):
    """``[x_i x_(i+d)]`` over ``i``, for ``d = 0, ..., u``."""
    return [x * x] + [x[:-d] * x[d:] for d in range(1, u + 1)]


def _interface(A_ff, B_ff, Lam, f, x, b, B_in, products):
    """``(S, b)`` of a side at ``Lambda`` from its interior solve ``x``, the
    right-hand side ``f = a - Lambda b`` and the :func:`_products` of ``x``
    (which may run on past ``x``): ``S = A_ff - Lambda B_ff + f^T x`` and
    ``b = B_ff + 2 b^T x + x^T B_in x``, over the lower band storage
    ``B_in``, each off-diagonal entry twice."""
    n = len(x)
    quadratic = B_in[0] @ products[0][:n] + 2.0 * sum(
        B_in[d, :n - d] @ products[d][:n - d] for d in range(1, len(B_in)))
    return A_ff - Lam * B_ff + f @ x, B_ff + 2.0 * (b @ x) + quadratic


def _indefinite(side, what):
    """The error of a side of a :class:`_Stack` whose ``what`` is not
    positive definite, its index as ``.side``."""
    err = np.linalg.LinAlgError(f"{what} not positive definite")
    err.side = int(side)
    return err


def _cross(Mb, x):
    """By column ``i``, the terms ``sum_d M[i + d, i] x_i x_(i+d)`` of
    ``x^T M x`` below the diagonal, for ``M`` in lower band storage ``Mb``."""
    out = np.zeros(len(x))
    for d in range(1, len(Mb)):
        out[:-d] += Mb[d, :-d] * (x[:-d] * x[d:])
    return out


class _Stack:
    """The interior blocks of several :class:`_Side` objects side by side on
    one lower band, with exact zeros between them: any list of requests
    ``(side, Lambda)`` is one block-diagonal matrix, solved by one LAPACK
    ``pbsv``.  The banded Cholesky of a block meets only zeros from its
    neighbours, so each block's factor and solution have the bits of its own
    ``pbsv``.  A request list's columns come from the blocks' first columns
    and sizes, with no loop over its requests, and each column's entries
    (its band of ``A_in`` and ``B_in``, and its entries of ``a`` and ``b``)
    are one column of a table, gathered in one take.

    Built, it holds each side's two constants of the census, found on the
    stack too: an upper bound on ``||K(Lambda)^-1||_2`` for every
    ``Lambda <= -1/4`` (in ``scalars``), and ``p`` and ``m`` of the interface
    value's extension by one solve of the interior *mass* rows, ``psi``:
    ``p = psi^T A psi`` and ``m = psi^T B psi``, the least ``phi^T B phi``
    over every extension.  Then ``L(Lambda) = p - Lambda m >= S(Lambda)``,
    and ``L - S`` is nondecreasing in ``Lambda``, its derivative being
    ``b - m >= 0``.  ``K(Lambda) = K(-1/4) + (-1/4 - Lambda) B`` only grows,
    so the inverse norm is ``1 / s`` for ``s`` below the smallest eigenvalue
    of ``K(-1/4)``: four inverse-iteration steps give its Rayleigh quotient
    ``theta``, and ``s = theta / 2`` is divided by 4 until a banded Cholesky
    certifies ``K(-1/4) - s I`` positive definite (as
    :func:`~conetip.spectrum._certainly_definite` does).  A side whose
    interior block or interior mass is not positive definite raises
    :class:`numpy.linalg.LinAlgError`, with its index as ``.side``."""

    def __init__(self, sides):
        from scipy.linalg import lapack
        self.u = u = len(sides[0].A_in) - 1
        self.size = np.array([side.A_in.shape[1] for side in sides])
        self.first = np.cumsum(self.size) - self.size
        # rows: the lower bands of A_in and B_in, then a and b
        self.table = np.hstack([np.vstack([side.A_in, side.B_in, side.a, side.b])
                                for side in sides])
        # the band entries past the end of a block would couple it to the next
        past = np.arange(self.table.shape[1]) - np.repeat(self.first + self.size, self.size)
        for d in range(1, u + 1):
            self.table[d, past + d >= 0] = self.table[u + 1 + d, past + d >= 0] = 0.0
        self._pbsv = sides[0]._pbsv
        A, B, a, b = np.split(self.table, [u + 1, 2 * u + 2, 2 * u + 3])
        a, b = a[0], b[0]
        A_ff, B_ff = np.array([(side.A_ff, side.B_ff) for side in sides]).T

        K = A + 0.25 * B
        L, info = lapack.dpbtrf(K, lower=1)
        self._check(info, np.arange(len(sides)), self.first, "interior block")
        x = np.ones(K.shape[1])
        for _ in range(4):
            x = lapack.dpbtrs(L, x, lower=1)[0]
            x /= np.repeat(np.sqrt(np.add.reduceat(x * x, self.first)), self.size)
        s = 0.5 * np.add.reduceat(x * _lower_times(K, x), self.first)
        # certify K - s I, side by side: where one fails, its s is divided by
        # 4 and it is tried again with the sides after it
        todo, margin = np.arange(len(sides)), _definite_margin(K)
        while len(todo):
            if not (s[todo] > 0.0).all():
                raise _indefinite(todo[np.argmin(s[todo] > 0.0)], "interior block")
            index, at = self._columns(todo)
            H = K.take(index, axis=1)
            H[0] = (H[0] - np.repeat(s[todo], self.size[todo])) - margin * H[0]
            info = lapack.dpbtrf(H, lower=1)[1]
            if info == 0:
                break
            j = np.searchsorted(at, info - 1, side="right") - 1
            s[todo[j]] *= 0.25
            todo = todo[j:]

        _, y, info = self._pbsv(B, -b, lower=1)
        self._check(info, np.arange(len(sides)), self.first, "interior mass")
        yy = y * y
        a_y, A_yy, A_cross, b_y, B_yy, B_cross = np.add.reduceat(np.stack([
            a * y, A[0] * yy, _cross(A, y), b * y, B[0] * yy, _cross(B, y)]),
            self.first, axis=1)
        self.p = A_ff + 2.0 * a_y + (A_yy + 2.0 * A_cross)
        self.m = B_ff + 2.0 * b_y + (B_yy + 2.0 * B_cross)
        # per side: A_ff, B_ff, its _norms, its inverse norm and its size
        self.scalars = np.column_stack(
            [A_ff, B_ff, [side._norms for side in sides], 1.0 / s, self.size])

    def _columns(self, blocks):
        """The table columns of ``blocks``, side by side, and where each
        block starts among them."""
        size = self.size[blocks]
        at = np.cumsum(size) - size
        return np.arange(size.sum()) + np.repeat(self.first[blocks] - at, size), at

    @staticmethod
    def _check(info, blocks, at, what):
        """Raise for the block of ``blocks`` (side by side, starting at
        ``at``) at whose column ``info`` (one-based) a factorization failed;
        nothing when ``info`` is 0."""
        if info != 0:
            j = np.searchsorted(at, info - 1, side="right") - 1
            raise _indefinite(blocks[j], f"{what} (info {info - at[j]})")

    def solve(self, blocks, Lams):
        """``(x, at, cols, f)``: the interior solves
        ``(A_in - Lambda B_in) x = -f``, ``f = a - Lambda b``, of the requests
        ``(blocks[j], Lams[j])``, side by side, request ``j`` from ``at[j]``
        on; ``cols`` are their columns of the table."""
        u = self.u
        index, at = self._columns(blocks)
        cols = self.table.take(index, axis=1)
        lam = np.repeat(Lams, self.size[blocks])
        f = cols[-2] - lam * cols[-1]
        _, x, info = self._pbsv(cols[:u + 1] - lam * cols[u + 1:2 * u + 2], -f, lower=1,
                                overwrite_ab=1, overwrite_b=1)
        self._check(info, blocks, at, "interior block")
        return x, at, cols, f

    def values(self, blocks, Lams):
        """``(S, b)`` of each request, with the bits of
        :meth:`_Side.__call__`: the solution and the products have them,
        and each request's sums run over its own columns, in the same
        order."""
        x, at, cols, f = self.solve(blocks, Lams)
        band, products = cols[self.u + 1:2 * self.u + 2], _products(x, self.u)
        A_ff, B_ff = self.scalars[:, :2].T
        return [_interface(A_ff[i], B_ff[i], Lam, f[j:e], x[j:e], cols[-1, j:e], band[:, j:e],
                           [p[j:e] for p in products])
                for i, Lam, j, e in zip(*(v.tolist() for v in (
                    blocks, Lams, at, at + self.size[blocks])))]

    def bounded(self, blocks, Lams):
        """``(S, b, e_S, e_b)`` of each request: the values of
        :meth:`_Side.__call__` and bounds on their rounding errors, to first
        order, each summed over its request's columns.

        The banded Cholesky solve is backward stable: the computed ``x``
        solves ``(K + dK) x = -f`` with ``|dK| <= gamma_{3u+4} |R^T| |R|``
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        2002, Thm. 10.4, with the band's ``u + 1`` terms per inner product
        for ``n``), plus one rounding of forming ``K`` from ``A`` and ``B``.
        Both blocks are semidefinite, so every entry is below
        ``(3u + 5) eps sqrt(d_i d_j)``, ``d`` the diagonal of ``K``, and a row
        of ``2u + 1`` of them gives ``||dK||_2 <= (3u + 5) (2u + 1) eps max d``.
        ``S`` moves by ``x^T dK x`` (``f^T K^-1 = -x^T``), at most
        ``(3u + 5) (2u + 1) eps sum d_i x_i^2``; ``b`` moves by ``2 w^T dx``
        with ``w`` the interior rows of ``B phi`` and
        ``||dx|| <= ||K^-1|| (||dK|| ||x|| + ||df||)``, ``||K^-1||`` bounded
        by the side's ``inverse_norm``.  The roundings of ``f`` and of the
        sums that form ``S`` and ``b`` are added."""
        x, at, cols, f = self.solve(blocks, Lams)
        u, xx = self.u, x * x
        # the terms across blocks of x^T B_in x are 0
        f_x, b_x, A_xx, B_xx, B_cross, x_x = np.add.reduceat(np.stack([
            f * x, cols[-1] * x, cols[0] * xx, cols[u + 1] * xx,
            _cross(cols[u + 1:2 * u + 2], x), xx]), at, axis=1)
        A_ff, B_ff, A_max, B_max, a_norm, b_norm, inverse_norm, n = self.scalars[blocks].T
        S = A_ff - Lams * B_ff + f_x
        b = B_ff + 2.0 * b_x + (B_xx + 2.0 * B_cross)
        grow = (3 * u + 5) * (2 * u + 1) * _EPS
        # sum d_i x_i^2 and max d, d = A_ii - Lambda B_ii; ||f|| and
        # ||B|| <= (2u + 1) max B_ii bound ||w|| <= ||b|| + ||B|| ||x||
        x_norm, f_norm = np.sqrt(x_x), a_norm + np.abs(Lams) * b_norm
        e_S = (grow * (A_xx - Lams * B_xx) + (u + 3) * _EPS * f_norm * x_norm
               + 3.0 * _EPS * (A_ff + np.abs(Lams) * B_ff))
        w_norm = b_norm + (2 * u + 1) * B_max * x_norm
        dx = inverse_norm * (grow * (A_max - Lams * B_max) * x_norm + _EPS * f_norm)
        e_b = 2.0 * w_norm * dx + (n + 3) * _EPS * (
            B_ff + 2.0 * b_norm * x_norm + (2 * u + 1) * B_xx)
        return S, b, e_S, e_b


def _split(a, c):
    """Split point of ``[a, c]`` on ``Lambda < 0``: the geometric mean when
    one end is 16 times farther from 0 than the other, else the midpoint."""
    return -np.sqrt(a * c) if a < 16.0 * c else 0.5 * (a + c)


def _triangle(t_a, s, t_c):
    """Height, over the chord of slope ``s`` and per unit width, of the
    triangle between the chord and the end tangents of slopes ``t_a`` and
    ``t_c`` of a convex or concave function (``s`` clamped between them)."""
    lo, hi = min(t_a, t_c), max(t_a, t_c)
    if not hi > lo:
        return 0.0
    s = min(max(s, lo), hi)
    return (s - lo) * (hi - s) / (hi - lo)


def _line_witnesses(modes, relation, kappa: float, stop_at_first: bool = False,
                    stack=None) -> list:
    """Per mode, the ascending ``eta`` of its energy-line eigenvalues at the
    contrast ``kappa < 0``, from the two sides of its dispersion relation
    (``relation(mode).sides``, :class:`_Side`; or, when the caller has
    stacked them, ``stack``, every mode's two sides in mode order, and
    ``relation`` is not called): the roots
    ``Lambda = -1/4 - eta^2`` of ``F = S_minus + kappa S_plus`` on
    ``Lambda <= -1/4``.

    *Enclosure.*  On a piece ``[a, c]``, ``S_minus`` is concave and
    ``kappa S_plus`` convex, so each lies between its chord and the chord
    moved by the height of the triangle its end tangents make with it
    (:func:`_triangle`); ``b_minus`` and ``b_plus`` are increasing, so their
    end values enclose ``F'``.  And each side's gap ``g = L - S`` to its affine
    bound is nondecreasing and ``>= 0``, so it lies in ``[0, g(c)]`` on the
    piece: ``F`` lies within ``[-g_minus(c), |kappa| g_plus(c)]`` of the
    affine part ``L_minus + kappa L_plus``.  ``F`` is enclosed by the tighter
    of the two, and both enclosures are widened by the rounding bounds of
    :meth:`_Stack.bounded` and of the affine part.

    *Far end.*  The affine part has the slope ``-(m_minus + kappa m_plus)``,
    so the gaps at ``-1/4`` bound the distance beyond which ``F`` has no
    root.  The ray is cut at twice that distance from 0.  A contrast where
    the slope vanishes within its rounding has no such end and raises
    :class:`~conetip.errors.CriticalContrastExcluded`.

    *Search* (:func:`_census`).  As :func:`~conetip.spectrum._certified_roots`
    searches the secular function: a piece is dropped when its enclosure
    excludes 0, kept as a root when ``F'`` keeps one sign and ``F`` changes
    sign at its ends, and split otherwise (geometrically in the distance to 0
    when one end is 16 times farther).  A piece where ``F'`` may vanish and
    the ``F`` enclosure is within twice its rounding is a fold, where two
    roots meet within rounding; touching folds form one band, counted once,
    unless ``F`` lies on its extremum's side of 0 at both ends of the band
    (the two roots are then the sign changes outside it).  Roots are
    polished by Newton steps inside their brackets (:func:`_polish`).

    *Rounds.*  The modes are searched in lockstep: each round gathers the
    points that every mode's live pieces and roots need, their split points
    and Newton steps, and evaluates them all in one solve on the stack of
    every mode's two sides (:class:`_Stack`).  Every decision is made on the
    values of that point alone, so the order of the rounds changes no piece.

    *Errors.*  A mode's error (building its relation, its set-up on the
    stack or a solve) is raised once every mode before it is done and none
    of them ended the call (with ``stop_at_first``, by a witness): as when
    the modes are searched one after another.  With ``stop_at_first`` the
    list holds the modes up to the first witnessing one."""
    k, results, live = -kappa, [None] * len(modes), []
    for i, m in enumerate(modes):
        try:
            live.append((i, None if stack is not None else relation(m).sides))
        except Exception as err:   # any error of a mode is raised in mode order, by settled()
            results[i] = err

    def settled():
        """The results up to the mode that ends the call, or None while a
        mode before it is still searching."""
        out = []
        for result in results:
            if result is None:
                return None
            if isinstance(result, Exception):
                raise result
            out.append(np.sqrt(np.sort(-0.25 - np.array(result, dtype=float))))
            if stop_at_first and len(result):
                break
        return out

    while live and stack is None:
        try:
            stack = _Stack([side for _, sides in live for side in sides])
        except np.linalg.LinAlgError as err:
            results[live.pop(err.side // 2)[0]] = err
    if stack is None:
        return settled()
    # per mode: its sides' p and m, and their rounding, relative, as of any
    # sum of n terms
    (P_m, P_p), (M_m, M_p) = stack.p.reshape(-1, 2).T, stack.m.reshape(-1, 2).T
    E = (stack.size.reshape(-1, 2).sum(axis=1) + 6) * _EPS
    censuses = {}
    for j, ((i, _), p_m, m_m, p_p, m_p, e) in enumerate(
            zip(live, *(v.tolist() for v in (P_m, M_m, P_p, M_p, E)))):
        flat = m_m + kappa * m_p
        if abs(flat) <= e * (m_m + k * m_p):
            results[i] = CriticalContrastExcluded(
                f"kappa={kappa}: the mass Schur complements balance, so the line "
                "census has no far end")
        else:
            censuses[j] = _census(kappa, p_m + kappa * p_p, flat)

    def points(at, Lam):
        """The points of the stacked modes ``at`` at ``Lam``: ``F`` with its
        rounding bound ``e_F``, each side's ``S`` and ``b``, ``slope = F'``
        with its rounding bound, and each side's gap ``L - S``, rounding
        included."""
        (s_m, s_p), (b_m, b_p), (e_m, e_p), (d_m, d_p) = (
            v.reshape(-1, 2).T for v in stack.bounded(
                np.stack([2 * at, 2 * at + 1], axis=1).ravel(), np.repeat(Lam, 2)))
        p_m, m_m, p_p, m_p, e = (v[at] for v in (P_m, M_m, P_p, M_p, E))
        return [SimpleNamespace(Lam=L, F=F, e_F=e_F, S_minus=sm, S_plus=sp, b_minus=bm,
                                b_plus=bp, slope=sl, e_slope=e_sl, gap_minus=gm, gap_plus=gp)
                for L, F, e_F, sm, sp, bm, bp, sl, e_sl, gm, gp in zip(*(v.tolist() for v in (
                    Lam, s_m + kappa * s_p, e_m + k * e_p, s_m, s_p, b_m, b_p,
                    k * b_p - b_m, d_m + k * d_p,
                    p_m - Lam * m_m - s_m + e_m + e * (np.abs(p_m) + np.abs(Lam) * m_m),
                    p_p - Lam * m_p - s_p + e_p + e * (np.abs(p_p) + np.abs(Lam) * m_p))))]

    wants = {j: next(census) for j, census in censuses.items()}
    while (found := settled()) is None:
        at = np.repeat(list(wants), [len(want) for want in wants.values()])
        try:
            given = points(at, np.concatenate(list(wants.values())))
        except np.linalg.LinAlgError as err:
            results[live[err.side // 2][0]] = err
            del wants[err.side // 2]
            continue
        for j, want in list(wants.items()):
            try:
                wants[j] = censuses[j].send(given[:len(want)])
            except StopIteration as stop:
                results[live[j][0]] = stop.value
                del wants[j]
            given = given[len(want):]
    return found


def _census(kappa, affine, flat):
    """One mode's search of :func:`_line_witnesses`, as a generator: it
    yields the list of ``Lambda`` at which it needs points next, is sent
    their points, and returns the roots in ``Lambda``.  ``affine - Lambda
    flat`` is the affine part of ``F``."""
    k = -kappa
    near, = yield [-0.25]
    if flat > 0.0:
        far = (near.gap_minus - affine) / flat
    else:
        far = (affine + k * near.gap_plus) / -flat
    if not far > 0.25:
        return []
    lowest, = yield [-2.0 * far]
    pieces, roots, folds, found = [(lowest, near)], [], [], []
    while True:
        splits = []
        for pa, pc in pieces:
            a, c = pa.Lam, pc.Lam
            w = c - a
            up = w * _triangle(-pa.b_minus, (pc.S_minus - pa.S_minus) / w, -pc.b_minus)
            down = w * _triangle(k * pa.b_plus, -k * (pc.S_plus - pa.S_plus) / w,
                                 k * pc.b_plus)
            # the rounding of the end values, and through the slopes of the triangles
            e = pa.e_F + pc.e_F + w * (pa.e_slope + pc.e_slope)
            lo, hi = min(pa.F, pc.F) - down, max(pa.F, pc.F) + up
            aff_a, aff_c = affine - a * flat, affine - c * flat
            if max(lo - e, min(aff_a, aff_c) - pc.gap_minus) > 0.0 \
                    or min(hi + e, max(aff_a, aff_c) + k * pc.gap_plus) < 0.0:
                continue
            e_slope = max(pa.e_slope, pc.e_slope)
            if k * pa.b_plus - pc.b_minus - e_slope > 0.0 \
                    or k * pc.b_plus - pa.b_minus + e_slope < 0.0:
                if (pa.F > 0.0) != (pc.F > 0.0):
                    polish = _polish(pa, pc)
                    roots.append((polish, next(polish)))
                continue
            m = _split(a, c)
            if hi - lo <= 2.0 * e or not a < m < c:
                folds.append((pa, pc))
            else:
                splits.append((pa, m, pc))
        if not (splits or roots):
            break
        given = yield [m for _, m, _ in splits] + [x for _, x in roots]
        pieces = [piece for (pa, _, pc), pm in zip(splits, given)
                  for piece in ((pa, pm), (pm, pc))]
        polished = []
        for (polish, _), px in zip(roots, given[len(splits):]):
            try:
                polished.append((polish, polish.send(px)))
            except StopIteration as stop:
                found.append(stop.value)
        roots = polished

    bands = []
    for pa, pc in sorted(folds, key=lambda piece: piece[0].Lam):
        if bands and bands[-1][1].Lam == pa.Lam:
            bands[-1][1] = pc
        else:
            bands.append([pa, pc])
    for pa, pc in bands:
        peak = pa.slope > pc.slope        # F' falls across the band: a maximum
        if (pa.F > 0.0) == peak and (pc.F > 0.0) == peak:
            continue
        # the fold is where F' vanishes: its chord's root, or the middle
        a, c = pa.Lam, pc.Lam
        x = a - pa.slope * (c - a) / (pc.slope - pa.slope) if pc.slope != pa.slope else a
        found.append(x if a < x < c else 0.5 * (a + c))
    return found


def _polish(pa, pc):
    """Newton steps on ``F`` inside the root's bracket ``[pa, pc]``, from the
    chord's root, as a generator: it yields each ``Lambda`` it evaluates, is
    sent its point, and returns the root.  Where a step leaves the bracket or
    does not halve the previous one, it splits the bracket instead.  It stops
    when ``F`` or the step is within rounding, after one more step: the
    rounding bound is a worst case, so the last value is usually far below
    it."""
    a, c, above = pa.Lam, pc.Lam, pa.F > 0.0
    x, step = a - pa.F * (c - a) / (pc.F - pa.F), np.inf
    if not a < x < c:
        x = 0.5 * (a + c)
    while True:
        px = yield x
        a, c = (x, c) if (px.F > 0.0) == above else (a, x)
        dx = -px.F / px.slope if px.slope else np.inf
        xn = x + dx
        if abs(px.F) <= px.e_F or abs(dx) <= 2.0 * _EPS * abs(x):
            # within rounding: one last step, which costs no evaluation
            return xn if a <= xn <= c else x
        if not (a < xn < c and abs(dx) <= 0.5 * step):
            xn = _split(a, c)
        if not a < xn < c:
            return x
        step, x = abs(xn - x), xn




def dispersion_relation(geometry: CapGeometry, mode: int, elements: int = 64,
                        order: int = 2):
    """Per-mode dispersion relation ``eta -> (kappa_m(eta), krein)``.

    At ``Lambda = -1/4 - eta^2`` the pencil splits by region as
    ``sigma_minus K_minus + sigma_plus K_plus``, each ``K = A - Lambda B``
    positive definite on its region.  Eliminating all dofs but the interface
    one leaves ``kappa_m = -S_minus / S_plus``, the one contrast whose pencil
    carries ``Lambda``.  ``krein = b_minus + kappa b_plus`` has the sign of
    ``dkappa/dLambda``, the Krein sign (Gohberg, Lancaster & Rodman, 2005),
    so it changes sign exactly at a fold, a Jordan point.  The region blocks
    are read on the band, with no material (they do not depend on one).  The
    returned function carries its two regions (:class:`_Side`) as
    ``.sides``, on which :func:`has_blackhole` counts.
    """
    return _relation(*_region_bands(geometry, (mode,), elements, order)[0])


def _relation(p, blocks):
    """The dispersion relation of one mode's region bands
    (:func:`~conetip.cap._region_bands`), interface dof ``p``."""
    ((A_minus, B_minus), (A_plus, B_plus)) = blocks
    # each region's block: the minus one on dofs [0, p], the plus one on [p, n)
    sides = (_Side(A_minus[:, :p + 1], B_minus[:, :p + 1], -1),
             _Side(A_plus[:, p:], B_plus[:, p:], 0))

    def relation(eta):
        return _kappa_krein(*(side(-0.25 - eta * eta) for side in sides))

    relation.sides = sides
    return relation


def _kappa_krein(minus, plus):
    """``(kappa, krein)`` of a point from its two sides' ``(S, b)``."""
    (s_minus, b_minus), (s_plus, b_plus) = minus, plus
    kappa = -s_minus / s_plus
    return float(kappa), float(b_minus + kappa * b_plus)


class _Curves:
    """The dispersion curves of a scan's modes, in their order: their
    relations (:func:`dispersion_relation`) from one assembly of every
    mode's region bands, and every mode's two sides on one :class:`_Stack`,
    on which a round of points is one solve and :func:`has_blackhole`'s
    census runs."""

    def __init__(self, geometry, modes, elements, order):
        self.relations = [_relation(*bands) for bands in _region_bands(
            geometry, modes, elements, order)]
        self.stack = _Stack([side for relation in self.relations for side in relation.sides])

    def at(self, points):
        """``(kappa, krein)`` at each ``(j, eta)`` of ``points``, on the
        ``j``-th curve, all in one stacked solve, with the bits of
        ``relations[j](eta)``."""
        j, eta = (np.array(v) for v in zip(*points))
        values = self.stack.values(np.stack([2 * j, 2 * j + 1], axis=1).ravel(),
                                   np.repeat(-0.25 - eta * eta, 2))
        return [_kappa_krein(*pair) for pair in zip(values[0::2], values[1::2])]


def _fold(curve, a, b, g_a=None, g_b=None):
    """The largest ``y`` that the fold search on ``[a, b]`` meets, for
    ``curve(eta) = (y, g)`` with ``g`` of the sign of ``-dy/deta``, negative
    at ``a`` and nonnegative at ``b`` (its values there are ``g_a`` and
    ``g_b``, ``None`` where only the sign is known): the fold is the
    maximum of ``y`` where ``g`` changes sign.

    The bracket is bisected while an end has no value, then cut at the root
    of ``g`` by Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): an inverse quadratic or secant step where it
    shrinks the bracket fast enough, else a bisection step, and no step
    shorter than half of ``sqrt(eps)`` times the bracket's right end.  It
    ends, as a bisection does, once the bracket is within ``sqrt(eps)`` of
    its right end: ``y`` is stationary at the fold, so the error of the
    largest value it meets is then at rounding level."""
    top = -np.inf
    while g_a is None or g_b is None:
        if b - a <= _SQRT_EPS * b:
            return top
        x = 0.5 * (a + b)
        y, g = curve(x)
        top = max(top, y)
        if g < 0.0:
            a, g_a = x, g
        else:
            b, g_b = x, g
    # Brent's names: b the best point, c the other end of the bracket, a the
    # point before b; d the last step and e the one before
    c, g_c, d = a, g_a, b - a
    e = d
    while True:
        if (g_b < 0.0) == (g_c < 0.0):
            c, g_c, d = a, g_a, b - a
            e = d
        if abs(g_c) < abs(g_b):
            a, b, c, g_a, g_b, g_c = b, c, b, g_b, g_c, g_b
        tol = 0.5 * _SQRT_EPS * max(b, c)
        half = 0.5 * (c - b)
        if abs(half) <= tol or g_b == 0.0:
            return top
        if abs(e) >= tol and abs(g_a) > abs(g_b):
            s = g_b / g_a
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = g_a / g_c, g_b / g_c
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, g_a = b, g_b
        b += d if abs(d) > tol else np.copysign(tol, half)
        y, g_b = curve(b)
        top = max(top, y)


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
    at the fold between them, where the Krein sign changes (at most one
    fold per interval).  The fold is searched on the Krein value times
    ``|Lambda|`` (:func:`_fold`, Brent's method), which levels the Krein
    value's decay along the line, until the bracket is within ``sqrt(eps)``
    of its end: ``kappa`` is stationary at a fold, so its error is then at
    rounding level.  The far end is the extreme over the modes, the first of
    them on ties.  The range must avoid the 0.02 neighborhood of -1 and
    contain the far end (else ``no-transition-found``).

    Every mode's curve comes from one assembly of the modes' region bands,
    with every mode's two sides on one stack (:class:`_Curves`): the ends
    of all modes are one stacked solve, the interval midpoints another, and
    the census at the inner end runs on the same stack.  A fold search
    takes one point at a time, on its mode's relation: a stacked round of
    one point costs more than the point's own two solves.

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
    curves = _Curves(geometry, modes, elements, order)
    seen = []   # every (kappa, krein) the scan evaluates

    def at(points):
        values = curves.at(points)
        seen.extend(values)
        return values

    def krein_sign(eta, krein):
        """``far`` times the Krein value times ``|Lambda| = 1/4 + eta^2``:
        negative where the curve moves away from -1 as ``eta`` grows, and
        with the Krein value's decay along the line levelled for the fold
        search's interpolation."""
        return far * krein * (0.25 + eta * eta)

    def curve(j):
        def evaluate(eta):
            kappa, krein = curves.relations[j](eta)
            seen.append((kappa, krein))
            return far * kappa, krein_sign(eta, krein)
        return evaluate

    ends = at([(j, eta) for j in range(len(modes)) for eta in (0.0, eta_max)])
    starts, stops = ends[0::2], ends[1::2]
    y_inner = min(far * kappa for kappa, _ in ends)
    endpoint_inner = float(np.clip(far * y_inner, lo, hi))
    _, inner_wit = has_blackhole(geometry, endpoint_inner, modes, elements, order,
                                 _stack=curves.stack)
    per_mode = {m: sorted(eta for (mm, eta) in inner_wit if mm == m) for m in modes}

    pieces = []   # (curve, index, last index, left end, right end)
    for j, m in enumerate(modes):
        cuts = [0.0, *(eta for eta in per_mode[m] if 0.0 < eta < eta_max), eta_max]
        pieces += [(j, i, len(cuts) - 2, a, b) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    outers = [max(far * start[0], far * stop[0]) for start, stop in zip(starts, stops)]
    for (j, i, last, a, b), (kappa, krein) in zip(
            pieces, at([(j, 0.5 * (a + b)) for j, _, _, a, b in pieces])):
        if far * kappa <= far * endpoint_inner:   # not beyond, on all of [a, b]
            continue
        outers[j] = max(outers[j], far * kappa)
        # the curve leaves the inner end at a witness on the left and
        # returns at one on the right; at eta = 0 and eta_max the Krein sign
        # tells its direction, and is the fold search's value there
        g_start, g_stop = krein_sign(0.0, starts[j][1]), krein_sign(eta_max, stops[j][1])
        if (i > 0 or g_start < 0) and (i < last or g_stop >= 0):
            g_a = g_start if i == 0 else None
            g_b = g_stop if i == last else None
            mid = 0.5 * (a + b)
            g_mid = krein_sign(mid, krein)
            if g_mid < 0:   # still moving away from -1 as eta grows
                a, g_a = mid, g_mid
            else:
                b, g_b = mid, g_mid
            outers[j] = max(outers[j], _fold(curve(j), a, b, g_a, g_b))
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
    if any(endpoint_inner == stop[0] for stop in stops):
        flags += ("inner end at the mesh cutoff eta_max: it moves with the mesh",)
    return CriticalInterval(alpha=geometry.alpha,
                            endpoint_inner=endpoint_inner,
                            endpoint_outer=float(endpoint_outer),
                            closed_form=float(closed),
                            per_mode=per_mode, attaining_mode=attaining,
                            flags=flags)
