"""Spherical-cap geometry and the azimuthal-mode symbol pencil.

A conical tip is resolved by separating variables ``r^lambda * f(phi) * exp(i*m*theta)``
on the unit sphere.  For circular caps the angular problem reduces, per azimuthal
mode ``m``, to a 1D pencil in the latitude ``phi``:

    A f = Lambda B f,        Lambda = lambda*(lambda+1),

with stiffness ``A = int sigma (f' g' cos(phi) + m^2 f g / cos(phi)) dphi`` and
weighted mass ``B = int sigma f g cos(phi) dphi``.  The coefficient ``sigma`` is
piecewise constant: ``sigma_minus`` (negative) on the cap below the interface
latitude ``-pi/2 + alpha`` and ``sigma_plus`` (positive) above.

Contrast convention
-------------------
The scalar parameter ``kappa`` used throughout this package is the ratio
``sigma_plus / sigma_minus``.  With this convention the critical set of
contrasts of an internal tip of aperture ``alpha < pi/2`` is the interval
``(-1, -aleph(alpha))`` with the hypergeometric endpoint computed in
:mod:`conetip.interval`, which is what the scanning and acceptance anchors
assume.  (The literature is not unanimous here: stating the interval for the
reciprocal ratio ``sigma_minus / sigma_plus`` flips it to
``(-1/aleph(alpha), -1)``; both describe the same physics.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import CriticalContrastExcluded, DimensionMismatch, InvalidGeometry

INTERNAL = "internal"
BOUNDARY = "boundary"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_GAUSS_POINTS = 4
_CONTRAST_GUARD = 1e-10


@dataclass(frozen=True)
class CapGeometry:
    """Circular spherical cap at the south pole, interface at ``-pi/2 + alpha``.

    ``internal`` kind: the angular domain is the whole sphere (no essential
    boundary condition beyond pole regularity).  ``boundary`` kind: the domain
    is the cap of aperture ``alpha_outer`` and the outer rim carries a
    Dirichlet or Neumann condition.
    """

    kind: str
    alpha: float
    alpha_outer: float | None = None
    outer_bc: str | None = None

    def __post_init__(self):
        if self.kind not in (INTERNAL, BOUNDARY):
            raise InvalidGeometry(f"unknown kind {self.kind!r}")
        if not 0.0 < self.alpha < np.pi:
            raise InvalidGeometry(f"alpha={self.alpha} outside (0, pi)")
        if self.kind == BOUNDARY:
            if self.alpha_outer is None or self.outer_bc not in (DIRICHLET, NEUMANN):
                raise InvalidGeometry("boundary kind needs alpha_outer and outer_bc")
            if not self.alpha < self.alpha_outer <= np.pi:
                raise InvalidGeometry("need alpha < alpha_outer <= pi")
        elif self.alpha_outer is not None or self.outer_bc is not None:
            raise InvalidGeometry("internal kind takes no outer boundary data")

    @property
    def latitude_max(self) -> float:
        if self.kind == INTERNAL:
            return np.pi / 2
        return -np.pi / 2 + self.alpha_outer

    @property
    def interface_latitude(self) -> float:
        return -np.pi / 2 + self.alpha


@dataclass(frozen=True)
class MaterialSpec:
    """Piecewise-constant coefficient with optional uniform dissipation.

    ``sigma_minus`` lives on the cap (below the interface), ``sigma_plus``
    above it; ``delta >= 0`` adds ``i*delta`` to the whole coefficient.  The
    derived ``kappa = sigma_plus / sigma_minus`` is the contrast parameter of
    the critical-interval machinery (see the module docstring); ``kappa = -1``
    is rejected because the pencil spectrum degenerates there.  A positive
    ``sigma_minus`` (``kappa = 1`` and friends) is admitted for the
    positive-coefficient sanity configurations.
    """

    sigma_plus: float
    sigma_minus: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.sigma_plus > 0:
            raise InvalidGeometry("sigma_plus must be positive")
        if self.sigma_minus == 0:
            raise InvalidGeometry("sigma_minus must be nonzero")
        if self.delta < 0:
            raise InvalidGeometry("delta must be nonnegative")
        if abs(self.kappa + 1.0) < _CONTRAST_GUARD:
            raise CriticalContrastExcluded("kappa=-1 excluded: the spectrum degenerates")

    @property
    def kappa(self) -> float:
        return self.sigma_plus / self.sigma_minus

    @classmethod
    def from_contrast(cls, kappa: float, sigma_plus: float = 1.0, delta: float = 0.0):
        """Material with a prescribed contrast; ``kappa = 1`` gives the
        positive-coefficient sanity configuration."""
        if kappa == 0:
            raise InvalidGeometry("contrast must be nonzero")
        return cls(sigma_plus=sigma_plus, sigma_minus=sigma_plus / kappa, delta=delta)


@dataclass(frozen=True)
class Mesh1D:
    """Interface-aligned latitude mesh; ``nodes`` are element boundaries."""

    nodes: np.ndarray
    element_order: int
    interface_index: int

    def __post_init__(self):
        if self.element_order not in (1, 2):
            raise InvalidGeometry("element order must be 1 or 2")
        if len(self.nodes) < 5:
            raise InvalidGeometry("need at least 4 elements")
        if not np.all(np.diff(self.nodes) > 0):
            raise InvalidGeometry("nodes must be strictly increasing")
        self.nodes.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    @property
    def n_dof_full(self) -> int:
        return self.element_order * self.n_elements + 1

    @property
    def element_dofs(self) -> np.ndarray:
        """Full dof indices of each element's shapes, one row per element."""
        p = self.element_order
        return p * np.arange(self.n_elements)[:, None] + np.arange(p + 1)


def _build_mesh(geometry: CapGeometry, elements: int, order: int) -> Mesh1D:
    lo, hi = -np.pi / 2, geometry.latitude_max
    span = hi - lo
    n_below = int(round(elements * geometry.alpha / span))
    n_below = min(max(n_below, 1), elements - 1)
    below = np.linspace(lo, geometry.interface_latitude, n_below + 1)
    above = np.linspace(geometry.interface_latitude, hi, elements - n_below + 1)
    nodes = np.concatenate([below, above[1:]])
    return Mesh1D(nodes=nodes, element_order=order, interface_index=n_below)


@cache
def _reference_shapes(order: int):
    # values/derivatives of Lagrange shapes at the 4 Gauss points of [-1, 1]
    x, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    if order == 1:
        n = np.stack([(1 - x) / 2, (1 + x) / 2])
        d = np.stack([np.full_like(x, -0.5), np.full_like(x, 0.5)])
    else:
        n = np.stack([x * (x - 1) / 2, 1 - x * x, x * (x + 1) / 2])
        d = np.stack([x - 0.5, -2 * x, x + 0.5])
    for a in (x, w, n, d):
        a.setflags(write=False)
    return x, w, n, d


@dataclass(frozen=True)
class DiscreteCap:
    """One azimuthal mode of a discretized cap: mesh, BCs and quadrature.

    ``dof_map`` lists the retained full dof indices after eliminating pole
    dofs (``m >= 1``) and a Dirichlet outer-boundary dof.  The quadrature
    arrays are flattened over elements x Gauss points; ``quad_sigma`` holds
    the coefficient value of the element side containing each point, so
    quadrature never samples the interface itself.
    """

    geometry: CapGeometry
    material: MaterialSpec
    mode: int
    mesh: Mesh1D
    dof_map: np.ndarray
    quad_lat: np.ndarray = field(repr=False)
    quad_weight: np.ndarray = field(repr=False)
    quad_sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.dof_map, self.quad_lat, self.quad_weight, self.quad_sigma):
            a.setflags(write=False)

    @property
    def n_dof(self) -> int:
        return len(self.dof_map)

    @property
    def interface_dof(self) -> int:
        """Retained dof index of the interface node.  Pencil rows below it
        see only the minus region, rows above it only the plus region."""
        return int(np.searchsorted(
            self.dof_map, self.mesh.element_order * self.mesh.interface_index))

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Embed a reduced dof vector into the full dof numbering (zeros at
        eliminated dofs)."""
        if len(reduced) != self.n_dof:
            raise DimensionMismatch(f"expected {self.n_dof} dofs, got {len(reduced)}")
        full = np.zeros(self.mesh.n_dof_full, dtype=np.result_type(reduced, float))
        full[self.dof_map] = reduced
        return full


def _retained_dofs(geometry: CapGeometry, mode: int, mesh: Mesh1D) -> np.ndarray:
    """Full dof indices kept after eliminating pole dofs (``mode >= 1``) and a
    Dirichlet outer-rim dof: one contiguous range."""
    keep = np.ones(mesh.n_dof_full, dtype=bool)
    has_north_pole = geometry.kind == INTERNAL or (
        geometry.kind == BOUNDARY and geometry.alpha_outer >= np.pi - 1e-14)
    if mode >= 1:
        keep[0] = False
        if has_north_pole:
            keep[-1] = False
    if geometry.kind == BOUNDARY and geometry.outer_bc == DIRICHLET:
        keep[-1] = False
    return np.flatnonzero(keep)


def _quadrature(mesh: Mesh1D):
    """Latitudes and weights of the Gauss points, flattened over elements."""
    xg, wg, _, _ = _reference_shapes(mesh.element_order)
    a, b = mesh.nodes[:-1, None], mesh.nodes[1:, None]
    h = b - a
    return ((a + b) / 2 + h / 2 * xg).ravel(), (h / 2 * wg).ravel()


def build_cap(geometry: CapGeometry, material: MaterialSpec, mode: int,
              elements: int = 64, order: int = 2) -> DiscreteCap:
    """Build the interface-aligned mesh and boundary-condition data for one
    azimuthal mode.

    For ``mode >= 1`` the weight ``m^2 / cos(phi)`` forces the value zero at
    any pole contained in the domain, so pole dofs are eliminated.  A
    Dirichlet outer rim eliminates the outer node; Neumann retains it.
    """
    if mode < 0:
        raise InvalidGeometry("mode must be >= 0")
    if elements < 4:
        raise InvalidGeometry("need at least 4 elements")
    mesh = _build_mesh(geometry, elements, order)
    quad_lat, quad_weight = _quadrature(mesh)
    below = np.arange(mesh.n_elements) < mesh.interface_index
    sig = np.repeat(np.where(below, material.sigma_minus + 1j * material.delta,
                             material.sigma_plus + 1j * material.delta), _GAUSS_POINTS)
    return DiscreteCap(geometry=geometry, material=material, mode=mode, mesh=mesh,
                       dof_map=_retained_dofs(geometry, mode, mesh),
                       quad_lat=quad_lat, quad_weight=quad_weight,
                       quad_sigma=sig if material.delta else sig.real)


def _at_gauss_points(cap: DiscreteCap, reduced: np.ndarray) -> np.ndarray:
    """Values of the finite-element function with retained dofs ``reduced``
    at the quadrature points, in the order of ``cap.quad_lat``."""
    _, _, shape_n, _ = _reference_shapes(cap.mesh.element_order)
    return (cap.expand(reduced)[cap.mesh.element_dofs] @ shape_n).ravel()


def sigma_at(cap: DiscreteCap, latitude: float, side: str | None = None):
    """Coefficient value at a latitude.

    Exactly at the interface the value is ambiguous; ``side`` (``"minus"`` or
    ``"plus"``) selects the element side, and a bare call returns the plus
    side.
    """
    lo, hi = -np.pi / 2, cap.geometry.latitude_max
    if not lo <= latitude <= hi:
        raise InvalidGeometry(f"latitude {latitude} outside [{lo}, {hi}]")
    phi_i = cap.geometry.interface_latitude
    if latitude == phi_i:
        minus = side == "minus"
    else:
        minus = latitude < phi_i
    base = cap.material.sigma_minus if minus else cap.material.sigma_plus
    value = base + 1j * cap.material.delta
    return value if cap.material.delta else float(base)


def angular_gram(cap: DiscreteCap, f: np.ndarray, g: np.ndarray,
                 weight: str = "one") -> complex:
    """Sesquilinear angular product ``int w(phi) f conj(g) cos(phi) dphi``
    with ``w = sigma (+ i delta)`` or ``w = 1``, by element-wise Gauss
    quadrature on the cap's mesh."""
    if len(f) != cap.n_dof or len(g) != cap.n_dof:
        raise DimensionMismatch("dof vectors do not conform to the cap")
    fv, gv = _at_gauss_points(cap, f), _at_gauss_points(cap, g)
    w = cap.quad_weight * np.cos(cap.quad_lat)
    if weight == "sigma":
        w = w * cap.quad_sigma
    elif weight != "one":
        raise DimensionMismatch(f"unknown weight {weight!r}")
    return complex(np.sum(w * fv * np.conj(gv)))


class PencilBands(NamedTuple):
    """The four matrices of a pencil in lower band storage, ``(u + 1) x n``
    each, ``u`` the half-bandwidth: row ``k`` holds the ``k``-th subdiagonal,
    ``M[i + k, i]`` at column ``i``, and ends in ``k`` zeros (LAPACK's
    ``dpbtrf`` layout).  The matrices are symmetric, so this is all of them."""

    A: np.ndarray
    B: np.ndarray
    stiffness_one: np.ndarray
    mass_one: np.ndarray


def _dense(Mb: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band storage is ``Mb``."""
    n = Mb.shape[1]
    M = np.zeros((n, n), dtype=Mb.dtype)
    flat = M.reshape(-1)
    for k, d in enumerate(Mb):
        flat[k * n::n + 1] = d[:n - k]          # k-th subdiagonal
        flat[k:(n - k) * n:n + 1] = d[:n - k]   # k-th superdiagonal
    return M


def _lower_band(M: np.ndarray, u: int) -> np.ndarray:
    """Lower band storage of ``M``; a matrix that is not symmetric with
    half-bandwidth ``u`` raises :class:`~conetip.errors.DimensionMismatch`,
    so the band always holds all of ``M``."""
    n = len(M)
    Mb = np.zeros((u + 1, n), dtype=M.dtype)
    for k in range(u + 1):
        Mb[k, :n - k] = np.diagonal(M, -k)
    if not np.array_equal(_dense(Mb), M):
        raise DimensionMismatch(f"not a symmetric matrix of half-bandwidth {u}")
    return Mb


class _Dense:
    """A dense matrix of :class:`PencilMatrices`: the array the pencil was
    built with, or else its band formed on the first read and kept on that
    pencil (a required dataclass field; its class access has no default)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, P, owner=None):
        if P is None:
            raise AttributeError(self.name)
        M = P.__dict__.get(self.name)
        if M is None:
            M = _dense(getattr(P.bands, self.name))
            M.setflags(write=False)
            P.__dict__[self.name] = M
        return M

    def __set__(self, P, M):
        P.__dict__[self.name] = M


@dataclass(frozen=True)
class PencilMatrices:
    """Discrete symbol pencil ``A - Lambda B`` for one azimuthal mode.

    ``A`` and ``B`` are complex symmetric (assembled without conjugation, so
    ``A == A.T`` exactly); real when ``delta == 0``.  ``stiffness_one`` /
    ``mass_one`` are the weight-one counterparts, used for dissipative
    perturbations ``A + i delta A1`` and for normalization.

    The pencil is held as ``bands``, the four matrices in lower band storage
    (:class:`PencilBands`, half-bandwidth the element order), and the solvers
    read only these.  The four dense attributes are read-only arrays formed
    from the bands on their first read and kept on the pencil.  A pencil
    built from dense arrays (``PencilMatrices(A=..., B=..., stiffness_one=...,
    mass_one=..., cap=..., delta=...)``, or ``dataclasses.replace``) keeps
    them and takes its bands from them, exactly: each must be symmetric with
    half-bandwidth the cap's element order (any width without a cap).
    """

    A: np.ndarray = _Dense()
    B: np.ndarray = _Dense()
    stiffness_one: np.ndarray = _Dense()
    mass_one: np.ndarray = _Dense()
    cap: DiscreteCap | None
    delta: float = 0.0
    bands: PencilBands = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dense = [getattr(self, name) for name in PencilBands._fields]
        u = self.cap.mesh.element_order if self.cap is not None else len(dense[0]) - 1
        for a in dense:
            a.setflags(write=False)
        object.__setattr__(self, "bands", _frozen(PencilBands(
            *(_lower_band(a, u) for a in dense))))

    @property
    def n(self) -> int:
        return self.bands.A.shape[1]


def _frozen(bands: PencilBands) -> PencilBands:
    for b in bands:
        b.setflags(write=False)
    return bands


def _from_bands(bands: PencilBands, cap: DiscreteCap, delta: float) -> PencilMatrices:
    """The pencil of ``cap`` held as its bands alone (no dense array)."""
    P = object.__new__(PencilMatrices)
    for name, value in (("cap", cap), ("delta", delta), ("bands", _frozen(bands))):
        object.__setattr__(P, name, value)
    return P


def _region_bands(geometry: CapGeometry, modes, elements: int, order: int) -> list:
    """Per mode of ``modes``, ``(p, blocks)``: the retained interface dof
    ``p`` and the coefficient-free region matrices
    ``((A_minus, B_minus), (A_plus, B_plus))`` of the cap of that geometry,
    mode and mesh, in lower band storage on the retained dofs.  They are the
    pencil of the coefficient 1 on one side of the interface and 0 on the
    other, so ``A = s_minus A_minus + s_plus A_plus`` (likewise B), and they
    do not depend on a material.

    The modes share the mesh, the quadrature, the mass matrices and the
    scatter indices; the element stiffness matrices carry a mode axis.  The
    lower triangle of each element matrix is scattered by one ``np.bincount``
    onto band indices, each mode's and side's in a range of bins of its own,
    in element order, so every entry sums the same terms in the same order
    as a dense scatter of the whole element matrices of that mode alone, and
    each entry stands for its mirror image too, so the matrices are exactly
    symmetric."""
    mesh = _build_mesh(geometry, elements, order)
    quad_lat, quad_weight = _quadrature(mesh)
    _, _, shape_n, shape_d = _reference_shapes(order)
    wq = quad_weight.reshape(mesh.n_elements, _GAUSS_POINTS)
    c = np.cos(quad_lat.reshape(wq.shape))
    jac2 = (2 / np.diff(mesh.nodes)) ** 2
    nn_k = shape_n[:, None] * shape_n[None]      # (shape, shape, Gauss point)
    dd_k = shape_d[:, None] * shape_d[None]
    squares = np.array(modes, dtype=int)[:, None, None] ** 2
    stiff = (dd_k * (jac2[:, None] * wq * c)[:, None, None]
             + nn_k * (squares * wq / c)[:, :, None, None]).sum(axis=-1)
    mass = (nn_k * (wq * c)[:, None, None]).sum(axis=-1)

    # element entry (a, b), a >= b, is band entry (a - b, dof of b); the
    # bins of the matrices (every mode's stiffness, then the mass) and sides
    # follow each other
    a, b = np.tril_indices(order + 1)
    n_full, k = mesh.n_dof_full, mesh.interface_index
    size = (order + 1) * n_full
    flat = (a - b) * n_full + mesh.element_dofs[:, b] \
        + size * (np.arange(mesh.n_elements) >= k)[:, None]
    matrices = np.concatenate([stiff, mass[None]])[:, :, a, b]
    full = np.bincount((flat + 2 * size * np.arange(len(matrices))[:, None, None]).ravel(),
                       matrices.ravel(), 2 * size * len(matrices))
    full = full.reshape(len(matrices), 2, order + 1, n_full)
    out = []
    for i, mode in enumerate(modes):
        dofs = _retained_dofs(geometry, mode, mesh)
        n = len(dofs)
        blocks = np.stack([full[i], full[-1]], axis=1)[..., dofs[0]:dofs[0] + n].copy()
        for d in range(1, order + 1):
            blocks[..., d, n - d:] = 0.0   # couplings to eliminated dofs
        out.append((order * k - dofs[0], blocks))
    return out


def _dissipated(P: PencilMatrices, delta: float) -> PencilMatrices:
    """The undamped pencil ``P`` with ``i*delta`` added to the coefficient:
    ``A0 + i delta A1``, ``B0 + i delta B1``, combined on the band."""
    b = P.bands
    return _from_bands(b._replace(A=b.A + 1j * delta * b.stiffness_one,
                                  B=b.B + 1j * delta * b.mass_one), P.cap, delta)


def assemble_pencil(cap: DiscreteCap) -> PencilMatrices:
    """Assemble the pencil of the cap's material (including its dissipation)
    on the band: the region blocks of :func:`_region_bands`, combined with
    the coefficients in O(n u)."""
    (_, ((A_minus, B_minus), (A_plus, B_plus))), = _region_bands(
        cap.geometry, (cap.mode,), cap.mesh.n_elements, cap.mesh.element_order)
    s_minus, s_plus = (sigma_at(cap, cap.geometry.interface_latitude, side)
                       for side in ("minus", "plus"))
    return _from_bands(PencilBands(A=s_minus * A_minus + s_plus * A_plus,
                                   B=s_minus * B_minus + s_plus * B_plus,
                                   stiffness_one=A_minus + A_plus,
                                   mass_one=B_minus + B_plus),
                       cap, cap.material.delta)


def assemble_dissipative_pencil(cap: DiscreteCap, delta: float) -> PencilMatrices:
    """Pencil of the coefficient ``sigma + i*delta``: ``A0 + i delta A1``,
    ``B0 + i delta B1`` with the weight-one parts entering both matrices."""
    if not delta > 0:
        raise InvalidGeometry("delta must be positive")
    if cap.material.delta != 0:
        raise InvalidGeometry("base cap must be undamped")
    return _dissipated(assemble_pencil(cap), delta)


def pencil_for(geometry: CapGeometry, material: MaterialSpec, mode: int,
               elements: int = 64, order: int = 2) -> PencilMatrices:
    """Convenience: build the cap and assemble its pencil in one call."""
    return assemble_pencil(build_cap(geometry, material, mode, elements, order))
