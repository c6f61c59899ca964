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


def _build_mesh(geometry: CapGeometry, elements: int, order: int) -> Mesh1D:
    lo, hi = -np.pi / 2, geometry.latitude_max
    span = hi - lo
    n_below = int(round(elements * geometry.alpha / span))
    n_below = min(max(n_below, 1), elements - 1)
    below = np.linspace(lo, geometry.interface_latitude, n_below + 1)
    above = np.linspace(geometry.interface_latitude, hi, elements - n_below + 1)
    nodes = np.concatenate([below, above[1:]])
    return Mesh1D(nodes=nodes, element_order=order, interface_index=n_below)


def _reference_shapes(order: int):
    # values/derivatives of Lagrange shapes at the 4 Gauss points of [-1, 1]
    x, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    if order == 1:
        n = np.stack([(1 - x) / 2, (1 + x) / 2])
        d = np.stack([np.full_like(x, -0.5), np.full_like(x, 0.5)])
    else:
        n = np.stack([x * (x - 1) / 2, 1 - x * x, x * (x + 1) / 2])
        d = np.stack([x - 0.5, -2 * x, x + 0.5])
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
    eval_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.dof_map, self.quad_lat, self.quad_weight,
                  self.quad_sigma, self.eval_matrix):
            a.setflags(write=False)

    @property
    def n_dof(self) -> int:
        return len(self.dof_map)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Embed a reduced dof vector into the full dof numbering (zeros at
        eliminated dofs)."""
        if len(reduced) != self.n_dof:
            raise DimensionMismatch(f"expected {self.n_dof} dofs, got {len(reduced)}")
        full = np.zeros(self.mesh.n_dof_full, dtype=np.result_type(reduced, float))
        full[self.dof_map] = reduced
        return full


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

    n_full = mesh.n_dof_full
    eliminated = set()
    has_north_pole = geometry.kind == INTERNAL or (
        geometry.kind == BOUNDARY and geometry.alpha_outer >= np.pi - 1e-14)
    if mode >= 1:
        eliminated.add(0)
        if has_north_pole:
            eliminated.add(n_full - 1)
    if geometry.kind == BOUNDARY and geometry.outer_bc == DIRICHLET:
        eliminated.add(n_full - 1)
    dof_map = np.array([i for i in range(n_full) if i not in eliminated], dtype=int)

    xg, wg, shape_n, _ = _reference_shapes(order)
    n_elem = mesh.n_elements
    lat = np.empty(n_elem * _GAUSS_POINTS)
    wq = np.empty_like(lat)
    sig = np.empty(n_elem * _GAUSS_POINTS, dtype=complex)
    emat = np.zeros((n_elem * _GAUSS_POINTS, n_full))
    s_minus = material.sigma_minus + 1j * material.delta
    s_plus = material.sigma_plus + 1j * material.delta
    for e in range(n_elem):
        a, b = mesh.nodes[e], mesh.nodes[e + 1]
        h = b - a
        rows = slice(e * _GAUSS_POINTS, (e + 1) * _GAUSS_POINTS)
        lat[rows] = (a + b) / 2 + h / 2 * xg
        wq[rows] = h / 2 * wg
        sig[rows] = s_minus if e < mesh.interface_index else s_plus
        cols = [order * e + k for k in range(order + 1)]
        emat[rows, cols[0]:cols[-1] + 1] = shape_n.T
    if material.delta == 0:
        sig = sig.real
    return DiscreteCap(geometry=geometry, material=material, mode=mode, mesh=mesh,
                       dof_map=dof_map, quad_lat=lat, quad_weight=wq,
                       quad_sigma=sig, eval_matrix=emat)


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
    fv = cap.eval_matrix @ cap.expand(f)
    gv = cap.eval_matrix @ cap.expand(g)
    w = cap.quad_weight * np.cos(cap.quad_lat)
    if weight == "sigma":
        w = w * cap.quad_sigma
    elif weight != "one":
        raise DimensionMismatch(f"unknown weight {weight!r}")
    return complex(np.sum(w * fv * np.conj(gv)))


@dataclass(frozen=True)
class PencilMatrices:
    """Discrete symbol pencil ``A - Lambda B`` for one azimuthal mode.

    ``A`` and ``B`` are complex symmetric (assembled without conjugation, so
    ``A == A.T`` exactly); real when ``delta == 0``.  ``stiffness_one`` /
    ``mass_one`` are the weight-one counterparts, used for dissipative
    perturbations ``A + i delta A1`` and for normalization.
    """

    A: np.ndarray
    B: np.ndarray
    stiffness_one: np.ndarray
    mass_one: np.ndarray
    cap: DiscreteCap | None
    delta: float = 0.0

    def __post_init__(self):
        for a in (self.A, self.B, self.stiffness_one, self.mass_one):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _assemble_weighted(cap: DiscreteCap, sigma_values: np.ndarray):
    """Assemble (stiffness, mass) for an arbitrary per-quad-point weight."""
    mesh = cap.mesh
    order = mesh.element_order
    _, _, shape_n, shape_d = _reference_shapes(order)
    n_full = mesh.n_dof_full
    dtype = np.result_type(sigma_values, float)
    A = np.zeros((n_full, n_full), dtype=dtype)
    B = np.zeros((n_full, n_full), dtype=dtype)
    m2 = float(cap.mode * cap.mode)
    for e in range(mesh.n_elements):
        a, b = mesh.nodes[e], mesh.nodes[e + 1]
        h = b - a
        rows = slice(e * _GAUSS_POINTS, (e + 1) * _GAUSS_POINTS)
        lat = cap.quad_lat[rows]
        wq = cap.quad_weight[rows]
        sg = sigma_values[rows]
        c = np.cos(lat)
        dN = shape_d * (2 / h)
        idx = slice(order * e, order * e + order + 1)
        for k in range(_GAUSS_POINTS):
            mass_k = np.outer(shape_n[:, k], shape_n[:, k])
            stiff_k = np.outer(dN[:, k], dN[:, k]) * c[k]
            if m2:
                stiff_k = stiff_k + (m2 / c[k]) * mass_k
            A[idx, idx] += (sg[k] * wq[k]) * stiff_k
            B[idx, idx] += (sg[k] * wq[k] * c[k]) * mass_k
    ix = np.ix_(cap.dof_map, cap.dof_map)
    return A[ix], B[ix]


def _band(M: np.ndarray, u: int) -> np.ndarray:
    """Diagonal-ordered storage of a matrix of half-bandwidth ``u``, as
    ``scipy.linalg.solve_banded`` takes it."""
    n = M.shape[0]
    ab = np.zeros((2 * u + 1, n), dtype=M.dtype)
    for k in range(-u, u + 1):
        ab[u - k, max(k, 0):n + min(k, 0)] = np.diagonal(M, k)
    return ab


def assemble_pencil(cap: DiscreteCap) -> PencilMatrices:
    """Assemble the pencil of the cap's material (including its dissipation)."""
    A, B = _assemble_weighted(cap, cap.quad_sigma)
    A1, B1 = _assemble_weighted(cap, np.ones_like(cap.quad_lat))
    return PencilMatrices(A=A, B=B, stiffness_one=A1, mass_one=B1, cap=cap,
                          delta=cap.material.delta)


def assemble_dissipative_pencil(cap: DiscreteCap, delta: float) -> PencilMatrices:
    """Pencil of the coefficient ``sigma + i*delta``: ``A0 + i delta A1``,
    ``B0 + i delta B1`` with the weight-one parts entering both matrices."""
    if not delta > 0:
        raise InvalidGeometry("delta must be positive")
    if cap.material.delta != 0:
        raise InvalidGeometry("base cap must be undamped")
    base = assemble_pencil(cap)
    A = base.A + 1j * delta * base.stiffness_one
    B = base.B + 1j * delta * base.mass_one
    return PencilMatrices(A=A, B=B, stiffness_one=base.stiffness_one,
                          mass_one=base.mass_one, cap=cap, delta=delta)


def pencil_for(geometry: CapGeometry, material: MaterialSpec, mode: int,
               elements: int = 64, order: int = 2) -> PencilMatrices:
    """Convenience: build the cap and assemble its pencil in one call."""
    return assemble_pencil(build_cap(geometry, material, mode, elements, order))
