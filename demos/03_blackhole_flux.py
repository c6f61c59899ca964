"""Black-hole waves, their energy flux, and the outgoing/incoming split.

Each line eigenvalue yields the two radial behaviours r^(-1/2 +/- i*eta).
The symplectic flux form measures the energy they transport toward the tip;
diagonalizing it produces the Mandelstam basis with flux exactly +i per
outgoing member, and the trapped-energy bookkeeping follows.
"""

import numpy as np

import conetip as ct


def show(z):
    """``z`` to 6 decimals; a part that rounds to -0 (the sign of rounding
    noise on a zero) prints as 0."""
    return f"{round(z.real, 6) + 0.0:.6f}{round(z.imag, 6) + 0.0:+.6f}j"


tip = ct.CapGeometry("internal", np.pi / 4)
mat = ct.MaterialSpec.from_contrast(-0.85)

evs = []
for mode in range(3):
    spec = ct.solve_pencil(ct.pencil_for(tip, mat, mode, 96, 2))
    evs.extend(ct.line_eigenvalues(spec))
print("line eigenvalues (mode, eta):", [(le.mode, round(le.eta, 4)) for le in evs])

space = ct.singular_space(evs, rho=1.0)
fm = ct.flux_matrix(space)
print(f"singular space dimension: {space.dim} (always even)")
# values that are zero in exact arithmetic are checked against a bound
print(f"flux Gram anti-Hermiticity below 1e-12: "
      f"{np.abs(fm.Q + fm.Q.conj().T).max() < 1e-12}")

s = space.members[0]
q = ct.flux_pairing(s, s)
print(f"\nself-flux of the first member (closed form): {show(q)}")
for r in (1e-2, 1e-3, 1e-4):
    print(f"  quadrature oracle at radius {r:g}: {show(ct.flux_quadrature_oracle(s, s, r))}")

basis = ct.mandelstam_basis(fm)
print(f"\nMandelstam basis: {basis.n} outgoing + {basis.n} incoming, "
      f"orthonormalization residual below 1e-12: {basis.residual < 1e-12}")
for j in range(basis.n):
    w = ct.classify_wave(basis.plus_coords[:, j], fm)
    print(f"  s+_{j + 1}: {w.kind}, flux {show(w.flux_value)}")

mixed = basis.plus_coords[:, 0] + basis.minus_coords[:, 0]
print(f"  s+_1 + s-_1: {ct.classify_wave(mixed, fm).kind} (fluxes cancel)")

c_out = np.zeros(basis.n)
c_out[0] = 1.0
zero = np.zeros(basis.n)
print(f"\ntrapped energy, one unit outgoing member at omega = 1: "
      f"{ct.trapped_energy(basis, c_out, zero, None, [], [], 1.0):.6f}")
print(f"trapped energy, equal outgoing and incoming amplitudes, below 1e-12 "
      f"in size: {abs(ct.trapped_energy(basis, c_out, c_out, None, [], [], 1.0)) < 1e-12}")
