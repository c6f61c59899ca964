"""Limiting absorption: which branch survives a vanishing dissipation.

Adding i*delta to the coefficient pushes each line eigenvalue off the energy
line; the exponent branch that moves to the admissible side identifies the
physical (outgoing) singularity.  The demo tracks the trajectory, compares
its slope with the analytic perturbation formula, and checks the selection
against the flux-based Mandelstam split.
"""

import numpy as np

import conetip as ct


def show(z):
    """``z`` to 6 decimals; a part that rounds to -0 (the sign of rounding
    noise on a zero) prints as 0."""
    return f"{round(z.real, 6) + 0.0:.6f}{round(z.imag, 6) + 0.0:+.6f}j"


tip = ct.CapGeometry("internal", np.pi / 4)
mat = ct.MaterialSpec.from_contrast(-0.5)

cap = ct.build_cap(tip, mat, 0, 64, 2)
P0 = ct.assemble_pencil(cap)
le = ct.line_eigenvalues(ct.solve_pencil(P0))[0]
print(f"tracking the line eigenvalue eta = {le.eta:.6f} (mode 0)")

print("\ndelta        lambda(+branch)per continuation        overlap")
points = ct.trajectory(cap, le, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
for p in points:
    print(f"{p.delta:8.0e}   {p.lam.real:+.8f} {p.lam.imag:+.8f}i   {p.overlap:.6f}")

fd = ct.finite_difference_slope(points)
(_, dlp, dlm, _), = ct.perturbation_slope(P0, (P0.stiffness_one, P0.mass_one), le)
print(f"\nfinite-difference slope : {show(fd)}")
print(f"perturbation formula    : {show(dlp)}")
print(f"conjugate branch slope  : {show(dlm)}  (opposite real part)")

sel = ct.select_outgoing_by_absorption([le])
branch = sel.branch(le.mode, le.eta)
print(f"\nabsorption selects the {branch} branch "
      f"(the one moving right of the line)")

basis = ct.mandelstam_basis(ct.flux_matrix(ct.singular_space([le], 1.0)))
report = ct.consistency_report(basis, sel, [le])
print(f"agreement with the flux selection: {report.agree} "
      f"(principal angles {report.details[(le.mode, le.eta)]['angles']})")
