"""Symbol-pencil spectra on the spherical cap.

A positive coefficient reproduces the spherical-harmonic values l(l+1);
pushing the contrast into the critical interval moves eigenvalues onto the
energy line Re(lambda) = -1/2, where each real Lambda < -1/4 encodes an
oscillatory radial exponent -1/2 + i*eta.
"""

import numpy as np

import conetip as ct

tip = ct.CapGeometry("internal", np.pi / 4)

print("== positive coefficient sanity (kappa = 1) ==")
spec = ct.solve_pencil(ct.pencil_for(tip, ct.MaterialSpec.from_contrast(1.0), 0, 96, 2))
# adding 0.0 turns a rounded -0.0 (the sign of rounding noise) into 0.0
print("first eigenvalues:", np.round(np.sort(spec.Lambdas.real)[:6], 6) + 0.0)
print("expected l(l+1):  ", [l * (l + 1) for l in range(6)])

print("\n== sign-changing coefficient, contrast sweep ==")
for kappa in (-0.1, -0.3, -0.5, -0.7):
    etas = []
    for mode in range(4):
        P = ct.pencil_for(tip, ct.MaterialSpec.from_contrast(kappa), mode, 96, 2)
        etas += [(mode, round(le.eta, 4)) for le in ct.line_eigenvalues(ct.solve_pencil(P))]
    inside = "inside " if etas else "outside"
    print(f"kappa = {kappa:5.2f}  ({inside} critical interval)  "
          f"line eigenvalues (mode, eta): {etas}")

print(f"\nclosed-form endpoint for this aperture: -aleph(pi/4) = "
      f"{-ct.aleph(np.pi / 4):.6f}")

print("\n== conjugate symmetry of the real pencil ==")
P = ct.pencil_for(tip, ct.MaterialSpec.from_contrast(-0.5), 0, 96, 2)
Lams = ct.solve_pencil(P).Lambdas
# real eigenvalues are exactly real and complex ones come as exact conjugate
# pairs, so the spectrum equals its conjugate value for value
print("spectrum equals its conjugate, value for value:",
      np.array_equal(np.sort_complex(Lams), np.sort_complex(np.conj(Lams))))
