"""Critical contrast interval: closed form against the empirical scan.

The hypergeometric expression aleph(alpha) gives the endpoint of the interval
of contrasts carrying black-hole waves; the scanner rediscovers it from the
discretized pencils alone, as the union of the per-mode dispersion curves
kappa_m(eta), and reports which azimuthal mode attains it.
"""

import numpy as np

import conetip as ct

print("aperture      aleph      product with the mirror aperture")
for alpha in (0.5, np.pi / 4, 1.2, np.pi / 2, 2.2):
    a = ct.aleph(alpha)
    print(f"{alpha:8.4f}  {a:9.5f}   aleph(a)*aleph(pi-a) = "
          f"{a * ct.aleph(np.pi - alpha):.12f}")

tip = ct.CapGeometry("internal", np.pi / 4)
print("\ncritical interval inside [-0.6, -0.06] at aperture pi/4 ...")
ci = ct.scan_interval(tip, kappa_range=(-0.6, -0.06), modes=(0, 1, 2),
                      elements=64)
print(f"detected endpoint : {ci.endpoint_outer:.6f}")
print(f"closed form       : {ci.closed_form:.6f}")
print(f"attaining mode    : {ci.attaining_mode}")
print(f"witnesses at the deep end (mode -> etas): "
      f"{ {m: v for m, v in ci.per_mode.items() if v} }")

print("\nthe eigenvalue census grows as the contrast approaches -1:")
for kappa in (-0.5, -0.7, -0.85, -0.95):
    _, wit = ct.has_blackhole(tip, kappa, modes=range(4), elements=96)
    print(f"kappa = {kappa:5.2f}: {len(wit)} line eigenvalue(s)")
