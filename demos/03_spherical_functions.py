"""Spherical functions numerically: normalization, boundedness region, a
product rule on the sphere at rank two, and the compact dual against the
polynomial oracle.

Run:  python demos/03_spherical_functions.py
"""

import numpy as np

from sphreg import spherical as sph
from sphreg.spherical import QuadratureConfig, SpectralParameter

# Rank one.  Spectral coordinates are against the positive root, so the
# half sum sits at 1/2 and the bounded region is |eta| <= 1/2.
lam = SpectralParameter.rank1(1.5)
value = sph.spherical_sl2(lam, 0.0)
print("value at the identity:", value.value)

for y in (0.5, 1.0, 2.0):
    v = sph.spherical_sl2(lam, y)
    print(f"Y={y}: value {v.value:+.10f}  nodes {v.quadrature_nodes}  "
          f"err est {v.estimated_error:.1e}")

# Purely imaginary spectral parameter: bounded inside the hull, growing outside.
config = QuadratureConfig(n_start=4096, n_max=1 << 20, target=1e-10, fail=1e-6)
inside = sph.spherical_sl2(SpectralParameter.rank1(0.0, 0.5), 4.0, config)
outside = sph.spherical_sl2(SpectralParameter.rank1(0.0, 0.75), 4.0, config)
print("\n|value| at eta = 1/2 (hull vertex):  ", abs(inside.value))
print("|value| at eta = 3/4 (outside hull):", abs(outside.value))

# Rank two: Laplace's integral leaves a sphere's worth of rank-one values,
# summed by nested Clenshaw-Curtis and trapezoid rules to an error estimate.
# This c is fixed by a reflection of the Weyl group, so the value is real.
lam2 = SpectralParameter.rank2((0.6, 0.3))
v2 = sph.spherical_sl3(lam2, (1.0, 0.0))
print(f"\nrank-two value at diag(e, 1, 1/e): {v2.value.real:.12f}  "
      f"evaluations {v2.quadrature_nodes}  err est {v2.estimated_error:.1e}")

# Compact dual: the circle integral reproduces the classical polynomials.
theta = 1.0
for n in (5, 40, 100):
    integral = sph.spherical_compact_su2(n, theta)
    recurrence = sph.legendre(n, np.cos(theta))
    print(f"degree {n:3d}: integral {integral:+.12f}  recurrence {recurrence:+.12f}")

# Derivatives under the integral sign (orders 0..3), no finite differences.
lam = SpectralParameter.rank1(0.8)
for order in range(4):
    d = sph.deriv_spherical_sl2(lam, 3.0, 1.1, order)
    print(f"derivative order {order}: {d:+.8f}")
