"""The quantitative heart: power-law decay of the oscillatory integrals and
the explicit two-term stationary-phase approximation, on both sides of the
duality.

Run:  python demos/04_decay_and_stationary_phase.py
"""

import numpy as np

from sphreg import asymptotics as asy
from sphreg.accept import decay_envelope_fit, legendre_envelope_fit

# Envelope decay of the rank-one family: the fitted exponent is the negative
# of the regularity invariant of the rank-one split group, namely -1/2.
fit = decay_envelope_fit(xi=1.0, t_geo=1.0)
print(f"noncompact envelope: slope {fit.slope:+.4f}, r^2 {fit.r_squared:.5f}")

fit = legendre_envelope_fit()
print(f"compact envelope:    slope {fit.slope:+.4f}, r^2 {fit.r_squared:.5f}")

# Stationary phase, noncompact: two Weyl terms with explicit amplitudes, the
# comparison `sphreg statphase` prints.
steps = (50, 100, 200, 400, 800, 1600)
print("\n   t      quadrature          leading term        error * t^{3/2}")
for t, quad, lead in asy.statphase_rows("sl2", 0.8, steps, xi=0.5):
    print(f"{t:5d}  {quad.real:+.8f}{quad.imag:+.8f}j  "
          f"{lead.real:+.8f}{lead.imag:+.8f}j  {abs(quad - lead) * t**1.5:8.5f}")

# The critical set of the phase: the four quarter turns, nothing else.
angles = asy.stationary_points_check_sl2(1.0, 1.0, tol=1e-3)
print("\ncritical angles (units of pi/2):",
      sorted(round(a / (np.pi / 2), 2) for a in angles))

# Compact side: branch-fixed Hessian roots give the classical asymptotics.
print("\n   n      polynomial      leading term     error * n^{3/2}")
for n, value, lead in asy.statphase_rows("su2", 1.0, steps):
    print(f"{n:5d}  {value:+.10f}  {lead:+.10f}  {abs(value - lead) * n**1.5:8.5f}")
