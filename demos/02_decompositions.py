"""Matrix factorizations behind the spherical integrals: the triangular
(orthogonal x abelian x unipotent) factorization and the polar-chamber one.

Run:  python demos/02_decompositions.py
"""

import numpy as np

from sphreg import liegroup as lg

rng = np.random.default_rng(0)
g = lg.SpecialLinearElement.from_array(rng.standard_normal((3, 3)) + 3 * np.eye(3))
print("g =\n", np.array_str(g.entries, precision=5))

fac = lg.iwasawa(g)
print("\nabelian part h =", np.array_str(fac.h, precision=8))
print("reconstruction error:", np.linalg.norm(fac.reconstruct() - g.entries))

# The projection onto the abelian part ignores left rotation.
k = lg.haar_so_n_sample(3, 1, 1)[0]
kg = lg.SpecialLinearElement(3, k @ g.entries)
print("left-invariance defect:",
      np.max(np.abs(lg.iwasawa_projection(kg) - fac.h)))

kf = lg.kak(g)
print("\nchamber part a_log =", np.array_str(kf.a_log, precision=8))
print("reconstruction error:", np.linalg.norm(kf.reconstruct() - g.entries))
print("regular (strictly interior chamber):", lg.is_regular(g))

# On a chamber wall the factorization still exists, uniqueness is what fails.
wall = lg.SpecialLinearElement.diagonal([1.0, 1.0, -2.0])
print("wall element regular?", lg.is_regular(wall))
