"""Toolkit for the sharp Holder-regularity invariant of semisimple Lie groups.

Exact root-system arithmetic over the classification (the ``rootsys`` and
``catalog`` modules), matrix decompositions for the special linear group
(``liegroup``), numerical spherical functions (``spherical``), and
stationary-phase / Holder-norm verification utilities (``asymptotics``).
"""

__version__ = "0.1.0"

# Largest matrix product, in multiply-adds, that OpenBLAS runs on the calling
# thread; products above it go to its thread pool, which on a busy two-core
# host stalled: 8 ms per E8 batch of root counts against 0.7 ms on one
# thread, and 16 ms against 0.16 ms for a (130 x 100) @ (100 x 401) product.
# Blocked products (``rootsys.n_of_many``, ``spherical.legendre_rows``) stay
# within it.
_ONE_THREAD_MADDS = 2 ** 18
