"""Exact-arithmetic engine for restricted root systems with multiplicities.

Roots are stored through their integer coefficients in the simple-root
basis; no ambient Euclidean embedding is used.  Gram matrices follow the
normalization in which the short root of each family has squared length 2
(the invariant, dominance and hull membership are scale invariant, so the
choice is free).  Covector coordinates are exact rationals.

Everything but the counting kernel runs in Python integers and imports no
numpy.  The positive roots are built by height (Humphreys, *Introduction to
Lie Algebras and Representation Theory*, 8.4), each with its coroot
pairings and squared length.  The fundamental weights are rows of the
inverse Cartan matrix, whose determinant and adjugate come from
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).  The
dominant representatives walk on cleared integer coordinates and their
integer coroot pairings, so the walk and the hull test do no ``Fraction``
arithmetic.  The Weyl group permutes the roots, so its elements are integer
matrices in simple-root coordinates whose columns are the images of the
simple roots; the group is the closure of the simple reflections acting on
root indices.  ``n_of`` clears denominators and shares the pairing kernel
``(R G) x`` of ``n_of_many``.  While
``max|x| * max_i sum_j |(R G)_ij| < 2**53`` bounds every product and partial
sum, it runs as a float64 BLAS product: each of those is an integer below
``2**53``, so IEEE double computes it exactly in any summation order.
Otherwise it runs in Python integers (``dtype=object``), so the zero test is
exact for every input.  The hits are weighted in tiers too: by a float64
BLAS product while the total multiplicity is below ``2**53``, in int64 below
``2**63``, in Python integers beyond.  Covector coordinates are never rounded.

Each constant is computed once, at the level it depends on, and no system
is hashed on the way.  The multiplicity vector, ``2 rho`` and the
doubled-simple-root flags live on the ``RootSystem`` instance, made on first
use.  The Gram tuple, the positive roots (with BC's doubled roots) and their
length classes are cached per (family, rank), so ``build_root_system`` only
checks the assignment and attaches multiplicities.  Cached on the ``gram``
tuple, of which the rank ceiling allows a few hundred: the positive roots
and the Cartan matrix, and from both the Weyl group; with the roots, ``R G``
in float64 and its row bound; with the doubled-root flags, the fundamental
weights.

Supported families: A, B, C, D, BC (non-reduced), G2, F4, E6, E7, E8.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from . import _ONE_THREAD_MADDS

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Covector",
    "PositiveRoot",
    "RootSystem",
    "RootSystemError",
    "WeylElement",
    "build_root_system",
    "dominant_representative",
    "fundamental_weights",
    "in_bounded_region",
    "inner",
    "kappa",
    "n_of",
    "n_of_many",
    "reflect",
    "rho",
    "simple_covector",
    "weyl_group",
]


class RootSystemError(ValueError):
    """Invalid family, rank or multiplicity data."""


@dataclass(frozen=True)
class PositiveRoot:
    """A positive root given by its simple-root coefficients and multiplicity."""

    coeffs: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class Covector:
    """Element of the dual of the Cartan subspace, in simple-root coordinates."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def make(values: Iterable) -> "Covector":
        return Covector(tuple(Fraction(v) for v in values))

    def __add__(self, other: "Covector") -> "Covector":
        return Covector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Covector") -> "Covector":
        return Covector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "Covector":
        c = Fraction(c)
        return Covector(tuple(c * a for a in self.coords))


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal transformation of covector coordinates with a generating word.

    ``word = (i1, ..., im)`` means the element is the composition
    ``s_{i1} s_{i2} ... s_{im}`` (rightmost reflection applied first); the
    integer matrix acts on coordinate columns.
    """

    matrix: tuple[tuple[int, ...], ...]
    word: tuple[int, ...]

    def apply(self, lam: Covector) -> Covector:
        x, scale = _cleared(lam, len(self.matrix))
        return Covector(tuple(Fraction(sum(a * b for a, b in zip(row, x)), scale)
                              for row in self.matrix))


class _PairingKernel(NamedTuple):
    weights: np.ndarray  # ``(R G)^T``, one column per positive root, in float64
    mult: np.ndarray     # multiplicities, float64, int64 or Python ints (see ``_kernel``)
    row_bound: int       # largest absolute row sum of ``R G``


@lru_cache(maxsize=None)
def _pairing(gram: tuple[tuple[int, ...], ...],
             coeffs: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, int]:
    """``(R G)^T`` in read-only float64 and the row bound, once per root set.
    Root coefficients and Gram entries are at most 6 in absolute value, so
    under ``MAX_RANK`` float64 holds each entry of ``R G`` exactly."""
    import numpy as np

    pairing = np.array(coeffs, dtype=np.int64) @ np.array(gram, dtype=np.int64)
    weights = pairing.T.astype(np.float64)
    weights.setflags(write=False)
    return weights, int(np.abs(pairing).sum(axis=1).max())


@dataclass(frozen=True)
class RootSystem:
    """Restricted root system with multiplicities, over exact rationals.

    The per-system constants below are computed on first use and kept in the
    instance ``__dict__`` (``cached_property`` writes there directly, past the
    frozen ``__setattr__``).  They are not fields, so equality and hashing
    ignore them, and no cache outside the instance keeps it alive.
    """

    family: str
    rank: int
    gram: tuple[tuple[int, ...], ...]
    positive_roots: tuple[PositiveRoot, ...]
    reduced: bool

    @cached_property
    def _kernel(self) -> _PairingKernel:
        """The pairing kernel of ``n_of`` and ``n_of_many``, arrays read-only.
        The multiplicities are float64 while their sum is below ``2**53``, so
        each weighted count is an exact BLAS sum, int64 while it is below
        ``2**63``, and Python integers (``dtype=object``) beyond."""
        import numpy as np

        weights, row_bound = _pairing(self.gram, tuple(r.coeffs for r in self.positive_roots))
        mult = [r.multiplicity for r in self.positive_roots]
        mult = np.array(mult, dtype=np.float64 if sum(mult) < 2 ** 53 else
                        np.int64 if sum(mult) < 2 ** 63 else object)
        mult.setflags(write=False)
        return _PairingKernel(weights, mult, row_bound)

    @cached_property
    def _two_rho(self) -> tuple[int, ...]:
        """Sum of positive roots weighted by multiplicities, in integers."""
        return tuple(sum(column) for column in zip(
            *([r.multiplicity * c for c in r.coeffs] for r in self.positive_roots)))

    @cached_property
    def _doubled_simple(self) -> tuple[bool, ...]:
        """Whether twice each simple root is again a positive root."""
        coeff_set = {r.coeffs for r in self.positive_roots}
        return tuple(tuple(2 * int(j == i) for j in range(self.rank)) in coeff_set
                     for i in range(self.rank))


# ---------------------------------------------------------------------------
# family data
# ---------------------------------------------------------------------------

_FIXED_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
# A cold rank-64 build with kappa and the fundamental weights takes 0.08-0.18 s
# and at most 23 MB peak RSS (Python 3.11, x86_64); the Weyl group is gated apart
MAX_RANK = 64

# squared length -> class name, per family, in the short-root-length-2 scale
_CLASS_BY_NORM = {
    "A": {2: "all"},
    "D": {2: "all"},
    "E6": {2: "all"},
    "E7": {2: "all"},
    "E8": {2: "all"},
    "B": {2: "short", 4: "long"},
    "C": {2: "short", 4: "long"},
    "F4": {2: "short", 4: "long"},
    "G2": {2: "short", 6: "long"},
    "BC": {2: "short", 4: "medium", 8: "long"},
}


def class_vocabulary(family: str) -> tuple[str, ...]:
    """Length-class names a multiplicity assignment may mention for a family."""
    try:
        return tuple(dict.fromkeys(_CLASS_BY_NORM[family].values()))
    except KeyError:
        raise RootSystemError(f"unknown family {family!r}") from None


def _check_rank(family: str, rank: int) -> None:
    if family in _FIXED_RANK:
        if rank != _FIXED_RANK[family]:
            raise RootSystemError(f"family {family} has rank {_FIXED_RANK[family]}, got {rank}")
        return
    minimum = {"A": 1, "B": 1, "C": 1, "BC": 1, "D": 2}.get(family)
    if minimum is None:
        raise RootSystemError(f"unknown family {family!r}")
    if rank < minimum:
        raise RootSystemError(f"family {family} requires rank >= {minimum}, got {rank}")
    if rank > MAX_RANK:
        raise RootSystemError(f"rank {rank} exceeds the supported maximum {MAX_RANK}")


def _gram_int(family: str, rank: int) -> list[list[int]]:
    """Integer Gram matrix of the simple roots, short root squared length 2."""
    g = [[0] * rank for _ in range(rank)]

    def chain(diag, off):
        for i in range(rank):
            g[i][i] = diag
        for i in range(rank - 1):
            g[i][i + 1] = g[i + 1][i] = off

    if family == "A":
        chain(2, -1)
    elif family in ("B", "BC"):
        chain(4, -2)
        g[rank - 1][rank - 1] = 2
    elif family == "C":
        chain(2, -1)
        g[rank - 1][rank - 1] = 4
        if rank >= 2:
            g[rank - 2][rank - 1] = g[rank - 1][rank - 2] = -2
    elif family == "D":
        chain(2, -1)
        if rank >= 2:
            g[rank - 2][rank - 1] = g[rank - 1][rank - 2] = 0
        if rank >= 3:
            g[rank - 3][rank - 1] = g[rank - 1][rank - 3] = -1
    elif family == "G2":
        return [[2, -3], [-3, 6]]
    elif family == "F4":
        return [
            [4, -2, 0, 0],
            [-2, 4, -2, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
    elif family in ("E6", "E7", "E8"):
        # Bourbaki labelling: chain 1-3-4-5-..., node 2 attached to node 4.
        chain(2, 0)
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)]
        edges += [(i, i + 1) for i in range(4, rank - 1)]
        for i, j in edges:
            g[i][j] = g[j][i] = -1
    else:
        raise RootSystemError(f"unknown family {family!r}")
    return g


@lru_cache(maxsize=None)
def _cartan_rows(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Cartan integers c[i][j] = 2<a_i, a_j>/<a_j, a_j> in Python rows; once
    per Gram matrix."""
    diagonal = [row[j] for j, row in enumerate(gram)]
    if any(2 * g % d for row in gram for g, d in zip(row, diagonal)):
        raise RootSystemError("non-crystallographic Gram matrix")
    return tuple(tuple(2 * g // d for g, d in zip(row, diagonal)) for row in gram)


@lru_cache(maxsize=None)
def _positive_roots(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The positive roots of the reduced system of ``gram``, sorted, with
    their squared lengths; once per Gram matrix.  Built by height from roots
    ``[v, q, p, |v|^2]``: ``a_i`` extends ``v`` when ``p_i > q_i``, with
    ``q_i = <v, a_i^vee>`` and ``p_i`` the steps down the ``a_i``-string
    through ``v``.  Then ``q(v + a_i) = q(v) + cartan[i]``,
    ``|v + a_i|^2 = |v|^2 + (q_i + 1) <a_i, a_i>`` and, from each root
    ``v`` of the layer below, ``p_i(v + a_i) = p_i(v) + 1``."""
    cartan = _cartan_rows(gram)
    rank = len(gram)
    layer = [[tuple(int(j == i) for j in range(rank)), list(cartan[i]), [0] * rank, gram[i][i]]
             for i in range(rank)]
    roots = []
    while layer:
        roots += layer
        above = {}
        for v, q, p, norm in layer:
            for i in [j for j, (pj, qj) in enumerate(zip(p, q)) if pj > qj]:
                w = v[:i] + (v[i] + 1,) + v[i + 1:]
                root = above.get(w)
                if root is None:
                    root = above[w] = [w, [a + b for a, b in zip(q, cartan[i])], [0] * rank,
                                       norm + (q[i] + 1) * gram[i][i]]
                root[2][i] = p[i] + 1
        layer = list(above.values())
    return tuple(sorted((v, norm) for v, _, _, norm in roots))


@lru_cache(maxsize=None)
def _shape(family: str, rank: int) -> tuple[tuple, tuple, tuple[str, ...]]:
    """Everything of a system but its multiplicities, once per (family, rank):
    the Gram tuple, the positive roots' coefficient tuples (with BC's doubled
    roots) and the length class of each."""
    gram = tuple(map(tuple, _gram_int(family, rank)))
    norm2 = dict(_positive_roots(gram))
    positives = list(norm2)

    if family == "BC":
        # the double 2v of a short root v has squared length 4 |v|^2
        short_norm = min(norm2.values())
        norm2.update({tuple(2 * c for c in v): 4 * short_norm
                      for v, n2 in list(norm2.items()) if n2 == short_norm})
        positives = sorted(norm2)

    by_norm = _CLASS_BY_NORM[family]
    for v in positives:
        if norm2[v] not in by_norm:
            raise RootSystemError(f"unexpected root length {norm2[v]} in {family}{rank}")
    return gram, tuple(positives), tuple(by_norm[norm2[v]] for v in positives)


def build_root_system(
    family: str, rank: int, mult_assignment: Mapping[str, int]
) -> RootSystem:
    """Construct the full positive system of a family with assigned multiplicities.

    ``mult_assignment`` maps length-class names to positive integers.  Every
    class realized at this rank must be covered; classes belonging to the
    family but absent at this rank (``medium`` in BC of rank 1, ``short`` in
    C of rank 1) may be supplied and are ignored.  Names outside the family
    vocabulary are rejected.
    """
    _check_rank(family, rank)
    vocab = class_vocabulary(family)
    for key, value in mult_assignment.items():
        if key not in vocab:
            raise RootSystemError(f"unknown length class {key!r} for family {family}")
        try:  # int() raises on None, nan and inf
            valid = int(value) == value and value > 0
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise RootSystemError(f"invalid multiplicity {value!r} for class {key!r}")

    gram, coeffs, classes = _shape(family, rank)
    missing = next((cls for cls in classes if cls not in mult_assignment), None)
    if missing is not None:
        raise RootSystemError(f"incomplete multiplicity assignment: class {missing!r} not covered")
    roots = tuple(PositiveRoot(v, int(mult_assignment[cls])) for v, cls in zip(coeffs, classes))
    return RootSystem(family, rank, gram, roots, family != "BC")


# ---------------------------------------------------------------------------
# exact operations
# ---------------------------------------------------------------------------

def simple_covector(sys: RootSystem, i: int) -> Covector:
    """The i-th simple root as a covector (0-based index)."""
    return Covector(tuple(Fraction(int(j == i)) for j in range(sys.rank)))


def root_covector(root: PositiveRoot) -> Covector:
    return Covector(tuple(Fraction(c) for c in root.coeffs))


def inner(sys: RootSystem, lam: Covector, mu: Covector) -> Fraction:
    """Exact inner product through the Gram matrix."""
    if len(lam.coords) != sys.rank or len(mu.coords) != sys.rank:
        raise ValueError("coordinate length does not match rank")
    return sum((a * sum(g * b for g, b in zip(row, mu.coords))
                for a, row in zip(lam.coords, sys.gram) if a != 0), Fraction(0))


def _integer_rows(coords, rank: int) -> np.ndarray:
    """``coords`` as a ``(count, rank)`` integer array, never through float:
    numpy integers that fit int64 as they stand, anything else as Python ints."""
    import numpy as np

    rows = np.asarray(coords)
    if rows.ndim != 2 or rows.shape[1] != rank:
        raise ValueError(f"coordinate rows must have shape (count, {rank})")
    if np.can_cast(rows.dtype, np.int64):
        return rows
    try:
        # ``np.asarray`` may have rounded huge ints to float, so start again
        # from ``coords`` itself
        return np.frompyfunc(operator.index, 1, 1)(np.array(coords, dtype=object))
    except TypeError:
        raise TypeError("coordinates must be integers; clear denominators first") from None


def _cleared(lam: Covector, rank: int) -> tuple[list[int], int]:
    """Integers ``x`` and the least positive ``scale`` with ``lam = x / scale``."""
    if len(lam.coords) != rank:
        raise ValueError("coordinate length does not match rank")
    # ints and Fractions carry numerator and denominator; floats go through Fraction
    coords = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in lam.coords]
    scale = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (scale // c.denominator) for c in coords], scale


def _weigh(pairings: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The hits ``pairings != 0`` weighted by ``mult``.  With both in float64
    the pairings turn into hits in place and a BLAS product weighs them."""
    import numpy as np

    if pairings.dtype == mult.dtype == np.float64:
        return np.not_equal(pairings, 0, out=pairings) @ mult
    return (pairings != 0).astype(mult.dtype) @ mult


def _counts(kernel: _PairingKernel, rows, largest: int) -> np.ndarray:
    """Multiplicity-weighted counts of the roots not orthogonal to each
    integer row of ``rows`` (an array or nested lists, with largest absolute
    entry ``largest``), in the dtype of ``kernel.mult``.

    While ``largest * row_bound < 2**53`` every product and partial sum of
    ``rows @ (R G)^T`` is an integer below ``2**53``, so float64 BLAS computes
    it exactly in any order, in blocks that OpenBLAS runs on the calling
    thread; otherwise the product runs in Python integers."""
    import numpy as np

    if largest * kernel.row_bound >= 2 ** 53:
        exact = kernel.weights.astype(np.int64).astype(object)
        return _weigh(np.asarray(rows, dtype=object) @ exact, kernel.mult)
    floats = np.asarray(rows, dtype=np.float64)
    step = max(1, _ONE_THREAD_MADDS // kernel.weights.size)
    if len(floats) <= step:
        return _weigh(floats @ kernel.weights, kernel.mult)
    return np.concatenate([_weigh(floats[start:start + step] @ kernel.weights, kernel.mult)
                           for start in range(0, len(floats), step)])


def n_of(sys: RootSystem, lam: Covector) -> int:
    """Multiplicity-weighted count of positive roots not orthogonal to ``lam``.

    The denominators of ``lam`` are cleared and the integer row goes through
    the two tiers of ``n_of_many``, so the orthogonality test is exact.
    """
    x, _ = _cleared(lam, sys.rank)
    return int(_counts(sys._kernel, [x], max(map(abs, x)))[0])


def n_of_many(sys: RootSystem, coords) -> np.ndarray:
    """Vectorized ``n_of`` over integer coordinate rows.

    ``coords`` must be integral, of shape ``(count, rank)``; rational inputs
    should be scaled by a common denominator first (the orthogonality
    pattern is scale-invariant).  The pairings are computed in float64 when
    their partial sums provably stay below ``2**53``, and in Python integers
    otherwise, so the zero test is exact for every input.  The counts are
    int64, or Python integers once the total multiplicity reaches ``2**63``.
    """
    import numpy as np

    rows = _integer_rows(coords, sys.rank)
    largest = max(int(rows.max()), -int(rows.min())) if rows.size else 0
    counts = _counts(sys._kernel, rows, largest)
    return counts if counts.dtype == object else counts.astype(np.int64, copy=False)


def kappa(sys: RootSystem) -> Fraction:
    """The regularity exponent: half the minimal multiplicity-weighted number
    of positive roots involving a given simple-root direction."""
    if not sys.positive_roots:
        raise RootSystemError("empty root system")
    return Fraction(min(sum(r.multiplicity for r in sys.positive_roots if r.coeffs[i] >= 1)
                        for i in range(sys.rank)), 2)


def reflect(sys: RootSystem, root: PositiveRoot, lam: Covector) -> Covector:
    """Reflection of ``lam`` in the hyperplane orthogonal to ``root``; exact."""
    alpha = root_covector(root)
    return lam - alpha.scale(2 * inner(sys, lam, alpha) / inner(sys, alpha, alpha))


def rho(sys: RootSystem) -> Covector:
    """Half sum of positive roots weighted by multiplicities."""
    return Covector(tuple(Fraction(t, 2) for t in sys._two_rho))


@lru_cache(maxsize=None)
def _fundamental(gram: tuple[tuple[int, ...], ...],
                 doubled: tuple[bool, ...]) -> tuple[Covector, ...]:
    """The fundamental weights, once per Gram matrix and doubled-root flags.
    They are rows of the inverse Cartan matrix.  Fraction-free Gauss-Jordan
    elimination (Bareiss) takes ``[cartan | I]`` to ``[det I | adj]`` in
    integers: after step ``k`` every entry is a minor of order ``k + 1``, so
    each division by the previous pivot is exact."""
    rank = len(gram)
    rows = [list(row) + [int(j == i) for j in range(rank)]
            for i, row in enumerate(_cartan_rows(gram))]
    previous = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot == 0:  # the leading minors of a Cartan matrix are positive
            raise RootSystemError("no exact integer inverse of the Cartan matrix")
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pivot * a - f * b) // previous for a, b in zip(row, pivot_row)]
        previous = pivot
    # <w_i, a_j> = ratio_i <a_i, a_i> delta_ij gives w_i = 2 ratio_i (row i of cartan^-1)
    return tuple(Covector(tuple(Fraction(2 * (2 if d else 1) * a, previous) for a in row[rank:]))
                 for d, row in zip(doubled, rows))


def fundamental_weights(sys: RootSystem) -> list[Covector]:
    """Weights dual to the simple roots.

    The normalized pairing with the matching simple root is 1, or 2 when the
    doubled simple root is itself a root (non-reduced systems); the lattice
    they span over the nonnegative integers indexes the spherical
    representations of the compact dual.  The list is the caller's own.
    """
    return list(_fundamental(sys.gram, sys._doubled_simple))


def weyl_group(sys: RootSystem, max_rank: int = 4) -> list[WeylElement]:
    """Full Weyl group, generated from the simple reflections by closure.

    The group order grows factorially with the rank, so generation is gated
    by ``max_rank``; the regularity invariant never needs the group itself.
    """
    if sys.rank > max_rank:
        raise RootSystemError(
            f"rank {sys.rank} exceeds the Weyl-group generation bound {max_rank}"
        )
    return list(_weyl_elements(sys.gram))


@lru_cache(maxsize=None)
def _weyl_elements(gram: tuple[tuple[int, ...], ...]) -> tuple[WeylElement, ...]:
    """The Weyl group of ``gram`` by word length, then word; computed once.
    ``s_i v = v - <v, a_i^vee> a_i`` permutes the roots, so one table per
    ``i`` maps root indices to image indices.  An element is the indices of
    ``w(a_1), ..., w(a_r)``, its matrix's columns.  The closure is breadth
    first from the identity, and each element keeps the word ``(i,) + word(w)``
    of its first product ``s_i w`` in (element, generator) order."""
    cartan = _cartan_rows(gram)
    rank = len(gram)
    positive = [v for v, _ in _positive_roots(gram)]
    roots = positive + [tuple(-c for c in v) for v in positive]
    index = {v: n for n, v in enumerate(roots)}
    tables = [[index[v[:i] + (v[i] - sum(c * row[i] for c, row in zip(v, cartan)),) + v[i + 1:]]
               for v in roots] for i in range(rank)]
    identity = tuple(index[tuple(int(j == i) for j in range(rank))] for i in range(rank))
    words, frontier = {identity: ()}, [identity]
    while frontier:
        found = []
        for element in frontier:
            for i, table in enumerate(tables):
                product = tuple(map(table.__getitem__, element))
                if product not in words:
                    words[product] = (i,) + words[element]
                    found.append(product)
        frontier = found
    group = (WeylElement(tuple(zip(*(roots[n] for n in element))), word)
             for element, word in words.items())
    return tuple(sorted(group, key=lambda w: (len(w.word), w.word)))


def _chamber_walk(cartan: Sequence[Sequence[int]], x: list[int]) -> list[int]:
    """Reflects the integer coordinates ``x`` in place into the dominant
    chamber, always at the smallest index with a negative coroot pairing,
    and returns the indices in the order applied.

    The pairing ``q_i = <x, a_i^vee> = sum_j x_j cartan[j][i]`` has the sign
    of ``<x, a_i>``.  ``s_i`` subtracts ``q_i`` from ``x_i`` and
    ``q_i cartan[i][k]`` from each ``q_k``.  Each step strictly increases the
    pairing with the half-sum of positive roots, so the walk ends."""
    q = [sum(xj * row[i] for xj, row in zip(x, cartan)) for i in range(len(x))]
    steps = []
    while True:
        i = next((i for i, qi in enumerate(q) if qi < 0), None)
        if i is None:
            return steps
        qi = q[i]
        x[i] -= qi
        q = [qk - qi * c for qk, c in zip(q, cartan[i])]
        steps.append(i)


def dominant_representative(sys: RootSystem, lam: Covector) -> tuple[Covector, WeylElement]:
    """Weyl-chamber representative of ``lam`` together with the element mapping
    ``lam`` onto it, by the integer walk of ``_chamber_walk``."""
    x, scale = _cleared(lam, sys.rank)
    cartan = _cartan_rows(sys.gram)
    steps = _chamber_walk(cartan, x)
    matrix = [[int(j == i) for j in range(sys.rank)] for i in range(sys.rank)]
    for i in steps:  # row i of s_i is e_i - cartan[:, i]
        terms = [(row[i], matrix[k]) for k, row in enumerate(cartan) if row[i]]
        matrix[i] = [m - sum(c * r[j] for c, r in terms) for j, m in enumerate(matrix[i])]
    return (Covector(tuple(Fraction(c, scale) for c in x)),
            WeylElement(tuple(map(tuple, matrix)), tuple(reversed(steps))))


def in_bounded_region(sys: RootSystem, eta: Covector) -> bool:
    """Membership of ``eta`` in the convex hull of the Weyl orbit of the
    half-sum of positive roots.

    For a dominant representative the hull condition is that the difference
    from the half-sum is a nonnegative combination of simple roots, which in
    simple-root coordinates is a sign check: ``scale * 2 rho >= 2 x``.
    """
    x, scale = _cleared(eta, sys.rank)
    _chamber_walk(_cartan_rows(sys.gram), x)
    return all(scale * t >= 2 * c for t, c in zip(sys._two_rho, x))
