"""Exact-arithmetic engine for restricted root systems with multiplicities.

Roots are stored through their integer coefficients in the simple-root
basis; no ambient Euclidean embedding is used.  Gram matrices follow the
normalization in which the short root of each family has squared length 2
(the invariant, dominance and hull membership are scale invariant, so the
choice is free).  A covector holds integer numerators over one positive
denominator, in lowest terms; ``coords`` reads them as ``Fraction``s.

All but the BLAS product of ``n_of_many``, in the narrowest float that
cannot round, runs in Python integers.  The positive roots are built by
height (Humphreys, *Introduction to Lie Algebras and Representation
Theory*, 8.4, 10.2), and sorted, which puts ``v`` before ``v + a_i``:
``n_of`` forms ``y = G x`` once and takes each pairing from the root one
step lower, ``<v + a_i, x> = <v, x> + y_i``.  The fundamental weights are
rows of the inverse Cartan matrix, by fraction-free Gauss-Jordan
elimination (Bareiss, Math. Comp. 22, 1968).  The Weyl group is the closure
of the simple reflections permuting the roots; its elements are integer
matrices in simple-root coordinates, which act on the numerators alone, as
does the walk to the dominant chamber, by Dynkin neighbours.

Each constant is computed once, at the level it depends on, and no system
is hashed on the way: everything but the multiplicities per (family, rank)
in ``_shape``, and ``R G`` in float32 and float64 apart in ``_pairing``; the
positive roots, the Cartan matrix, the Weyl group and (with the doubled-root
flags) the fundamental weights per ``gram``.

Supported families: A, B, C, D, BC (non-reduced), G2, F4, E6, E7, E8.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from collections import namedtuple
from functools import lru_cache
from itertools import compress
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


class _Record:
    """Immutable record, equal and hashed by the values of its ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *values):
        """The record of ``values``, past any check of the class's constructor."""
        record = object.__new__(cls)
        _Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class PositiveRoot(NamedTuple):
    """A positive root given by its simple-root coefficients and multiplicity."""

    coeffs: tuple[int, ...]
    multiplicity: int


class Covector(_Record):
    """Element of the dual of the Cartan subspace, in simple-root coordinates:
    the integers ``numerators`` over their least positive ``denominator``."""

    __slots__ = _fields = ("numerators", "denominator")

    def __init__(self, coords: Iterable) -> None:
        # ints and Fractions carry numerator and denominator; the rest go through Fraction
        coords = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords]
        scale = math.lcm(*(c.denominator for c in coords))
        super().__init__(tuple(c.numerator * (scale // c.denominator) for c in coords), scale)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @staticmethod
    def make(values: Iterable) -> "Covector":
        return Covector(values)

    def __reduce__(self):
        return _covector, (self.numerators, self.denominator)

    def __add__(self, other: "Covector") -> "Covector":
        return Covector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Covector") -> "Covector":
        return Covector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "Covector":
        c = Fraction(c)
        return Covector(tuple(c * a for a in self.coords))


def _covector(numerators: tuple[int, ...], denominator: int) -> Covector:
    """The covector ``numerators / denominator``, in lowest terms."""
    if (g := math.gcd(denominator, *numerators)) > 1:
        numerators, denominator = tuple(x // g for x in numerators), denominator // g
    return Covector._unchecked(numerators, denominator)


class WeylElement(NamedTuple):
    """Orthogonal transformation of covector coordinates with a generating word.

    ``word = (i1, ..., im)`` means the element is the composition
    ``s_{i1} s_{i2} ... s_{im}`` (rightmost reflection applied first); the
    integer matrix acts on coordinate columns.
    """

    matrix: tuple[tuple[int, ...], ...]
    word: tuple[int, ...]

    def apply(self, lam: Covector) -> Covector:
        x, scale = _cleared(lam, len(self.matrix))
        return _covector(tuple(sum(map(operator.mul, row, x)) for row in self.matrix), scale)


class RootSystem(_Record):
    """Restricted root system with multiplicities, over exact rationals.

    The exact functions read all but the multiplicities from ``_shape``, and
    those from one root per class, so the constructor builds the system as
    ``build_root_system`` would and checks the rest against it.
    """

    _fields = ("family", "rank", "gram", "positive_roots", "reduced")

    def __init__(self, family: str, rank: int, gram, positive_roots, reduced: bool) -> None:
        _check_rank(family, rank)
        shape, roots = _shape(family, rank), tuple(positive_roots)
        if tuple(map(tuple, gram)) != shape.gram:
            raise RootSystemError(f"the Gram matrix is not that of {family}{rank}")
        if tuple(r.coeffs for r in roots) != shape.coeffs:
            raise RootSystemError(f"the {len(roots)} positive roots are not the "
                                  f"{len(shape.coeffs)} of {family}{rank}")
        if reduced != (family != "BC"):
            raise RootSystemError(f"{family}{rank} has reduced={family != 'BC'}, got {reduced!r}")
        mult = dict(zip(shape.classes, (r.multiplicity for r in roots)))  # checked as built
        built = build_root_system(family, rank, mult)
        if built.positive_roots != roots:
            raise RootSystemError(f"{family}{rank} has two multiplicities in one length class")
        super().__init__(*built._values())


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


_Shape = namedtuple("_Shape", "gram coeffs classes steps doubled involving heights neighbours")


@lru_cache(maxsize=None)
def _pairing(family: str, rank: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(R G)^T`` read-only in float32 and in float64, and the row bound,
    once per (family, rank).  Root coefficients and Gram entries are at most
    6 in absolute value, so under ``MAX_RANK`` both hold each entry exactly."""
    import numpy as np

    gram, coeffs, *_ = _shape(family, rank)
    pairing = np.array(coeffs, dtype=np.int64) @ np.array(gram, dtype=np.int64)
    w32, w64 = pairing.T.astype(np.float32), pairing.T.astype(np.float64)
    w32.setflags(write=False)
    w64.setflags(write=False)
    return w32, w64, int(np.abs(pairing).sum(axis=1).max())


@lru_cache(maxsize=None)
def _shape(family: str, rank: int) -> _Shape:
    """Everything of a system but its multiplicities, once per (family, rank):
    ``gram``; the sorted positive roots' ``coeffs`` (with BC's doubled roots)
    and length ``classes``; per root ``v`` the height step ``(index of v - a_i
    or -1 at a_i, i)``; whether each ``2 a_i`` is ``doubled``; and per ``a_i``
    and length class, as (first root of the class, value), the number of
    roots ``involving`` ``a_i`` and the sum of their ``a_i``-``heights``; and
    the Dynkin ``neighbours`` of ``a_i`` as ``(k, cartan[i][k], cartan[k][i])``."""
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
    classes = tuple(by_norm[norm2[v]] for v in positives)
    index = {v: k for k, v in enumerate(positives)} | {(0,) * rank: -1}
    steps = tuple(next((index[w], i) for i in range(rank)
                       if v[i] and (w := v[:i] + (v[i] - 1,) + v[i + 1:]) in index)
                  for v in positives)
    first = {c: classes.index(c) for c in dict.fromkeys(classes)}
    cols = {k: list(zip(*(v for v, c in zip(positives, classes) if c == name)))
            for name, k in first.items()}
    cartan = _cartan_rows(gram)
    return _Shape(gram, tuple(positives), classes, steps,
                  tuple(tuple(2 * int(j == i) for j in range(rank)) in index for i in range(rank)),
                  tuple(zip(*([(k, len(c) - c.count(0)) for c in cs] for k, cs in cols.items()))),
                  tuple(zip(*([(k, sum(c)) for c in cs] for k, cs in cols.items()))),
                  tuple(tuple((k, c, cartan[k][i]) for k, c in enumerate(row) if c and k != i)
                        for i, row in enumerate(cartan)))


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

    gram, coeffs, classes, *_ = _shape(family, rank)
    missing = next((cls for cls in classes if cls not in mult_assignment), None)
    if missing is not None:
        raise RootSystemError(f"incomplete multiplicity assignment: class {missing!r} not covered")
    roots = tuple(PositiveRoot(v, int(mult_assignment[cls])) for v, cls in zip(coeffs, classes))
    return RootSystem._unchecked(family, rank, gram, roots, family != "BC")


# ---------------------------------------------------------------------------
# exact operations
# ---------------------------------------------------------------------------

def simple_covector(sys: RootSystem, i: int) -> Covector:
    """The i-th simple root as a covector (0-based index)."""
    return _covector(tuple(int(j == i) for j in range(sys.rank)), 1)


def root_covector(root: PositiveRoot) -> Covector:
    return _covector(root.coeffs, 1)


def inner(sys: RootSystem, lam: Covector, mu: Covector) -> Fraction:
    """Exact inner product through the Gram matrix."""
    (x, d), (y, e) = _cleared(lam, sys.rank), _cleared(mu, sys.rank)
    return Fraction(sum(a * sum(map(operator.mul, row, y)) for a, row in zip(x, sys.gram) if a),
                    d * e)


def _cleared(lam: Covector, rank: int) -> tuple[list[int], int]:
    """Integers ``x`` and the least positive ``scale`` with ``lam = x / scale``."""
    if len(lam.numerators) != rank:
        raise ValueError("coordinate length does not match rank")
    return list(lam.numerators), lam.denominator


def n_of(sys: RootSystem, lam: Covector) -> int:
    """Multiplicity-weighted count of positive roots not orthogonal to ``lam``,
    exact for every input."""
    return _count(sys, _cleared(lam, sys.rank)[0])


def _count(sys: RootSystem, x: Sequence[int]) -> int:
    """``n`` at the integer coordinates ``x``: the pairings ``<v + a_i, x> =
    <v, x> + (G x)_i`` by height, in Python integers."""
    y = [sum(map(operator.mul, row, x)) for row in sys.gram]
    steps = _shape(sys.family, sys.rank).steps
    pairings = [0] * (len(steps) + 1)  # the last entry stands for <0, x>
    for k, (below, i) in enumerate(steps):
        pairings[k] = pairings[below] + y[i]
    return sum(compress(map(operator.attrgetter("multiplicity"), sys.positive_roots), pairings))


def n_of_many(sys: RootSystem, coords) -> np.ndarray:
    """Vectorized ``n_of`` over integer coordinate rows.

    ``coords`` must be integral, of shape ``(count, rank)``; rational inputs
    should be scaled by a common denominator first (the orthogonality
    pattern is scale-invariant).  While ``largest * row_bound`` and the total
    multiplicity are below ``2**24``, each product and partial sum of ``rows
    @ (R G)^T`` and of the weighted hits is an integer below ``2**24``, exact
    in float32 BLAS in any order and with fused multiply-adds (in blocks
    OpenBLAS runs on the calling thread); below ``2**53`` the same holds in
    float64; otherwise each row is counted as ``n_of`` counts.  The counts
    are int64, or Python integers once the total multiplicity reaches ``2**63``.
    """
    import numpy as np

    rows = np.asarray(coords)
    if rows.ndim != 2 or rows.shape[1] != sys.rank:
        raise ValueError(f"coordinate rows must have shape (count, {sys.rank})")
    if not np.can_cast(rows.dtype, np.int64):
        try:  # as Python ints, from ``coords``: ``np.asarray`` may have rounded them to float
            rows = np.frompyfunc(operator.index, 1, 1)(np.array(coords, dtype=object))
        except TypeError:
            raise TypeError("coordinates must be integers; clear denominators first") from None
    w32, w64, row_bound = _pairing(sys.family, sys.rank)
    mult = [r.multiplicity for r in sys.positive_roots]
    largest = max(int(rows.max()), -int(rows.min())) if rows.size else 0
    bound = max(largest * row_bound, sum(mult))  # of every product and partial sum
    if bound >= 2 ** 53:
        return np.array([_count(sys, x) for x in rows.tolist()],
                        dtype=np.int64 if sum(mult) < 2 ** 63 else object)
    w = w32 if bound < 2 ** 24 else w64
    floats, mult = rows.astype(w.dtype), np.array(mult, dtype=w.dtype)
    step = max(1, _ONE_THREAD_MADDS // w.size)
    blocks = (floats[start:start + step] @ w for start in range(0, max(len(floats), 1), step))
    return np.concatenate([np.not_equal(b, 0, out=b) @ mult for b in blocks]).astype(np.int64)


def kappa(sys: RootSystem) -> Fraction:
    """The regularity exponent: half the minimal multiplicity-weighted number
    of positive roots involving a given simple-root direction."""
    return Fraction(min(_by_class(sys, "involving")), 2)


def _by_class(sys: RootSystem, table: str) -> tuple[int, ...]:
    """Per simple root, the ``_shape`` ``table`` weighed by class multiplicity."""
    return tuple(sum(sys.positive_roots[k].multiplicity * n for k, n in row)
                 for row in getattr(_shape(sys.family, sys.rank), table))


def reflect(sys: RootSystem, root: PositiveRoot, lam: Covector) -> Covector:
    """Reflection of ``lam`` in the hyperplane orthogonal to ``root``; exact."""
    alpha = root_covector(root)
    return lam - alpha.scale(2 * inner(sys, lam, alpha) / inner(sys, alpha, alpha))


def rho(sys: RootSystem) -> Covector:
    """Half sum of positive roots weighted by multiplicities."""
    return _covector(_by_class(sys, "heights"), 2)


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
    return tuple(_covector(tuple(2 * (2 if d else 1) * a for a in row[rank:]), previous)
                 for d, row in zip(doubled, rows))


def fundamental_weights(sys: RootSystem) -> list[Covector]:
    """Weights dual to the simple roots.

    The normalized pairing with the matching simple root is 1, or 2 when the
    doubled simple root is itself a root (non-reduced systems); the lattice
    they span over the nonnegative integers indexes the spherical
    representations of the compact dual.  The list is the caller's own.
    """
    return list(_fundamental(sys.gram, _shape(sys.family, sys.rank).doubled))


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


def _chamber_walk(neighbours: Sequence[Sequence[tuple[int, int, int]]], x: list[int]) -> list[int]:
    """Reflects the integer coordinates ``x`` in place into the dominant
    chamber, always at the smallest index with a negative coroot pairing,
    and returns the indices in the order applied.

    The pairing ``q_i = <x, a_i^vee> = sum_j x_j cartan[j][i]`` has the sign
    of ``<x, a_i>``.  ``s_i`` subtracts ``q_i`` from ``x_i`` and
    ``q_i cartan[i][k]`` from each ``q_k``: it negates ``q_i`` and lowers only
    the ``neighbours``' pairings, the bits of ``negative`` that can turn on.
    One step per positive root separating ``x`` from the chamber (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.6-1.12)."""
    q = [2 * xi for xi in x]
    for xi, row in zip(x, neighbours):
        for k, c, _ in row:
            q[k] += xi * c
    negative = 0
    for i, qi in enumerate(q):
        if qi < 0:
            negative |= 1 << i
    steps = []
    while negative:
        i = (negative & -negative).bit_length() - 1
        qi = q[i]
        x[i] -= qi
        q[i] = -qi
        negative ^= 1 << i
        for k, c, _ in neighbours[i]:
            q[k] -= qi * c
            if q[k] < 0:
                negative |= 1 << k
        steps.append(i)
    return steps


def dominant_representative(sys: RootSystem, lam: Covector) -> tuple[Covector, WeylElement]:
    """Weyl-chamber representative of ``lam`` together with the element mapping
    ``lam`` onto it, by the integer walk of ``_chamber_walk``."""
    x, scale = _cleared(lam, sys.rank)
    neighbours = _shape(sys.family, sys.rank).neighbours
    steps = _chamber_walk(neighbours, x)
    matrix = [[int(j == i) for j in range(sys.rank)] for i in range(sys.rank)]
    for i in steps:  # row i of s_i is e_i - cartan[:, i], and cartan[i][i] = 2
        matrix[i] = [-m for m in matrix[i]]
        for k, _, c in neighbours[i]:
            matrix[i] = [a - c * b for a, b in zip(matrix[i], matrix[k])]
    return (_covector(tuple(x), scale),
            WeylElement(tuple(map(tuple, matrix)), tuple(reversed(steps))))


def in_bounded_region(sys: RootSystem, eta: Covector) -> bool:
    """Membership of ``eta`` in the convex hull of the Weyl orbit of the
    half-sum of positive roots.

    For a dominant representative the hull condition is that the difference
    from the half-sum is a nonnegative combination of simple roots, which in
    simple-root coordinates is a sign check: ``scale * 2 rho >= 2 x``.
    """
    x, scale = _cleared(eta, sys.rank)
    _chamber_walk(_shape(sys.family, sys.rank).neighbours, x)
    return all(scale * t >= 2 * c for t, c in zip(_by_class(sys, "heights"), x))
