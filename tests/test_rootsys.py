"""Exact root-system engine: examples, invariants, and property tests."""

import copy
import gc
import math
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphreg import accept, catalog as cat, rootsys as rs
from sphreg.rootsys import Covector, RootSystemError


def build(family, rank, mult):
    return rs.build_root_system(family, rank, mult)


A2 = build("A", 2, {"all": 1})
B2 = build("B", 2, {"short": 1, "long": 1})
BC1 = build("BC", 1, {"short": 2, "long": 1})
BC2 = build("BC", 2, {"short": 2, "medium": 2, "long": 1})
G2 = build("G2", 2, {"short": 1, "long": 1})
F4 = build("F4", 4, {"short": 2, "long": 1})


def cov(system, *values):
    assert len(values) == system.rank
    return Covector.make(values)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_a2_positive_roots():
    coeffs = [r.coeffs for r in A2.positive_roots]
    assert coeffs == [(0, 1), (1, 0), (1, 1)]
    assert all(r.multiplicity == 1 for r in A2.positive_roots)


def test_a1_with_multiplicity_two():
    system = build("A", 1, {"all": 2})
    assert [r.coeffs for r in system.positive_roots] == [(1,)]
    assert system.positive_roots[0].multiplicity == 2


def test_bc1_has_root_and_double():
    assert [(r.coeffs, r.multiplicity) for r in BC1.positive_roots] == [((1,), 2), ((2,), 1)]
    assert not BC1.reduced


def test_constructor_checks_a_system_against_its_family_and_rank():
    for system in (A2, B2, BC2, F4):
        assert rs.RootSystem(*(getattr(system, f) for f in system._fields)) == system
    # kappa of these fields would be read from A2's tables: 1, where B2's roots give 3/2
    with pytest.raises(RootSystemError, match="Gram matrix"):
        rs.RootSystem("A", 2, B2.gram, B2.positive_roots, True)
    with pytest.raises(RootSystemError, match="rank 2, got 3"):
        rs.RootSystem("G2", 3, G2.gram, G2.positive_roots, True)
    with pytest.raises(RootSystemError, match="rank >= 1, got 0"):
        rs.RootSystem("A", 0, (), (), True)
    with pytest.raises(RootSystemError, match="reduced=False, got True"):
        rs.RootSystem("BC", 2, BC2.gram, BC2.positive_roots, True)
    with pytest.raises(RootSystemError, match="reduced=True, got False"):
        rs.RootSystem("B", 2, B2.gram, B2.positive_roots, False)
    with pytest.raises(RootSystemError, match="3 positive roots are not the 4 of B2"):
        rs.RootSystem("B", 2, B2.gram, B2.positive_roots[:3], True)
    swapped = (B2.positive_roots[1], B2.positive_roots[0]) + B2.positive_roots[2:]
    with pytest.raises(RootSystemError, match="4 positive roots are not the 4 of B2"):
        rs.RootSystem("B", 2, B2.gram, swapped, True)


def test_constructor_checks_multiplicities_by_the_build_rule():
    a1 = ("A", 1, ((2,),))
    # kappa of these would read 0 and -3/2
    for value in (0, -3, 2.5, "3", float("inf"), float("nan"), None):
        message = f"invalid multiplicity {value!r} for class 'all'"
        with pytest.raises(RootSystemError, match=message):
            rs.RootSystem(*a1, (rs.PositiveRoot((1,), value),), True)
        with pytest.raises(RootSystemError, match=message):
            build("A", 1, {"all": value})
    # kappa reads each class's first root, n_of every root: 7/2 against min n 3
    mixed = (rs.PositiveRoot((0, 1), 5),) + B2.positive_roots[1:]
    with pytest.raises(RootSystemError, match="B2 has two multiplicities in one length class"):
        rs.RootSystem("B", 2, B2.gram, mixed, True)
    # an integral float is the integer, as in build_root_system
    system = rs.RootSystem(*a1, (rs.PositiveRoot((1,), 2.0),), True)
    assert system == build("A", 1, {"all": 2.0}) == build("A", 1, {"all": 2})
    assert type(system.positive_roots[0].multiplicity) is int


@pytest.mark.parametrize(
    "family,rank,count",
    [
        ("A", 1, 1), ("A", 4, 10), ("B", 3, 9), ("C", 4, 16), ("D", 2, 2),
        ("D", 5, 20), ("BC", 3, 12), ("G2", 2, 6), ("F4", 4, 24),
        ("E6", 6, 36), ("E7", 7, 63), ("E8", 8, 120),
    ],
)
def test_positive_root_counts(family, rank, count):
    vocab = rs.class_vocabulary(family)
    system = build(family, rank, {c: 1 for c in vocab})
    assert len(system.positive_roots) == count


def test_root_coeffs_distinct_and_nonnegative():
    for system in (A2, BC1, G2, build("F4", 4, {"short": 2, "long": 1})):
        seen = set()
        for root in system.positive_roots:
            assert any(c > 0 for c in root.coeffs)
            assert all(c >= 0 for c in root.coeffs)
            assert root.coeffs not in seen
            seen.add(root.coeffs)


def test_gram_positive_definite():
    for family, rank in [("A", 3), ("B", 4), ("C", 2), ("D", 4), ("BC", 2),
                         ("G2", 2), ("F4", 4), ("E8", 8)]:
        vocab = rs.class_vocabulary(family)
        system = build(family, rank, {c: 1 for c in vocab})
        g = np.array([[float(x) for x in row] for row in system.gram])
        minors = [np.linalg.det(g[: k + 1, : k + 1]) for k in range(rank)]
        assert all(m > 0 for m in minors)


def test_invalid_inputs():
    with pytest.raises(RootSystemError):
        build("A", 0, {"all": 1})
    with pytest.raises(RootSystemError):
        build("D", 1, {"all": 1})
    with pytest.raises(RootSystemError):
        build("Z", 2, {"all": 1})
    with pytest.raises(RootSystemError):
        build("A", 2, {})  # incomplete assignment
    with pytest.raises(RootSystemError):
        build("A", 2, {"short": 1})  # wrong vocabulary
    with pytest.raises(RootSystemError):
        build("A", 2, {"all": 0})  # nonpositive multiplicity
    for value in (2.5, "3", float("inf"), float("nan"), None):
        with pytest.raises(RootSystemError, match="invalid multiplicity"):
            build("A", 2, {"all": value})
    with pytest.raises(RootSystemError):
        build("G2", 3, {"short": 1, "long": 1})


@pytest.mark.parametrize("family", ["A", "B", "C", "BC", "D"])
def test_rank_ceiling_refused_before_building(family, monkeypatch):
    rs._check_rank(family, rs.MAX_RANK)

    def refuse(*args):
        raise AssertionError("a root system above the rank ceiling was built")

    monkeypatch.setattr(rs, "_gram_int", refuse)
    monkeypatch.setattr(rs, "_positive_roots", refuse)
    mult = {c: 1 for c in rs.class_vocabulary(family)}
    with pytest.raises(RootSystemError, match="exceeds"):
        build(family, rs.MAX_RANK + 1, mult)


def test_absent_class_is_ignored():
    system = build("C", 1, {"short": 4, "long": 3})
    assert [(r.coeffs, r.multiplicity) for r in system.positive_roots] == [((1,), 3)]


# ---------------------------------------------------------------------------
# inner products and the counting function
# ---------------------------------------------------------------------------

def test_inner_examples():
    a1 = cov(A2, 1, 0)
    a2 = cov(A2, 0, 1)
    assert rs.inner(A2, a1, a2) == -1
    assert rs.inner(A2, cov(A2, 0, 0), a2) == 0
    both = cov(A2, 1, 1)
    assert rs.inner(A2, both, both) == 2


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        rs.inner(A2, Covector.make([1]), Covector.make([1, 2]))


def test_n_of_examples():
    assert rs.n_of(A2, cov(A2, 0, 0)) == 0
    assert rs.n_of(A2, rs.rho(A2)) == 3
    mu1 = rs.fundamental_weights(A2)[0]
    assert rs.n_of(A2, mu1) == 2


def test_n_of_matches_batch():
    rng = np.random.default_rng(3)
    for system in (A2, BC1, G2):
        lams = rng.integers(-5, 6, size=(40, system.rank))
        batch = rs.n_of_many(system, lams)
        for row, expected in zip(lams, batch):
            assert rs.n_of(system, Covector.make(row.tolist())) == expected


def test_n_of_exactness_near_orthogonal():
    # (1, -1) pairs to zero with a1 + 2*a2 in BC2 only through exact arithmetic
    system = build("BC", 2, {"short": 2, "medium": 2, "long": 1})
    lam = Covector.make([Fraction(1, 3), Fraction(-1, 3)])
    scaled = Covector.make([Fraction(10**15), Fraction(-10**15)])
    assert rs.n_of(system, lam) == rs.n_of(system, scaled)


def _recount(system, row):
    """``n`` at an integer row, in Python integers only."""
    gram_row = [sum(int(g) * x for g, x in zip(gram, row)) for gram in system.gram]
    return sum(r.multiplicity for r in system.positive_roots
               if sum(c * y for c, y in zip(r.coeffs, gram_row)) != 0)


@pytest.mark.parametrize("rows", [
    [[2 ** 62, 0]],  # pairs to 2**64 with the long simple root: 0 in int64
    [[2 ** 63, 2 ** 70]],
    [[1, -1], [2 ** 62, 0], [-2 ** 63, 2 ** 63], [2 ** 70, -2 ** 70], [0, 0], [3, 1]],
    np.array([[2 ** 62, 0], [-2 ** 63, 0], [2 ** 63 - 1, -2 ** 62], [1, 1]], dtype=np.int64),
    np.array([[2 ** 63, 0], [1, 2 ** 64 - 1], [2, 1]], dtype=np.uint64),
])
def test_n_of_many_never_wraps(rows):
    for system in (B2, BC2, G2):
        expected = [_recount(system, [int(x) for x in row]) for row in rows]
        assert rs.n_of_many(system, rows).tolist() == expected


def test_n_of_many_rejects_non_integers():
    for rows in ([[0.5, 1]], np.array([[1.0, 2.0]]), [[Fraction(1, 2), 1]]):
        with pytest.raises(TypeError):
            rs.n_of_many(B2, rows)


def test_n_of_clears_large_denominators():
    rng = np.random.default_rng(8)
    for system in (BC2, G2, F4):
        lams = [Covector.make([Fraction(2 ** 70, 3 ** 50), Fraction(-2 ** 70, 3 ** 50)]
                              + [0] * (system.rank - 2))]
        for _ in range(30):
            lams.append(Covector.make(
                Fraction(int(n), int(d) * 7 ** 30)
                for n, d in zip(rng.integers(-9, 10, system.rank),
                                rng.integers(1, 2 ** 40, system.rank))))
        for lam in lams:
            scale = math.lcm(*(c.denominator for c in lam.coords))
            row = [int(c * scale) for c in lam.coords]
            assert rs.n_of(system, lam) == rs.n_of_many(system, [row])[0] == _recount(system, row)


# ---------------------------------------------------------------------------
# the invariant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 8))
def test_kappa_complex_special_linear(n):
    assert rs.kappa(build("A", n - 1, {"all": 2})) == n - 1


@pytest.mark.parametrize("n", range(2, 8))
def test_kappa_split_special_linear(n):
    assert rs.kappa(build("A", n - 1, {"all": 1})) == Fraction(n - 1, 2)


def test_kappa_c2_exception():
    assert rs.kappa(build("C", 2, {"short": 2, "long": 1})) == 2


def test_kappa_equals_min_over_weights():
    for system in (A2, BC1, G2, build("F4", 4, {"short": 2, "long": 1}),
                   build("D", 4, {"all": 1})):
        values = [rs.n_of(system, w) for w in rs.fundamental_weights(system)]
        assert Fraction(min(values), 2) == rs.kappa(system)


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------

def test_weyl_group_sizes():
    assert len(rs.weyl_group(build("A", 1, {"all": 1}))) == 2
    assert len(rs.weyl_group(A2)) == 6
    assert len(rs.weyl_group(G2)) == 12
    assert len(rs.weyl_group(build("B", 2, {"short": 1, "long": 1}))) == 8


def test_weyl_group_f4_is_integral():
    group = rs.weyl_group(F4)
    assert len(group) == 1152
    assert all(type(x) is int for w in group for row in w.matrix for x in row)


def test_weyl_group_rank_guard():
    with pytest.raises(RootSystemError):
        rs.weyl_group(build("A", 5, {"all": 1}))
    assert len(rs.weyl_group(build("A", 5, {"all": 1}), max_rank=5)) == 720


def test_weyl_contains_identity_and_closed():
    group = rs.weyl_group(A2)
    mats = {w.matrix for w in group}
    identity = group[0]
    assert identity.word == ()
    for w1 in group[:4]:
        for w2 in group[:4]:
            product = np.array(w1.matrix, dtype=np.int64) @ np.array(w2.matrix, dtype=np.int64)
            assert tuple(map(tuple, product.tolist())) in mats


def _weyl_order(family, rank):
    if family == "A":
        return math.factorial(rank + 1)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {"G2": 12, "F4": 1152}.get(family, 2 ** rank * math.factorial(rank))


def test_weyl_group_orders_over_catalog():
    systems = [(entry, cat.instantiate(entry)) for entry in cat.builtin_catalog().entries]
    low_rank = [(entry, system) for entry, system in systems if system.rank <= 4]
    assert len(low_rank) == 98
    for entry, system in low_rank:
        assert len(rs.weyl_group(system)) == _weyl_order(entry.family, entry.rank), entry.id


def test_weyl_group_elements_are_the_products_of_their_words():
    # the group by its meaning, on every distinct catalog Gram of rank <= 4 and
    # on A5: each matrix is the product of the simple reflections along its
    # word, preserves the Gram matrix, and has the word's length as its count
    # of positive roots sent negative; the list is sorted by (length, word),
    # its matrices are distinct and there are |W| of them
    systems = {}
    for entry in cat.builtin_catalog().entries:
        system = cat.instantiate(entry)
        if system.rank <= 4:
            systems.setdefault(system.gram, system)
    assert len(systems) == 16
    for system in [*systems.values(), build("A", 5, {"all": 1})]:
        rank = system.rank
        gram = np.array(system.gram, dtype=np.int64)
        gens = []
        for i in range(rank):  # s_i a_j = a_j - (2 <a_j, a_i> / <a_i, a_i>) a_i
            s_i = np.eye(rank, dtype=np.int64)
            s_i[i] -= 2 * gram[:, i] // gram[i, i]
            gens.append(s_i)
        products = {(): np.eye(rank, dtype=np.int64)}

        def product(word):
            if word not in products:
                products[word] = gens[word[0]] @ product(word[1:])
            return products[word]

        coeffs = {r.coeffs for r in system.positive_roots}
        reduced = np.array([v for v in sorted(coeffs) if any(c % 2 for c in v)
                            or tuple(c // 2 for c in v) not in coeffs], dtype=np.int64).T
        group = rs.weyl_group(system, max_rank=5)
        for w in group:
            matrix = np.array(w.matrix, dtype=np.int64)
            assert (product(w.word) == matrix).all(), (system.family, rank, w.word)
            assert (matrix.T @ gram @ matrix == gram).all()
            assert len(w.word) == int((matrix @ reduced <= 0).all(axis=0).sum())
        keys = [(len(w.word), w.word) for w in group]
        assert keys == sorted(keys)
        assert len({w.matrix for w in group}) == len(group) == _weyl_order(system.family, rank)


def test_weyl_preserves_inner_and_roots():
    for system in (A2, G2, BC1):
        group = rs.weyl_group(system)
        root_set = set()
        for r in system.positive_roots:
            root_set.add(r.coeffs)
            root_set.add(tuple(-c for c in r.coeffs))
        lam = Covector.make([Fraction(2), Fraction(-3)][: system.rank])
        mu = Covector.make([Fraction(1, 2), Fraction(5)][: system.rank])
        for w in group:
            assert rs.inner(system, w.apply(lam), w.apply(mu)) == rs.inner(system, lam, mu)
            for r in system.positive_roots:
                image = w.apply(rs.root_covector(r))
                key = tuple(int(c) for c in image.coords)
                assert key in root_set


def test_multiplicity_weyl_invariant():
    system = build("BC", 2, {"short": 3, "medium": 2, "long": 1})
    by_coeffs = {r.coeffs: r.multiplicity for r in system.positive_roots}
    for w in rs.weyl_group(system):
        for r in system.positive_roots:
            image = tuple(int(c) for c in w.apply(rs.root_covector(r)).coords)
            flipped = tuple(-c for c in image)
            mult = by_coeffs.get(image, by_coeffs.get(flipped))
            assert mult == r.multiplicity


def test_simple_reflection_permutes_other_positives():
    for system in (A2, G2, BC1, build("F4", 4, {"short": 1, "long": 1})):
        coeff_set = {r.coeffs for r in system.positive_roots}
        for i in range(system.rank):
            gamma = tuple(int(j == i) for j in range(system.rank))
            double = tuple(2 * int(j == i) for j in range(system.rank))
            rest = coeff_set - {gamma, double}
            simple = next(r for r in system.positive_roots if r.coeffs == gamma)
            image = set()
            for coeffs in rest:
                refl = rs.reflect(system, simple, Covector.make(coeffs))
                image.add(tuple(int(c) for c in refl.coords))
            assert image == rest


# ---------------------------------------------------------------------------
# reflections, dominance, hull
# ---------------------------------------------------------------------------

def test_reflect_examples():
    a1 = next(r for r in A2.positive_roots if r.coeffs == (1, 0))
    a2 = cov(A2, 0, 1)
    assert rs.reflect(A2, a1, a2).coords == (Fraction(1), Fraction(1))
    neg = rs.reflect(A2, a1, cov(A2, 1, 0))
    assert neg.coords == (Fraction(-1), Fraction(0))
    perp = cov(A2, 1, 2)  # <a1, a1 + 2 a2> = 0
    assert rs.reflect(A2, a1, perp).coords == perp.coords


def test_rho_examples():
    assert rs.rho(build("A", 1, {"all": 1})).coords == (Fraction(1, 2),)
    assert rs.rho(A2).coords == (Fraction(1), Fraction(1))
    assert rs.rho(BC1).coords == (Fraction(2),)


def test_rho_dominant():
    for system in (A2, BC1, G2, build("E6", 6, {"all": 1})):
        r = rs.rho(system)
        for i in range(system.rank):
            assert rs.inner(system, r, rs.simple_covector(system, i)) > 0


def test_fundamental_weights_examples():
    a1 = build("A", 1, {"all": 1})
    assert rs.fundamental_weights(a1)[0].coords == (Fraction(1),)
    assert rs.fundamental_weights(BC1)[0].coords == (Fraction(2),)


def test_fundamental_weights_dual_to_simple_roots_over_catalog():
    entries = cat.builtin_catalog().entries
    assert len(entries) == 137
    for entry in entries:
        system = cat.instantiate(entry)
        coeff_set = {r.coeffs for r in system.positive_roots}
        weights = rs.fundamental_weights(system)
        assert len(weights) == system.rank
        for i, weight in enumerate(weights):
            alpha_i = rs.simple_covector(system, i)
            ratio = 2 if tuple(2 * c for c in alpha_i.coords) in coeff_set else 1
            for j in range(system.rank):
                expected = ratio * rs.inner(system, alpha_i, alpha_i) if i == j else 0
                assert rs.inner(system, weight, rs.simple_covector(system, j)) == expected, \
                    (entry.id, i, j)


# every reduced shape through rank 16, then the exceptional ones
HEIGHT_SHAPES = [(family, rank) for family in ("A", "B", "C", "BC", "D")
                 for rank in range(2 if family == "D" else 1, 17)]
HEIGHT_SHAPES += [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]


def _reflection_orbit(gram):
    """The roots as the orbit of the simple roots under the simple
    reflections ``v -> v - <v, a_i^vee> a_i`` on coefficient tuples."""
    cartan = rs._cartan_rows(gram)
    rank = len(gram)
    frontier = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    orbit = set(frontier)
    while frontier:
        found = []
        for v in frontier:
            for i in range(rank):
                pairing = sum(c * row[i] for c, row in zip(v, cartan))
                image = v[:i] + (v[i] - pairing,) + v[i + 1:]
                if image not in orbit:
                    orbit.add(image)
                    found.append(image)
        frontier = found
    return orbit


@pytest.mark.parametrize("family, rank", HEIGHT_SHAPES)
def test_roots_by_height_match_the_reflection_closure(family, rank):
    # the oracle is the orbit of the simple roots under the simple reflections
    gram = tuple(map(tuple, rs._gram_int(family, rank)))
    positive = sorted(v for v in _reflection_orbit(gram) if min(v) >= 0)
    norms = [sum(a * g * b for a, row in zip(v, gram) for g, b in zip(row, v)) for v in positive]
    assert rs._positive_roots(gram) == tuple(zip(positive, norms))
    if family == "BC":  # the doubles of the short roots join
        positive += [tuple(2 * c for c in v) for v, n in zip(positive, norms) if n == min(norms)]
    assert rs._shape(family, rank)[1] == tuple(sorted(positive))


@pytest.mark.parametrize("index, family", enumerate(["A", "B", "C", "BC", "D"]))
def test_bareiss_weights_are_dual_to_the_coroots_up_to_the_ceiling(index, family):
    # <w_i, a_j^vee> = 2 <w_i, a_j> / <a_j, a_j> is twice the normalized pairing,
    # which is 1, or 2 where the double of a_i is a root (BC's short a_n).  Each
    # family at every fifth rank, so that together they cover ranks 1-64, and
    # each at the ceiling
    for rank in sorted({r for r in range(2 if family == "D" else 1, rs.MAX_RANK + 1)
                        if r % 5 == index} | {rs.MAX_RANK}):
        gram = tuple(map(tuple, rs._gram_int(family, rank)))
        doubled = tuple(family == "BC" and i == rank - 1 for i in range(rank))
        columns = list(zip(*rs._cartan_rows(gram)))
        for i, weight in enumerate(rs._fundamental(gram, doubled)):
            scale = math.lcm(*(c.denominator for c in weight.coords))
            x = [int(c * scale) for c in weight.coords]
            pairings = [sum(a * c for a, c in zip(x, column)) for column in columns]
            expected = 2 * (2 if doubled[i] else 1) * scale
            assert pairings == [expected * int(i == j) for j in range(rank)], (family, rank, i)
        rs._fundamental.cache_clear()


def test_dominant_representative():
    lam = rs.rho(A2)
    image, w = rs.dominant_representative(A2, lam)
    assert image.coords == lam.coords and w.word == ()

    neg = lam.scale(-1)
    image, w = rs.dominant_representative(A2, neg)
    assert image.coords == lam.coords
    assert w.apply(neg).coords == lam.coords
    assert len(w.word) == 3  # longest element of the rank-2 symmetric group

    assert rs.n_of(A2, neg) == rs.n_of(A2, image)


def test_dominant_representative_dimension_mismatch():
    for coords in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            rs.dominant_representative(A2, Covector.make(coords))
        with pytest.raises(ValueError):
            rs.in_bounded_region(A2, Covector.make(coords))


def test_in_bounded_region_examples():
    r = rs.rho(A2)
    assert rs.in_bounded_region(A2, r)
    assert rs.in_bounded_region(A2, r.scale(0))
    assert not rs.in_bounded_region(A2, r.scale(2))
    assert rs.in_bounded_region(A2, r.scale(Fraction(9, 10)))


def test_in_bounded_region_weyl_invariant():
    rng = np.random.default_rng(11)
    group = rs.weyl_group(G2)
    for _ in range(25):
        eta = Covector.make([Fraction(int(a), int(b)) for a, b in
                             zip(rng.integers(-6, 7, 2), rng.integers(1, 5, 2))])
        results = {rs.in_bounded_region(G2, w.apply(eta)) for w in group}
        assert len(results) == 1


def _fraction_walk(system, lam):
    """The earlier reflection loop on ``Fraction`` coordinates, kept as an
    oracle: reflect at the smallest index with negative Gram pairing.
    Returns (coordinates, word, matrix)."""
    gram, rank = system.gram, system.rank
    coords = [Fraction(c) for c in lam.coords]
    word = []
    matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
    while True:
        for i, row in enumerate(gram):
            pairing = sum(g * c for g, c in zip(row, coords))
            if pairing < 0:
                coords[i] -= Fraction(2 * pairing, row[i])
                # row i of s_i M is M[i] - sum_j cartan[j][i] M[j]; the
                # Cartan integers 2 gram[j][i] / gram[i][i] divide exactly
                cartan_i = [2 * gram[j][i] // gram[i][i] for j in range(rank)]
                matrix[i] = [matrix[i][k] - sum(c * m[k] for c, m in zip(cartan_i, matrix) if c)
                             for k in range(rank)]
                word.insert(0, i)
                break
        else:
            return tuple(coords), tuple(word), tuple(tuple(row) for row in matrix)


def _incremental_fraction_walk(system, lam):
    """``_fraction_walk`` with its Gram pairings updated per step rather than
    recomputed, fast enough for rank 64: ``s_i`` takes ``x`` to ``x - t a_i``
    with ``t = 2 <x, a_i> / <a_i, a_i>``, so each pairing ``<x, a_k>`` drops
    by ``t <a_i, a_k>``.  Checked against ``_fraction_walk`` over the catalog."""
    gram, rank = system.gram, system.rank
    coords = [Fraction(c) for c in lam.coords]
    pairings = [sum(g * c for g, c in zip(row, coords)) for row in gram]
    word = []
    matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
    while True:
        i = next((i for i, p in enumerate(pairings) if p < 0), None)
        if i is None:
            return tuple(coords), tuple(word), tuple(tuple(row) for row in matrix)
        t = Fraction(2 * pairings[i], gram[i][i])
        coords[i] -= t
        pairings = [p - t * g if g else p for p, g in zip(pairings, gram[i])]
        # row i of s_i M is M[i] - sum_j cartan[j][i] M[j]; the
        # Cartan integers 2 gram[j][i] / gram[i][i] divide exactly
        terms = [(2 * gram[j][i] // gram[i][i], matrix[j]) for j in range(rank) if gram[j][i]]
        matrix[i] = [matrix[i][k] - sum(c * m[k] for c, m in terms) for k in range(rank)]
        word.insert(0, i)


def _fraction_half_sum(system):
    return [Fraction(sum(r.multiplicity * r.coeffs[j] for r in system.positive_roots), 2)
            for j in range(system.rank)]


def _reduced_positive_count(family, rank):
    """Positive roots of the reduced system; BC counts as B."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family == "D":
        return rank * (rank - 1)
    return {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}.get(family, rank * rank)


def _walk_inputs(system, seed):
    """-s rho for s in {1, 9/8}, seeded covectors with denominators up to
    2**40, and one with a coordinate of 2**70."""
    rng = np.random.default_rng([seed, system.rank])
    rho = rs.rho(system)
    lams = [rho.scale(-1), rho.scale(Fraction(-9, 8))]
    for _ in range(3):
        lams.append(Covector.make(
            Fraction(int(rng.integers(-2 ** 20, 2 ** 20)), int(rng.integers(1, 2 ** 40)))
            for _ in range(system.rank)))
    huge = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
            for _ in range(system.rank)]
    huge[-1] = Fraction(-2 ** 70)
    return lams + [Covector.make(huge)]


def test_chamber_walk_matches_fraction_oracle_over_catalog():
    entries = cat.builtin_catalog().entries
    assert len(entries) == 137
    for n, entry in enumerate(entries):
        system = cat.instantiate(entry)
        half_sum = _fraction_half_sum(system)
        for lam in _walk_inputs(system, n):
            dominant, w = rs.dominant_representative(system, lam)
            expected = _fraction_walk(system, lam)
            assert _incremental_fraction_walk(system, lam) == expected, entry.id
            assert (dominant.coords, w.word, w.matrix) == expected, entry.id
            assert w.apply(lam) == dominant, entry.id
            # the hull test: rho minus the dominant representative is nonnegative
            inside = all(h >= c for h, c in zip(half_sum, expected[0]))
            assert rs.in_bounded_region(system, lam) == inside, entry.id


def test_antidominant_rho_walk_length_is_reduced_root_count():
    for entry in cat.builtin_catalog().entries:
        system = cat.instantiate(entry)
        _, w = rs.dominant_representative(system, rs.rho(system).scale(-1))
        assert len(w.word) == _reduced_positive_count(entry.family, entry.rank), entry.id


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
def test_chamber_walk_matches_fraction_oracle_at_rank_64(family):
    # the walk updates only the pairings at i and its Dynkin neighbours; a
    # stale neighbour would end the walk early or send it elsewhere
    system = build(family, 64, {c: 1 for c in rs.class_vocabulary(family)})
    half_sum = _fraction_half_sum(system)
    rng = random.Random(64)
    lams = [rs.rho(system).scale(-1),
            Covector.make(Fraction(rng.randint(-2 ** 20, 2 ** 20), rng.randint(1, 12))
                          for _ in range(64))]
    inside, lengths = [], []
    for lam in lams:
        dominant, w = rs.dominant_representative(system, lam)
        expected = _incremental_fraction_walk(system, lam)
        assert (dominant.coords, w.word, w.matrix) == expected
        assert w.apply(lam) == dominant
        inside.append(all(h >= c for h, c in zip(half_sum, expected[0])))
        assert rs.in_bounded_region(system, lam) == inside[-1]
        lengths.append(len(w.word))
    assert inside == [True, False]
    assert lengths[0] == _reduced_positive_count(family, 64)  # 2,080 steps on A64


def test_weyl_apply_matches_fraction_row_sums():
    rng = np.random.default_rng(5)
    for system in (G2, BC2, F4):
        lams = [Covector.make(Fraction(int(a), int(b)) for a, b in
                              zip(rng.integers(-2 ** 30, 2 ** 30, system.rank),
                                  rng.integers(1, 2 ** 40, system.rank)))
                for _ in range(2)]
        for w in rs.weyl_group(system):
            for lam in lams:
                expected = tuple(sum(a * c for a, c in zip(row, lam.coords)) for row in w.matrix)
                assert w.apply(lam).coords == expected


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_inner_symmetric(u, v):
    lam, mu = Covector.make(u), Covector.make(v)
    assert rs.inner(G2, lam, mu) == rs.inner(G2, mu, lam)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2), st.integers(min_value=0, max_value=5))
def test_reflection_involution(coords, root_index):
    lam = Covector.make(coords)
    root = G2.positive_roots[root_index]
    twice = rs.reflect(G2, root, rs.reflect(G2, root, lam))
    assert twice.coords == lam.coords


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2))
def test_dominant_rep_properties(coords):
    lam = Covector.make(coords)
    image, w = rs.dominant_representative(G2, lam)
    assert w.apply(lam).coords == image.coords
    for i in range(2):
        assert rs.inner(G2, image, rs.simple_covector(G2, i)) >= 0
    assert rs.n_of(G2, image) == rs.n_of(G2, lam)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2))
def test_n_weyl_invariant_property(coords):
    lam = Covector.make(coords)
    base = rs.n_of(G2, lam)
    for w in rs.weyl_group(G2):
        assert rs.n_of(G2, w.apply(lam)) == base


# ---------------------------------------------------------------------------
# the float64 tier of n_of_many and the per-Gram caches
# ---------------------------------------------------------------------------

E8 = build("E8", 8, {"all": 1})


def _straddling_rows(system, largest):
    """Rows whose largest absolute entry is ``largest``: ``largest e_1`` and,
    for each positive root, a row orthogonal to it and the same row moved by
    one unit along a coordinate the root pairs with, both nearly as large.
    A product that rounded its inputs would read the moved row's small,
    nonzero pairing as zero."""
    rank = system.rank
    rows = [[largest] + [0] * (rank - 1)]
    for root in system.positive_roots:
        p = [sum(c * g for c, g in zip(root.coeffs, column)) for column in zip(*system.gram)]
        i = min((k for k in range(rank) if p[k]), key=lambda k: abs(p[k]))
        j = next((k for k in range(rank) if k != i and p[k]), None)
        u = [0] * rank
        if j is None:
            u[(i + 1) % rank] = 1
        else:
            u[i], u[j] = p[j], -p[i]
        scale = (largest - 1) // max(abs(c) for c in u)
        row = [scale * c for c in u]
        rows.append(row)
        rows.append([c + (k == i) for k, c in enumerate(row)])
    return rows


@pytest.mark.parametrize("system", [B2, BC2, G2, F4, E8], ids=["B2", "BC2", "G2", "F4", "E8"])
def test_n_of_many_exact_across_float64_bound(system):
    row_bound = rs._pairing(system.family, system.rank)[2]
    # no row bound here divides 2**53 - 1 or 2**53 + 1, so each target is
    # straddled by the largest entries just below and just above it; the
    # same for the float32 bound 2**24, which a row bound of 8 divides
    targets = [2 ** 24 - 1, 2 ** 24, 2 ** 24 + 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1]
    sizes = sorted({t // row_bound for t in targets} | {-(-t // row_bound) for t in targets}
                   | {2 ** 26, 2 ** 53, 2 ** 60, (2 ** 63 - 1) // row_bound})
    for bound in (2 ** 24, 2 ** 53):
        assert any(bound - row_bound <= s * row_bound < bound for s in sizes)
        assert any(bound <= s * row_bound < bound + row_bound for s in sizes)
    rounding = {2 ** 26: np.float32, 2 ** 60: np.float64}
    for largest in sizes:
        rows = _straddling_rows(system, largest)
        expected = [_recount(system, row) for row in rows]
        for batch in (rows, np.array(rows, dtype=np.int64)):
            assert rs.n_of_many(system, batch).tolist() == expected, largest
        if largest in rounding:
            # the rows do probe cancellation: rounded to the float that
            # cannot hold them, they miscount
            dtype = rounding[largest]
            pairing = np.array([[sum(c * g for c, g in zip(r.coeffs, column))
                                 for column in zip(*system.gram)]
                                for r in system.positive_roots], dtype=dtype)
            mult = np.array([r.multiplicity for r in system.positive_roots], dtype=dtype)
            rounded = ((np.array(rows, dtype=dtype) @ pairing.T) != 0) @ mult
            assert rounded.tolist() != expected, largest


def test_weyl_group_result_is_callers_own():
    first = rs.weyl_group(G2)
    expected = [(w.matrix, w.word) for w in first]
    first.reverse()
    first.pop()
    first.append(first[0])
    again = rs.weyl_group(G2)
    assert [(w.matrix, w.word) for w in again] == expected
    assert again is not first


def test_shared_gram_keeps_each_systems_multiplicities():
    rs._positive_roots.cache_clear()
    b2 = build("B", 2, {"short": 1, "long": 3})
    b2_other = build("B", 2, {"short": 5, "long": 2})
    bc2 = build("BC", 2, {"short": 2, "medium": 7, "long": 4})
    assert b2.gram == b2_other.gram == bc2.gram
    assert [(r.coeffs, r.multiplicity) for r in b2.positive_roots] == [
        ((0, 1), 1), ((1, 0), 3), ((1, 1), 1), ((1, 2), 3)]
    assert [(r.coeffs, r.multiplicity) for r in b2_other.positive_roots] == [
        ((0, 1), 5), ((1, 0), 2), ((1, 1), 5), ((1, 2), 2)]
    assert [(r.coeffs, r.multiplicity) for r in bc2.positive_roots] == [
        ((0, 1), 2), ((0, 2), 4), ((1, 0), 7), ((1, 1), 2), ((1, 2), 7), ((2, 2), 4)]
    assert rs.kappa(b2) != rs.kappa(b2_other)


def test_closure_runs_once_per_gram_over_catalog():
    rs._shape.cache_clear()
    rs._positive_roots.cache_clear()
    rs._weyl_elements.cache_clear()
    try:
        systems = [cat.instantiate(entry) for entry in cat.builtin_catalog().entries]
        grams = {system.gram for system in systems}
        # the roots are built by height, once per Gram matrix; only the Weyl
        # group runs the closure
        assert rs._positive_roots.cache_info().misses == len(grams) < len(systems)
        assert rs._weyl_elements.cache_info().misses == 0
        low_rank = [system for system in systems if system.rank <= 4]
        for system in low_rank:
            rs.weyl_group(system)
        assert rs._weyl_elements.cache_info().misses == len({system.gram for system in low_rank}) \
            < len(low_rank)
    finally:
        rs._shape.cache_clear()
        rs._positive_roots.cache_clear()
        rs._weyl_elements.cache_clear()


def test_shape_built_once_per_family_and_rank_over_catalog(monkeypatch):
    calls = []
    gram_int = rs._gram_int

    def counted(family, rank):
        calls.append((family, rank))
        return gram_int(family, rank)

    monkeypatch.setattr(rs, "_gram_int", counted)
    rs._shape.cache_clear()
    rs._pairing.cache_clear()
    try:
        entries = cat.builtin_catalog().entries
        systems = [cat.instantiate(entry) for entry in entries]
        shapes = {(entry.family, entry.rank) for entry in entries}
        assert sorted(calls) == sorted(shapes) and len(shapes) < len(systems)
        for system in systems:
            rs.n_of_many(system, [[1] * system.rank])
        assert rs._pairing.cache_info().misses == len(shapes)
        # every system of a shape shares its Gram tuple and root coefficients
        first = {}
        for entry, system in zip(entries, systems):
            other = first.setdefault((entry.family, entry.rank), system)
            assert system.gram is other.gram
            assert all(a.coeffs is b.coeffs
                       for a, b in zip(system.positive_roots, other.positive_roots))
    finally:
        rs._shape.cache_clear()


def test_shared_gram_keeps_distinct_roots_and_kernels():
    b2 = build("B", 2, {"short": 3, "long": 5})
    bc2 = build("BC", 2, {"short": 3, "medium": 5, "long": 7})
    assert b2.gram == bc2.gram
    assert [r.coeffs for r in b2.positive_roots] == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert [r.coeffs for r in bc2.positive_roots] == [
        (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2)]
    for family, roots in (("B", 4), ("BC", 6)):
        assert [w.shape for w in rs._pairing(family, 2)[:2]] == [(2, roots)] * 2
    # G [2, 3] = [2, 2] pairs with every root: the count is the total multiplicity
    assert rs.n_of_many(b2, [[2, 3]]).tolist() == [3 + 5 + 3 + 5]
    assert rs.n_of_many(bc2, [[2, 3]]).tolist() == [3 + 7 + 5 + 3 + 5 + 7]
    rows = [[1, 0], [0, 1], [1, -1], [1, 1], [2, -1], [1, -2]]
    for system in (b2, bc2):
        expected = [_recount(system, row) for row in rows]
        assert rs.n_of_many(system, rows).tolist() == expected
        assert [rs.n_of(system, Covector.make(row)) for row in rows] == expected
    assert rs.kappa(b2) == Fraction(11, 2) and rs.kappa(bc2) == 10


def test_fundamental_weights_list_is_callers_own():
    first = rs.fundamental_weights(BC2)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    again = rs.fundamental_weights(BC2)
    assert again == expected and again is not first
    assert again == rs.fundamental_weights(build("BC", 2, {"short": 9, "medium": 1, "long": 4}))
    assert again != rs.fundamental_weights(B2)  # same Gram, no doubled simple root


@pytest.mark.parametrize("family,rank,mult", [
    ("A", 1, 2 ** 24 - 1),           # total just below the float32 bound
    ("A", 1, 2 ** 24),               # at it
    ("A", 1, 2 ** 24 + 1),           # past it: no float32
    ("E8", 8, (2 ** 53 - 1) // 120),   # total just below 2**53
    ("E8", 8, (2 ** 53 - 1) // 120 + 1),  # just above it
    ("B", 3, 2 ** 60 // 9),          # below 2**63
    ("E8", 8, 2 ** 60),              # total past 2**63
    ("A", 1, 10 ** 20),              # one root past 2**63
], ids=["A1-2^24-1", "A1-2^24", "A1-2^24+1", "E8-below-2^53", "E8-above-2^53",
        "B3-below-2^63", "E8-all-2^60", "A1-all-10^20"])
def test_weighted_counts_exact_for_every_multiplicity(family, rank, mult):
    system = build(family, rank, {c: mult for c in rs.class_vocabulary(family)})
    total = sum(r.multiplicity for r in system.positive_roots)
    rng = np.random.default_rng(rank)
    # rho at multiplicity one is regular: it pairs with every positive root
    regular = list(rs.rho(build(family, rank, {c: 1 for c in rs.class_vocabulary(family)}))
                   .numerators)
    rows = rng.integers(-3, 4, size=(600, rank)).tolist() + [[0] * rank, regular]
    rows += _straddling_rows(system, 2 ** 60)
    expected = [_recount(system, row) for row in rows]
    counts = rs.n_of_many(system, rows)
    assert counts.tolist() == expected
    assert counts.dtype == (np.int64 if total < 2 ** 63 else object)
    assert max(expected) == total
    # n_of in Python integers on the first random rows, zero, rho and the straddling rows
    assert [rs.n_of(system, Covector.make(row)) for row in rows[:40] + rows[600:]] == \
        expected[:40] + expected[600:]
    assert rs.n_of_many(system, np.array(rows[:600])).tolist() == expected[:600]


# ---------------------------------------------------------------------------
# per-system constants: no hashing of systems, nothing kept alive
# ---------------------------------------------------------------------------

SPECS = [("B", 2, {"short": 1, "long": 3}), ("BC", 3, {"short": 2, "medium": 3, "long": 1}),
         ("G2", 2, {"short": 1, "long": 2}), ("F4", 4, {"short": 2, "long": 1}),
         ("E8", 8, {"all": 1})]


def _exact_outputs(system):
    """Everything the exact layer returns for ``system``, on seeded inputs."""
    rng = np.random.default_rng(system.rank)
    rank = system.rank
    lams = [Covector.make(Fraction(int(p), int(q)) for p, q in
                          zip(rng.integers(-9, 10, size=rank), rng.integers(1, 9, size=rank)))
            for _ in range(4)]
    rows = rng.integers(-9, 10, size=(32, rank)).tolist() + [[2 ** 62] + [0] * (rank - 1)]
    rho = rs.rho(system)
    dominant = [rs.dominant_representative(system, lam) for lam in lams]
    return (rs.kappa(system), rho, rs.fundamental_weights(system),
            [rs.n_of(system, w) for w in rs.fundamental_weights(system)],
            [rs.n_of(system, lam) for lam in lams], rs.n_of_many(system, rows).tolist(),
            [rs.in_bounded_region(system, rho.scale(Fraction(k, 8))) for k in (-9, -8, 5, 8, 9)],
            [rs.in_bounded_region(system, lam) for lam in lams],
            [(mu, w.matrix, w.word) for mu, w in dominant])


@pytest.mark.parametrize("family,rank,mult", SPECS, ids=[s[0] for s in SPECS])
def test_exact_layer_never_hashes_a_system(monkeypatch, family, rank, mult):
    expected = _exact_outputs(build(family, rank, mult))
    system = build(family, rank, mult)

    def unhashable(self):
        raise AssertionError("a RootSystem was hashed")

    monkeypatch.setattr(rs.RootSystem, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(system)
    assert _exact_outputs(system) == expected
    assert _exact_outputs(system) == expected  # again, from the stored constants


# the exact functions other than the batch counting kernel, run once with
# numpy and once in a fresh interpreter where importing numpy fails
_EXACT_WITHOUT_NUMPY = (
    "from fractions import Fraction\n"
    "from sphreg import rootsys as rs\n"
    "g2 = rs.build_root_system('G2', 2, {'short': 1, 'long': 3})\n"
    "f4 = rs.build_root_system('F4', 4, {'short': 2, 'long': 1})\n"
    "lam = rs.Covector.make([Fraction(-1, 2), 3, 0, -2])\n"
    "result = repr((rs.weyl_group(g2), rs.weyl_group(f4), rs.dominant_representative(f4, lam),\n"
    "               rs.in_bounded_region(f4, lam), rs.fundamental_weights(f4),\n"
    "               rs.kappa(f4), rs.kappa(g2), rs.n_of(f4, lam), rs.rho(f4)))\n")


def test_exact_layer_runs_without_numpy():
    # only n_of_many needs numpy, which shows that the block holds
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              + _EXACT_WITHOUT_NUMPY +
              "print(result)\n"
              "try:\n"
              "    rs.n_of_many(f4, [[1, 0, 0, 0]])\n"
              "except ImportError:\n"
              "    print('n_of_many needs numpy')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src")]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    namespace = {}
    exec(_EXACT_WITHOUT_NUMPY, namespace)
    assert done.stdout.splitlines() == [namespace["result"], "n_of_many needs numpy"]


def test_built_system_is_freed():
    system = build("F4", 4, {"short": 3, "long": 2})
    _exact_outputs(system)
    rs.weyl_group(system)
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("system", [B2, BC2, G2, F4, E8], ids=["B2", "BC2", "G2", "F4", "E8"])
def test_n_of_matches_recount_for_int_fraction_and_float_coordinates(system):
    row_bound = rs._pairing(system.family, system.rank)[2]
    # single rows whose largest entry sits just below and just above the
    # float64 guard, and far past it
    sizes = [1, 9, (2 ** 53 - 1) // row_bound, -(-2 ** 53 // row_bound), 2 ** 53, 2 ** 60]
    assert sizes[2] * row_bound < 2 ** 53 <= sizes[3] * row_bound
    prime = 2 ** 61 - 1
    for largest in sizes:
        for row in _straddling_rows(system, largest):
            expected = _recount(system, row)
            assert rs.n_of(system, Covector(tuple(row))) == expected, row
            assert rs.n_of(system, Covector(tuple(Fraction(c, prime) for c in row))) == expected
            floats = [float(c) for c in row]  # exact below 2**53, rounded above
            rounded = _recount(system, [int(f) for f in floats])
            assert rs.n_of(system, Covector(tuple(floats))) == rounded
            assert rs.n_of(system, Covector(tuple(f / 8 for f in floats))) == rounded


# ---------------------------------------------------------------------------
# n_of in Python integers against the numpy tiers of n_of_many; covectors
# held as integer numerators
# ---------------------------------------------------------------------------

def _both_counts(system, rows):
    """``n_of`` at each row and ``n_of_many`` on all of them, as two lists."""
    return [rs.n_of(system, Covector(row)) for row in rows], rs.n_of_many(system, rows).tolist()


def test_n_of_matches_n_of_many_at_catalog_weights_and_rho():
    for entry in cat.builtin_catalog().entries:
        system = cat.instantiate(entry)
        rows = [list(w.numerators) for w in rs.fundamental_weights(system)]
        rows.append(list(rs.rho(system).numerators))
        single, batch = _both_counts(system, rows)
        assert single == batch, entry.id


@pytest.mark.parametrize("system", [B2, BC2, G2, F4, E8], ids=["B2", "BC2", "G2", "F4", "E8"])
def test_n_of_matches_n_of_many_up_to_2_to_the_70(system):
    # entries drawn from a few large values and their small multiples, so
    # that many rows are orthogonal to some root; plus rows that straddle
    # orthogonality at 2**70
    rng = random.Random(70 + system.rank)
    rows = []
    for _ in range(200):
        a, b = rng.randrange(2 ** 70), rng.randrange(2 ** 40)
        rows.append([rng.choice([0, a, -a, 2 * a, -3 * a, b, a - b]) for _ in range(system.rank)])
    rows += _straddling_rows(system, 2 ** 70)
    single, batch = _both_counts(system, rows)
    assert single == batch == [_recount(system, row) for row in rows]
    assert len(set(single)) > 1


# the overflow probes of the benchmark's exact workload: a pairing of 2**64
OVERFLOW_PROBES = [
    ("B", 2, {"short": 1, "long": 1}, [2 ** 62, 0]),
    ("B", 3, {"short": 1, "long": 1}, [2 ** 62, 0, 0]),
    ("C", 2, {"short": 1, "long": 1}, [0, 2 ** 62]),
    ("C", 3, {"short": 2, "long": 1}, [0, 0, 2 ** 62]),
    ("BC", 2, {"short": 2, "medium": 2, "long": 1}, [2 ** 62, 0]),
    ("F4", 4, {"short": 1, "long": 1}, [2 ** 62, 0, 0, 0]),
]


@pytest.mark.parametrize("family,rank,mult,row", OVERFLOW_PROBES)
def test_n_of_matches_n_of_many_on_overflow_probes(family, rank, mult, row):
    system = build(family, rank, mult)
    single, batch = _both_counts(system, [row])
    assert single == batch == [_recount(system, row)]


def test_n_of_many_counts_by_float64_product_unless_it_could_round(monkeypatch):
    counted = []
    count = rs._count

    def recorded(system, x):
        counted.append(list(x))
        return count(system, x)

    monkeypatch.setattr(rs, "_count", recorded)

    def paths(system, rows):
        """The rows ``n_of_many`` handed to ``_count``, and its counts."""
        counted.clear()
        counts = rs.n_of_many(system, rows)
        assert counts.tolist() == [_recount(system, list(map(int, row))) for row in rows]
        return list(counted), counts.dtype

    # criterion 3's rows: integer representatives of random rationals
    rng = np.random.default_rng(77002)
    for system in (A2, BC2, G2, F4, E8):
        rows = accept._random_rational_coords(rng, 500, system.rank)
        assert paths(system, rows) == ([], np.int64)
    # on either side of the float64 guard, and on the benchmark's overflow probes
    for system in (B2, BC2, G2, F4, E8):
        row_bound = rs._pairing(system.family, system.rank)[2]
        below, above = (2 ** 53 - 1) // row_bound, -(-2 ** 53 // row_bound)
        assert below * row_bound < 2 ** 53 <= above * row_bound
        assert paths(system, _straddling_rows(system, below))[0] == []
        rows = _straddling_rows(system, above)
        assert paths(system, rows) == (rows, np.int64)
    for family, rank, mult, row in OVERFLOW_PROBES:
        assert paths(build(family, rank, mult), [row]) == ([row], np.int64)
    # small rows at a total multiplicity past 2**53, and past 2**63
    rows = [[1] + [0] * 7, [1, -1, 0, 0, 0, 0, 0, 2]]
    for mult, dtype in [((2 ** 53 - 1) // 120, None), ((2 ** 53 - 1) // 120 + 1, np.int64),
                        (2 ** 63 // 120 - 1, np.int64), (2 ** 63 // 120 + 1, object)]:
        done, got = paths(build("E8", 8, {"all": mult}), rows)
        assert (done, got) == (([], np.int64) if dtype is None else (rows, dtype)), mult


def test_covector_forms_compare_and_hash_equal():
    forms = [Covector((1, Fraction(1, 2))), Covector.make([1, 0.5]), Covector((1.0, 0.5)),
             Covector(iter(["1", "1/2"]))]
    assert all(lam == forms[0] and hash(lam) == hash(forms[0]) for lam in forms)
    assert len(set(forms)) == 1
    assert forms[0].numerators == (2, 1) and forms[0].denominator == 2
    assert forms[0].coords == (1, Fraction(1, 2))
    assert all(type(c) is Fraction for c in forms[0].coords + Covector((3, 0)).coords)
    assert Covector((Fraction(2, 4), Fraction(-6, 4))) == Covector((Fraction(1, 2), -1.5))
    assert Covector((0, 0)).denominator == 1 and Covector((0, 0)) != Covector((0, 0, 0))
    assert Covector((1, 2)) != Covector((2, 1)) and Covector((1, 2)) != (1, 2)
    with pytest.raises(AttributeError):
        forms[0].denominator = 4
    with pytest.raises(AttributeError):
        del forms[0].numerators
    for record in (forms[0], F4, rs.weyl_group(G2)[3]):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_apply_round_trips_the_fraction_action():
    # the action on Fraction coordinates, as the matrix product over the
    # rationals, against the action on numerators read back through coords
    rng = random.Random(4)
    lams = [Covector.make(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(4))
            for _ in range(6)] + [Covector.make([Fraction(2 ** 70, 3 ** 40), 0, -1, 5])]
    for w in rs.weyl_group(F4):
        for lam in lams:
            image = w.apply(lam)
            expected = tuple(sum((a * c for a, c in zip(row, lam.coords)), Fraction(0))
                             for row in w.matrix)
            assert image.coords == expected
            assert image == Covector(expected) and hash(image) == hash(Covector(expected))


def test_exact_per_call_path_builds_no_fraction(monkeypatch):
    lam = Covector.make([Fraction(-1, 2), 3, Fraction(2, 3), -2])
    eta = rs.rho(F4).scale(Fraction(-5, 8))
    group = rs.weyl_group(F4)
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    counts = [rs.n_of(F4, w.apply(lam)) for w in group]
    inside = rs.in_bounded_region(F4, eta)
    found = len(built)
    lam.coords  # the guard does see a construction
    seen = len(built) - found
    monkeypatch.undo()
    assert found == 0
    assert seen == 4
    assert len(group) == 1152 and set(counts) == {rs.n_of(F4, lam)} and inside
