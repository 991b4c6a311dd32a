"""The ``exact`` workload: the classification job in cold processes.

For every catalog entry: build the system, compute kappa, the fundamental
weights and ``n_of`` at each, ``n_of_many`` on seeded rational covectors and
a seeded ``in_bounded_region`` query; for rank <= 4 also the Weyl group and a
seeded invariance check.  A fixed batch of overflow probes follows.

A round is ``PART_COUNT`` cold processes, run one after another.  The rank-4
entries, which carry most of the work, go in whole groups that share a Gram
matrix, so every repeated Weyl-group request meets its first one in the same
process; the groups are balanced over the parts by Weyl-group order.  The
few entries of rank above ``LIGHT_MAX_RANK`` are dealt in turn.  Every other
entry runs in every part, each time cold.  These light entries decide the
median call but take only a few seconds of a round, and the host's speed
changes by up to 1.8x for seconds to minutes at a time: timed once, they
would sample it in a few short windows and the median call would jump
between runs, while ``wall_s`` samples the whole round.  An entry's call time
is the mean of its times over the parts, not the median: the median of four
takes the speed of the stretch that most of them fell in, so a run that was
fast for half its length read as all fast or all slow.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

from sphreg import catalog as cat
from sphreg import rootsys as rs

COVECTORS = 4096        # n_of_many batch per entry
CHECKED_COVECTORS = 16  # of which this many are recounted with Python integers
REGION_QUERIES = 1
GROUP_SAMPLE = 8
WEYL_MAX_RANK = 4
PART_COUNT = 4
LIGHT_MAX_RANK = 6
CALL_AVERAGE = statistics.mean  # of an entry's times over the parts (see above)
PARTS = tuple(f"part{k}" for k in range(PART_COUNT))

# Covectors with an entry of 2**62 against a simple root of squared length 4:
# the pairing is 2**64, which is zero in int64.  Independent of the seed.
OVERFLOW_PROBES = (
    ("B", 2, {"short": 1, "long": 1}, (2 ** 62, 0)),
    ("B", 3, {"short": 1, "long": 1}, (2 ** 62, 0, 0)),
    ("C", 2, {"short": 1, "long": 1}, (0, 2 ** 62)),
    ("C", 3, {"short": 2, "long": 1}, (0, 0, 2 ** 62)),
    ("BC", 2, {"short": 2, "medium": 2, "long": 1}, (2 ** 62, 0)),
    ("F4", 4, {"short": 1, "long": 1}, (2 ** 62, 0, 0, 0)),
)


def setup():
    return cat.load_catalog(cat.default_catalog_text())


def _cleared(rng, count: int, rank: int) -> np.ndarray:
    """Integer representatives of seeded rational covectors (numerators -9..9,
    denominators 1..8, scaled by the row's common denominator; the
    orthogonality pattern is scale invariant)."""
    num = rng.integers(-9, 10, size=(count, rank))
    den = rng.integers(1, 9, size=(count, rank))
    rows = num * (np.lcm.reduce(den, axis=1)[:, None] // den)
    rows[np.all(rows == 0, axis=1), 0] = 1
    return rows.astype(np.int64)


def _weight(entry) -> int:
    """Rough cost of an entry of rank WEYL_MAX_RANK, for balancing the parts:
    the order of its Weyl group."""
    n = entry.rank
    return {"A": math.factorial(n + 1), "D": 2 ** (n - 1) * math.factorial(n),
            "F4": 1152}.get(entry.family, 2 ** n * math.factorial(n))


def _assign_parts(systems: list) -> list[tuple[int, ...]]:
    """Parts of each entry.  The groups of entries that share a Gram matrix
    and whose rank-WEYL_MAX_RANK Weyl group is built go, heaviest first, each
    to the lightest part so far.  Entries of rank above LIGHT_MAX_RANK are
    dealt in turn.  Every other entry runs in every part."""
    groups: dict[str, list[int]] = {}
    for i, (entry, system) in enumerate(systems):
        if entry.rank == WEYL_MAX_RANK:
            groups.setdefault(repr(system.gram), []).append(i)
    parts = [tuple(range(PART_COUNT))] * len(systems)
    load = [0] * PART_COUNT
    for key in sorted(groups, key=lambda k: (-sum(_weight(systems[i][0]) for i in groups[k]), k)):
        k = load.index(min(load))
        load[k] += sum(_weight(systems[i][0]) for i in groups[key])
        for i in groups[key]:
            parts[i] = (k,)
    dealt = [i for i, (entry, _) in enumerate(systems) if entry.rank > LIGHT_MAX_RANK]
    for n, i in enumerate(dealt):
        parts[i] = (n % PART_COUNT,)
    return parts


def make_inputs(catalog, seed: int, round_index: int) -> list[dict]:
    """Seeded covectors, region queries and group picks for every entry.  The
    entries come in a fixed shuffled order, so that entries of like cost are
    spread over the round, and every seed runs them in the same order."""
    rng = np.random.default_rng([seed, round_index, 1])
    systems = [(entry, cat.instantiate(entry)) for entry in catalog.entries]
    inputs = []
    for (entry, system), parts in zip(systems, _assign_parts(systems)):
        rank = entry.rank
        # -s*rho lies in the antidominant chamber, so every query takes the
        # same number of reflections whatever the seed; inside iff s <= 1
        rho = rs.rho(system)
        scales = [Fraction(int(k), 8) for k in rng.integers(4, 13, size=REGION_QUERIES)]
        inputs.append({
            "entry": entry,
            "parts": parts,
            "covectors": _cleared(rng, COVECTORS, rank),
            "regions": [rho.scale(-s) for s in scales],
            "lam": rs.Covector.make(int(x) for x in _cleared(rng, 1, rank)[0]),
            "picks": [int(x) for x in rng.integers(0, 2 ** 31, size=GROUP_SAMPLE)],
        })
    return [inputs[i] for i in np.random.default_rng(0).permutation(len(inputs))]


def _mine(inputs, part: str) -> list[dict]:
    return [inp for inp in inputs if part in (f"part{k}" for k in inp["parts"])]


def run(catalog, inputs, part: str):
    """Timed work of one part.  Returns ((entry id, seconds of its calls)
    pairs, outputs).  The overflow probes run in the last part."""
    calls, outputs = [], []
    for inp in _mine(inputs, part):
        entry = inp["entry"]
        t0 = time.perf_counter()
        try:
            system = cat.instantiate(entry)
            k = rs.kappa(system)
            weights = rs.fundamental_weights(system)
            weight_counts = [rs.n_of(system, w) for w in weights]
            counts = rs.n_of_many(system, inp["covectors"])
            regions = [rs.in_bounded_region(system, eta) for eta in inp["regions"]]
            group_order = base = images = None
            if entry.rank <= WEYL_MAX_RANK:
                group = rs.weyl_group(system)
                group_order = len(group)
                base = rs.n_of(system, inp["lam"])
                images = [rs.n_of(system, group[i % group_order].apply(inp["lam"]))
                          for i in inp["picks"]]
        except Exception as exc:  # counted as a failed operation
            outputs.append({"error": f"{entry.id}: {type(exc).__name__}: {exc}"})
            continue
        calls.append((entry.id, time.perf_counter() - t0))
        outputs.append({"system": system, "kappa": k, "weight_counts": weight_counts,
                        "counts": counts, "regions": regions, "group_order": group_order,
                        "base": base, "images": images})
    probes = []
    for family, rank, mult, covector in OVERFLOW_PROBES if part == PARTS[-1] else ():
        system = rs.build_root_system(family, rank, mult)
        try:
            got = int(rs.n_of_many(system, [list(covector)])[0])
        except Exception:  # counted as a failed operation
            got = None
        probes.append((system, covector, got))
    return calls, {"entries": outputs, "probes": probes}


def operations(catalog, inputs, part: str) -> int:
    """Operations of one part: one per catalog entry (or copy of one), one per
    overflow probe."""
    return len(_mine(inputs, part)) + (len(OVERFLOW_PROBES) if part == PARTS[-1] else 0)


def check(catalog, inputs, outputs, checks, part: str):
    """Returns (check errors, messages of failed operations)."""
    errors, failures = [], []
    for inp, out in zip(_mine(inputs, part), outputs["entries"]):
        entry = inp["entry"]
        if "error" in out:
            failures.append(out["error"])
            continue
        system, label = out["system"], entry.id
        roots = [(r.coeffs, r.multiplicity) for r in system.positive_roots]
        found = [
            checks.check_equal(f"{label} kappa", out["kappa"], entry.expected_kappa),
            checks.check_root_count(label, entry.family, entry.rank, len(roots)),
            checks.check_roots(label, entry.family, entry.rank, system.gram,
                               [coeffs for coeffs, _ in roots]),
            checks.check_lower_bound(label, out["weight_counts"] + [int(c) for c in out["counts"]],
                                     out["kappa"]),
            checks.check_attained(label, out["weight_counts"], out["kappa"]),
        ]
        for row, got in zip(inp["covectors"][:CHECKED_COVECTORS], out["counts"]):
            row = [int(x) for x in row]
            found.append(checks.check_equal(f"{label} n_of_many{tuple(row)}", int(got),
                                            checks.exact_count(roots, system.gram, row)))
        for eta, got in zip(inp["regions"], out["regions"]):
            found.append(checks.check_equal(f"{label} in_bounded_region{eta.coords}", got,
                                            checks.hull_member(roots, system.gram, eta.coords)))
        if out["group_order"] is not None:
            found.append(checks.check_weyl_order(label, entry.family, entry.rank,
                                                 out["group_order"]))
            found.append(checks.check_invariance(label, out["base"], out["images"]))
        errors.extend(e for e in found if e)
    for system, covector, got in outputs["probes"]:
        roots = [(r.coeffs, r.multiplicity) for r in system.positive_roots]
        expected = checks.exact_count(roots, system.gram, covector)
        if got != expected:
            failures.append(f"overflow probe {system.family}{system.rank} {covector}: "
                            f"n_of_many gave {got}, exact count {expected}")
    return errors, failures

