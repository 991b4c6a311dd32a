"""The ``quadrature`` workload: the rank-one floating-point layer.

Adaptive ``spherical_sl2`` values on a seeded grid stratified by final node
count (eight points at each of 2^11 .. 2^19), ``deriv_spherical_sl2`` at
orders 0-3, ``spherical_compact_su2`` up to degree 1000, two stationary-phase
sweeps, one rank-two Monte Carlo value with its Weyl image, then the
acceptance instances of ``holder_family``, ``decay_envelope_fit`` and the
wall blow-up check.

A round is several cold processes, one per part of ``PARTS``: ``main0`` runs
the sweeps, the rank-two values, the decay fits and the blow-up check,
``main1`` the Holder family, and the ``values<k>`` parts run the adaptive
values, each value in ``VALUE_REPEATS`` of them.  On a shared host
a process's speed for small numpy calls can differ by 1.5x from the next
process's, so each value is timed in several processes and the median call
is taken over the values' medians, rather than on one process's speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from sphreg import accept
from sphreg import asymptotics as asy
from sphreg import spherical as sph
from sphreg.spherical import QuadratureConfig, SpectralParameter

CONFIG = QuadratureConfig(n_start=64, n_max=1 << 20, target=1e-12, fail=1e-7)
SWEEP_CONFIG = QuadratureConfig(n_start=1024, n_max=1 << 20, target=1e-12, fail=1e-7)

# (Y, log2 xi) centres whose final node count is 2^level for every eta in
# [-1/2, 1/2] under the jitter below; found by scanning level boundaries.
STRATA = {
    11: ((0.6, 7.5), (1.25, 4.5), (1.25, 5.0)),
    12: ((0.6, 8.75), (1.25, 6.25), (1.8, 3.25)),
    13: ((0.6, 9.75), (1.25, 7.5), (1.8, 5.25)),
    14: ((0.6, 10.75), (1.25, 8.75), (1.8, 6.75)),
    15: ((1.25, 9.75), (1.5, 9.0), (1.8, 8.0)),
    16: ((1.25, 10.75), (1.5, 10.0), (1.8, 9.25)),
    17: ((1.25, 11.75), (1.5, 11.25), (1.0, 12.5)),
    18: ((1.25, 12.875), (1.5, 12.25), (1.0, 13.5)),
    19: ((1.25, 13.75), (1.25, 13.875), (1.25, 14.0)),
}
GRID_PER_LEVEL = 8
VALUE_WORKERS = 6
VALUE_REPEATS = 3  # processes that time each adaptive value; divides VALUE_WORKERS
CALL_AVERAGE = statistics.median  # of a value's times: drops one slow process
# The long operations are split in two parts placed between the value parts,
# so that the three processes that time a value run early, midway and late
# in the round: the host's speed changes for seconds at a time, and three
# processes back to back would sample it in one short window.
PARTS = ("values0", "values1", "main0", "values2", "values3", "main1", "values4", "values5")
REFERENCE_XI_MAX = 2048.0
XI_JITTER = 0.03
Y_JITTER = 0.015
DERIV_POINTS = 2
COMPACT_DEGREES = ((1, 10), (10, 100), (100, 500), (500, 1000))
COMPACT_PER_BAND = 2
SWEEP_T = tuple(50 * 2 ** k for k in range(6))
SL3_SAMPLES = 50_000
DECAY_INSTANCES = ((1.0, 0.5), (1.0, 1.0), (1.0, 2.0))


def setup():
    return None


def make_inputs(state, seed: int, round_index: int) -> dict:
    rng = np.random.default_rng([seed, round_index, 2])
    grid = []
    for centres in STRATA.values():
        for k in range(GRID_PER_LEVEL):
            y, log_xi = centres[k % len(centres)]
            grid.append((float(2.0 ** log_xi * rng.uniform(1 - XI_JITTER, 1 + XI_JITTER)),
                         float(rng.uniform(-0.5, 0.5)),
                         float(y + rng.uniform(-Y_JITTER, Y_JITTER))))
    deriv = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.5, 0.5)),
              float(rng.uniform(0.3, 1.0)), float(rng.uniform(1.0, 2.0)))
             for _ in range(DERIV_POINTS)]
    compact = [(int(rng.integers(lo, hi + 1)), float(rng.uniform(0.2, math.pi - 0.2)))
               for lo, hi in COMPACT_DEGREES for _ in range(COMPACT_PER_BAND)]
    xi1, xi2 = rng.uniform(0.2, 1.5, size=2)
    return {
        "grid": grid,
        "deriv": deriv,
        "compact": compact,
        "sweep_sl2": (float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.5, 1.2))),
        "sweep_su2": float(rng.uniform(0.3, 2.8)),
        "sl3": ((float(xi1), float(xi2)), (float(rng.uniform(0.3, 1.0)),
                                           float(rng.uniform(-0.3, 0.3))),
                int(rng.integers(0, 2 ** 31))),
    }


def _value_jobs(inp) -> list:
    """Every adaptive value as (kind, index, function, arguments), in a fixed
    shuffled order that does not depend on the seed."""
    jobs = [("grid", k, sph.spherical_sl2, (SpectralParameter.rank1(xi, eta), y, CONFIG))
            for k, (xi, eta, y) in enumerate(inp["grid"])]
    jobs += [("deriv", 4 * k + order, sph.deriv_spherical_sl2,
              (SpectralParameter.rank1(xi, eta), scale, y, order, CONFIG))
             for k, (xi, eta, y, scale) in enumerate(inp["deriv"]) for order in range(4)]
    jobs += [("compact", k, sph.spherical_compact_su2, (n, theta, CONFIG))
             for k, (n, theta) in enumerate(inp["compact"])]
    return [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]


def _part_jobs(inp, part: str) -> list:
    """Part k runs the jobs whose index is k modulo VALUE_WORKERS // VALUE_REPEATS."""
    stride = VALUE_WORKERS // VALUE_REPEATS
    return _value_jobs(inp)[int(part[len("values"):]) % stride::stride]


def run(state, inp, part: str):
    """Timed work of one part.  Returns ((call key, seconds) pairs of the
    adaptive values, outputs)."""
    calls, out = [], {}
    if part.startswith("values"):
        for key, k, fn, args in _part_jobs(inp, part):
            t0 = time.perf_counter()
            out[(key, k)] = fn(*args)
            calls.append((f"{key}{k}", time.perf_counter() - t0))
        return calls, out
    if part == "main1":
        family, grid = accept.holder_family()
        out["holder"] = [asy.holder_estimate(family, grid, 0, alpha).verdict
                         for alpha in (0.5, 0.6)]
        return calls, out

    xi, y = inp["sweep_sl2"]
    amplitude = asy.spherical_amplitude_sl2(y)
    # the sweep's values are not among the timed calls: with them the median
    # call fell on the edge between the 2^13 and 2^14 strata, where it jumped
    out["sweep_sl2"] = [
        (sph.spherical_sl2(SpectralParameter.rank1(t * xi), y, SWEEP_CONFIG),
         asy.leading_term_sl2(xi, y, t, amplitude).total)
        for t in SWEEP_T]
    theta = inp["sweep_su2"]
    seq = sph.legendre_sequence(max(SWEEP_T), math.cos(theta))
    out["sweep_su2"] = [(float(seq[t]), asy.leading_term_compact(t, theta)) for t in SWEEP_T]
    (xi1, xi2), a_log, sl3_seed = inp["sl3"]
    out["sl3"] = [sph.spherical_sl3(SpectralParameter.rank2(lam), a_log, SL3_SAMPLES, sl3_seed)
                  for lam in ((xi1, xi2), (xi2 - xi1, xi2))]
    out["decay"] = [accept.decay_envelope_fit(xi, y).slope for xi, y in DECAY_INSTANCES]
    degrees = sorted({int(round(10 ** (1 + 3 * k / 12))) for k in range(13)})
    out["blowup"] = asy.singular_blowup_check(np.geomspace(1e-8, 0.49, 400), degrees)
    return calls, out


def operations(state, inp, part: str) -> int:
    """Operations of one part: each adaptive value; in ``main0`` each sweep
    value of sl2, the su2 sweep, both rank-two values, each decay fit and the
    blow-up check; in ``main1`` the Holder pair."""
    if part.startswith("values"):
        return len(_part_jobs(inp, part))
    return 1 if part == "main1" else len(SWEEP_T) + 1 + 2 + len(DECAY_INSTANCES) + 1


def check(state, inp, out, checks, part: str):
    """Returns (check errors, messages of failed operations)."""
    found = []
    if part.startswith("values"):
        # the first process that runs a value matches it against the
        # references; the repeats, of the same deterministic computation, are
        # held to the modulus bound and the closed form for compact values
        first = int(part[len("values"):]) < VALUE_WORKERS // VALUE_REPEATS
        for (key, k), value in out.items():
            if key == "grid":
                # mpmath needs up to 1.6 s per value at the largest xi, so above
                # REFERENCE_XI_MAX only the first value of each stratum is
                # matched; every value must still lie under the modulus bound
                xi, eta, y = inp["grid"][k]
                found.append(checks.check_sl2_modulus(xi, eta, y, value.value))
                if first and (xi <= REFERENCE_XI_MAX or k % GRID_PER_LEVEL == 0):
                    found.append(checks.check_sl2(xi, eta, y, value.value))
            elif key == "deriv":
                xi, eta, y, scale = inp["deriv"][k // 4]
                if first:
                    found.append(checks.check_sl2_derivative(scale * xi, eta, y, k % 4, value))
            else:
                n, theta = inp["compact"][k]
                found.append(checks.check_compact(n, theta, value))
        return [e for e in found if e], []
    if part == "main1":
        return [e for e in [checks.check_holder_verdicts(*out["holder"])] if e], []

    xi, y = inp["sweep_sl2"]
    for t, (quad, _) in zip(SWEEP_T, out["sweep_sl2"]):
        found.append(checks.check_sl2(t * xi, 0.0, y, quad.value))
    found.append(checks.check_error_decreases(
        f"sl2 sweep xi={xi} Y={y}", [abs(q.value - lead) for q, lead in out["sweep_sl2"]]))
    theta = inp["sweep_su2"]
    for t, (quad, _) in zip(SWEEP_T, out["sweep_su2"]):
        found.append(checks.check_compact(t, theta, quad))
    found.append(checks.check_error_decreases(
        f"su2 sweep theta={theta}", [abs(q - lead) for q, lead in out["sweep_su2"]]))

    a, b = out["sl3"]
    found.append(checks.check_weyl_symmetric(f"spherical_sl3 {inp['sl3'][:2]} and Weyl image",
                                             a.value, a.estimated_error,
                                             b.value, b.estimated_error))
    for (xi, y), slope in zip(DECAY_INSTANCES, out["decay"]):
        found.append(checks.check_slope(f"decay_envelope_fit(xi={xi}, Y={y})", slope))
    blowup = out["blowup"]
    found.append(checks.check_blowup(blowup.wall_quotients, blowup.wall_growth,
                                     blowup.interior_ratio))
    return [e for e in found if e], []
