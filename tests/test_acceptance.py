"""Acceptance gate.

One test per shipped criterion, each printing its pass/fail line; the same
functions back the command-line ``selftest`` verb.
"""

import time

import numpy as np
import pytest

from sphreg import accept
from sphreg import spherical as sph


CRITERIA = [
    accept.criterion_1_table,
    accept.criterion_2_weyl_invariance,
    accept.criterion_3_infimum,
    accept.criterion_4_decompositions,
    accept.criterion_5_decay,
    accept.criterion_6_holder_dichotomy,
    accept.criterion_7_leading_term,
    accept.criterion_8_compact_duality,
    accept.criterion_9_singular_blowup,
    accept.criterion_10_cesaro,
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    status = "pass" if result.passed else "FAIL"
    print(f"criterion {result.index:2d} [{status}] {result.name}: {result.detail} "
          f"({result.seconds:.1f}s)")
    assert result.passed, f"criterion {result.index}: {result.detail}"


def _sinhc(x):
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.sinh(safe) / safe)


def test_holder_family_equals_full_turn_quadrature():
    # the full-turn Mehler-Dirichlet mean at the node count the family uses
    family, grid = accept.holder_family(grid_points=33, sweep=(16, 2048))
    assert set(family) == {16, 2048}
    y = grid[:, None]
    for t, values in family.items():
        nodes = sph.sl2_sweep_nodes(t * accept.HOLDER_XI, accept.HOLDER_REGION[1])
        c = np.cos(2.0 * np.pi * np.arange(nodes) / nodes)[None, :]
        amplitude = 1.0 / np.sqrt(_sinhc(y * (1.0 - c)) * _sinhc(y * (1.0 + c)))
        want = (amplitude * np.cos(2.0 * t * accept.HOLDER_XI * y * c)).mean(axis=1)
        assert np.max(np.abs(values - want)) <= 1e-13


def test_decay_envelope_fit_makes_one_sweep_call(monkeypatch):
    shapes, sweep = [], sph.spherical_sl2_sweep

    def counted(xis, eta, t_geo):
        shapes.append(np.shape(xis))
        return sweep(xis, eta, t_geo)

    monkeypatch.setattr(sph, "spherical_sl2_sweep", counted)
    fit = accept.decay_envelope_fit(1.0, 1.0)
    assert shapes == [(len(fit.samples), 8)]


def test_budget_overrun_is_reported_apart_from_the_maths():
    t0 = time.perf_counter() - 10.0
    over = accept._result(2, "x", True, "checks", t0, budget=5.0)
    assert not over.passed and over.detail.startswith("maths ok; 5 s budget exceeded")
    assert (over.maths, over.within_budget, over.failure) == (True, False, "budget")
    both = accept._result(2, "x", False, "checks", t0, budget=5.0)
    assert not both.passed and both.detail.startswith("maths failed;")
    assert (both.maths, both.within_budget, both.failure) == (False, False, "maths and budget")
    within = accept._result(2, "x", True, "checks", t0, budget=60.0)
    assert within.passed and within.detail == "checks"
    assert (within.maths, within.within_budget, within.failure) == (True, True, "")
    wrong = accept._result(2, "x", False, "checks", t0, budget=60.0)
    assert not wrong.passed and wrong.detail == "checks"
    assert (wrong.maths, wrong.within_budget, wrong.failure) == (False, True, "maths")
