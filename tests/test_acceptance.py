"""Acceptance gate.

One test per entry of ``accept._CRITERIA``, each printing its pass/fail
line; the same list backs the command-line ``selftest`` verb.
"""

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sphreg import accept
from sphreg import spherical as sph

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("number", range(1, len(accept._CRITERIA) + 1),
                         ids=[check.__name__ for _, _, check in accept._CRITERIA])
def test_criterion(number):
    [result] = accept.run_all(only=[number])
    status = "pass" if result.passed else "FAIL"
    print(f"criterion {result.index:2d} [{status}] {result.name}: {result.detail} "
          f"({result.seconds:.1f}s)")
    assert result.passed, f"criterion {result.index}: {result.detail}"


@pytest.mark.parametrize("group, instance", [
    ("sl2", accept.STATPHASE_SL2), ("su2", {"t_geo": accept.STATPHASE_COMPACT_THETA})])
def test_statphase_rows_give_criterion_7_errors(group, instance):
    # the rows `sphreg statphase` prints on criterion 7's instances, read back
    # at 17 digits, are exactly the errors the criterion weighs
    from sphreg import cli

    argv = ["statphase", "--group", group, "--Y", repr(instance["t_geo"]),
            "--tmin", str(accept.STATPHASE_SWEEP[0]), "--tmax", str(accept.STATPHASE_SWEEP[-1])]
    if "xi" in instance:
        argv += ["--xi", repr(instance["xi"])]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    rows = [[float(x) for x in line.split(",")] for line in out.getvalue().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(accept.STATPHASE_SWEEP)
    printed = [abs(complex(q_re, q_im) - complex(l_re, l_im))
               for _, q_re, q_im, l_re, l_im, _ in rows]
    assert printed == accept.statphase_errors(group, **instance)[0]


@pytest.mark.parametrize("only", [[11], [0], [-3], [1, 11]])
def test_run_all_refuses_a_number_outside_the_list_before_running_any(monkeypatch, only):
    ran = []
    monkeypatch.setattr(accept, "_CRITERIA", tuple(
        (f"stub {i}", math.inf, lambda i=i: ran.append(i) or (True, "ran"))
        for i in range(1, 11)))
    with pytest.raises(accept.CriterionNumberError,
                       match=rf"^no criterion {only[-1]}; the criteria are numbered 1\.\.10$"):
        accept.run_all(only=only)
    assert ran == []


def test_accept_module_takes_only_record():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "sphreg.accept"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert "record" in done.stderr


@pytest.mark.parametrize("argv", [[], ["wrong"], ["record", "extra"]])
def test_accept_module_usage_error_is_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        accept.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("python -m sphreg.accept: error: ")


def _sinhc(x):
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.sinh(safe) / safe)


def test_holder_family_equals_full_turn_quadrature():
    # the full-turn Mehler-Dirichlet mean at the node count the family uses
    # at t = 16 and 2048, on every 64th point of the grid
    family, grid = accept.holder_family()
    y = grid[::64, None]
    for t in (16, 2048):
        values = family[t][::64]
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
