"""Command-line interface: verbs, formats, exit codes, determinism."""

import ast
import csv
import importlib
import io
import math
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sphreg import catalog as cat
from sphreg import cli
from sphreg import rootsys as rs

ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_kappa_split_rank_two():
    code, out, _ = run("kappa", "--family", "A", "--rank", "2", "--mult", "all:1")
    assert code == 0 and out.strip() == "1"


def test_kappa_non_reduced():
    code, out, _ = run("kappa", "--family", "BC", "--rank", "2",
                       "--mult", "medium:2,short:2,long:1")
    assert code == 0 and out.strip() == "7/2"


def test_kappa_half_integer_print():
    code, out, _ = run("kappa", "--family", "A", "--rank", "1", "--mult", "all:1")
    assert code == 0 and out.strip() == "1/2"


def test_usage_errors_exit_two():
    code, _, err = run("kappa", "--family", "A", "--rank", "0", "--mult", "all:1")
    assert code == 2 and "rank" in err
    code, _, _ = run("kappa", "--family", "A", "--rank", "2", "--mult", "bogus")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        run("no-such-verb")
    assert exc.value.code == 2


def test_rank_above_ceiling_exits_two():
    code, out, err = run("kappa", "--family", "A", "--rank", str(rs.MAX_RANK + 1),
                         "--mult", "all:1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds" in err


def test_table_default_catalog():
    code, out, _ = run("table", "--catalog", "default", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,group,rank,computed,expected,match"
    assert len(lines) - 1 >= 40
    assert all(line.endswith(",true") for line in lines[1:])


def test_table_flags_mismatch(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "version = 1\n\n[entry]\nid = x\nlabel = X\ncartan = AI\n"
        "params = n:3\nfamily = A rank:2\nmult = all:1\nkappa = 7\n",
        encoding="utf-8")
    code, out, _ = run("table", "--catalog", str(bad), "--format", "csv")
    assert code == 1
    assert "false" in out


def test_table_reads_catalog_path_of_any_name(tmp_path):
    path = tmp_path / "my.cat"
    path.write_text(cat.default_catalog_text(), encoding="utf-8")
    code, out, _ = run("table", "--catalog", str(path), "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 138


def test_table_missing_catalog_exits_two(tmp_path):
    code, out, err = run("table", "--catalog", str(tmp_path / "absent.cat"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "absent.cat" in err


def test_table_csv_quotes_group_names():
    code, out, _ = run("table", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 137
    assert all(len(row) == 6 for row in rows)
    assert ["AIII-p2-q3", "SU(2,3)", "2", "7/2", "7/2", "true"] in rows


def test_weights_output():
    code, out, _ = run("weights", "--family", "A", "--rank", "2", "--mult", "all:1")
    assert code == 0
    assert "mu1 = (4/3,2/3)  n = 2" in out
    assert "kappa = 1" in out


@pytest.mark.parametrize("family,rank,mult", [("E8", 8, 2 ** 60), ("A", 1, 10 ** 20),
                                              ("E8", 8, 10 ** 20)])
def test_weights_exact_at_huge_multiplicity(family, rank, mult):
    """A uniform multiplicity ``m`` scales every count by ``m``; past int64
    the counts stay exact instead of wrapping or raising."""
    code, out, err = run("weights", "--family", family, "--rank", str(rank),
                         "--mult", f"all:{mult}")
    assert code == 0 and err == ""
    unit = rs.build_root_system(family, rank, {"all": 1})
    lines = out.splitlines()
    assert lines[-1] == f"kappa = {mult * rs.kappa(unit)}"
    counts = [int(line.rsplit("n = ", 1)[1]) for line in lines[:-1]]
    assert counts == [mult * rs.n_of(unit, w) for w in rs.fundamental_weights(unit)]
    assert min(counts) >= 2 * mult * rs.kappa(unit) > 0


def test_region_verb():
    code, out, _ = run("region", "--family", "A", "--rank", "2", "--mult", "all:1",
                       "--eta", "1,1")
    assert code == 0 and out.strip() == "inside"
    code, out, _ = run("region", "--family", "A", "--rank", "2", "--mult", "all:1",
                       "--eta", "2,2")
    assert code == 0 and out.strip() == "outside"
    code, _, _ = run("region", "--family", "A", "--rank", "2", "--mult", "all:1",
                     "--eta", "1")
    assert code == 2


def test_iwasawa_and_kak_verbs(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2\n1 0\n0.5 1\n", encoding="utf-8")
    code, out, _ = run("iwasawa", "--matrix", str(path))
    assert code == 0
    assert "reconstruction_error" in out
    expected = 0.5 * math.log(1.25)
    h_line = next(line for line in out.splitlines() if line.startswith("h ="))
    values = [float(tok) for tok in h_line.split("=")[1].split()]
    assert values[0] == pytest.approx(expected, abs=1e-12)

    code, out, _ = run("kak", "--matrix", str(path))
    assert code == 0
    assert "regular = true" in out


@pytest.mark.parametrize("verb", ["iwasawa", "kak"])
def test_empty_matrix_exits_two(tmp_path, verb):
    path = tmp_path / "g.txt"
    path.write_text("0\n", encoding="utf-8")
    code, out, err = run(verb, "--matrix", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "non-empty" in err


@pytest.mark.parametrize("entry", ["nan", "inf"])
@pytest.mark.parametrize("verb", ["iwasawa", "kak"])
def test_non_finite_matrix_exits_two(tmp_path, verb, entry):
    path = tmp_path / "g.txt"
    path.write_text(f"2\n1 {entry}\n0 1\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(verb, "--matrix", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "finite" in err


@pytest.mark.parametrize("verb", ["iwasawa", "kak", "spherical"])
def test_negative_digits_rejected_at_parse_time(tmp_path, capsys, verb):
    path = tmp_path / "g.txt"
    path.write_text("2\n1 0\n0.5 1\n", encoding="utf-8")
    argv = [verb, "--group", "sl2", "--points", "1"] if verb == "spherical" else \
        [verb, "--matrix", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--digits", "-1", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--digits: must be nonnegative" in captured.err.splitlines()[-1]


def test_spherical_csv_and_determinism():
    argv = ("spherical", "--group", "sl2", "--xi", "1", "--points", "1.0",
            "--tmin", "5", "--tmax", "50", "--tsteps", "8")
    code, out1, _ = run(*argv)
    assert code == 0
    code, out2, _ = run(*argv)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "t,Y,re,im,err"
    assert len(lines) == 9


def test_spherical_sl3_csv():
    argv = ("spherical", "--group", "sl3", "--xi", "0.5,0.5", "--points", "1.0,0.0",
            "--tmin", "1", "--tmax", "4", "--tsteps", "3")
    code, out1, _ = run(*argv)
    assert code == 0
    assert len(out1.strip().splitlines()) == 4
    code, out2, _ = run(*argv)
    assert out1 == out2
    code, _, _ = run("spherical", "--group", "sl3", "--points", "1.0",
                     "--tmin", "1", "--tmax", "4", "--tsteps", "3")
    assert code == 2  # odd point list cannot form pairs


def test_spherical_sl3_rows_keep_both_chamber_coordinates():
    code, out, _ = run("spherical", "--group", "sl3", "--points", "1,0,1,0.5",
                       "--tmin", "1", "--tmax", "2", "--tsteps", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "Y", "Y2", "re", "im", "err"]
    assert [(r[0], float(r[1]), float(r[2])) for r in rows[1:]] == [
        ("1", 1.0, 0.0), ("2", 1.0, 0.0), ("1", 1.0, 0.5), ("2", 1.0, 0.5)]


def test_decay_fits_each_sl3_point_and_holder_refuses_it(tmp_path):
    code, out, _ = run("spherical", "--group", "sl3", "--points", "1,0,1,0.5",
                       "--tmin", "1", "--tmax", "8", "--tsteps", "8")
    assert code == 0
    path = tmp_path / "sl3.csv"
    path.write_text(out)
    code, out, _ = run("decay", "--input", str(path))
    assert code == 0
    assert [line.split(" slope=")[0] for line in out.splitlines()] == ["Y=1 Y2=0", "Y=1 Y2=0.5"]
    code, out, err = run("holder", "--input", str(path), "--alpha", "0.5")
    assert code == 2 and out == "" and "Y2" in err


def test_spherical_sl2_at_large_chamber_point_against_legendre_function():
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run("spherical", "--group", "sl2", "--points", "4.9", "--xi", "1",
                       "--tmin", "500", "--tmax", "1000", "--tsteps", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["500", "1000"]
    for t, _, re_part, im_part, err in rows:
        with mpmath.workdps(30):
            want = float(mpmath.re(mpmath.legenp(mpmath.mpc(-0.5, float(t)), 0,
                                                 mpmath.cosh(9.8), type=3)))
        assert abs(float(re_part) - want) <= 1e-14
        assert float(im_part) == 0.0 and float(err) <= 1e-12


def test_table_pretty_format():
    code, out, _ = run("table", "--format", "pretty")
    assert code == 0
    assert "mismatches" in out.strip().splitlines()[-1]
    assert " ok" in out


def test_spherical_su2_and_guards():
    code, out, _ = run("spherical", "--group", "su2", "--points", "1.0",
                       "--tmin", "4", "--tmax", "32", "--tsteps", "4")
    assert code == 0
    code, _, _ = run("spherical", "--group", "su2", "--points", "4.0",
                     "--tmin", "4", "--tmax", "32", "--tsteps", "4")
    assert code == 2
    code, _, _ = run("spherical", "--group", "sl2", "--tmin", "4", "--tmax", "32",
                     "--tsteps", "4")
    assert code == 2  # no points


def test_spherical_su2_prints_the_rule_error():
    from sphreg import spherical as sph

    code, out, _ = run("spherical", "--group", "su2", "--points", "1.0,2.5",
                       "--tmin", "4", "--tmax", "700", "--tsteps", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "Y", "re", "im", "err"]
    errors = []
    for t, y, re_part, im_part, err in rows[1:]:
        value = sph._spherical_compact_su2(int(t), float(y))
        assert float(re_part) == pytest.approx(value.value.real, rel=1e-14)
        assert float(im_part) == 0.0
        assert float(err) == float(f"{value.estimated_error:.3g}")
        errors.append(float(err))
    assert any(errors) and max(errors) <= 1e-12


def test_spherical_out_of_range_inputs_exit_two():
    code, _, err = run("spherical", "--group", "su2", "--points", "1.0",
                       "--tmin", "10", "--tmax", "20000", "--tsteps", "3")
    assert code == 2 and "degree" in err and "Traceback" not in err
    code, _, err = run("spherical", "--group", "sl2", "--points", "6",
                       "--tmin", "4", "--tmax", "32", "--tsteps", "4")
    assert code == 2 and "Y=6" in err


@pytest.mark.parametrize("argv", [
    ("spherical", "--group", "sl2", "--xi", "1e308", "--points", "1",
     "--tmin", "1", "--tmax", "10", "--tsteps", "2"),
    ("statphase", "--group", "sl2", "--xi", "1e308", "--Y", "1"),
    # finite, but above the quadrature node ceiling
    ("spherical", "--group", "sl2", "--xi", "1e300", "--points", "1"),
    ("statphase", "--group", "sl2", "--xi", "1e300", "--Y", "1"),
    # degree 20000 is out of range, after the rows for 5000 and 10000
    ("spherical", "--group", "su2", "--points", "1.0",
     "--tmin", "5000", "--tmax", "20000", "--tsteps", "3"),
])
def test_spectral_input_errors_print_nothing(argv):
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("tmin", ["0", "-5"])
def test_statphase_rejects_nonpositive_tmin(tmin):
    for group in ("sl2", "su2"):
        code, out, err = run("statphase", "--group", group, "--Y", "1.0",
                             "--tmin", tmin, "--tmax", "400")
        assert code == 2 and out == "" and "--tmin" in err


@pytest.mark.parametrize("verb", ["decay", "holder"])
def test_malformed_csv_exits_two(tmp_path, verb):
    extra = ("--alpha", "0.5") if verb == "holder" else ()
    non_numeric = tmp_path / "non_numeric.csv"
    non_numeric.write_text("t,Y,re,im,err\n16,0.5,0.1,0,0\n\n32,0.5,abc,0,0\n",
                           encoding="utf-8")
    code, _, err = run(verb, "--input", str(non_numeric), *extra)
    assert code == 2 and "line 4" in err and "'re'" in err
    assert len(err.strip().splitlines()) == 1
    no_y = tmp_path / "no_y.csv"
    no_y.write_text("t,re,im,err\n16,0.1,0,0\n32,0.2,0,0\n", encoding="utf-8")
    code, _, err = run(verb, "--input", str(no_y), *extra)
    assert code == 2 and "missing column 'Y'" in err


def test_decay_and_holder_consume_spherical_csv(tmp_path):
    code, out, _ = run("spherical", "--group", "sl2", "--xi", "0.5",
                       "--ygrid", "0.5:1.5:33", "--tmin", "16", "--tmax", "256",
                       "--tsteps", "8")
    assert code == 0
    path = tmp_path / "sweep.csv"
    path.write_text(out, encoding="utf-8")

    code, out2, _ = run("holder", "--input", str(path), "--alpha", "0.5,0.9")
    assert code == 0
    assert out2.count("verdict=") == 2

    single = [line for line in out.splitlines()[1:] if float(line.split(",")[1]) == 0.5]
    csv = "t,Y,re,im,err\n" + "\n".join(single) + "\n"
    decay_path = tmp_path / "decay.csv"
    decay_path.write_text(csv, encoding="utf-8")
    code, out3, err3 = run("decay", "--input", str(decay_path))
    assert code == 0
    assert "slope=" in out3


def test_statphase_verbs():
    code, out, _ = run("statphase", "--group", "su2", "--Y", "1.0",
                       "--tmin", "50", "--tmax", "400")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,quad_re,quad_im,lead_re,lead_im,abs_err"
    errs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(errs, errs[1:]))

    code, out, _ = run("statphase", "--group", "sl2", "--xi", "0.5", "--Y", "0.8",
                       "--tmin", "50", "--tmax", "200")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_statphase_steps_that_round_alike_give_one_row():
    # 0.6 and 1.2 both round to t = 1
    code, out, _ = run("statphase", "--group", "sl2", "--Y", "2",
                       "--tmin", "0.6", "--tmax", "4")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["1", "2"]
    code, out, err = _quiet_run("statphase", "--group", "su2", "--Y", "1",
                                "--tmin", "0.6", "--tmax", "1.3")
    assert code == 2 and out == "" and "two dyadic steps" in err


def test_spherical_su2_degrees_that_round_alike_give_one_row():
    code, out, _ = run("spherical", "--group", "su2", "--points", "1.0",
                       "--tmin", "1", "--tmax", "3", "--tsteps", "6")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["1", "2", "3"]


def test_expsum_verb():
    code, out, _ = run("expsum", "--fx", "1", "--fy", "0", "--ux", "0.7",
                       "--uy", "0.7", "-m", "3", "-N", "50")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0)
    code, _, _ = run("expsum", "--fx", "1,1", "--fy", "1", "--ux", "1,2",
                     "--uy", "1", "-N", "10")
    assert code == 2


def test_selftest_single_fast_criterion():
    code, out, _ = run("selftest", "--only", "10")
    assert code == 0
    assert "criterion 10 [pass]" in out
    assert "1/1 criteria passed" in out


@pytest.mark.parametrize("only", ["11", "0,-3", "1,99"])
def test_selftest_number_outside_the_list_exits_two(only):
    code, out, err = _quiet_run("selftest", f"--only={only}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "numbered 1..10" in err


@pytest.mark.parametrize("maths, budget, failure", [
    (True, math.inf, ""), (False, math.inf, "maths"), (True, 0.0, "budget"),
    (False, 0.0, "maths and budget")])
def test_selftest_says_whether_the_maths_or_the_budget_failed(monkeypatch, maths, budget,
                                                              failure):
    from sphreg import accept

    monkeypatch.setattr(accept, "_CRITERIA", (("stub", budget, lambda: (maths, "checks")),))
    code, out, _ = run("selftest")
    if failure:
        assert code == 1 and "0/1 criteria passed" in out
        assert f"[FAIL: {failure}] stub: " in out and f"criterion 1 failed: {failure}\n" in out
    else:
        assert code == 0 and "1/1 criteria passed" in out and "failed" not in out


def _quiet_run(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(*argv)


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
@pytest.mark.parametrize("verb", ["iwasawa", "kak"])
def test_extreme_scalar_matrix_is_the_identity(tmp_path, verb, scale):
    identity, scaled = tmp_path / "identity.txt", tmp_path / "scaled.txt"
    identity.write_text("2\n1 0\n0 1\n", encoding="utf-8")
    scaled.write_text(f"2\n{scale} 0\n0 {scale}\n", encoding="utf-8")
    code, out, err = _quiet_run(verb, "--matrix", str(scaled))
    assert code == 0 and err == ""
    assert out == run(verb, "--matrix", str(identity))[1]


@pytest.mark.parametrize("group", ["sl2", "su2"])
def test_statphase_tmin_rounding_to_zero_exits_two(group):
    code, out, err = _quiet_run("statphase", "--group", group, "--Y", "2",
                                "--tmin", "0.5", "--tmax", "4")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "rounds to t = 0" in err


def test_statphase_underflowing_hessian_exits_two():
    code, out, err = _quiet_run("statphase", "--group", "sl2", "--Y", "1e-300",
                                "--xi", "1e-300", "--tmin", "1", "--tmax", "4")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "underflows" in err


def test_expsum_out_of_range_phase_exits_one():
    code, out, err = _quiet_run("expsum", "--fx", "1,-1", "--fy", "1,1", "--ux", "1e308,1",
                                "--uy", "1,-1", "-N", "10")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "float64 range" in err
    code, out, err = _quiet_run("expsum", "--fx", "1,-1", "--fy", "1,1", "--ux", "inf,1",
                                "--uy", "1,-1", "-N", "10")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "finite" in err


@pytest.mark.parametrize("extra, message", [
    (("-N", "10000000000"), "frequency count"),
    (("-m", "100000000000000000000", "-N", "10"), "2**53")])
def test_expsum_too_many_terms_or_inexact_t_exits_two(extra, message):
    code, out, err = _quiet_run("expsum", "--fx", "1", "--fy", "0", "--ux", "0.7",
                                "--uy", "0.7", *extra)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def _grid_csv(tmp_path, rows, header="t,Y,re,im,err"):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


def _grid_rows(ts=(1, 2, 4, 8, 16, 32, 64, 128), ys=(0.5, 1.0)):
    return [f"{t},{y},{1.0 / t},{0.5 / t},0" for t in ts for y in ys]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("verb", ["decay", "holder"])
def test_non_finite_csv_field_exits_two(tmp_path, verb, value):
    rows = _grid_rows()
    rows[3] = rows[3].replace(",0.5,", f",{value},", 1) if verb == "holder" else \
        ",".join(rows[3].split(",")[:2] + [value] + rows[3].split(",")[3:])
    argv = [verb, "--input", _grid_csv(tmp_path, rows)] + (
        ["--alpha", "0.5"] if verb == "holder" else [])
    code, out, err = _quiet_run(*argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "line 5: non-finite" in err


def test_decay_at_nonpositive_t_fails_without_warning(tmp_path):
    path = _grid_csv(tmp_path, _grid_rows(ts=(-1, 1, 2, 4, 8, 16, 32, 64), ys=(0.5,)))
    code, out, err = _quiet_run("decay", "--input", path)
    assert code == 1 and out == ""
    assert err.strip() == "Y=0.5: error: abscissas must be positive"


@pytest.mark.parametrize("threshold", ["-1", "0", "0.5", "nan", "inf"])
def test_holder_threshold_below_one_or_not_finite_exits_two(tmp_path, threshold):
    code, out, err = _quiet_run("holder", "--input", _grid_csv(tmp_path, _grid_rows()),
                                "--alpha", "0.5", f"--threshold={threshold}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "threshold must lie in [1, inf)" in err


def test_holder_repeated_grid_point_exits_two(tmp_path):
    rows = _grid_rows()
    rows[1] = rows[0]  # (t, Y) = (1, 0.5) twice and (1, 1.0) missing
    code, out, err = _quiet_run("holder", "--input", _grid_csv(tmp_path, rows),
                                "--alpha", "0.5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "complete t x Y grid" in err


@pytest.mark.parametrize("options, code, message", [
    (["--points", "1,inf"], 2, "non-finite"),
    (["--points", "1,0", "--xi", "nan,0.5"], 2, "non-finite"),
    (["--points", "400,0"], 1, "out of float64 range"),
    (["--points", "2,1", "--xi", "300,150"], 2, "above the ceiling"),
    (["--points", "6,0"], 2, "sl3 chamber point"),
])
def test_spherical_sl3_bad_inputs_exit_with_one_line(options, code, message):
    got, out, err = _quiet_run("spherical", "--group", "sl3", "--tmin", "1", "--tmax", "2",
                               "--tsteps", "2", *options)
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("options, message", [
    # sl2 used to take the first coordinate of each list and drop the rest
    (["--points", "1", "--xi", "1,2", "--eta", "0.1,5"], "sl2 needs one --xi and one --eta"),
    (["--points", "1", "--xi", "1,2"], "sl2 needs one --xi and one --eta"),
    (["--points", "1", "--eta", "0.1,5"], "sl2 needs one --xi and one --eta"),
    # a count of 0 used to be reported as a missing --ygrid
    (["--ygrid", "0:1:0"], "--ygrid count must be at least 1"),
    (["--ygrid", "0:1:-2"], "--ygrid count must be at least 1"),
])
def test_spherical_sl2_bad_counts_exit_with_one_line(options, message):
    got, out, err = _quiet_run("spherical", "--group", "sl2", "--tmin", "1", "--tmax", "2",
                               "--tsteps", "2", *options)
    assert (got, out) == (2, "")
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("option", ["--samples", "--seed"])
def test_spherical_sl3_refuses_the_monte_carlo_options(capsys, option):
    # the values are deterministic cubatures: no sample count and no seed
    with pytest.raises(SystemExit) as exc:
        cli.main(["spherical", "--group", "sl3", "--points", "1,0", option, "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert f"unrecognized arguments: {option}" in captured.err


def test_statphase_su2_degree_ceiling_exits_two():
    # the last step is 2**21, past the recurrence's ceiling of 2**20
    code, out, err = _quiet_run("statphase", "--group", "su2", "--Y", "1", "--tmin", "1",
                                "--tmax", "2.1e6")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "above the supported maximum" in err


def test_kappa_imports_only_the_exact_layer():
    script = ("import sys\n"
              "from sphreg import cli\n"
              "code = cli.main(['kappa', '--family', 'A', '--rank', '2', '--mult', 'all:1'])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('sphreg')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    kappa, report = done.stdout.splitlines()
    code, *loaded = report.split()
    assert (kappa, code) == ("1", "0")
    assert "sphreg.rootsys" in loaded
    assert not {"sphreg.accept", "sphreg.spherical", "sphreg.asymptotics", "sphreg.liegroup",
                "sphreg.catalog"} & set(loaded), loaded


def test_exact_verbs_load_no_numpy():
    # one fresh interpreter: the exact verbs, help and a usage error leave numpy
    # unloaded, and kappa, table, region and weights leave dataclasses unloaded too
    script = ("import contextlib, io, sys\n"
              "from sphreg import cli\n"
              "for argv in sys.argv[1:]:\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
              "        try:\n"
              "            code = cli.main(argv.split())\n"
              "        except SystemExit as exc:\n"
              "            code = exc.code\n"
              "    print(argv.split()[0], code, 'numpy' in sys.modules)\n"
              "    if argv.split()[0] in ('kappa', 'table', 'region', 'weights'):\n"
              "        print('dataclasses', 'dataclasses' in sys.modules)\n")
    system = "--family F4 --rank 4 --mult short:2,long:1"
    verbs = [f"kappa {system}", "table --format csv", f"region {system} --eta=1,-1/2,3,0",
             "--help", "kappa --family X", f"weights {system}"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script, *verbs], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "kappa 0 False", "dataclasses False", "table 0 False", "dataclasses False",
        "region 0 False", "dataclasses False", "--help 0 False", "kappa 2 False",
        "dataclasses False", "weights 0 False", "dataclasses False"]


def test_holder_prints_unbounded_growth_as_a_word(tmp_path):
    # the t = 1 member is constant in Y, so its sup quotient is 0 and the
    # growth ratio infinite
    path = tmp_path / "flat_first.csv"
    rows = ["t,Y,re,im"]
    for t in (1, 2, 4):
        for y in (0.5, 1.0, 1.5):
            rows.append(f"{t},{y},{1.0 if t == 1 else y / t},0")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run("holder", "--input", str(path), "--alpha", "0.5")
    assert (code, err) == (0, "")
    assert out.strip() == "alpha=0.5 verdict=growing growth_ratio=unbounded " \
                          "sup_quotients=0 0.5 0.25"


@pytest.mark.parametrize("argv, prefix", [
    (["kappa", "--rank"], "sphreg kappa: error: "),
    (["holder", "--input", "f.csv", "--alpha", "-1,1"], "sphreg holder: error: "),
    (["kappa", "--family", "Z", "--rank", "2", "--mult", "all:1"], "sphreg kappa: error: "),
    (["no-such-verb"], "sphreg: error: "),
    (["holder", "--input", "f.csv", "--alpha", "0.5", "--order", "0"], "sphreg: error: "),
])
def test_usage_errors_print_one_stderr_line(capsys, argv, prefix):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(prefix), captured.err


def _sibling_names(name):
    """``(modules, reached, imported)`` of ``src/sphreg/<name>.py``: the modules
    it imports by ``from . import``, keyed by alias; the ``(alias, attribute)``
    pairs it reads through them; the ``(module, name)`` pairs of its ``from
    .module import``."""
    tree = ast.parse((ROOT / "src" / "sphreg" / f"{name}.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: importlib.import_module(f"sphreg.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    reached = {(node.value.id, node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names}
    return modules, reached, imported


def test_every_module_attribute_the_cli_reaches_exists():
    # each verb imports its layers inside the function, so a renamed helper,
    # often a private one that no other test names, would fail only when its
    # verb runs
    modules, reached, imported = _sibling_names("cli")
    missing = sorted(f"{alias}.{name}" for alias, name in reached
                     if not hasattr(modules[alias], name))
    assert {("sph", "_spherical_compact_su2")} <= reached
    assert missing == []
    # the acceptance gate is reached through its public names only
    private = [name for alias, name in reached
               if modules[alias].__name__ == "sphreg.accept" and name.startswith("_")]
    private += [name for module, name in imported if module == "accept" and name.startswith("_")]
    assert "accept" in modules and private == []
    # only spherical picks a rank-one path or node budget: the modules that
    # call it name none of its private helpers but the compact integral's
    for caller in ("cli", "asymptotics", "accept"):
        modules, reached, imported = _sibling_names(caller)
        names = {name for alias, name in reached if modules[alias].__name__ == "sphreg.spherical"}
        names |= {name for module, name in imported if module == "spherical"}
        assert {name for name in names if name.startswith("_")} <= {"_spherical_compact_su2"}, \
            caller
