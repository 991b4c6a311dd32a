"""Command-line interface: verbs, formats, exit codes, determinism."""

import csv
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from sphreg import catalog as cat
from sphreg import cli
from sphreg import rootsys as rs


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
            "--tmin", "1", "--tmax", "4", "--tsteps", "3", "--samples", "2000",
            "--seed", "1")
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
                       "--tmin", "1", "--tmax", "2", "--tsteps", "2", "--samples", "500")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "Y", "Y2", "re", "im", "err"]
    assert [(r[0], float(r[1]), float(r[2])) for r in rows[1:]] == [
        ("1", 1.0, 0.0), ("2", 1.0, 0.0), ("1", 1.0, 0.5), ("2", 1.0, 0.5)]


def test_decay_fits_each_sl3_point_and_holder_refuses_it(tmp_path):
    code, out, _ = run("spherical", "--group", "sl3", "--points", "1,0,1,0.5",
                       "--tmin", "1", "--tmax", "8", "--tsteps", "8", "--samples", "500")
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
