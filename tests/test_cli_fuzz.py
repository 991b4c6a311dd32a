"""Seeded fuzz of the command line: random argv lists over every verb but
``selftest``, run in process with warnings as errors.

Every call must end with exit code 0, 1 or 2; exit 2 must print exactly one
line to stderr, and exit 0 must print no ``nan`` or ``inf``.  Each value is
drawn from ordinary inputs or, with probability ``HOSTILE``, from a pool of
malformed, non-finite, extreme or out-of-range ones, so that every verb
reaches both its results and its errors.  No pool holds a rank, sample
count, degree or node count large enough to make a call slow: limits like
those are tested by asking for the count, not by running it.
"""

import io
import random
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from sphreg import catalog as cat
from sphreg import cli
from sphreg import rootsys as rs

SEED = 20261019
CALLS = 300
HOSTILE = 0.15

# values that argparse's ``float`` accepts; lists the CLI parses itself also get JUNK
FLOATS = ["0", "-0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "6"]
JUNK = ["x", "", "1/2"]
T_VALUES = ["0", "-1", "0.5", "1e300", "inf", "nan"]
RATIONALS = ["1/0", "x", "", "nan", "1e3", "-7/3"]
RANKS = [-1, 0, 1, 3, 9]
MULTS = ["all:0", "short:-1", "bogus:1", "all:x", "all", "short:1", "long:2,short:1",
         "all:1152921504606846976", "all:100000000000000000000"]
MATRIX_ENTRIES = ["0", "1e200", "1e-200", "-1e200", "nan", "inf", "x"]
CSV_FIELDS = ["0", "-1", "1e-300", "1e300", "nan", "inf", "x", ""]
CSV_HEADERS = ["t,Y,re,im,err", "t,Y,Y2,re,im,err", "t,Y,re,im"]
FAMILIES = ("A", "B", "C", "D", "BC", "G2", "F4", "E6", "E7", "E8")
FIXED_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
VERBS = ("kappa", "weights", "region", "table", "iwasawa", "kak", "spherical", "decay",
         "holder", "statphase", "expsum")


class _Draw:
    """Values for one call: ordinary ones, or a hostile one with
    probability ``HOSTILE``."""

    def __init__(self, rng):
        self.rng = rng

    def hostile(self) -> bool:
        return self.rng.random() < HOSTILE

    def pick(self, ordinary, hostile_pool) -> str:
        return str(self.rng.choice(hostile_pool)) if self.hostile() else str(ordinary)

    def uniform(self, lo, hi, hostile_pool=FLOATS) -> str:
        return self.pick(repr(round(self.rng.uniform(lo, hi), 3)), hostile_pool)

    def floats(self, count, lo, hi) -> str:
        """A comma list, which the CLI parses itself."""
        count = max(1, count + self.hostile() * self.rng.choice([-1, 1]))
        return ",".join(self.uniform(lo, hi, FLOATS + JUNK) for _ in range(count))


def _system(draw: _Draw) -> tuple[list[tuple[str, str]], int]:
    rng = draw.rng
    family = rng.choice(FAMILIES)
    rank = FIXED_RANKS.get(family) or rng.randint(2 if family == "D" else 1, 5)
    mult = ",".join(f"{c}:{rng.randint(1, 4)}" for c in rs.class_vocabulary(family))
    return [("--family", family), ("--rank", draw.pick(rank, RANKS)),
            ("--mult", draw.pick(mult, MULTS))], rank


def _eta(draw: _Draw, rank: int) -> str:
    rng = draw.rng
    coords = [str(Fraction(rng.randint(-9, 9), rng.randint(1, 8))) for _ in range(rank)]
    if draw.hostile():
        coords = coords[:-1] or ["1", "2"]
    return ",".join(draw.pick(c, RATIONALS) for c in coords)


def _matrix_text(draw: _Draw) -> str:
    n = int(draw.pick(draw.rng.randint(2, 4), [0, 1]))
    rows = [" ".join(draw.uniform(-2, 2, MATRIX_ENTRIES) for _ in range(n)) for _ in range(n)]
    if rows and draw.hostile():
        rows[0] += " 1"
    return "\n".join([draw.pick(n, ["x", n + 1]), *rows]) + "\n"


def _csv_text(draw: _Draw) -> str:
    rng = draw.rng
    header = rng.choice(CSV_HEADERS)
    if draw.hostile():
        header = header.replace(rng.choice(["t,", "Y,", ",re"]), "", 1)
    lines = [header]
    for t in (1, 2, 4, 8, 16, 32, 64, 128):
        for y in (0.5, 1.0, 1.5):
            fields = {"t": t, "Y": y, "Y2": 0.25, "re": rng.uniform(-1, 1) / t,
                      "im": rng.uniform(-1, 1) / t, "err": 0.0}
            lines.append(",".join(draw.pick(fields.get(name, 0), CSV_FIELDS)
                                  if rng.random() < 0.05 else str(fields.get(name, 0))
                                  for name in header.split(",")))
    if draw.hostile():
        del lines[rng.randrange(1, len(lines))]
    return "\n".join(lines) + "\n"


def _catalog_text(draw: _Draw) -> str:
    text = cat.default_catalog_text()
    if not draw.hostile():
        return text
    return draw.rng.choice([text[:draw.rng.randrange(len(text))], "",
                            text.replace("kappa = 7/2", "kappa = 9"),
                            text.replace("rank:2", "rank:x", 1), "version = 2\n"])


def _verb_options(verb: str, draw: _Draw, directory, k: int) -> list[tuple]:
    rng = draw.rng

    def write(text, suffix):
        path = directory / f"{k}{suffix}"
        path.write_text(text, encoding="utf-8")
        return draw.pick(path, [directory / "missing.txt"])

    if verb in ("kappa", "weights"):
        return _system(draw)[0]
    if verb == "region":
        options, rank = _system(draw)
        return options + [("--eta", _eta(draw, rank))]
    if verb == "table":
        return [("--format", rng.choice(["csv", "pretty"])),
                ("--catalog", rng.choice(["default", write(_catalog_text(draw), ".cat")]))]
    if verb in ("iwasawa", "kak"):
        return [("--matrix", write(_matrix_text(draw), ".txt"))]
    if verb in ("decay", "holder"):
        options = [("--input", write(_csv_text(draw), ".csv"))]
        if verb == "holder":
            options += [("--alpha", draw.floats(2, 0.1, 1.0)),
                        ("--threshold", draw.uniform(1.5, 3.0)),
                        *([("--magnitude", None)] if rng.random() < 0.5 else [])]
        return options
    if verb == "statphase":
        group = rng.choice(["sl2", "su2"])
        return [("--group", group), ("--xi", draw.uniform(0.5, 1.5)),
                ("--Y", draw.uniform(0.2, 2.0 if group == "sl2" else 3.0)),
                ("--tmin", draw.uniform(8, 40, T_VALUES)),
                ("--tmax", draw.uniform(100, 400, T_VALUES))]
    if verb == "spherical":
        group = rng.choice(["sl2", "sl3", "su2"])
        width = 2 if group == "sl3" else 1
        options = [("--group", group), ("--tmin", draw.uniform(1, 10, T_VALUES)),
                   ("--tmax", draw.uniform(20, 200, T_VALUES)),
                   ("--tsteps", draw.pick(rng.randint(2, 3), [-1, 0, 1])),
                   ("--xi", draw.floats(width, 0.3, 1.5)),
                   ("--eta", draw.floats(width, -0.5, 0.5))]
        if rng.random() < 0.2:
            options.append(("--ygrid", draw.pick("0.5:1:3", ["1:2", "a:b:c", "0:1:0", "0.1:6:3"])))
        else:
            options.append(("--points", draw.floats(width * rng.randint(1, 2), 0.1, 2.0)))
        return options
    return [("--fx", draw.floats(3, 0.5, 1.5)), ("--fy", draw.floats(3, 0.5, 1.5)),
            ("--ux", draw.floats(3, -2, 2)), ("--uy", draw.floats(3, -2, 2)),
            ("-m", draw.pick(rng.randint(0, 50), [-1])),
            ("-N", draw.pick(rng.randint(500, 2000), [-1, 0]))]


def random_argv(rng, directory, k) -> list[str]:
    """One argv list that argparse accepts.  Each option is joined to its
    value by ``=``, since argparse reads a separate value such as ``-1,2`` as
    an option."""
    verb = rng.choice(VERBS)
    front = [f"--digits={rng.choice([0, 3, 17])}"] if rng.random() < 0.3 else []
    return front + [verb] + [name if value is None else f"{name}={value}"
                             for name, value in _verb_options(verb, _Draw(rng), directory, k)]


NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def violation(code, out, err):
    """What the call did wrong, or None."""
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if code == 2 and len(err.splitlines()) != 1:
        return f"exit 2 with {len(err.splitlines())} stderr lines: {err!r}"
    if code == 0 and NON_FINITE.search(out):
        return f"exit 0 printed a non-finite value: {out!r}"
    return None


def test_cli_fuzz(tmp_path):
    rng = random.Random(SEED)
    for k in range(CALLS):
        argv = random_argv(rng, tmp_path, k)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        problem = violation(code, out.getvalue(), err.getvalue())
        assert problem is None, (argv, problem)
