"""Command-line front end.

Verbs: kappa, table, weights, region, iwasawa, kak, spherical, decay,
holder, statphase, expsum, selftest.  Exit codes: 0 success, 1
computational failure, 2 usage error.  Numeric output is locale independent
with '.' as the decimal separator; exact rationals print as p/q.

Each verb imports only the layers it uses, so ``kappa`` loads neither the
quadrature nor the acceptance modules, and ``kappa``, ``table``, ``region``,
``--help`` and usage errors load no numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from . import catalog as cat, liegroup as lg, rootsys as rs

USAGE_ERROR = 2
COMPUTE_ERROR = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _parse_mult(text: str) -> dict[str, int]:
    out = {}
    for token in text.split(","):
        if ":" not in token:
            raise CliError(f"malformed multiplicity token {token!r}")
        key, _, value = token.partition(":")
        try:
            out[key.strip()] = int(value)
        except ValueError:
            raise CliError(f"non-integer multiplicity in {token!r}") from None
    return out


_LIST_KINDS = {Fraction: "rational", float: "number", complex: "complex"}


def _parse_list(text: str, kind: type) -> list:
    """The comma list ``text`` of ``kind``: ``Fraction``, ``float`` or ``complex``."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CliError(f"malformed {_LIST_KINDS[kind]} list {text!r}") from None


def _build_system(args) -> rs.RootSystem:
    from . import rootsys as rs

    if args.rank is None or args.rank < 1:
        raise CliError("a positive --rank is required")
    try:
        return rs.build_root_system(args.family, args.rank, _parse_mult(args.mult))
    except rs.RootSystemError as exc:
        raise CliError(str(exc)) from exc


def _load_catalog(args) -> cat.CatalogFile:
    from . import catalog as cat

    path = args.catalog or os.environ.get("KAPPA_CATALOG") or "default"
    try:
        if path == "default":
            text = cat.default_catalog_text()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return cat.load_catalog(text)
    except (OSError, UnicodeDecodeError, cat.CatalogError) as exc:
        raise CliError(f"cannot load catalog: {exc}") from exc


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_kappa(args) -> int:
    from . import rootsys as rs

    system = _build_system(args)
    print(rs.kappa(system))
    return 0


def cmd_table(args) -> int:
    import csv

    from . import catalog as cat

    catalog = _load_catalog(args)
    rows = cat.kappa_table(catalog)
    mismatch = False
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("id", "group", "rank", "computed", "expected", "match"))
        for row_id, group, rank, computed, expected, match in rows:
            computed_text = "error" if computed is None else str(computed)
            writer.writerow((row_id, group, rank, computed_text, str(expected),
                             "true" if match else "false"))
            mismatch |= not match
    else:
        width = max(len(r[0]) for r in rows) if rows else 2
        gwidth = max(len(r[1]) for r in rows) if rows else 5
        for row_id, group, rank, computed, expected, match in rows:
            computed_text = "error" if computed is None else str(computed)
            status = "ok" if match else "MISMATCH"
            print(f"{row_id:<{width}}  {group:<{gwidth}}  rank {rank:>2}  "
                  f"kappa {computed_text:>6}  expected {expected!s:>6}  {status}")
            mismatch |= not match
        print(f"{len(rows)} rows, {sum(1 for r in rows if not r[5])} mismatches")
    return COMPUTE_ERROR if mismatch else 0


def cmd_weights(args) -> int:
    from . import rootsys as rs

    system = _build_system(args)
    weights = rs.fundamental_weights(system)
    for i, weight in enumerate(weights, start=1):
        coords = ",".join(map(str, weight.coords))
        print(f"mu{i} = ({coords})  n = {rs.n_of(system, weight)}")
    print(f"kappa = {rs.kappa(system)}")
    return 0


def cmd_region(args) -> int:
    from . import rootsys as rs

    system = _build_system(args)
    coords = _parse_list(args.eta, Fraction)
    if len(coords) != system.rank:
        raise CliError(f"--eta needs {system.rank} coordinates")
    inside = rs.in_bounded_region(system, rs.Covector(tuple(coords)))
    print("inside" if inside else "outside")
    return 0


def _read_matrix_file(path: str) -> lg.SpecialLinearElement:
    from . import liegroup as lg

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return lg.read_matrix(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read matrix file: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"malformed matrix file: {exc}") from exc


def _print_factorization(args, factorize, names: tuple[str, ...]) -> lg.SpecialLinearElement:
    """Factors the ``--matrix`` file and prints the factors ``names`` (a
    matrix below its name, a vector on its line), then the reconstruction
    error; returns the element read."""
    import numpy as np

    g = _read_matrix_file(args.matrix)
    try:
        fac = factorize(g)
    except np.linalg.LinAlgError as exc:
        raise CliError(str(exc), COMPUTE_ERROR) from exc
    for name in names:
        factor = getattr(fac, name)
        if factor.ndim == 1:
            print(f"{name} = " + " ".join(_fmt(x, args.digits) for x in factor))
            continue
        print(f"{name} =")
        for row in factor:
            print("  " + " ".join(_fmt(x, args.digits) for x in row))
    err = float(np.linalg.norm(fac.reconstruct() - g.entries))
    print(f"reconstruction_error = {_fmt(err, 3)}")
    return g


def cmd_iwasawa(args) -> int:
    from . import liegroup as lg

    _print_factorization(args, lg.iwasawa, ("k", "h", "nu"))
    return 0


def cmd_kak(args) -> int:
    from . import liegroup as lg

    g = _print_factorization(args, lg.kak, ("k1", "a_log", "k2"))
    print(f"regular = {'true' if lg.is_regular(g) else 'false'}")
    return 0


def _check_t_range(args) -> None:
    if not 0 < args.tmin < args.tmax < math.inf:
        raise CliError("need 0 < --tmin < --tmax, both finite")


def _spectral_ts(args) -> np.ndarray:
    import numpy as np

    if args.tsteps < 2:
        raise CliError("--tsteps must be at least 2")
    _check_t_range(args)
    return np.geomspace(args.tmin, args.tmax, args.tsteps)


def cmd_spherical(args) -> int:
    import numpy as np

    from . import spherical as sph

    points = _parse_list(args.points, float) if args.points else None
    if args.ygrid:
        try:
            lo, hi, count = args.ygrid.split(":")
            points = list(np.linspace(float(lo), float(hi), int(count)))
        except ValueError:
            raise CliError("--ygrid must be lo:hi:count") from None
    if not points:
        raise CliError("one of --points or --ygrid is required")
    ts = _spectral_ts(args)
    digits = args.digits
    # sl3 rows carry both chamber coordinates; printed once every row is computed
    lines = ["t,Y,Y2,re,im,err" if args.group == "sl3" else "t,Y,re,im,err"]

    def emit(t, ys, value, err):
        lines.append(",".join([_fmt(t, digits), *(_fmt(y, digits) for y in ys),
                               _fmt(value.real, digits), _fmt(value.imag, digits),
                               _fmt(err, 3)]))

    try:
        if args.group == "sl2":
            xi = _parse_list(args.xi, float)[0] if args.xi else 0.5
            eta = _parse_list(args.eta, float)[0] if args.eta else 0.0
            for y in points:
                config = sph._mehler_config(float(ts[-1]) * abs(xi) + abs(eta) + 1.0, y)
                for t in ts:
                    lam = sph.SpectralParameter.rank1(t * xi, eta)
                    value = sph.spherical_sl2(lam, y, config)
                    emit(t, (y,), value.value, value.estimated_error)
        elif args.group == "sl3":
            xi = _parse_list(args.xi, float) if args.xi else [0.5, 0.5]
            eta = _parse_list(args.eta, float) if args.eta else [0.0, 0.0]
            if len(xi) != 2 or len(eta) != 2:
                raise CliError("sl3 needs two --xi and two --eta coordinates")
            if len(points) % 2 != 0:
                raise CliError("sl3 --points must be Y1,Y2 pairs")
            pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
            for y1, y2 in pairs:
                for t in ts:
                    lam = sph.SpectralParameter.rank2((t * xi[0], t * xi[1]), tuple(eta))
                    value = sph.spherical_sl3(lam, (y1, y2))
                    emit(t, (y1, y2), value.value, value.estimated_error)
        elif args.group == "su2":
            for y in points:
                if not 0.0 < y < math.pi:
                    raise CliError("su2 points must lie in (0, pi)")
                for n in dict.fromkeys(int(round(t)) for t in ts):  # whole, distinct degrees
                    value = sph._spherical_compact_su2(n, y)
                    emit(float(n), (y,), value.value, value.estimated_error)
        else:
            raise CliError(f"unknown group {args.group!r}")
    except sph.QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except FloatingPointError as exc:
        raise CliError(f"sl3 value out of float64 range: {exc}", COMPUTE_ERROR) from exc
    except ValueError as exc:  # a spectral value, degree or chamber point out of range
        raise CliError(str(exc)) from exc
    print("\n".join(lines))
    return 0


CSV_COLUMNS = ("t", "Y", "re", "im")


def _read_csv_rows(path: str) -> list[dict[str, float]]:
    """Rows of a spherical CSV with finite numeric fields; the columns in
    ``CSV_COLUMNS`` are required."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [(number, line.strip()) for number, line in enumerate(handle, start=1)
                     if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise CliError("empty input file")
    header = lines[0][1].split(",")
    for name in CSV_COLUMNS:
        if name not in header:
            raise CliError(f"{path}: missing column {name!r}")
    rows = []
    for number, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise CliError(f"ragged CSV row: {line!r}")
        row = {}
        for name, text in zip(header, parts):
            try:
                row[name] = float(text)
            except ValueError:
                raise CliError(f"{path}: line {number}: non-numeric {name!r} "
                               f"value {text!r}") from None
            if not math.isfinite(row[name]):
                raise CliError(f"{path}: line {number}: non-finite {name!r} value {text!r}")
        rows.append(row)
    return rows


def cmd_decay(args) -> int:
    from . import asymptotics as asy

    rows = _read_csv_rows(args.input)
    # one fit per chamber point; sl3 rows carry a second coordinate Y2
    names = ["Y", "Y2"] if rows and "Y2" in rows[0] else ["Y"]
    points = sorted({tuple(row[name] for name in names) for row in rows})
    status = 0
    for point in points:
        label = " ".join(f"{name}={_fmt(y, 6)}" for name, y in zip(names, point))
        samples = sorted(
            (row["t"], math.hypot(row["re"], row["im"]))
            for row in rows if tuple(row[name] for name in names) == point
        )
        try:
            fit = asy.decay_fit(samples)
        except ValueError as exc:
            print(f"{label}: error: {exc}", file=sys.stderr)
            status = COMPUTE_ERROR
            continue
        print(f"{label} slope={_fmt(fit.slope, 6)} "
              f"intercept={_fmt(fit.intercept, 6)} r2={_fmt(fit.r_squared, 6)}")
    return status


def cmd_holder(args) -> int:
    import numpy as np

    from . import asymptotics as asy

    rows = _read_csv_rows(args.input)
    if rows and "Y2" in rows[0]:
        raise CliError("holder needs one chamber coordinate; the input has a Y2 column")
    ts = sorted({row["t"] for row in rows})
    grid = np.array(sorted({row["Y"] for row in rows}))
    family = {}
    for t in ts:
        sub = sorted(((row["Y"], complex(row["re"], row["im"]))
                      for row in rows if row["t"] == t), key=lambda pair: pair[0])
        if [y for y, _ in sub] != grid.tolist():  # each Y exactly once
            raise CliError("input is not a complete t x Y grid")
        family[t] = np.array([abs(v) if args.magnitude else v.real for _, v in sub])
    for alpha in _parse_list(args.alpha, float):
        try:
            report = asy.holder_estimate(family, grid, 0, alpha, threshold=args.threshold)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        quotients = " ".join(_fmt(q, 6) for q in report.sup_quotients)
        # the ratio is infinite when the first member's sup quotient is 0
        ratio = "unbounded" if math.isinf(report.growth_ratio) else _fmt(report.growth_ratio, 6)
        print(f"alpha={_fmt(alpha, 6)} verdict={report.verdict} "
              f"growth_ratio={ratio} sup_quotients={quotients}")
    return 0


def cmd_statphase(args) -> int:
    from . import asymptotics as asy

    _check_t_range(args)
    ts = []
    t = args.tmin
    while t <= args.tmax + 1e-9:
        ts.append(int(round(t)))
        t *= 2
    ts = list(dict.fromkeys(ts))  # two steps can round to the same whole t
    if len(ts) < 2:
        raise CliError("need at least two dyadic steps between --tmin and --tmax")
    if ts[0] == 0:
        raise CliError(f"--tmin {args.tmin} rounds to t = 0; the steps need whole t >= 1")
    if args.group == "su2" and not 0.0 < args.Y < math.pi:
        raise CliError("su2 --Y must lie in (0, pi)")
    try:
        rows = asy.statphase_rows(args.group, args.Y, ts, args.xi)
    except ValueError as exc:  # a spectral value or chamber point out of range
        raise CliError(str(exc)) from exc
    print("t,quad_re,quad_im,lead_re,lead_im,abs_err")
    for t, quad, lead in rows:
        parts = (_fmt(x, args.digits) for x in (quad.real, quad.imag, lead.real, lead.imag))
        print(",".join([str(t), *parts, _fmt(abs(quad - lead), 6)]))
    return 0


def cmd_expsum(args) -> int:
    from . import asymptotics as asy

    fx = _parse_list(args.fx, complex)
    fy = _parse_list(args.fy, complex)
    ux = _parse_list(args.ux, float)
    uy = _parse_list(args.uy, float)
    try:
        mean = asy.exp_sum_separation(fx, fy, ux, uy, args.m, args.N)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except FloatingPointError as exc:
        raise CliError(f"exponential sum out of float64 range: {exc}", COMPUTE_ERROR) from exc
    print(_fmt(mean, args.digits))
    return 0


def cmd_selftest(args) -> int:
    from . import accept

    only = None
    if args.only:
        try:
            only = [int(tok) for tok in args.only.split(",")]
        except ValueError:
            raise CliError("--only takes a comma list of criterion numbers") from None
    try:
        results = accept.run_all(only=only, progress=print)
    except accept.CriterionNumberError as exc:
        raise CliError(f"--only: {exc}") from exc
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    for r in failed:
        print(f"criterion {r.index} failed: {r.failure}")
    return COMPUTE_ERROR if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, ``sphreg <verb>: error: ...``, and exit 2;
    the verbs' parsers and ``python -m sphreg.accept``'s are of this class too."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphreg",
        description="Regularity invariant of semisimple Lie groups and "
                    "spherical-function asymptotics.",
    )
    parser.add_argument("--digits", type=int, default=17,
                        help="significant digits for floating output")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_system_args(p):
        p.add_argument("--family", required=True,
                       choices=("A", "B", "C", "D", "BC", "G2", "F4", "E6", "E7", "E8"))
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--mult", required=True,
                       help="comma list class:int, e.g. medium:2,short:2,long:1")

    p = sub.add_parser("kappa", help="exact regularity invariant of one system")
    add_system_args(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("table", help="reproduce the classification table")
    p.add_argument("--catalog", default=None, help="path or 'default'")
    p.add_argument("--format", choices=("csv", "pretty"), default="pretty")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("weights", help="fundamental weights and their root counts")
    add_system_args(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("region", help="membership in the bounded-spectrum hull")
    add_system_args(p)
    p.add_argument("--eta", required=True, help="comma list of rationals")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("iwasawa", help="orthogonal x abelian x unipotent factors")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_iwasawa)

    p = sub.add_parser("kak", help="polar-chamber factors")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_kak)

    p = sub.add_parser("spherical", help="CSV sweep of spherical values")
    p.add_argument("--group", choices=("sl2", "sl3", "su2"), required=True)
    p.add_argument("--xi", default=None, help="spectral direction (comma list)")
    p.add_argument("--eta", default=None, help="imaginary part (comma list)")
    p.add_argument("--points", default=None, help="comma list of chamber points")
    p.add_argument("--ygrid", default=None, help="uniform grid lo:hi:count")
    p.add_argument("--tmin", type=float, default=10.0)
    p.add_argument("--tmax", type=float, default=1000.0)
    p.add_argument("--tsteps", type=int, default=16)
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("decay", help="power-law fit of a spherical CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("holder", help="Holder report from a spherical CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", required=True, help="comma list of exponents")
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--magnitude", action="store_true",
                   help="use |value| instead of the real part")
    p.set_defaults(func=cmd_holder)

    p = sub.add_parser("statphase", help="leading-term comparison CSV")
    p.add_argument("--group", choices=("sl2", "su2"), required=True)
    p.add_argument("--xi", type=float, default=0.5)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--tmin", type=float, default=50.0)
    p.add_argument("--tmax", type=float, default=1600.0)
    p.set_defaults(func=cmd_statphase)

    p = sub.add_parser("expsum", help="Cesaro mean of an exponential-sum difference")
    p.add_argument("--fx", required=True)
    p.add_argument("--fy", required=True)
    p.add_argument("--ux", required=True)
    p.add_argument("--uy", required=True)
    p.add_argument("-m", type=int, default=0)
    p.add_argument("-N", type=int, required=True)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", default=None, help="comma list of criterion numbers")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.digits < 0:
        parser.error(f"argument --digits: must be nonnegative, got {args.digits}")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
