"""Classification catalog of noncompact simple Lie groups and their restricted
root data.

Each entry records a Cartan label, integer parameters, the restricted root
family with rank, a multiplicity assignment per length class, and the
expected value of the regularity invariant evaluated from the classical
closed-form table.  The multiplicities are shipped as data (they come from
the classification literature, not from a computation in this package); the
expected-value column is the cross check that keeps that data falsifiable.

The text format is line oriented, one ``[entry]`` block per entry::

    [entry]
    id = AIII-p2-q3
    label = SU(2,3)
    cartan = AIII
    params = p:2 q:3
    family = BC rank:2
    mult = medium:2 short:2 long:1
    kappa = 7/2

Rationals are serialized as ``p/q`` (integers without the slash).  Unknown
keys are an error.
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import rootsys
from .rootsys import RootSystem, RootSystemError

__all__ = [
    "CatalogError",
    "CatalogFile",
    "SymmetricSpaceEntry",
    "builtin_catalog",
    "default_catalog_text",
    "instantiate",
    "kappa_table",
    "load_catalog",
    "product_kappa",
    "serialize_catalog",
]


class CatalogError(ValueError):
    """Malformed catalog text or invalid entry data."""


class SymmetricSpaceEntry(NamedTuple):
    id: str
    cartan_label: str
    group_name: str
    params: tuple[tuple[str, int], ...]
    family: str
    rank: int
    multiplicities: tuple[tuple[str, int], ...]
    expected_kappa: Fraction

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def mult_dict(self) -> dict[str, int]:
        return dict(self.multiplicities)


class CatalogFile(NamedTuple):
    format_version: int
    entries: tuple[SymmetricSpaceEntry, ...]


def instantiate(entry: SymmetricSpaceEntry) -> RootSystem:
    """Root system realizing a catalog entry."""
    try:
        return rootsys.build_root_system(entry.family, entry.rank, entry.mult_dict())
    except RootSystemError as exc:
        raise CatalogError(f"entry {entry.id}: {exc}") from exc


def kappa_table(catalog: CatalogFile) -> list[tuple[str, str, int, Fraction, Fraction, bool]]:
    """Rows (id, group, rank, computed, expected, match), in catalog order.

    A row whose instantiation fails is flagged with computed ``None`` rather
    than aborting the table.
    """
    rows = []
    for entry in catalog.entries:
        try:
            computed = rootsys.kappa(instantiate(entry))
        except CatalogError:
            rows.append((entry.id, entry.group_name, entry.rank, None, entry.expected_kappa, False))
            continue
        rows.append(
            (
                entry.id,
                entry.group_name,
                entry.rank,
                computed,
                entry.expected_kappa,
                computed == entry.expected_kappa,
            )
        )
    return rows


def product_kappa(entries: Iterable[SymmetricSpaceEntry], compact_flags: Iterable[bool]) -> Fraction:
    """Invariant of a product group: the minimum over noncompact factors."""
    values = []
    for entry, compact in zip(entries, compact_flags, strict=True):
        if not compact:
            values.append(rootsys.kappa(instantiate(entry)))
    if not values:
        raise CatalogError("no noncompact factor: the invariant is undefined")
    return min(values)


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

def _entry(id_, cartan, label, params, family, rank, mult, expected) -> SymmetricSpaceEntry:
    return SymmetricSpaceEntry(
        id=id_,
        cartan_label=cartan,
        group_name=label,
        params=tuple(sorted(params.items())),
        family=family,
        rank=rank,
        multiplicities=tuple(mult.items()),
        expected_kappa=Fraction(expected),
    )


def builtin_catalog() -> CatalogFile:
    """The shipped classification: every family instantiated at small
    parameters (complex groups at ranks 1 to 8; classical real forms with
    parameters up to 6; all exceptional real forms)."""
    entries: list[SymmetricSpaceEntry] = []

    # complex simple groups; every restricted multiplicity equals 2
    for n in range(2, 10):
        entries.append(_entry(
            f"complex-A-n{n}", "complex-A", f"SL({n},C)", {"n": n},
            "A", n - 1, {"all": 2}, n - 1))
    for n in range(1, 9):
        entries.append(_entry(
            f"complex-B-n{n}", "complex-B", f"SO({2 * n + 1},C)", {"n": n},
            "B", n, {"short": 2, "long": 2}, 2 * n - 1))
    for n in range(1, 9):
        entries.append(_entry(
            f"complex-C-n{n}", "complex-C", f"Sp({2 * n},C)", {"n": n},
            "C", n, {"short": 2, "long": 2}, 2 * n - 1))
    for n in range(2, 9):
        expected = {2: 1, 3: 3}.get(n, 2 * n - 2)
        entries.append(_entry(
            f"complex-D-n{n}", "complex-D", f"SO({2 * n},C)", {"n": n},
            "D", n, {"all": 2}, expected))
    entries.append(_entry("complex-G2", "complex-G2", "G2(C)", {}, "G2", 2,
                          {"short": 2, "long": 2}, 5))
    entries.append(_entry("complex-F4", "complex-F4", "F4(C)", {}, "F4", 4,
                          {"short": 2, "long": 2}, 15))
    entries.append(_entry("complex-E6", "complex-E6", "E6(C)", {}, "E6", 6, {"all": 2}, 16))
    entries.append(_entry("complex-E7", "complex-E7", "E7(C)", {}, "E7", 7, {"all": 2}, 27))
    entries.append(_entry("complex-E8", "complex-E8", "E8(C)", {}, "E8", 8, {"all": 2}, 57))

    # split and non-split real forms, classical series
    for n in range(2, 7):
        entries.append(_entry(
            f"AI-n{n}", "AI", f"SL({n},R)", {"n": n},
            "A", n - 1, {"all": 1}, Fraction(n - 1, 2)))
    for n in range(2, 7):
        entries.append(_entry(
            f"AII-n{n}", "AII", f"SU*({2 * n})", {"n": n},
            "A", n - 1, {"all": 4}, 2 * (n - 1)))

    for p in range(1, 7):
        for q in range(p, 7):
            if p + q < 3:
                continue
            expected = 2 if (p, q) == (2, 2) else Fraction(2 * (p + q) - 3, 2)
            if p == q:
                family, mult = "C", {"short": 2, "long": 1}
            else:
                family, mult = "BC", {"medium": 2, "short": 2 * (q - p), "long": 1}
            entries.append(_entry(
                f"AIII-p{p}-q{q}", "AIII", f"SU({p},{q})", {"p": p, "q": q},
                family, p, mult, expected))

    for p in range(1, 7):
        for q in range(p, 7):
            if p + q < 3:
                continue
            if (p, q) == (2, 2):
                expected = Fraction(1, 2)
            elif (p, q) == (3, 3):
                expected = Fraction(3, 2)
            else:
                expected = Fraction(p + q - 2, 2)
            if p == q:
                family, mult = "D", {"all": 1}
            else:
                family, mult = "B", {"short": q - p, "long": 1}
            entries.append(_entry(
                f"BDI-p{p}-q{q}", "BDI", f"SO0({p},{q})", {"p": p, "q": q},
                family, p, mult, expected))

    for n in range(1, 7):
        entries.append(_entry(
            f"CI-n{n}", "CI", f"Sp({2 * n},R)", {"n": n},
            "C", n, {"short": 1, "long": 1}, Fraction(2 * n - 1, 2)))

    for p in range(1, 7):
        for q in range(p, 7):
            expected = 5 if (p, q) == (2, 2) else Fraction(4 * (p + q) - 5, 2)
            if p == q:
                family, mult = "C", {"short": 4, "long": 3}
            else:
                family, mult = "BC", {"medium": 4, "short": 4 * (q - p), "long": 3}
            entries.append(_entry(
                f"CII-p{p}-q{q}", "CII", f"Sp({p},{q})", {"p": p, "q": q},
                family, p, mult, expected))

    for n in range(1, 7):
        expected = Fraction(n * (2 * n - 1), 2) if n <= 3 else Fraction(8 * n - 7, 2)
        entries.append(_entry(
            f"DIII-even-n{n}", "DIII-even", f"SO*({4 * n})", {"n": n},
            "C", n, {"short": 4, "long": 1}, expected))
    for n in range(1, 7):
        entries.append(_entry(
            f"DIII-odd-n{n}", "DIII-odd", f"SO*({4 * n + 2})", {"n": n},
            "BC", n, {"medium": 4, "short": 4, "long": 1}, Fraction(8 * n - 3, 2)))

    # exceptional real forms
    entries.append(_entry("EI", "EI", "E6(6)", {}, "E6", 6, {"all": 1}, 8))
    entries.append(_entry("EII", "EII", "E6(2)", {}, "F4", 4,
                          {"short": 2, "long": 1}, Fraction(21, 2)))
    entries.append(_entry("EIII", "EIII", "E6(-14)", {}, "BC", 2,
                          {"medium": 6, "short": 8, "long": 1}, Fraction(21, 2)))
    entries.append(_entry("EIV", "EIV", "E6(-26)", {}, "A", 2, {"all": 8}, 8))
    entries.append(_entry("EV", "EV", "E7(7)", {}, "E7", 7, {"all": 1}, Fraction(27, 2)))
    entries.append(_entry("EVI", "EVI", "E7(-5)", {}, "F4", 4,
                          {"short": 4, "long": 1}, Fraction(33, 2)))
    entries.append(_entry("EVII", "EVII", "E7(-24)", {}, "C", 3,
                          {"short": 8, "long": 1}, Fraction(27, 2)))
    entries.append(_entry("EVIII", "EVIII", "E8(8)", {}, "E8", 8, {"all": 1}, Fraction(57, 2)))
    entries.append(_entry("EIX", "EIX", "E8(-24)", {}, "F4", 4,
                          {"short": 8, "long": 1}, Fraction(57, 2)))
    entries.append(_entry("FI", "FI", "F4(4)", {}, "F4", 4,
                          {"short": 1, "long": 1}, Fraction(15, 2)))
    entries.append(_entry("FII", "FII", "F4(-20)", {}, "BC", 1,
                          {"short": 8, "long": 7}, Fraction(15, 2)))
    entries.append(_entry("G", "G", "G2(2)", {}, "G2", 2,
                          {"short": 1, "long": 1}, Fraction(5, 2)))

    _validate_entries(entries)
    return CatalogFile(format_version=1, entries=tuple(entries))


def _validate_entries(entries: Iterable[SymmetricSpaceEntry]) -> None:
    seen = set()
    for entry in entries:
        if entry.id in seen:
            raise CatalogError(f"duplicate id {entry.id!r}")
        seen.add(entry.id)
        if entry.rank < 1:
            raise CatalogError(f"entry {entry.id}: rank must be positive")
        for cls, m in entry.multiplicities:
            if m <= 0:
                raise CatalogError(f"entry {entry.id}: invalid multiplicity {m} for {cls!r}")
        if entry.expected_kappa <= 0:
            raise CatalogError(f"entry {entry.id}: expected value must be positive")
        if entry.expected_kappa.denominator not in (1, 2):
            raise CatalogError(f"entry {entry.id}: expected value must be a half integer")


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_ENTRY_KEYS = ("id", "label", "cartan", "params", "family", "mult", "kappa")


def serialize_catalog(catalog: CatalogFile) -> str:
    out = io.StringIO()
    out.write(f"version = {catalog.format_version}\n")
    for entry in catalog.entries:
        out.write("\n[entry]\n")
        out.write(f"id = {entry.id}\n")
        out.write(f"label = {entry.group_name}\n")
        out.write(f"cartan = {entry.cartan_label}\n")
        params = " ".join(f"{k}:{v}" for k, v in entry.params)
        out.write(f"params = {params}\n")
        out.write(f"family = {entry.family} rank:{entry.rank}\n")
        mult = " ".join(f"{k}:{v}" for k, v in entry.multiplicities)
        out.write(f"mult = {mult}\n")
        out.write(f"kappa = {entry.expected_kappa}\n")
    return out.getvalue()


def _parse_kv_items(text: str, lineno: int, what: str) -> list[tuple[str, int]]:
    items = []
    for token in text.split():
        if ":" not in token:
            raise CatalogError(f"line {lineno}: malformed {what} token {token!r}")
        key, _, value = token.partition(":")
        try:
            items.append((key, int(value)))
        except ValueError:
            raise CatalogError(f"line {lineno}: non-integer {what} value {token!r}") from None
    return items


def load_catalog(source: str) -> CatalogFile:
    """Parse catalog text into a validated ``CatalogFile``."""
    version = 1
    entries: list[SymmetricSpaceEntry] = []
    current: dict[str, object] | None = None
    current_line = 0

    def finish(lineno: int) -> None:
        nonlocal current
        if current is None:
            return
        missing = [k for k in _ENTRY_KEYS if k not in current]
        if missing:
            raise CatalogError(
                f"line {lineno}: entry starting at line {current_line} "
                f"missing keys {missing}"
            )
        family_spec = str(current["family"]).split()
        if len(family_spec) != 2 or not family_spec[1].startswith("rank:"):
            raise CatalogError(f"line {lineno}: malformed family {current['family']!r}")
        try:
            rank = int(family_spec[1][5:])
        except ValueError:
            raise CatalogError(f"line {lineno}: malformed rank in {current['family']!r}") from None
        try:
            expected = Fraction(str(current["kappa"]))
        except (ValueError, ZeroDivisionError):
            raise CatalogError(f"line {lineno}: malformed kappa {current['kappa']!r}") from None
        entries.append(
            SymmetricSpaceEntry(
                id=str(current["id"]),
                cartan_label=str(current["cartan"]),
                group_name=str(current["label"]),
                params=tuple(_parse_kv_items(str(current["params"]), current_line, "params")),
                family=family_spec[0],
                rank=rank,
                multiplicities=tuple(_parse_kv_items(str(current["mult"]), current_line, "mult")),
                expected_kappa=expected,
            )
        )
        current = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[entry]":
            finish(lineno)
            current = {}
            current_line = lineno
            continue
        if "=" not in line:
            raise CatalogError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if current is None:
            if key == "version":
                try:
                    version = int(value)
                except ValueError:
                    raise CatalogError(f"line {lineno}: malformed version {value!r}") from None
                continue
            raise CatalogError(f"line {lineno}: key {key!r} outside an [entry] block")
        if key not in _ENTRY_KEYS:
            raise CatalogError(f"line {lineno}: unknown key {key!r}")
        if key in current:
            raise CatalogError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
    finish(len(source.splitlines()))

    _validate_entries(entries)
    return CatalogFile(format_version=version, entries=tuple(entries))


def default_catalog_text() -> str:
    """Text of the default catalog, serialized from ``builtin_catalog()``."""
    return serialize_catalog(builtin_catalog())
