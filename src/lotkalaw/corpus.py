"""Bibliographic records and author-productivity distributions.

Two record formats are supported:

``pipe``
    One publication per line, three ``|``-separated columns::

        P1|2005|Smith J; Jones K

    Column 1 is an opaque non-empty identifier, column 2 a positive
    integer year, column 3 the ordered author list separated by ``;``.
    Author names are cleaned by collapsing runs of whitespace; empty
    name slots are dropped.

``jsonl``
    One JSON object per line with keys ``id`` (non-empty string),
    ``year`` (positive integer) and ``authors`` (non-empty list of
    strings). This is what :func:`dump_records` writes, and parsing its
    output reproduces the original records exactly.

Distribution files are comma-separated ``x,y`` rows with an optional
``x,y`` header line: ``x`` is a productivity level (papers per author),
``y`` the number of authors observed at exactly that level. Zero counts
are omitted, never written as rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = [
    "CountingMethod",
    "PublicationRecord",
    "ProductivityDistribution",
    "normalize_author",
    "parse_records",
    "dump_records",
    "count_productivity",
    "load_distribution",
    "dump_distribution",
]


class CountingMethod(str, Enum):
    """How a record's publication credit is assigned to its authors."""

    COMPLETE = "complete"
    STRAIGHT = "straight"


def normalize_author(name: str) -> str:
    """Collapse internal whitespace and strip the ends of an author name."""
    return " ".join(name.split())


@dataclass(frozen=True)
class PublicationRecord:
    """One publication: an id, a year and the ordered author list."""

    id: str
    year: int
    authors: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "authors", tuple(self.authors))
        if not self.id:
            raise DataError("record id must be a non-empty string")
        if not isinstance(self.year, int) or isinstance(self.year, bool) or self.year <= 0:
            raise DataError(f"record {self.id!r}: year must be a positive integer")
        if not self.authors:
            raise DataError(f"record {self.id!r}: author list is empty")


@dataclass(frozen=True)
class ProductivityDistribution:
    """Frequency table of author productivity.

    ``points`` holds ``(x, y)`` pairs with strictly increasing positive
    ``x`` and positive ``y``; gaps in ``x`` mean zero authors there.
    ``provenance`` says where the table came from (loaded file, counted
    corpus, synthetic draw) and never affects any computation.

    Built once at construction: the read-only int64 columns ``xs`` and
    ``ys``, ``total_authors`` (sum of y: how many distinct authors were
    tallied) and ``total_contributions`` (sum of x*y: how many credits
    the tallied authors hold together).
    """

    points: tuple[tuple[int, int], ...]
    provenance: str = "loaded"
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ys: np.ndarray = field(init=False, repr=False, compare=False)
    total_authors: int = field(init=False, repr=False, compare=False)
    total_contributions: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((int(x), int(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DataError("distribution has no rows")
        prev = 0
        for x, y in pts:
            if x <= prev:
                raise DataError(f"x values must be strictly increasing and >= 1, got {x}")
            if y < 1:
                raise DataError(f"count for x={x} must be >= 1; omit zero rows")
            prev = x
        xs = np.array([x for x, _ in pts], dtype=np.int64)
        ys = np.array([y for _, y in pts], dtype=np.int64)
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "total_authors", int(ys.sum()))
        object.__setattr__(self, "total_contributions", int((xs * ys).sum()))

    def to_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "provenance": self.provenance,
            "total_authors": self.total_authors,
            "total_contributions": self.total_contributions,
        }


# ---------------------------------------------------------------------------
# record parsing

def _decode(data: bytes | str) -> str:
    """Text of a UTF-8 input; a leading byte order mark is dropped."""
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not valid UTF-8: {exc}") from None
    return data


def _clean_authors(raw_names: Iterable[str], lineno: int, rec_id: str) -> tuple[str, ...]:
    names = tuple(n for n in (normalize_author(s) for s in raw_names) if n)
    if not names:
        raise DataError(f"line {lineno}: record {rec_id!r} has no authors")
    return names


def _parse_pipe_line(line: str, lineno: int) -> PublicationRecord:
    parts = line.split("|")
    if len(parts) != 3:
        raise DataError(
            f"line {lineno}: expected 3 '|'-separated columns (id|year|authors), got {len(parts)}"
        )
    rec_id = parts[0].strip()
    if not rec_id:
        raise DataError(f"line {lineno}: empty record id")
    year_text = parts[1].strip()
    try:
        year = int(year_text)
    except ValueError:
        raise DataError(f"line {lineno}: year {year_text!r} is not an integer") from None
    if year <= 0:
        raise DataError(f"line {lineno}: year must be positive, got {year}")
    return PublicationRecord(rec_id, year, _clean_authors(parts[2].split(";"), lineno, rec_id))


def _parse_jsonl_line(line: str, lineno: int) -> PublicationRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: expected a JSON object")
    missing = {"id", "year", "authors"} - obj.keys()
    if missing:
        raise DataError(f"line {lineno}: missing keys {sorted(missing)}")
    rec_id = obj["id"]
    if not isinstance(rec_id, str) or not rec_id:
        raise DataError(f"line {lineno}: id must be a non-empty string")
    year = obj["year"]
    if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
        raise DataError(f"line {lineno}: year must be a positive integer")
    authors = obj["authors"]
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise DataError(f"line {lineno}: authors must be a list of strings")
    return PublicationRecord(rec_id, year, _clean_authors(authors, lineno, rec_id))


def parse_records(data: bytes | str, fmt: str = "pipe") -> list[PublicationRecord]:
    """Parse a record file; empty input yields an empty list.

    Malformed rows raise :class:`DataError` naming the offending line;
    a duplicated id names both lines involved.
    """
    if fmt not in ("pipe", "jsonl"):
        raise DataError(f"unknown record format {fmt!r} (expected 'pipe' or 'jsonl')")
    parse_line = _parse_pipe_line if fmt == "pipe" else _parse_jsonl_line
    records: list[PublicationRecord] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(_decode(data).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        rec = parse_line(line, lineno)
        if rec.id in seen:
            raise DataError(
                f"line {lineno}: duplicate record id {rec.id!r} (first seen on line {seen[rec.id]})"
            )
        seen[rec.id] = lineno
        records.append(rec)
    return records


def dump_records(records: Iterable[PublicationRecord]) -> str:
    """Serialize records to JSON lines; `parse_records(..., 'jsonl')` round-trips."""
    lines = []
    for rec in records:
        obj = {"authors": list(rec.authors), "id": rec.id, "year": rec.year}
        lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# counting

def count_productivity(
    records: list[PublicationRecord],
    method: CountingMethod | str = CountingMethod.COMPLETE,
) -> ProductivityDistribution:
    """Tally papers per author, then invert to a frequency table.

    Complete counting credits every listed author of a record with one
    contribution (a name listed twice on one record is credited twice,
    so total contributions always equal the summed author-list lengths).
    Straight counting credits only the first listed author.
    """
    method = CountingMethod(method)
    if not records:
        raise DataError("empty corpus: no records to count")
    tally: Counter[str] = Counter()
    for rec in records:
        if method is CountingMethod.STRAIGHT:
            tally[rec.authors[0]] += 1
        else:
            for name in rec.authors:
                tally[name] += 1
    freq = Counter(tally.values())
    points = tuple(sorted(freq.items()))
    return ProductivityDistribution(points, provenance=f"counted:{method.value}")


# ---------------------------------------------------------------------------
# distribution files

def load_distribution(data: bytes | str) -> ProductivityDistribution:
    """Parse a ``x,y`` distribution file. Rows may arrive unsorted."""
    rows: list[tuple[int, int]] = []
    seen_x: dict[int, int] = {}
    first_content = True
    for lineno, raw in enumerate(_decode(data).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if first_content:
            first_content = False
            if line.replace(" ", "").lower() == "x,y":
                continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected 'x,y', got {line!r}")
        try:
            x, y = int(parts[0].strip()), int(parts[1].strip())
        except ValueError:
            raise DataError(f"line {lineno}: non-integer value in {line!r}") from None
        if x < 1:
            raise DataError(f"line {lineno}: x must be >= 1, got {x}")
        if y < 1:
            raise DataError(f"line {lineno}: count must be >= 1, got {y}; omit zero rows")
        if x in seen_x:
            raise DataError(
                f"line {lineno}: duplicate x={x} (first seen on line {seen_x[x]})"
            )
        seen_x[x] = lineno
        rows.append((x, y))
    if not rows:
        raise DataError("distribution file has no rows")
    rows.sort()
    return ProductivityDistribution(tuple(rows), provenance="loaded")


def dump_distribution(dist: ProductivityDistribution) -> str:
    """Serialize a distribution to CSV; `load_distribution` round-trips."""
    lines = ["x,y"] + [f"{x},{y}" for x, y in dist.points]
    return "".join(line + "\n" for line in lines)
