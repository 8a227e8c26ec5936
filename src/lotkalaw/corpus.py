"""Bibliographic records and author-productivity distributions.

Two record formats are supported:

``pipe``
    One publication per line, three ``|``-separated columns::

        P1|2005|Smith J; Jones K

    Column 1 is an opaque non-empty identifier, column 2 a positive
    integer year, column 3 the ordered author list separated by ``;``.

``jsonl``
    One JSON object per line with keys ``id`` (non-empty string),
    ``year`` (positive integer) and ``authors`` (non-empty list of
    strings). This is what :func:`dump_records` writes, and parsing its
    output reproduces the original records exactly.

Every record, parsed or built by hand, cleans its own author names:
:func:`normalize_author` collapses runs of whitespace and empty name
slots are dropped, so the same names count as one author either way.

Distribution files are comma-separated ``x,y`` rows with an optional
``x,y`` header line: ``x`` is a productivity level (papers per author),
``y`` the number of authors observed at exactly that level. Zero counts
are omitted, never written as rows.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = [
    "CountingMethod",
    "PublicationRecord",
    "ProductivityDistribution",
    "normalize_author",
    "parse_records",
    "read_input",
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
    """One publication: an id, a year and the ordered author list.

    Construction is the one check of the fields, parsed records included:
    a non-empty string id, a positive integer year and an iterable (not
    a bare string) of string names, cleaned with :func:`normalize_author`
    into a tuple with empty slots dropped; at least one must be left.
    """

    id: str
    year: int
    authors: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise DataError(f"record id must be a string, got {self.id!r}")
        if not self.id:
            raise DataError("empty record id")
        year = self.year
        if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
            raise DataError(f"record {self.id!r}: year must be a positive integer, got {year!r}")
        if isinstance(self.authors, str):
            raise DataError(f"record {self.id!r}: authors must be a list of names, not a string")
        names = tuple(self.authors)
        for name in names:
            if not isinstance(name, str):
                raise DataError(f"record {self.id!r}: author {name!r} is not a string")
        authors = tuple(filter(None, map(normalize_author, names)))
        if not authors:
            raise DataError(f"record {self.id!r} has no authors")
        object.__setattr__(self, "authors", authors)


@dataclass(frozen=True)
class ProductivityDistribution:
    """Frequency table of author productivity.

    ``points`` holds whole ``(x, y)`` pairs, strictly increasing positive
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
        given = [tuple(p) for p in self.points]
        pts = tuple((int(x), int(y)) for x, y in given)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DataError("distribution has no rows")
        prev = 0
        for (x, y), (gx, gy) in zip(pts, given):
            if x != gx or y != gy:
                raise DataError(f"x and y must be whole numbers, got x={gx}, y={gy}")
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


def _parse_pipe_line(line: str) -> PublicationRecord:
    parts = line.split("|")
    if len(parts) != 3:
        raise DataError(f"expected 3 '|'-separated columns (id|year|authors), got {len(parts)}")
    year_text = parts[1].strip()
    try:
        year = int(year_text)
    except ValueError:
        raise DataError(f"year {year_text!r} is not an integer") from None
    return PublicationRecord(parts[0].strip(), year, parts[2].split(";"))


def _parse_jsonl_line(line: str) -> PublicationRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    missing = {"id", "year", "authors"} - obj.keys()
    if missing:
        raise DataError(f"missing keys {sorted(missing)}")
    authors = obj["authors"]
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise DataError("authors must be a list of strings")
    return PublicationRecord(obj["id"], obj["year"], authors)


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
        try:
            rec = parse_line(line)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if rec.id in seen:
            raise DataError(
                f"line {lineno}: duplicate record id {rec.id!r} (first seen on line {seen[rec.id]})"
            )
        seen[rec.id] = lineno
        records.append(rec)
    return records


def read_input(
    data: bytes | str, kind: str = "auto"
) -> list[PublicationRecord] | ProductivityDistribution:
    """Records or a distribution table, whichever ``data`` holds.

    ``kind`` is ``"pipe"``, ``"jsonl"``, ``"distribution"`` or ``"auto"``.
    Auto reads the first line that is not blank: ``{`` starts JSON
    lines, a ``|`` marks pipe records, and ``x,y`` or two integers
    start a table; anything else raises :class:`DataError`.
    """
    text = _decode(data)
    if kind == "auto":
        # up to the next newline, then to any line boundary: no full split
        first = re.search(r"\S[^\n]*", text)
        if first is None:
            raise DataError("input file is empty; pass --input-kind if this is intended")
        line = first.group().splitlines()[0].strip()
        if line.startswith("{"):
            kind = "jsonl"
        elif "|" in line:
            kind = "pipe"
        elif _is_header(line) or re.fullmatch(r"\d+,\d+", line.replace(" ", "")):
            kind = "distribution"
        else:
            raise DataError(
                f"cannot tell what kind of input {line[:40]!r} starts; pass --input-kind"
            )
    if kind == "distribution":
        return load_distribution(text)
    return parse_records(text, kind)


def dump_records(records: Iterable[PublicationRecord]) -> str:
    """Serialize records to JSON lines; `parse_records(..., 'jsonl')` round-trips."""
    lines = []
    for rec in records:
        obj = {"authors": list(rec.authors), "id": rec.id, "year": rec.year}
        lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
    text = "".join(line + "\n" for line in lines)
    # json.dumps leaves these unescaped, but parse_records' splitlines() ends a line there
    for char in "\x85\u2028\u2029":
        text = text.replace(char, f"\\u{ord(char):04x}")
    return text


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
    if method is CountingMethod.STRAIGHT:
        credited = (rec.authors[0] for rec in records)
    else:
        credited = chain.from_iterable(rec.authors for rec in records)
    freq = Counter(Counter(credited).values())
    points = tuple(sorted(freq.items()))
    return ProductivityDistribution(points, provenance=f"counted:{method.value}")


# ---------------------------------------------------------------------------
# distribution files

def _is_header(line: str) -> bool:
    """Whether a stripped line is the optional ``x,y`` distribution header."""
    return line.replace(" ", "").lower() == "x,y"


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
            if _is_header(line):
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
