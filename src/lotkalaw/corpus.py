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

:func:`parse_records` returns the records as the columns of a
:class:`Corpus`. Pipe text is checked one chunk of columns at a time
(about 2^20 characters of whole lines), with no Python call per line;
the per-line check runs only to name a fault. Every record, parsed or
built by hand, cleans its names: :func:`normalize_author` collapses
runs of whitespace and empty name slots are dropped, so the same names
count as one author either way.

Distribution files are comma-separated ``x,y`` rows with an optional
``x,y`` header line: ``x`` is a productivity level (papers per author),
``y`` the number of authors observed at exactly that level. Zero counts
are omitted, never written as rows.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring as _json_string
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = [
    "CountingMethod",
    "Corpus",
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


def _check_record(rid, year, authors) -> list[str]:
    """Cleaned names of a valid record; the one check of parsed and hand-built records."""
    if not isinstance(rid, str):
        raise DataError(f"record id must be a string, got {rid!r}")
    if not rid:
        raise DataError("empty record id")
    if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
        raise DataError(f"record {rid!r}: year must be a positive integer, got {year!r}")
    if year >= 2**63:
        raise DataError(f"record {rid!r}: year {year} does not fit in 64 bits")
    if isinstance(authors, str):
        raise DataError(f"record {rid!r}: authors must be a list of names, not a string")
    try:
        authors = authors if isinstance(authors, list) else list(authors)
    except TypeError:  # not iterable
        raise DataError(f"record {rid!r}: authors must be a list of names, got {authors!r}") from None
    try:  # normalize_author, with no Python call per name; str.split rejects a non-str
        names = list(filter(None, map(" ".join, map(str.split, authors))))
    except TypeError:
        bad = next(name for name in authors if not isinstance(name, str))
        raise DataError(f"record {rid!r}: author {bad!r} is not a string") from None
    if not names:
        raise DataError(f"record {rid!r} has no authors")
    return names


@dataclass(frozen=True)
class PublicationRecord:
    """One publication: an id, a year and the ordered author list.

    Construction is the check that parsing also runs: a non-empty string
    id, a positive year that fits in int64 and an iterable (not a bare
    string) of string names, cleaned with :func:`normalize_author` into a
    tuple with empty slots dropped; at least one must be left.
    """

    id: str
    year: int
    authors: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "authors", tuple(_check_record(self.id, self.year, self.authors)))


class Corpus(Sequence):
    """Publication records as columns, with no object per record.

    ``Corpus(records)`` takes :class:`PublicationRecord` values, each
    checked when it was made, and rejects a repeated id; text is read by
    :func:`parse_records`. ``ids`` lists the record ids, ``years`` and
    ``offsets`` are read-only int64, and record ``i``'s cleaned authors
    are ``names[offsets[i]:offsets[i + 1]]``; ``corpus[i]`` is a record.
    """

    def __init__(self, records: Iterable[PublicationRecord]) -> None:
        records = list(records)
        if not all(map(PublicationRecord.__instancecheck__, records)):
            raise TypeError("a Corpus is built from PublicationRecord values")
        ids = [rec.id for rec in records]
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate record id {Counter(ids).most_common(1)[0][0]!r}")
        self._set_columns(ids, [rec.year for rec in records],
                          [0, *accumulate(len(rec.authors) for rec in records)],
                          list(chain.from_iterable(rec.authors for rec in records)))

    @classmethod
    def _of_checked(cls, ids: list[str], years, offsets, names: list[str]) -> "Corpus":
        """A Corpus of columns whose records were checked as they were read."""
        corpus = cls.__new__(cls)
        corpus._set_columns(ids, years, offsets, names)
        return corpus

    def _set_columns(self, ids: list[str], years, offsets, names: list[str]) -> None:
        years, offsets = np.array(years, np.int64), np.array(offsets, np.int64)
        years.flags.writeable = offsets.flags.writeable = False
        self.ids, self.years, self.offsets, self.names = ids, years, offsets, names

    @classmethod
    def from_records(cls, records: Iterable[PublicationRecord]) -> "Corpus":
        """``Corpus(records)``, but a Corpus is returned as it is."""
        return records if isinstance(records, Corpus) else cls(records)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        start, end = self.offsets[i : i + 2].tolist()
        return PublicationRecord(self.ids[i], int(self.years[i]), self.names[start:end])

    def __eq__(self, other):
        if not isinstance(other, (list, Corpus)):
            return NotImplemented
        return list(self) == list(other)


_BOOLS = (bool, np.bool_)  # int() takes them, but a bool is no count


@dataclass(frozen=True)
class ProductivityDistribution:
    """Frequency table of author productivity.

    ``points`` holds whole ``(x, y)`` pairs, strictly increasing positive
    ``x`` and positive ``y``; gaps in ``x`` mean zero authors there. A
    whole float or a numpy row will do; a bool is refused.
    ``provenance`` says where the table came from (loaded file, counted
    corpus, synthetic draw) and never affects any computation.

    Built once at construction: the read-only int64 columns ``xs`` and
    ``ys``, ``total_authors`` (sum of y: how many distinct authors were
    tallied) and ``total_contributions`` (sum of x*y: how many credits
    the tallied authors hold together), both exact. A table whose sum of
    x*y reaches 2^63 raises :class:`DataError`.
    """

    points: tuple[tuple[int, int], ...]
    provenance: str = "loaded"
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ys: np.ndarray = field(init=False, repr=False, compare=False)
    total_authors: int = field(init=False, repr=False, compare=False)
    total_contributions: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts, prev, authors, contributions = [], 0, 0, 0
        try:
            rows = iter(self.points)
        except TypeError:
            raise DataError(f"distribution points must be an iterable of (x, y) pairs, "
                            f"got {self.points!r}") from None
        for row in rows:
            try:
                gx, gy = row
            except (TypeError, ValueError):  # not iterable, or not two items
                raise DataError(f"distribution row must be an (x, y) pair, got {row!r}") from None
            try:
                x, y = int(gx), int(gy)
            except (TypeError, ValueError, OverflowError):  # None, a string, NaN, infinity
                x = y = None
            if x is None or x != gx or y != gy or isinstance(gx, _BOOLS) or isinstance(gy, _BOOLS):
                raise DataError(f"x and y must be whole numbers, got x={gx}, y={gy}")
            if x <= prev:
                raise DataError(f"x values must be strictly increasing and >= 1, got {x}")
            if y < 1:
                raise DataError(f"count for x={x} must be >= 1; omit zero rows")
            authors, contributions = authors + y, contributions + x * y
            if contributions >= 2**63:  # it bounds x, y and authors too
                raise DataError(f"x and y must be whole numbers, got x={x}, y={y}, "
                                f"which take the sum of x*y to {contributions}, past 64 bits")
            pts.append((x, y))
            prev = x
        if not pts:
            raise DataError("distribution has no rows")
        object.__setattr__(self, "points", tuple(pts))
        xs, ys = np.array(pts, np.int64).T.copy()
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "total_authors", authors)
        object.__setattr__(self, "total_contributions", contributions)

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


def _content_lines(text: str):
    """``(line number from 1, stripped line)`` for each line of ``text`` that is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.strip():
            yield lineno, line


def _parse_pipe_line(line: str) -> tuple:
    parts = line.split("|")
    if len(parts) != 3:
        raise DataError(f"expected 3 '|'-separated columns (id|year|authors), got {len(parts)}")
    try:
        year = int(parts[1])  # int() ignores the surrounding whitespace itself
    except ValueError:
        raise DataError(f"year {parts[1].strip()!r} is not an integer") from None
    return parts[0].strip(), year, parts[2].split(";")


def _parse_jsonl_line(line: str) -> tuple:
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
    if not isinstance(authors, list) or not all(map(str.__instancecheck__, authors)):
        raise DataError("authors must be a list of strings")
    return obj["id"], obj["year"], authors


_CHUNK_CHARS = 1 << 20  # pipe text is checked about this many characters at a time
_LINE_END = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")  # where splitlines() cuts


def _pipe_columns(text: str) -> Corpus | None:
    """Columns of valid pipe text, or None at the first chunk with a faulty line.

    Each chunk of whole lines is split and checked a column at a time,
    with no Python call per line. A chunk ends just after a character
    where ``splitlines()`` ends a line, so every line is whole (a CR LF
    cut after its CR only adds a blank line). None leaves the naming of
    the first fault to the per-line loop.
    """
    ids: list[str] = []
    seen: set[str] = set()
    years, sizes, names = [np.empty(0, np.int64)], [np.empty(0, np.int64)], []
    start = 0
    while start < len(text):
        cut = _LINE_END.search(text, start + _CHUNK_CHARS)
        end = cut.end() if cut else len(text)
        lines = list(filter(None, map(str.strip, text[start:end].splitlines())))
        start = end
        if not lines:
            continue
        if set(map(str.count, lines, repeat("|"))) != {2}:
            return None
        fields = "|".join(lines).split("|")
        chunk_ids = list(map(str.strip, fields[0::3]))
        ids += chunk_ids
        seen.update(chunk_ids)
        try:
            chunk_years = np.array(list(map(int, fields[1::3])), np.int64)
        except (ValueError, OverflowError):  # not an integer, or beyond 64 bits
            return None
        authors = fields[2::3]
        counts = np.array(list(map(str.count, authors, repeat(";"))), np.int64) + 1
        slots = list(map(" ".join, map(str.split, ";".join(authors).split(";"))))
        if "" in slots:  # drop the empty name slots, as _check_record does
            keep = np.array(list(map(bool, slots)))
            counts = np.add.reduceat(keep, np.cumsum(counts) - counts, dtype=np.int64)
            slots = list(filter(None, slots))
        if "" in chunk_ids or len(seen) != len(ids) or chunk_years.min() <= 0 or not counts.all():
            return None
        years.append(chunk_years)
        sizes.append(counts)
        names += slots
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return Corpus._of_checked(ids, np.concatenate(years), offsets, names)


def parse_records(data: bytes | str, fmt: str = "pipe") -> Corpus:
    """Parse a record file into a :class:`Corpus`; empty input yields an empty one.

    Pipe text is checked one chunk of columns at a time; the per-line
    check below runs over it only to name a fault, and is the JSONL
    parser. Malformed rows raise :class:`DataError` naming the first
    offending line; a duplicated id names both lines involved.
    """
    if fmt not in ("pipe", "jsonl"):
        raise DataError(f"unknown record format {fmt!r} (expected 'pipe' or 'jsonl')")
    text = _decode(data)
    if fmt == "pipe" and (columns := _pipe_columns(text)) is not None:
        return columns
    parse_line = _parse_pipe_line if fmt == "pipe" else _parse_jsonl_line
    seen: dict[str, int] = {}  # id -> line, in record order: the ids column
    years, offsets, names = array("q"), array("q", [0]), []
    for lineno, line in _content_lines(text):
        try:
            rid, year, authors = parse_line(line)
            names += _check_record(rid, year, authors)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        first = seen.setdefault(rid, lineno)
        if first != lineno:
            raise DataError(f"line {lineno}: duplicate record id {rid!r} (first seen on line {first})")
        years.append(year)
        offsets.append(len(names))
    return Corpus._of_checked(list(seen), years, offsets, names)


def read_input(data: bytes | str, kind: str = "auto") -> Corpus | ProductivityDistribution:
    """Records or a distribution table, whichever ``data`` holds.

    ``kind`` is ``"pipe"``, ``"jsonl"``, ``"distribution"`` or ``"auto"``.
    Auto reads the first line that is not blank: ``{`` starts JSON
    lines, a ``|`` marks pipe records, and ``x,y`` or two integers
    start a table; anything else raises :class:`DataError`.
    """
    if kind not in ("auto", "pipe", "jsonl", "distribution"):
        raise DataError(f"unknown record format {kind!r} "
                        "(expected 'auto', 'pipe', 'jsonl' or 'distribution')")
    text = _decode(data)
    del data  # a caller that passed the only reference frees the bytes before the parse
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
    corpus = Corpus.from_records(records)
    names, offsets = corpus.names, corpus.offsets.tolist()
    # the bytes of json.dumps(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    text = "".join(
        f'{{"authors":[{",".join(map(_json_string, names[start:end]))}],'
        f'"id":{_json_string(rid)},"year":{year}}}\n'
        for rid, year, start, end in zip(corpus.ids, corpus.years.tolist(), offsets, offsets[1:])
    )
    # json.dumps leaves these unescaped, but parse_records' splitlines() ends a line there
    for char in "\x85\u2028\u2029":
        text = text.replace(char, f"\\u{ord(char):04x}")
    return text


# ---------------------------------------------------------------------------
# counting

def count_productivity(
    records: Iterable[PublicationRecord],
    method: CountingMethod | str = CountingMethod.COMPLETE,
) -> ProductivityDistribution:
    """Tally papers per author, then invert to a frequency table.

    Complete counting credits every listed author of a record with one
    contribution (a name listed twice on one record is credited twice,
    so total contributions always equal the summed author-list lengths).
    Straight counting credits only the first listed author.
    """
    if method not in ("complete", "straight"):
        raise DataError(f"unknown counting method {method!r} (expected 'complete' or 'straight')")
    method = CountingMethod(method)
    corpus = Corpus.from_records(records)
    if not corpus:
        raise DataError("empty corpus: no records to count")
    credited = corpus.names
    if method is CountingMethod.STRAIGHT:
        credited = map(credited.__getitem__, corpus.offsets[:-1].tolist())
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
    for i, (lineno, line) in enumerate(_content_lines(_decode(data))):
        if i == 0 and _is_header(line):
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
