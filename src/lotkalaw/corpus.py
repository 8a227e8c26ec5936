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
:class:`Corpus`. Text is parsed in chunks of whole lines (about 2^18
characters each), and the command line reads a file the same way and
counts the names as it reads, so it holds neither the whole bytes or
text nor the name list, and it names every fault in the stream. Pipe
chunks are checked a column at a time, with no Python call per line; the
per-line check runs only to name a fault, or over input that cannot seek.
Every record, parsed or built by hand, cleans its names:
:func:`normalize_author` collapses runs of whitespace and empty name
slots are dropped, so the same names count as one author either way.

Distribution files are comma-separated ``x,y`` rows with an optional
``x,y`` header line: ``x`` is a productivity level (papers per author),
``y`` the number of authors observed at exactly that level. Zero counts
are omitted, never written as rows.
"""

from __future__ import annotations

import codecs
import json
import re
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring as _json_string

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
    def _of_checked(cls, ids: list[str], years, offsets, names: list[str] | None) -> "Corpus":
        """A Corpus of columns whose records were checked as they were read."""
        corpus = cls.__new__(cls)
        corpus._set_columns(ids, years, offsets, names)
        return corpus

    def _set_columns(self, ids: list[str], years, offsets, names: list[str] | None) -> None:
        years, offsets = np.array(years, np.int64), np.array(offsets, np.int64)
        years.flags.writeable = offsets.flags.writeable = False
        self.ids, self.years, self.offsets = ids, years, offsets
        if names is not None:  # None: the names were counted as they were read, then dropped
            self.names = names

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

_BLOCK_BYTES = 1 << 20  # a record file is read this many bytes at a time
_CHUNK_CHARS = 1 << 18  # text is parsed about this many characters at a time
# where splitlines() ends a line; a CR LF is one match, so no chunk ends between the two
_LINE_END = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _line_chunks(pieces: Iterable[str]) -> Iterator[str]:
    """The text of ``pieces`` again, in chunks that each end at a line boundary.

    A chunk runs to the first line end at or after ``_CHUNK_CHARS``
    characters, so ``splitlines()`` over the chunks gives the lines of
    the whole text. A line end that closes the text read so far waits
    for the next piece, which may hold the LF of a CR LF. Each piece is
    searched once, with the held character before it, and held pieces
    are joined once a chunk ends in them: a long line costs linear time.
    """
    held, size = [], 0  # the pieces read since the last chunk ended, and their length
    for piece in filter(None, pieces):
        probe = held[-1][-1:] + piece if held else piece
        searched, size = size + len(piece) - len(probe), size + len(piece)  # probe starts there
        held.append(piece)
        cut = _LINE_END.search(probe, max(_CHUNK_CHARS - searched, 0))
        if (end := searched + cut.end() if cut else size) < size:
            text, start = "".join(held), 0
            while end < size:
                yield text[start:end]
                cut = _LINE_END.search(text, end + _CHUNK_CHARS)
                start, end = end, cut.end() if cut else size
            held, size = [text[start:]], size - start
    if held:
        yield "".join(held)


def _file_texts(file) -> Iterator[str]:
    """Text of an open binary UTF-8 file, ``_BLOCK_BYTES`` at a time; a leading BOM is dropped.

    A bad byte raises what :func:`read_input` raises for the whole file,
    its position counted after the BOM. The BOM is stripped here, as a
    ``utf-8-sig`` decoder takes a file of part of a BOM for empty.
    """
    decoder, done = codecs.getincrementaldecoder("utf-8")(), 0  # bytes decoded after the BOM
    head = file.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
    for block in chain([head], iter(partial(file.read, _BLOCK_BYTES), b""), [b""]):
        try:
            text = decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:  # exc.object: the bytes held back, then the block
            start, size = done - len(decoder.getstate()[0]) + exc.start, exc.end - exc.start
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if size == 1
                     else f"bytes in position {start}-{start + size - 1}")
            raise DataError(f"input is not valid UTF-8: 'utf-8' codec can't decode {where}: "
                            f"{exc.reason}") from None
        done += len(block)
        yield text


def _content_lines(chunks: Iterable[str]):
    """``(line number from 1, stripped line)`` for each line of the chunks that is not blank."""
    for lineno, raw in enumerate(chain.from_iterable(map(str.splitlines, chunks)), start=1):
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


def _pipe_columns(chunks: Iterable[str], credit=None) -> Corpus | None:
    """Columns of valid pipe text, or None at the first chunk with a faulty line.

    Each chunk of whole lines is split and checked a column at a time,
    with no Python call per line. None leaves the naming of the first
    fault to the per-line loop.
    """
    ids: list[str] = []
    seen: set[str] = set()
    years, sizes, names = [np.empty(0, np.int64)], [np.empty(0, np.int64)], []
    for chunk in chunks:
        lines = list(filter(None, map(str.strip, chunk.splitlines())))
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
        if credit is None:
            names += slots
        else:
            credit(slots, np.cumsum(counts) - counts)
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return Corpus._of_checked(ids, np.concatenate(years), offsets, None if credit else names)


def _parse_lines(chunks: Iterable[str], fmt: str, credit=None) -> Corpus:
    """Records of the chunks, one line at a time: the JSONL parser, and the namer of a pipe fault."""
    parse_line = _parse_pipe_line if fmt == "pipe" else _parse_jsonl_line
    seen: dict[str, int] = {}  # id -> line, in record order: the ids column
    years, offsets, names = array("q"), array("q", [0]), []
    lineno = dropped = 0  # the last line read, and the names handed to credit
    for chunk in chunks:
        chunk_start = len(years)
        for lineno, raw in enumerate(chunk.splitlines(), lineno + 1):
            if not (line := raw.strip()):
                continue
            try:
                rid, year, authors = parse_line(line)
                names += _check_record(rid, year, authors)
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from None
            first = seen.setdefault(rid, lineno)
            if first != lineno:
                raise DataError(f"line {lineno}: duplicate record id {rid!r} "
                                f"(first seen on line {first})")
            years.append(year)
            offsets.append(dropped + len(names))
        if credit is not None:
            credit(names, np.array(offsets[chunk_start:-1]) - dropped)
            dropped, names = dropped + len(names), []
    return Corpus._of_checked(list(seen), years, offsets, None if credit else names)


def parse_records(data: bytes | str, fmt: str = "pipe") -> Corpus:
    """Parse a record file into a :class:`Corpus`; empty input yields an empty one.

    Pipe text is checked one chunk of columns at a time, and read again
    line by line only to name a fault; JSON lines are read line by
    line. Malformed rows raise :class:`DataError` naming the first
    offending line; a duplicated id names both lines involved.
    """
    if fmt not in ("pipe", "jsonl"):
        raise DataError(f"unknown record format {fmt!r} (expected 'pipe' or 'jsonl')")
    return read_input(data, fmt)


def _sniff(chunks: Iterator[str]) -> tuple[str, Iterator[str]]:
    """The kind of input that the first line that is not blank starts, and every chunk.

    The chunks are read only up to that line.
    """
    read = []
    for chunk in chunks:
        read.append(chunk)
        # up to the next newline, then to any line boundary: no full split
        if first := re.search(r"\S[^\n]*", chunk):
            break
    else:
        raise DataError("input file is empty; pass --input-kind if this is intended")
    line = first.group().splitlines()[0].strip()
    if line.startswith("{"):
        kind = "jsonl"
    elif "|" in line:
        kind = "pipe"
    elif _is_header(line) or re.fullmatch(r"\d+,\d+", line.replace(" ", "")):
        kind = "distribution"
    else:
        raise DataError(f"cannot tell what kind of input {line[:40]!r} starts; pass --input-kind")
    return kind, chain(read, chunks)


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
    if isinstance(data, (bytes, bytearray)):
        try:  # drops the bytes before the parse, if the caller passed the only reference
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not valid UTF-8: {exc}") from None
    return _ingest(_line_chunks((data,)), kind, again=lambda: _line_chunks((data,)))


def _read_file(path, kind: str, credit=None) -> Corpus | ProductivityDistribution:
    """``read_input`` of a file, read and parsed a chunk of whole lines at a time.

    Neither the bytes nor the text are held whole. After a fault the
    rest of the file is decoded, with no parse, so a later bad byte is
    still the fault named. A file that cannot seek, such as a pipe, has
    its pipe records read line by line. Given ``credit``, each chunk's
    cleaned names and record starts go to ``credit(slots, starts)`` and
    are dropped: the records keep no ``names``.
    """
    with open(path, "rb") as file:
        texts = _file_texts(file)

        def again() -> Iterator[str]:
            nonlocal texts
            file.seek(0)
            texts = _file_texts(file)
            return _line_chunks(texts)

        try:
            return _ingest(_line_chunks(texts), kind, credit, again if file.seekable() else None)
        except DataError:
            for _ in texts:
                pass
            raise


def _ingest(chunks: Iterator[str], kind: str, credit=None, again=None):
    """The records or table of the chunks, of a checked ``kind``; ``"auto"`` is sniffed.

    Pipe chunks go through the column pass if ``again()`` gives them once
    more from the start, for the per-line loop to name a fault the pass
    meets; with no ``again`` the per-line loop reads them in one pass.
    """
    if kind == "auto":
        kind, chunks = _sniff(chunks)
    if kind == "distribution":
        return _table_of(chunks)
    if kind == "pipe" and again is not None:
        if (columns := _pipe_columns(chunks, credit)) is not None:
            return columns
        _parse_lines(again(), kind, lambda slots, starts: None)  # credits nothing: holds no names
        raise AssertionError("the column pass refused pipe text with no fault")
    return _parse_lines(chunks, kind, credit)


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
    method, corpus = CountingMethod(method), Corpus.from_records(records)
    return _distribution_of(Counter(_credited(corpus.names, corpus.offsets[:-1], method)), method)


def _credited(names: list[str], starts: np.ndarray, method: CountingMethod) -> Iterable[str]:
    """The names that ``method`` credits, of records that start at ``starts`` in ``names``."""
    return map(names.__getitem__, starts.tolist()) if method is CountingMethod.STRAIGHT else names


def _distribution_of(tally: Counter, method: CountingMethod) -> ProductivityDistribution:
    """The frequency table of the credits per author in ``tally``."""
    if not tally:  # every record credits a name
        raise DataError("empty corpus: no records to count")
    points = tuple(sorted(Counter(tally.values()).items()))
    return ProductivityDistribution(points, provenance=f"counted:{method.value}")


# ---------------------------------------------------------------------------
# distribution files

def _is_header(line: str) -> bool:
    """Whether a stripped line is the optional ``x,y`` distribution header."""
    return line.replace(" ", "").lower() == "x,y"


def load_distribution(data: bytes | str) -> ProductivityDistribution:
    """Parse a ``x,y`` distribution file. Rows may arrive unsorted."""
    return read_input(data, "distribution")


def _table_of(chunks: Iterable[str]) -> ProductivityDistribution:
    """The distribution table of the chunks' lines."""
    rows: list[tuple[int, int]] = []
    seen_x: dict[int, int] = {}
    for i, (lineno, line) in enumerate(_content_lines(chunks)):
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
