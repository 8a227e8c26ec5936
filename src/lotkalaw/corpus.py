"""Bibliographic records and author-productivity distributions.

Two record formats are supported:

``pipe``
    One publication per line, three ``|``-separated columns::

        P1|2005|Smith J; Jones K

    Column 1 is an opaque non-empty identifier, column 2 a positive
    integer year in ASCII digits, column 3 the ordered author list
    separated by ``;``.

``jsonl``
    One JSON object per line with keys ``id`` (non-empty string),
    ``year`` (positive integer) and ``authors`` (non-empty list of
    strings). This is what :func:`dump_records` writes, and parsing its
    output reproduces the original records exactly.

:func:`parse_records` returns the records as the columns of a
:class:`Corpus`. Input is read in blocks of 2^18 bytes (or characters,
of text), so no read holds a decoded copy of its whole input. Each block
is split into lines once, and there each line is stripped and numbered,
and a blank one dropped. A pipe block is checked a column at a time, with no
Python call per line; a block that check refuses, and every JSON block,
is read line by line, which names the first fault in that pass. Names
leave a read one way: in batches of those a counting method credits. The
command line tallies them and keeps no name list; the library keeps
them, under complete counting, as the corpus' ``names``. A record file
that the command line reads, if it can seek, is cut into one byte range
per CPU, each of at least 2^21 bytes (a smaller file is one range). Each
range starts after the first newline within 2^18 bytes of its cut; a cut
with none is dropped, so its range joins the one before. A worker forked
for each range, the first included, sends back the names it credits and
its columns, a pickle each; the calling process parses no range, and only
hands on the names and joins. A fault in any range, an id repeated across
ranges, a worker that dies or a fork that warns (as Python 3.12+ does in a
process with threads) sends the file through the one-range read, which
names any fault.
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
import gc
import io
import json
import os
import pickle
import select
import signal
import warnings
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, compress, repeat, starmap
from json.encoder import encode_basestring as _json_string
from typing import NoReturn

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
        self._set_columns(ids, np.array([rec.year for rec in records], np.int64),
                          np.array([len(rec.authors) for rec in records], np.int64))
        self.names = list(chain.from_iterable(rec.authors for rec in records))

    @classmethod
    def _of_checked(cls, ids: list[str], years, counts) -> "Corpus":
        """A Corpus of columns whose records were checked as they were read, with no ``names`` yet."""
        corpus = cls.__new__(cls)
        corpus._set_columns(ids, years, counts)
        return corpus

    def _set_columns(self, ids: list[str], years, counts) -> None:
        """Keep the columns; ``years`` and ``counts`` (each record's authors) are unshared int64 arrays."""
        offsets = np.concatenate(([0], np.cumsum(counts)))
        years.flags.writeable = offsets.flags.writeable = False
        self.ids, self.years, self.offsets = ids, years, offsets

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


def _int_rows(rows) -> np.ndarray:
    """Whole-number rows as an (n, 2) int64 array, or object array if a value is past 64 bits."""
    try:
        return np.asarray(rows, np.int64).reshape(-1, 2)
    except OverflowError:  # the column check names its row
        return np.array(rows, object).reshape(-1, 2)


@dataclass(frozen=True, init=False)
class ProductivityDistribution:
    """Frequency table of author productivity, stored as two int64 columns.

    ``points`` gives whole ``(x, y)`` rows, strictly increasing positive
    ``x`` and positive ``y``; gaps in ``x`` mean zero authors there. A
    signed integer ``(n, 2)`` array is checked with no Python work per
    row; pairs, whole floats, numpy rows and generators will do, but no
    bool. ``provenance`` says where the table came from and alters no result.

    Built once: the read-only columns ``xs`` and ``ys``, ``total_authors``
    (sum of y) and ``total_contributions`` (sum of x*y), both exact. Any
    fault, such as a sum of x*y that reaches 2^63, raises DataError naming
    the first bad row. ``points`` is read back from the columns.
    """

    xs: np.ndarray
    ys: np.ndarray
    provenance: str
    total_authors: int = field(repr=False)
    total_contributions: int = field(repr=False)

    def __init__(self, points, provenance: str = "loaded") -> None:
        if not (isinstance(points, np.ndarray) and points.dtype.kind == "i" and points.shape[1:] == (2,)):
            try:
                rows, points = iter(points), []
            except TypeError:
                raise DataError(f"distribution points must be an iterable of (x, y) pairs, "
                                f"got {points!r}") from None
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
                points.append((x, y))
        xs, ys = _int_rows(points).T.copy()
        if not len(xs):
            raise DataError("distribution has no rows")
        if not (ok := (xs > np.append(0, xs[:-1])) & (ys >= 1)).all():
            i = int(ok.argmin())
            raise DataError(f"x values must be strictly increasing from 1 and counts >= 1 (omit zero "
                            f"rows), got x={xs[i]}, y={ys[i]} at points[{i}]")
        # the float64 sum errs by under n * 2^-53 of itself: below 2^62, the int64 sum is exact
        near = xs.dtype == object or xs @ ys.astype(float) >= 2**62
        sums = np.cumsum(xs.astype(object) * ys) if near else [int(xs @ ys)]
        if sums[-1] >= 2**63:  # it bounds x, y and the sum of y too
            i = int(np.argmax(sums >= 2**63))
            raise DataError(f"x and y must be whole numbers, got x={xs[i]}, y={ys[i]} at points[{i}], "
                            f"which take the sum of x*y to {sums[i]}, past 64 bits")
        xs.flags.writeable = ys.flags.writeable = False
        vars(self).update(xs=xs, ys=ys, provenance=provenance, total_authors=int(ys.sum()),
                          total_contributions=int(sums[-1]))  # frozen: no __setattr__

    points = property(lambda self: tuple(zip(self.xs.tolist(), self.ys.tolist())))  # Python-int pairs

    def __eq__(self, other) -> bool:  # equal documents, as the columns are always int64
        return self._key == other._key if isinstance(other, ProductivityDistribution) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    _key = property(lambda self: (self.provenance, self.xs.tobytes(), self.ys.tobytes()))

    def to_dict(self) -> dict:
        return {
            "points": np.column_stack((self.xs, self.ys)).tolist(),
            "provenance": self.provenance,
            "total_authors": self.total_authors,
            "total_contributions": self.total_contributions,
        }


# ---------------------------------------------------------------------------
# record parsing

_BLOCK_BYTES = 1 << 18  # the bytes of a file, or characters of text, read at a time
_SPLIT_BYTES = 1 << 21  # the fewest bytes in each range of a record file read by several processes
_TALLY_NAMES = 1 << 17  # credited names held between tallies: one tally a block ran 10% slower


def _line_blocks(texts: Iterable[str]) -> Iterator[tuple[Sequence[int], list[str]]]:
    """The numbers and stripped lines that are not blank, a pair for each text that ends a line.

    Lines are those of ``"".join(texts).splitlines()``, numbered from 1,
    in a ``range`` if none in the block is blank; a block of blank lines
    yields nothing, and raw lines are dropped before a block is read. Each
    text is split once. Its last line waits for the next text if it has no
    line end, or ends in a CR that the next may follow with an LF. A line
    that runs on through texts is held as its pieces and joined once, so a
    long line costs linear time.
    """
    held: list[str] = []  # the pieces of the line that waits
    count = 0  # the lines of the blocks before
    for text in chain(filter(None, texts), [""]):  # "" ends the line that waits
        lines = text.splitlines(True)
        if held and (not text or held[-1].endswith("\r") and lines[0] != "\n"):
            lines.insert(0, "".join(held))  # the input ends, or no LF follows the held CR
        elif len(lines) == 1 and lines[0].splitlines() == lines:  # no line end: the line runs on
            held.append(text)
            continue
        elif held:
            lines[0] = "".join(held) + lines[0]
        last = lines[-1] if text else ""  # at the end no line waits
        held = [lines.pop()] if last.endswith("\r") or last.splitlines() == [last] else []
        numbers, count = range(count + 1, count + len(lines) + 1), count + len(lines)
        lines = list(map(str.strip, lines))
        if "" in lines:  # blank lines hold nothing
            numbers, lines = list(compress(numbers, lines)), list(filter(None, lines))
        if lines:
            yield numbers, lines


def _file_texts(file, end: int | None = None) -> Iterator[str]:
    """Text of an open binary UTF-8 file, ``_BLOCK_BYTES`` at a time, with no BOM at byte 0.

    The text runs from the file's position to byte ``end``, or to the
    end of the file. A bad byte raises :class:`DataError` with the error
    text of ``bytes.decode("utf-8-sig")``, its position counted after the
    BOM. The BOM is stripped here, as an incremental ``utf-8-sig``
    decoder takes a file of part of a BOM for empty.
    """
    decoder, done = codecs.getincrementaldecoder("utf-8")(), 0  # bytes decoded after the BOM
    read = file.read if end is None else lambda size: file.read(min(size, end - file.tell()))
    at_start = not file.seekable() or file.tell() == 0  # input that cannot seek is read from its start
    head = read(len(codecs.BOM_UTF8) * at_start).removeprefix(codecs.BOM_UTF8)
    for block in chain([head], iter(partial(read, _BLOCK_BYTES), b""), [b""]):
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


def _integer(field: str) -> int:
    """``int(field)``, but ``ValueError`` for the ``_`` and non-ASCII digits that int() also takes."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(field)
    return int(field)


def _parse_pipe_line(line: str) -> tuple:
    parts = line.split("|")
    if len(parts) != 3:
        raise DataError(f"expected 3 '|'-separated columns (id|year|authors), got {len(parts)}")
    try:
        year = _integer(parts[1])
    except ValueError:
        raise DataError(f"year {parts[1].strip()!r} is not an integer") from None
    return parts[0].strip(), year, parts[2].split(";")


def _parse_jsonl_line(line: str) -> tuple:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON ({exc.msg})") from None
    except ValueError:  # int() refuses a number past sys.get_int_max_str_digits()
        raise DataError("invalid JSON (a number with too many digits)") from None
    except RecursionError:
        raise DataError("invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    missing = {"id", "year", "authors"} - obj.keys()
    if missing:
        raise DataError(f"missing keys {sorted(missing)}")
    authors = obj["authors"]
    if not isinstance(authors, list) or not all(map(str.__instancecheck__, authors)):
        raise DataError("authors must be a list of strings")
    return obj["id"], obj["year"], authors


def _records(blocks: Iterable[tuple], fmt: str, take,
             method: CountingMethod | None) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ids, years and author counts of blocks of lines, each read in the pass that names its fault.

    The blocks are those of :func:`_line_blocks`, whose line numbers a
    fault names. A pipe block goes through the column check; any other
    block, or one it refuses, through the per-line reader. This is the one
    way names leave a read: the cleaned names that ``method`` credits
    (none if it is None), in file order, go to ``take`` ``_TALLY_NAMES``
    at a time, and the rest once after the last block; the columns keep
    none. No batch is empty, and none is handed after a fault.
    """
    seen: dict[str, int] = {}  # id -> line, in record order: the ids column
    years, sizes, names = [np.empty(0, np.int64)], [np.empty(0, np.int64)], []
    for numbers, lines in blocks:
        block_years, counts, slots = (fmt == "pipe" and _pipe_block(lines, numbers, seen)
                                      or _line_block(lines, numbers, fmt, seen))
        years.append(block_years)
        sizes.append(counts)
        if method is not None:
            names += _credited(slots, np.cumsum(counts) - counts, method)
            if len(names) >= _TALLY_NAMES:
                take(names)
                names = []
        del lines, slots  # before the next block is read
    if names:
        take(names)
    return list(seen), np.concatenate(years), np.concatenate(sizes)


def _pipe_block(lines: list[str], numbers: Sequence[int], seen: dict[str, int]) -> tuple | None:
    """The years, author counts and cleaned slots of a block's pipe lines, or None at a fault.

    The lines, as :func:`_line_blocks` yields them, are checked a column
    at a time, with no Python call per line, and each id goes into
    ``seen`` with its line's number. None leaves ``seen`` as it was.
    """
    if set(map(str.count, lines, repeat("|"))) != {2}:
        return None
    fields = "|".join(lines).split("|")
    ids = list(map(str.strip, fields[0::3]))
    digits = "".join("".join(fields[1::3]).split())  # the years, their whitespace taken out
    try:
        years = np.array(list(map(int, fields[1::3])), np.int64)
    except (ValueError, OverflowError):  # not an integer, or beyond 64 bits
        return None
    authors = fields[2::3]
    counts = np.array(list(map(str.count, authors, repeat(";"))), np.int64) + 1
    slots = list(map(" ".join, map(str.split, ";".join(authors).split(";"))))
    if "" in slots:  # drop the empty name slots, as _check_record does
        keep = np.array(list(map(bool, slots)))
        counts = np.add.reduceat(keep, np.cumsum(counts) - counts, dtype=np.int64)
        slots = list(filter(None, slots))
    lines_of = dict(zip(ids, numbers))
    if ("" in lines_of or len(lines_of) != len(ids) or not seen.keys().isdisjoint(lines_of)
            or years.min() <= 0 or not counts.all() or "_" in digits or not digits.isascii()):
        return None
    seen.update(lines_of)
    return years, counts, slots


def _line_block(lines: list[str], numbers: Sequence[int], fmt: str, seen: dict[str, int]) -> tuple:
    """The years, author counts and cleaned names of a block's lines, parsed one at a time.

    Each id goes into ``seen`` with its line's number; the first fault
    raises :class:`DataError` naming its line, and a repeated id the line
    it was first seen on, in this block or before.
    """
    parse_line = _parse_pipe_line if fmt == "pipe" else _parse_jsonl_line
    years, sizes, names = array("q"), array("q"), []
    for lineno, line in zip(numbers, lines):
        try:
            rid, year, authors = parse_line(line)
            cleaned = _check_record(rid, year, authors)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if (first := seen.setdefault(rid, lineno)) != lineno:
            raise DataError(f"line {lineno}: duplicate record id {rid!r} "
                            f"(first seen on line {first})")
        years.append(year)
        sizes.append(len(cleaned))
        names += cleaned
    return np.array(years, np.int64), np.array(sizes, np.int64), names


def parse_records(data: bytes | str, fmt: str = "pipe") -> Corpus:
    """Parse a record file into a :class:`Corpus`; empty input yields an empty one.

    Malformed rows raise :class:`DataError` naming the first offending
    line; a duplicated id names both lines involved.
    """
    if fmt not in ("pipe", "jsonl"):
        raise DataError(f"unknown record format {fmt!r} (expected 'pipe' or 'jsonl')")
    return read_input(data, fmt)


def _sniff(blocks: Iterator[tuple]) -> tuple[str, Iterator[tuple]]:
    """The kind of input that the first line that is not blank starts, and every block of lines.

    The blocks, those of :func:`_line_blocks`, are read only up to the
    first, which holds that line.
    """
    if (first := next(blocks, None)) is None:
        raise DataError("input file is empty; pass --input-kind if this is intended")
    line = first[1][0]
    kind = "jsonl" if line.startswith("{") else "pipe" if "|" in line else "distribution"
    if kind == "distribution" and not _is_header(line):
        try:  # a row, as _table_of reads one: two fields that _integer takes
            _x, _y = map(_integer, line.split(","))
        except ValueError:
            raise DataError(f"cannot tell what kind of input {line[:40]!r} starts; "
                            "pass --input-kind") from None
    return kind, chain([first], blocks)


def read_input(data: bytes | str, kind: str = "auto") -> Corpus | ProductivityDistribution:
    """Records or a distribution table, whichever ``data``, bytes-like or a str, holds.

    ``kind`` is ``"pipe"``, ``"jsonl"``, ``"distribution"`` or ``"auto"``.
    Auto reads the first line that is not blank: ``{`` starts JSON
    lines, a ``|`` marks pipe records, and ``x,y`` or two integers
    start a table; anything else raises :class:`DataError`. Bytes (UTF-8,
    with or without a BOM) and text are read a block at a time, as a file is;
    any bytes-like value but ``bytes`` is first copied whole by ``bytes()``,
    as ``io.BytesIO`` would copy it, and it refuses a view that is not
    C-contiguous. The records' ``names`` are those that complete
    counting credits as the read hands them on: every cleaned name, in order.
    """
    if kind not in ("auto", "pipe", "jsonl", "distribution"):
        raise DataError(f"unknown record format {kind!r} "
                        "(expected 'auto', 'pipe', 'jsonl' or 'distribution')")
    if not isinstance(data, (str, bytes, bytearray, memoryview)):  # io.BytesIO(None) reads as empty
        raise TypeError(f"input must be bytes or str, not {type(data).__name__}")
    texts = (_file_texts(io.BytesIO(bytes(data))) if not isinstance(data, str)  # bytes(b) is b
             else (data[i : i + _BLOCK_BYTES] for i in range(0, len(data), _BLOCK_BYTES)))
    names: list[str] = []
    loaded = _read_texts(texts, kind, names.extend, CountingMethod.COMPLETE)
    if isinstance(loaded, Corpus):
        loaded.names = names
    return loaded


def _read_texts(texts: Iterable[str], kind: str, take, method: CountingMethod | None):
    """The table, or a Corpus of the columns of :func:`_records` with no ``names``, of the texts."""
    blocks = _line_blocks(texts)
    try:
        if kind == "auto":
            kind, blocks = _sniff(blocks)
        if kind == "distribution":
            return _table_of(blocks)
        return Corpus._of_checked(*_records(blocks, kind, take, method))
    except DataError:
        for _ in texts:  # read to the end with no parse: a later bad byte is the fault named
            pass
        raise


def _read_file(path, kind: str, method: CountingMethod | None = None):
    """``read_input`` of a file, read a block of lines at a time, and the tally of its names.

    Returns the records, with no ``names``, or table and, given a counting
    ``method``, a ``Counter`` of the papers each author is credited with
    (None without one). Neither the bytes nor the text are held whole. A
    record file that can seek is cut into the byte ranges of
    :func:`_ranges` and read by :func:`_read_ranges`. If that gives no
    records, or the file is one range, this process reads the file as one
    range, which names any fault as ``read_input`` does.
    """
    tally = Counter()
    with open(path, "rb") as file:
        kind, starts = _ranges(file, kind)
        if len(starts) == 1 or (loaded := _read_ranges(path, kind, tally.update, method, starts)) is None:
            tally.clear()  # the one-range read tallies afresh
            loaded = _read_texts(_file_texts(file), kind, tally.update, method)
        return loaded, None if method is None else tally


def _read_ranges(path, kind: str, take, method: CountingMethod | None,
                 starts: list[int]) -> Corpus | None:
    """The records of a file of ``kind``, read by a worker per range; or None.

    A worker (:func:`_work`) is forked for each range that starts at
    ``starts``; this process parses no range, but hands each batch of
    names a worker sends to ``take``, as :func:`_records` does, and joins
    their columns in file order. None if a worker or its pipe cannot be
    made, a fork warns, a range has a fault, a worker dies or an id
    repeats across ranges. Every worker is killed and reaped before this
    returns or raises.
    """
    workers: list[_Worker] = []
    try:
        try:
            for start, end in zip(starts, [*starts[1:], None]):
                workers.append(_Worker(path, kind, method, start, end))
                if workers[-1].warned:  # the worker may deadlock: read as one range
                    return None
        except OSError:  # no process or pipe to be had
            return None
        while waiting := {worker.stream: worker for worker in workers if not worker.done}:
            for stream in select.select(list(waiting), [], [])[0]:
                waiting[stream].receive(take)
        if any(worker.columns is None for worker in workers):
            return None
        ids, years, sizes = zip(*(worker.columns for worker in workers))
        later = set(chain.from_iterable(ids[1:]))  # each range's own ids are distinct
        if len(later) != sum(map(len, ids[1:])) or not later.isdisjoint(ids[0]):
            return None
        del later  # before the ids are joined, for a lower peak
        ids = list(chain.from_iterable(ids))
        return Corpus._of_checked(ids, np.concatenate(years), np.concatenate(sizes))
    finally:
        for worker in workers:
            worker.stop()


def _cpus() -> int:
    """How many CPUs this process may run on: 1 where the system cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _ranges(file, kind: str) -> tuple[str, list[int]]:
    """The kind of input a file holds, and the start of each byte range to read it in.

    A record file that can seek is cut into a range per CPU this process
    may run on, fewer if a range would hold under ``_SPLIT_BYTES``. A range
    starts after the first newline byte (part of no other UTF-8 character)
    within ``_BLOCK_BYTES`` of its cut and before the next; a cut with none
    is dropped, so its range joins the one before. A table, a file that
    cannot seek or a system with no ``fork`` is one range. Only a file large
    enough to cut is sniffed for ``"auto"``, then put back at byte 0.
    """
    if not (file.seekable() and hasattr(os, "fork")):
        return kind, [0]
    size = os.fstat(file.fileno()).st_size
    count = min(_cpus(), size // _SPLIT_BYTES)
    if count > 1 and kind == "auto":
        with suppress(DataError):  # kind stays "auto": one range, whose read names the fault
            kind = _sniff(_line_blocks(_file_texts(file)))[0]
        file.seek(0)
    cuts = [size * i // count for i in range(1, count)] if kind in ("pipe", "jsonl") else []
    starts = [0]
    for cut, end in zip(cuts, [*cuts[1:], size]):
        after = os.pread(file.fileno(), min(end - cut, _BLOCK_BYTES), cut).find(b"\n") + 1
        if 0 < after < size - cut:  # a newline, and not the file's last byte
            starts.append(cut + after)
    return kind, starts


def _work(path, kind: str, method, start: int, end: int | None, out) -> NoReturn:
    """In a forked worker: read bytes ``start`` to ``end`` of ``path`` and send them to ``out``.

    Every range of a split file is read here, the first included. Each
    message is one pickle, flushed as it is sent: a batch of credited names
    from :func:`_records` as one ``str``, joined by newlines, which no
    cleaned name holds; then the ids, years and author counts it returns,
    unless the range has a fault, which the parent names. The worker leaves
    through ``os._exit``, never into its caller's stack or the stdio
    buffers it shares with the parent.
    """
    def send(message) -> None:
        pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
        out.flush()  # a pickle of 64 KB+ writes STOP apart: unflushed, the parent waits on the next batch

    gc.disable()  # a collection writes to every object, so copies the pages shared with the parent
    try:
        with open(path, "rb") as file, suppress(DataError):  # a range with a fault sends no columns
            file.seek(start)
            send(_records(_line_blocks(_file_texts(file, end)), kind,
                          lambda names: send("\n".join(names)), method))
    finally:
        os._exit(0)


class _Worker:
    """A process forked to read bytes ``start`` to ``end`` of a record file, and what it sent.

    The worker runs :func:`_work` and waits while its pipe is full, so
    the parent reads a message whenever a pipe is ready. K ranges run
    K + 1 processes at once, and the peak RSS that ``os.wait4`` reports
    for the command line is the largest of their K + 1 peaks.
    """

    def __init__(self, path, kind: str, method, start: int, end: int | None) -> None:
        read, write = os.pipe()
        with open(write, "wb") as out:
            self.stream = open(read, "rb")
            try:  # Python 3.12+ warns in the parent when it forks a process with threads
                with warnings.catch_warnings(record=True) as self.warned:
                    warnings.simplefilter("always")
                    self.pid = os.fork()
            except OSError:
                self.stream.close()
                raise
            if self.pid == 0:
                self.stream.close()
                _work(path, kind, method, start, end, out)
        self.columns = None  # the ids, years and author counts, once sent
        self.done = False  # whether the worker sent its columns or closed its pipe

    def receive(self, take) -> None:
        """Read one message: hand a batch of names to ``take``, or keep the columns and be done.

        A pipe closed before the columns came, or in a message, leaves
        ``columns`` None: the range has a fault.
        """
        try:
            message = pickle.load(self.stream)
        except (EOFError, pickle.UnpicklingError):
            message = None
        if isinstance(message, str):
            take(message.split("\n"))
        else:
            self.columns, self.done = message, True

    def stop(self) -> None:
        self.stream.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


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
    levels = np.unique(np.fromiter(tally.values(), np.int64, len(tally)), return_counts=True)
    return ProductivityDistribution(np.column_stack(levels), provenance=f"counted:{method.value}")


# ---------------------------------------------------------------------------
# distribution files

def _is_header(line: str) -> bool:
    """Whether a stripped line is the optional ``x,y`` distribution header."""
    return line.replace(" ", "").lower() == "x,y"


def load_distribution(data: bytes | str) -> ProductivityDistribution:
    """Parse a ``x,y`` distribution file. Rows may arrive unsorted."""
    return read_input(data, "distribution")


def _table_of(blocks: Iterable[tuple]) -> ProductivityDistribution:
    """The distribution table of the lines of :func:`_line_blocks`."""
    rows: list[tuple[int, int]] = []
    seen_x: dict[int, int] = {}
    total = 0  # the sum of x*y so far
    for i, (lineno, line) in enumerate(chain.from_iterable(starmap(zip, blocks))):
        if i == 0 and _is_header(line):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected 'x,y', got {line!r}")
        try:
            x, y = _integer(parts[0]), _integer(parts[1])
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
        if (total := total + x * y) >= 2**63:  # it bounds x and y too
            raise DataError(f"line {lineno}: x={x}, y={y} take the sum of x*y to {total}, "
                            "past 64 bits")
        seen_x[x] = lineno
        rows.append((x, y))
    return ProductivityDistribution(_int_rows(sorted(rows)), provenance="loaded")


def dump_distribution(dist: ProductivityDistribution) -> str:
    """Serialize a distribution to CSV; `load_distribution` round-trips."""
    return "x,y\n" + "".join(map("{},{}\n".format, dist.xs.tolist(), dist.ys.tolist()))
