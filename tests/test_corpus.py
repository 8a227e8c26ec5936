"""Record parsing, counting methods and distribution file handling."""

import json
import math
import os
import re
import signal
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lotkalaw import (
    Corpus,
    CountingMethod,
    DataError,
    ProductivityDistribution,
    PublicationRecord,
    authorship_pattern,
    collab_metrics,
    corpus,
    count_productivity,
    dump_distribution,
    dump_records,
    load_distribution,
    normalize_author,
    parse_records,
    read_input,
)

from conftest import build_mixed_records, random_corpus


# ---------------------------------------------------------------------------
# pipe records

def test_parse_pipe_basic():
    records = parse_records("P1|2005|Smith J; Jones K\n")
    assert records == [PublicationRecord("P1", 2005, ("Smith J", "Jones K"))]


def test_parse_pipe_whitespace_cleanup():
    records = parse_records("P1|2005|  Smith  J ;; Jones K \n")
    assert records[0].authors == ("Smith J", "Jones K")


def test_normalize_author():
    assert normalize_author("  van  der  Merwe   A ") == "van der Merwe A"


def test_parse_pipe_skips_blank_lines():
    records = parse_records("\nP1|2005|A\n\n\nP2|2006|B\n")
    assert [r.id for r in records] == ["P1", "P2"]


@pytest.mark.parametrize("text, message", [
    ("\nP1|2005|A\n \r\nP1|2006|B\n", "line 4: duplicate record id 'P1' (first seen on line 2)"),
    ('\n{"id":"P1","year":2005,"authors":["A"]}\n\n{}\n', "line 4: missing keys"),
    ("\u3000\nx,y\n\n1,2\n\u2028 1,3\n", "line 6: duplicate x=1 (first seen on line 4)"),
])
def test_blank_lines_count_in_the_line_a_fault_names(text, message):
    with pytest.raises(DataError, match=re.escape(message)):
        read_input(text)


def test_parse_empty_input_gives_empty_list():
    assert parse_records("") == []
    assert parse_records(b"") == []


def test_parse_pipe_wrong_column_count():
    with pytest.raises(DataError, match="line 2.*columns"):
        parse_records("P1|2005|A\nP2|2005\n")


def test_parse_pipe_bad_year():
    with pytest.raises(DataError, match="line 1.*year"):
        parse_records("P1|two thousand|A\n")
    with pytest.raises(DataError, match="positive"):
        parse_records("P1|0|A\n")


def test_parse_pipe_no_authors():
    with pytest.raises(DataError, match="no authors"):
        parse_records("P1|2005| ; ; \n")


def test_parse_pipe_empty_id():
    with pytest.raises(DataError, match="empty record id"):
        parse_records(" |2005|A\n")


def test_parse_duplicate_id_names_both_lines():
    text = "P1|2005|A\nP2|2006|B\nP1|2007|C\n"
    with pytest.raises(DataError, match=r"line 3.*'P1'.*line 1"):
        parse_records(text)


def test_parse_rejects_non_utf8():
    with pytest.raises(DataError, match="UTF-8"):
        parse_records(b"P1|2005|\xff\xfe\n")


def test_parse_drops_utf8_byte_order_mark():
    records = parse_records(b"\xef\xbb\xbfP1|2001|Smith, A\n")
    assert records[0].id == "P1"
    records = parse_records(b'\xef\xbb\xbf{"authors":["A"],"id":"J1","year":2001}\n', "jsonl")
    assert records[0].id == "J1"


def test_load_distribution_drops_utf8_byte_order_mark():
    dist = load_distribution(b"\xef\xbb\xbfx,y\n1,9\n2,3\n")
    assert dist.points == ((1, 9), (2, 3))


# Each bad record sits on line 3, after two good ones; the message names
# the line once (a duplicate id also names the first line) and the fault.
_GOOD_PIPE = "P1|2005|A\nP2|2006|B\n"
_GOOD_JSONL = dump_records([PublicationRecord("P1", 2005, ("A",)),
                            PublicationRecord("P2", 2006, ("B",))])
# json raises ValueError past Python's 4,300-digit int limit and
# RecursionError past the stack, neither a JSONDecodeError
_LONG_YEAR_LINE = '{"id": "P3", "year": ' + "1" * 5000 + ', "authors": ["C"]}'
_DEEP_LINE = '{"id": "P3", "year": 2007, "authors": ["C"], "x": ' + "[" * 100_000


@pytest.mark.parametrize("fmt, bad, fault", [
    ("pipe", "P3|2007", "3 '|'-separated columns"),
    ("pipe", "P3|2007.5|C", "year '2007.5' is not an integer"),
    ("pipe", "P3|2_007|C", "year '2_007' is not an integer"),
    ("pipe", "P3|\u0662\u0660\u0660\u0667|C", "year '\u0662\u0660\u0660\u0667' is not an integer"),
    ("pipe", "P3|0|C", "year must be a positive integer, got 0"),
    ("pipe", " |2007|C", "empty record id"),
    ("pipe", "P3|2007| ; ;", "record 'P3' has no authors"),
    ("pipe", "P1|2007|C", "duplicate record id 'P1' (first seen on line 1)"),
    ("jsonl", '{"id": "P3", "year": 2007, "authors": ["C"]', "invalid JSON"),
    ("jsonl", '["P3", 2007, ["C"]]', "expected a JSON object"),
    ("jsonl", '{"id": "P3", "authors": ["C"]}', "missing keys ['year']"),
    ("jsonl", '{"id": 3, "year": 2007, "authors": ["C"]}', "record id must be a string, got 3"),
    ("jsonl", '{"id": "P3", "year": true, "authors": ["C"]}', "year must be a positive integer"),
    ("jsonl", '{"id": "P3", "year": 2007, "authors": ["C", 7]}', "authors must be a list of strings"),
    ("jsonl", '{"id": "P3", "year": 2007, "authors": []}', "record 'P3' has no authors"),
    ("jsonl", _LONG_YEAR_LINE, "invalid JSON (a number with too many digits)"),
    ("jsonl", _DEEP_LINE, "invalid JSON (nested too deeply)"),
], ids=["pipe-columns", "pipe-year-text", "pipe-year-underscore", "pipe-year-arabic-indic",
        "pipe-year-zero", "pipe-empty-id",
        "pipe-no-authors", "pipe-duplicate-id", "jsonl-invalid", "jsonl-not-object",
        "jsonl-missing-key", "jsonl-id-not-string", "jsonl-bool-year",
        "jsonl-author-not-string", "jsonl-no-authors", "jsonl-year-past-the-digit-limit",
        "jsonl-nested-past-the-stack"])
def test_record_faults_name_their_line_once(fmt, bad, fault):
    good = _GOOD_PIPE if fmt == "pipe" else _GOOD_JSONL
    with pytest.raises(DataError) as info:
        parse_records(good + bad + "\n", fmt)
    message = str(info.value)
    assert message.startswith("line 3: ")
    assert fault in message
    assert message.count("line ") == (2 if "duplicate" in fault else 1)


@pytest.mark.parametrize("fmt, text", [
    ("pipe", "P1|2005|A\nP2|two|B\nP3|2007\nP2|2008|C\n"),
    ("pipe", "P1|2005|A\nP1|2006|B\nP3|0|C\n"),
    ("jsonl", '{"id": "P1", "year": 2005, "authors": ["A"]}\n{"id": "P2", "year": 0, '
              '"authors": ["B"]}\n{"id": "P3"}\n[1]\n'),
], ids=["pipe-year-then-columns", "pipe-duplicate-then-year", "jsonl-year-then-keys"])
def test_the_first_of_two_faulty_lines_is_reported(fmt, text):
    with pytest.raises(DataError, match="^line 2: "):
        parse_records(text, fmt)


@pytest.mark.parametrize("fmt, line", [
    ("pipe", "P1|100000000000000000000|A"),
    ("pipe", "P1|9223372036854775808|A"),
    ("jsonl", '{"id": "P1", "year": 100000000000000000000, "authors": ["A"]}'),
])
def test_parse_rejects_a_year_beyond_64_bits(fmt, line):
    with pytest.raises(DataError, match=r"^line 1: record 'P1': year \d+ does not fit in 64 bits"):
        parse_records(line + "\n", fmt)
    assert parse_records(f"P1|{2**63 - 1}|A\n").years.tolist() == [2**63 - 1]


def test_parse_unknown_format():
    with pytest.raises(DataError, match="unknown record format"):
        parse_records("x", fmt="csv")


# ---------------------------------------------------------------------------
# any input

@pytest.mark.parametrize("text, kind", [
    ("P1|2005|A\n", "pipe"),
    ('\n  {"id": "P1", "year": 2005, "authors": ["A"]}\n', "jsonl"),
    ("x,y\n1,9\n", "distribution"),
    ("\r\n\x0b 1 , 9 \r\n2,3\n", "distribution"),
])
def test_read_input_sniffs_the_first_content_line(text, kind):
    expected = load_distribution(text) if kind == "distribution" else parse_records(text, kind)
    assert read_input(text) == expected
    assert read_input(text.encode("utf-8"), kind) == expected


def test_read_input_explicit_kind_skips_sniffing():
    with pytest.raises(DataError, match="line 1.*columns"):
        read_input("x,y\n1,9\n", "pipe")
    with pytest.raises(DataError, match="unknown record format"):
        read_input("P1|2005|A\n", "csv")


def test_read_input_names_every_kind():
    with pytest.raises(DataError, match=re.escape(
            "unknown record format 'bogus' (expected 'auto', 'pipe', 'jsonl' or 'distribution')")):
        read_input(b"P1|2005|A\n", "bogus")


def test_read_input_takes_any_bytes_like_input_and_no_other_type():
    data = b"P1|2000|A\nP2|2001|B; C\n"
    assert read_input(memoryview(data)) == read_input(bytearray(data)) == read_input(data)
    assert load_distribution(memoryview(b"1,2\n")) == load_distribution(b"1,2\n")
    for bad, name in [(data.decode().splitlines(True), "list"), (None, "NoneType"), (3, "int")]:
        with pytest.raises(TypeError, match=f"^input must be bytes or str, not {name}$"):
            read_input(bad)
        with pytest.raises(TypeError, match=name):
            parse_records(bad)


def _strided(data: bytes) -> memoryview:
    """A view of every second byte of a buffer, whose bytes are ``data``."""
    padded = bytearray(2 * len(data))
    padded[::2] = data
    return memoryview(padded)[::2]


def _transposed(data: bytes) -> memoryview:
    """A 2-D view of a transposed numpy array whose bytes, in C order, are ``data``."""
    return memoryview(np.ascontiguousarray(np.frombuffer(data, np.uint8).reshape(2, -1).T).T)


def _read_outcome(load, data):
    """What a load returns, or the text of the DataError it raises."""
    try:
        return load(data)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("view_of", [_strided, _transposed])
def test_a_view_that_is_not_contiguous_reads_as_its_bytes(view_of):
    """io.BytesIO refuses such a view with a BufferError: it is read as ``bytes(view)``."""
    for data in [b"P1|2000|A\nP2|2001|B; C\n\n", b"P1|2000|A\nP1|2001|B\n",
                 b'{"authors":["A"],"id":"J1","year":2001}\n', b"x,y\n1,20\n2,30\n",
                 b"1,2\n\xff\n"]:
        view = view_of(data)
        assert not view.c_contiguous and bytes(view) == data
        for load in (read_input, parse_records, load_distribution):
            assert _read_outcome(load, view) == _read_outcome(load, data)


def test_a_bytes_read_holds_no_whole_decoded_text(monkeypatch):
    """Bytes are decoded a block at a time: their read peaks no higher than that of their text.

    The blocks shrink to 2^14, a small part of the 20,000
    records, as 2^20 is of a real bibliography; the text, with a
    non-ASCII name in each line, takes two bytes a character.
    """
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1 << 14)
    text = "".join(f"P{i}|{1990 + i % 30}|Author {i % 97}; \u0141uk {i}\n" for i in range(20_000))
    data = text.encode("utf-8")
    peaks = []
    for source in (data, text):
        tracemalloc.start()
        try:  # no call inside an assert: pytest's rewrite would keep its result alive
            loaded = read_input(source, "pipe")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(loaded) == 20_000
        del loaded
    assert peaks[0] <= peaks[1] + 8 * corpus._BLOCK_BYTES, (peaks, sys.getsizeof(text))


def test_read_input_rejects_empty_and_unknown_layouts():
    with pytest.raises(DataError, match="input file is empty"):
        read_input(" \n\r\n\x85")
    with pytest.raises(DataError, match="cannot tell what kind of input 'hello world' starts"):
        read_input("\n hello world \n1,2\n")
    with pytest.raises(DataError, match="cannot tell what kind of input '\u0661,\u0665' starts"):
        read_input("\u0661,\u0665\n")  # int() takes Arabic-Indic digits, but no table does


def _first_line_kind(text: str) -> str:
    """Reference sniffer: splits the whole text, then takes the first non-blank line."""
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            if line.startswith("{"):
                return "jsonl"
            if "|" in line:
                return "pipe"
            fields = [field.strip() for field in line.split(",")]  # a table row's field rule
            if line.replace(" ", "").lower() == "x,y" or (
                    len(fields) == 2 and all(re.fullmatch(r"[+-]?[0-9]+", f) for f in fields)):
                return "distribution"
            return "unknown"
    return "empty"


_SNIFF_ALPHABET = st.sampled_from(
    ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t", "\u3000",
     "{", "|", ",", "x", "Y", "1", "9", "\u0663", "a", "+", "-"]
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(_SNIFF_ALPHABET, max_size=14).map("".join))
@example("+1,5\n2,1\n")
@example("1,\t5\n2,1\n")
@example("\u3000\n\n|")  # blocks of blank lines alone come first
@example("\r\n\r\n{")  # a CR waits for its LF
def test_read_input_sniffs_like_a_full_split(text):
    """The text is sniffed whole, and fed one character a block."""
    for texts in ((text,), text):
        try:
            kind, _ = corpus._sniff(corpus._line_blocks(texts))
        except DataError as exc:
            kind = "empty" if "empty" in str(exc) else "unknown"
        assert kind == _first_line_kind(text)


# ---------------------------------------------------------------------------
# jsonl records

def test_jsonl_round_trip():
    records = [
        PublicationRecord("P1", 2005, ("Smith J", "Jones K")),
        PublicationRecord("P2", 2010, ("Ngubane Z",)),
    ]
    assert parse_records(dump_records(records), fmt="jsonl") == records


def test_jsonl_normalizes_names():
    line = '{"id": "P1", "year": 2005, "authors": ["  Smith   J ", ""]}\n'
    records = parse_records(line, fmt="jsonl")
    assert records[0].authors == ("Smith J",)


def test_jsonl_bad_json():
    with pytest.raises(DataError, match="line 1.*invalid JSON"):
        parse_records("{not json}", fmt="jsonl")


def test_jsonl_missing_keys():
    with pytest.raises(DataError, match=r"line 1.*missing keys.*year"):
        parse_records('{"id": "P1", "authors": ["A"]}', fmt="jsonl")


def test_jsonl_rejects_bool_year():
    with pytest.raises(DataError, match="year"):
        parse_records('{"id": "P1", "year": true, "authors": ["A"]}', fmt="jsonl")


def test_jsonl_rejects_non_string_authors():
    with pytest.raises(DataError, match="authors"):
        parse_records('{"id": "P1", "year": 2005, "authors": [1]}', fmt="jsonl")


def test_jsonl_round_trip_escapes_unicode_line_separators():
    records = [PublicationRecord("a\x85b\u2028c\u2029d", 2005, ("Smith J",))]
    text = dump_records(records)
    assert text.count("\n") == 1 and len(text.splitlines()) == 1
    assert parse_records(text, fmt="jsonl") == records


_NAMES = st.text(min_size=1, max_size=12).map(normalize_author).filter(bool)
_RECORDS = st.lists(
    st.builds(PublicationRecord, st.text(min_size=1, max_size=12),
              st.integers(1, 3000), st.lists(_NAMES, min_size=1, max_size=5).map(tuple)),
    max_size=8, unique_by=lambda rec: rec.id,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_RECORDS)
def test_jsonl_round_trip_property(records):
    assert parse_records(dump_records(records), fmt="jsonl") == records


# raw names as a caller might pass them: padded, empty, Unicode whitespace
_PADDING = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000"])
_RAW_NAMES = st.one_of(
    st.text(max_size=12),
    st.tuples(_PADDING, st.text(max_size=8), _PADDING, st.text(max_size=4), _PADDING).map("".join),
)
_RAW_RECORDS = st.lists(
    st.builds(PublicationRecord, st.text(min_size=1, max_size=12), st.integers(1, 3000),
              st.lists(_RAW_NAMES, min_size=1, max_size=5).filter(
                  lambda names: any(map(normalize_author, names)))),
    max_size=8, unique_by=lambda rec: rec.id,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_RAW_RECORDS)
def test_jsonl_round_trip_of_raw_names_property(records):
    assert parse_records(dump_records(records), fmt="jsonl") == records


# ---------------------------------------------------------------------------
# corpus columns

def test_parse_returns_columns_not_record_objects():
    records = parse_records("P1|2005|Smith J; Jones K\n\nP2|2010| Ngubane  Z ;\n")
    assert isinstance(records, Corpus) and len(records) == 2
    assert records.ids == ["P1", "P2"]
    assert records.years.tolist() == [2005, 2010] and records.years.dtype == np.int64
    assert records.offsets.tolist() == [0, 2, 3] and records.offsets.dtype == np.int64
    assert records.names == ["Smith J", "Jones K", "Ngubane Z"]
    assert records[1] == records[-1] == PublicationRecord("P2", 2010, ("Ngubane Z",))
    with pytest.raises(IndexError):
        records[2]
    assert list(records) == [records[0], records[1]] == records[:] == records[::-1][::-1]
    assert Corpus.from_records(list(records)) == records == list(records)
    assert Corpus.from_records(records) is records
    assert records != [records[0]] and records != parse_records("P1|2005|Smith J\n")
    assert records != "P1" and parse_records("") == [] == Corpus.from_records([])


def test_corpus_columns_are_read_only():
    records = parse_records("P1|2005|A; B\nP2|2006|C\n")
    built = Corpus.from_records(list(records))
    for columns in (records, built):
        for column in (columns.years, columns.offsets):
            with pytest.raises(ValueError):
                column[0] = 7
    assert records.years.tolist() == [2005, 2006] and records.offsets.tolist() == [0, 2, 3]


def test_parse_builds_no_record_objects(monkeypatch):
    """The speed path keeps columns: one record object per row would come back unseen."""
    built = []
    check = PublicationRecord.__post_init__
    monkeypatch.setattr(PublicationRecord, "__post_init__",
                        lambda self: (built.append(self.id), check(self)))
    text = "".join(f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i % 13}\n"
                   for i in range(1000))
    records = parse_records(text)
    assert len(records) == 1000 and len(records.names) == 2000
    assert built == []
    assert records[999].id == "P999" and built == ["P999"]  # the counter does count


def test_valid_pipe_text_makes_no_call_per_line(monkeypatch):
    """Pipe columns are checked a block at a time; the per-line parser reads only a faulty block."""
    calls = []
    parse_line = corpus._parse_pipe_line
    monkeypatch.setattr(corpus, "_parse_pipe_line",
                        lambda line: (calls.append(line), parse_line(line))[1])
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 500)
    lines = [f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i % 13}\n" for i in range(1000)]
    records = parse_records("".join(lines))
    assert len(records) == 1000 and len(records.names) == 2000 and calls == []
    lines[699] = "P699|19x9|Author 1\n"
    with pytest.raises(DataError, match=r"^line 700: year '19x9' is not an integer$"):
        parse_records("".join(lines))
    # the counter does count: the faulty block's lines (those that end in its 500
    # characters), up to the fault
    assert calls == [line.strip() for line in lines[684:700]]


@pytest.mark.parametrize("faulty, message", [
    ("P0|2000|A", "duplicate record id 'P0' (first seen on line 1)"),
    (" |2000|A", "empty record id"),
    ("P1|0|A", "record 'P1': year must be a positive integer, got 0"),
    ("P1|2000| ; ", "record 'P1' has no authors"),
])
def test_a_pipe_fault_ends_the_column_pass_in_its_chunk(monkeypatch, faulty, message):
    """The block that the column check refuses is read line by line before the next is read."""
    pulled = []  # the pieces of text split into lines so far
    line_blocks = corpus._line_blocks
    monkeypatch.setattr(corpus, "_line_blocks",
                        lambda texts: line_blocks(pulled.append(text) or text for text in texts))
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 500)
    lines = [f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i % 13}" for i in range(1000)]
    assert len(parse_records("\n".join(lines))) == 1000 and len(pulled) > 50
    pulled.clear()
    lines[1] = faulty
    parse_line = corpus._parse_pipe_line
    before_lines = []  # pieces pulled when the per-line reader parses its first line
    monkeypatch.setattr(corpus, "_parse_pipe_line", lambda line: (
        before_lines.append(len(pulled)), parse_line(line))[1])
    with pytest.raises(DataError, match=f"^line 2: {re.escape(message)}$"):
        parse_records("\n".join(lines))
    assert before_lines[0] == 1  # the one block, checked by columns, then read line by line


def test_pipe_chunks_end_at_every_line_end(monkeypatch):
    """A file with no newline is still read a block at a time: memory stays bounded."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 2000)
    peaks = {}
    for end in ["\n", "\r", "\x85", "\x0c"]:
        text = "".join(f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i}{end}" for i in range(5000))
        tracemalloc.start()
        try:
            assert len(parse_records(text)) == 5000
            peaks[end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 1.2 * peaks["\n"], peaks


def test_corpus_is_built_from_records_only():
    records = [PublicationRecord("P1", 2000, (" Smith  J", "")),
               PublicationRecord("P2", 2001, ("A", "B"))]
    parsed = parse_records("P1|2000| Smith  J;\nP2|2001|A;B\n")
    for built in (Corpus(records), Corpus.from_records(records), Corpus(iter(records))):
        assert built == parsed
        assert (built.ids, built.years.tolist(), built.offsets.tolist(), built.names) == (
            parsed.ids, parsed.years.tolist(), parsed.offsets.tolist(), parsed.names)
        assert not built.years.flags.writeable and not built.offsets.flags.writeable
    with pytest.raises(TypeError):
        Corpus(["a", "b"], [2000, 2001], [0, 1, 2], ["x", "y"])
    with pytest.raises(TypeError, match="PublicationRecord"):
        Corpus([("P1", 2000, ("A",))])


def test_corpus_from_records_rejects_a_repeated_id():
    record = PublicationRecord("P1", 2000, ("A",))
    with pytest.raises(DataError, match="duplicate record id 'P1'"):
        Corpus.from_records([record, record])


def test_checked_columns_are_not_checked_again():
    text = "P1|2005|A; B\nP2|2006|C\n"
    with mock.patch.object(Corpus, "__init__", side_effect=AssertionError):
        records = parse_records(text)
        assert parse_records(dump_records(records), "jsonl") == records


_PAD = st.sampled_from(["", " ", "\t", "\u2000", "\u3000"])
_END = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"])


@st.composite
def _pipe_texts(draw):
    """Pipe text of valid rows, padded and with mixed line ends, with at most one fault."""
    rows = []
    for i in range(draw(st.integers(0, 8))):
        names = draw(st.lists(st.sampled_from(["Smith J", " Jones  K ", "Ng\u3000L", "", " "]),
                              min_size=1, max_size=4))
        rows.append([f"P{i}", str(draw(st.integers(1, 2**63 - 1))), ";".join([*names, "A"])])
    fault = draw(st.sampled_from([None, "columns", "year", "id", "authors"]))
    if fault and rows:
        row = draw(st.sampled_from(rows))
        if fault == "columns":
            row[:] = draw(st.sampled_from([row[:2], [*row, "x"]]))
        elif fault == "year":
            row[1] = draw(st.sampled_from(["x", "", "1.5", "0", "-3", str(2**63), str(-2**70),
                                           "2_005", "\u0662\u0660\u0660\u0665"]))
        elif fault == "id":
            row[0] = draw(st.sampled_from(["", "\u3000", rows[0][0], rows[-1][0]]))
        else:
            row[2] = draw(st.sampled_from(["", " ", ";", " ; \u2000;"]))
    text = ""
    for row in rows:
        text += "|".join(draw(_PAD) + column + draw(_PAD) for column in row) + draw(_END)
        if draw(st.booleans()):
            text += draw(_PAD) + draw(_END)  # a blank line
    return text


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_pipe_texts(), st.integers(1, 40))
def test_pipe_columns_match_the_per_line_loop(text, block_chars):
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_chars):
        columns = _load_outcome(lambda: parse_records(text, "pipe"))
        with mock.patch.object(corpus, "_pipe_block", return_value=None):  # every block refused
            assert columns == _load_outcome(lambda: parse_records(text, "pipe"))


def test_consumers_agree_on_a_corpus_and_its_records():
    rng = np.random.default_rng(606)
    for records in [build_mixed_records(), *(random_corpus(rng, max_authors=14)
                                             for _ in range(20))]:
        columns = parse_records(dump_records(records), "jsonl")
        assert columns == records
        rows = list(columns)
        for method in CountingMethod:
            assert count_productivity(columns, method) == count_productivity(rows, method)
        assert authorship_pattern(columns, 3) == authorship_pattern(rows, 3)
        assert collab_metrics(columns) == collab_metrics(rows)
        assert dump_records(columns) == dump_records(rows)


# text a pipe line carries as is: no '|' or ';' separator and no splitlines() boundary
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="|;\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                max_size=10)
_PIPE_SAFE_ROWS = st.lists(
    st.tuples(_TEXT.filter(str.strip), st.integers(1, 2**63 - 1), st.sampled_from(["", " ", "\t"]),
              st.lists(_TEXT, min_size=1, max_size=5).filter(
                  lambda names: any(map(normalize_author, names)))),
    max_size=8, unique_by=lambda row: row[0].strip(),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_PIPE_SAFE_ROWS, st.sampled_from(["pipe", "jsonl"]), st.integers(1, 8), st.integers(1, 16))
def test_parse_property_matches_hand_built_records(rows, fmt, tally_names, block_bytes):
    """Each record keeps its names, in order, across the blocks of the read and its batches of names."""
    if fmt == "pipe":
        text = "".join(f"{rid}|{pad}{year}{pad}|{';'.join(names)}\n"
                       for rid, year, pad, names in rows)
        expected = [PublicationRecord(rid.strip(), year, names) for rid, year, _, names in rows]
    else:
        text = "".join(json.dumps({"id": rid, "year": year, "authors": names}) + "\n"
                       for rid, year, _, names in rows)
        expected = [PublicationRecord(rid, year, names) for rid, year, _, names in rows]
    with mock.patch.object(corpus, "_TALLY_NAMES", tally_names), \
            mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes):
        assert parse_records(text, fmt) == expected
        assert parse_records(text.encode("utf-8"), fmt) == expected


# ---------------------------------------------------------------------------
# record files read in chunks

@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.text(st.sampled_from(["\r", "\n", "\x85", "\x0c", "\u2028", " ", "\u3000",
                                         "a", "b"]), max_size=6), max_size=8))
@example(["\r", "a"])  # a lone CR ends a line of its own
@example(["a\r", "\nb"])  # a CR LF cut in two is one line end
def test_line_blocks_keep_every_line_of_the_text(pieces):
    """No block ends inside a line or between the CR and LF of one line end.

    Each line that is not blank comes out stripped, with its number in
    the whole text; no block is empty.
    """
    blocks = list(corpus._line_blocks(pieces))
    assert all(lines and len(numbers) == len(lines) for numbers, lines in blocks)
    numbered = enumerate(map(str.strip, "".join(pieces).splitlines()), 1)
    assert [pair for numbers, lines in blocks for pair in zip(numbers, lines)] == [
        (number, line) for number, line in numbered if line]


def test_a_line_of_many_pieces_is_chunked_in_linear_time():
    """Copying the held text for every piece took seconds here, as the square of the length."""
    text = "x" * (1 << 23) + "\n"
    pieces = [text[i : i + (1 << 10)] for i in range(0, len(text), 1 << 10)]
    start = time.perf_counter()
    blocks = list(corpus._line_blocks(pieces))
    elapsed = time.perf_counter() - start
    assert [(list(numbers), lines) for numbers, lines in blocks] == [([1], [text.strip()])]
    assert elapsed < 1.0


def _credited_names(records: Corpus, method) -> list[str]:
    """Every name a method credits, one record at a time: the tally's reference."""
    starts = records.offsets.tolist()
    if CountingMethod(method) is CountingMethod.COMPLETE:
        return records.names
    return [records.names[start] for start in starts[:-1]]


@pytest.mark.parametrize("method", list(CountingMethod))
@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_records_counted_as_they_are_read_keep_no_names(monkeypatch, tmp_path, fmt, method):
    """Each block's names go to the tally and no further; what the columns need stays."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(corpus, "_TALLY_NAMES", 8)
    credited = mock.Mock(wraps=corpus._credited)
    monkeypatch.setattr(corpus, "_credited", credited)
    records = random_corpus(np.random.default_rng(17), max_authors=6)
    text = dump_records(records) if fmt == "jsonl" else "".join(
        f"{rec.id}|{rec.year}| ;{'; '.join(rec.authors)};\r\n" for rec in records)
    path = tmp_path / "records.txt"
    path.write_text(text, encoding="utf-8")
    loaded, tally = corpus._read_file(path, fmt, method)
    whole = parse_records(text, fmt)
    assert credited.call_count > 10 and not hasattr(loaded, "names")
    assert tally == Counter(_credited_names(whole, method))
    assert (loaded.ids, loaded.years.tolist(), loaded.offsets.tolist()) \
        == (whole.ids, whole.years.tolist(), whole.offsets.tolist())
    assert authorship_pattern(loaded) == authorship_pattern(whole)
    assert collab_metrics(loaded) == collab_metrics(whole)
    for use in (count_productivity, dump_records, lambda records: records[0]):
        with pytest.raises(AttributeError, match="names"):
            use(loaded)


def test_naming_a_pipe_fault_credits_no_name_twice(monkeypatch, tmp_path):
    """Each block is credited once, as it is read: the block that names the fault credits nothing."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    path = tmp_path / "records.psv"
    path.write_text("".join(f"P{i}|2000|Author {i}\n" for i in range(199)) + "P199|19x9|A\n",
                    encoding="utf-8")
    handed = []
    credited = corpus._credited
    monkeypatch.setattr(corpus, "_credited", lambda *args: handed.extend(credited(*args)) or [])
    with pytest.raises(DataError, match="^line 200: year '19x9' is not an integer$"):
        corpus._read_file(path, "pipe", CountingMethod.COMPLETE)
    assert 150 < len(handed) == len(set(handed))


@st.composite
def _jsonl_texts(draw):
    """JSON lines of records, with mixed line ends and blank lines, with at most one fault."""
    lines = dump_records(draw(_RECORDS)).splitlines()
    fault = draw(st.sampled_from([None, "json", "year", "duplicate"]))
    if fault and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if fault == "json":
            lines[i] = lines[i][:-1]
        elif fault == "year":
            lines[i] = lines[i].replace('"year":', '"year":-')
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
    text = ""
    for line in lines:
        text += line + draw(_END)
        if draw(st.booleans()):
            text += draw(_PAD) + draw(_END)  # a blank line
    return text


def _load_outcome(load):
    """The columns a load returns, or the text of the DataError it raises."""
    try:
        loaded = load()
    except DataError as exc:
        return str(exc)
    return loaded.ids, loaded.years.tolist(), loaded.offsets.tolist(), loaded.names


def _counted_outcome(load, method):
    """The columns a load returns and the tally of the names ``method`` credits, or its DataError."""
    try:
        loaded = load()
    except DataError as exc:
        return str(exc)
    tally = None if method is None else Counter(_credited_names(loaded, method))
    return loaded.ids, loaded.years.tolist(), loaded.offsets.tolist(), tally


def _decoded_outcome(data: bytes, kind, method):
    """The outcome of a read of ``data`` decoded whole: its UTF-8 fault, else that of its text."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        return f"input is not valid UTF-8: {exc}"
    return _counted_outcome(lambda: read_input(text, kind), method)


def _file_outcome(path, kind, method):
    """``_read_file``'s columns and tally, or the text of the DataError it raises."""
    try:
        loaded, tally = corpus._read_file(path, kind, method)
    except DataError as exc:
        return str(exc)
    return loaded.ids, loaded.years.tolist(), loaded.offsets.tolist(), tally


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(st.tuples(st.just("pipe"), _pipe_texts()),
                 st.tuples(st.just("jsonl"), _jsonl_texts())),
       st.booleans(), st.booleans(), st.none() | st.integers(0, 10**4),
       st.integers(1, 7), st.sampled_from([None, *CountingMethod]))
def test_a_file_read_in_chunks_parses_as_its_whole_text(tmp_path_factory, case, bom, sniff,
                                                        bad_byte, block_bytes, method):
    """Blocks of a few bytes cut CR LF pairs and multi-byte characters in two."""
    fmt, text = case
    data = b"\xef\xbb\xbf" * bom + text.encode("utf-8")
    if bad_byte is not None:
        bad_byte %= len(data) + 1
        data = data[:bad_byte] + b"\xff" + data[bad_byte:]
    kind = "auto" if sniff else fmt
    expected = _decoded_outcome(data, kind, method)
    path = tmp_path_factory.getbasetemp() / "records_in_chunks"
    path.write_bytes(data)
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes):
        assert _counted_outcome(lambda: read_input(data, kind), method) == expected
        with mock.patch.object(corpus, "read_input", wraps=corpus.read_input) as whole_file:
            assert _file_outcome(path, kind, method) == expected
    # every fault is named in the stream, with no whole-file read
    assert not whole_file.called


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb", b"\xef\xbbP1|2000|A\n", b"\xef\xbb\xbf\xef\xbb"])
def test_a_file_of_part_of_a_byte_order_mark_is_not_valid_utf8(tmp_path, data):
    """Part of a BOM is no BOM: an incremental utf-8-sig decoder reads a file of only that as empty."""
    path = tmp_path / "records.psv"
    path.write_bytes(data)
    expected = _decoded_outcome(data, "auto", None)
    assert expected.startswith("input is not valid UTF-8: ")
    assert _load_outcome(lambda: read_input(data)) == expected
    assert _file_outcome(path, "auto", None) == expected


_SPLIT_NAMES = st.sampled_from(["Smith J", " Ng\u3000L ", "\u0141uk \u017b", "\ufeffA", "\ud800", ""])


@st.composite
def _split_files(draw):
    """A record file's bytes and format: lines that start with U+FEFF or a non-ASCII letter,
    CR LF and lone CR ends, runs of blank lines that can fill a range, at most one data
    fault and sometimes a bad byte."""
    fmt = draw(st.sampled_from(["pipe", "jsonl"]))
    lines = []
    for i in range(draw(st.integers(0, 30))):
        start = draw(st.sampled_from(["", "\ufeff", "\u0141", "\u3000"]))
        names = [*draw(st.lists(_SPLIT_NAMES, max_size=4)), "A"]
        if fmt == "pipe":  # a lone surrogate cannot be written as UTF-8, but JSON escapes it
            lines.append(f"{start}P{i}|{1990 + i}|{';'.join(names).replace(chr(0xd800), 'B')}")
        else:
            lines.append(start.strip("\ufeff\u0141")
                         + json.dumps({"id": f"{start}P{i}", "year": 1990 + i, "authors": names}))
    fault = draw(st.sampled_from([None, None, "duplicate", "year", "U+FEFF"]))
    if fault and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if fault == "U+FEFF":  # part of a pipe id, but no JSON
            lines[i] = "\ufeff" + lines[i]
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[i] if fault == "duplicate"
                         else lines[i].replace("|19", "|x").replace(": 19", ": -"))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r", "\x85"]))
        text += " \n" * draw(st.sampled_from([0, 0, 1, 40]))
    data = b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode("utf-8", "surrogatepass")
    if draw(st.sampled_from([False, False, False, True])):  # a bad byte
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return fmt, data


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_split_files(), st.sampled_from([None, *CountingMethod]), st.booleans(), st.integers(2, 4),
       st.integers(1, 32), st.integers(1, 7))
def test_a_file_read_in_ranges_reads_as_one_range(tmp_path_factory, case, method, sniff, cpus,
                                                   split_bytes, block_bytes):
    """Workers forked for the ranges give the records, tally and fault of a one-range read."""
    fmt, data = case
    path = tmp_path_factory.getbasetemp() / "records_in_ranges"
    path.write_bytes(data)
    kind = "auto" if sniff else fmt
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes):
        expected = _file_outcome(path, kind, method)
        with mock.patch.object(corpus, "_SPLIT_BYTES", split_bytes), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            assert _file_outcome(path, kind, method) == expected
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


_CUT_WINDOW = 8  # _BLOCK_BYTES while a file is cut; each range holds at least twice it


@st.composite
def _files_to_cut(draw):
    """A record file's bytes: lines of 1 byte to 3 windows with LF or CR LF ends, the last
    sometimes with none. Each line is all ``|``, so ``"auto"`` sniffs pipe records."""
    sizes = st.integers(1, 3 * _CUT_WINDOW)
    lines = draw(st.lists(st.tuples(sizes, st.sampled_from([b"\n", b"\r\n"])), max_size=40))
    data = b"".join(b"|" * max(size - len(end), 0) + end for size, end in lines)
    return data + b"|" * draw(st.sampled_from([0, 0, 1, 2 * _CUT_WINDOW]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_files_to_cut(), st.integers(2, 7), st.sampled_from(["pipe", "jsonl", "auto"]))
def test_each_range_starts_after_the_first_newline_within_a_block_of_its_cut(
        tmp_path_factory, data, cpus, kind):
    path = tmp_path_factory.getbasetemp() / "records_to_cut"
    path.write_bytes(data)
    with mock.patch.object(corpus, "_BLOCK_BYTES", _CUT_WINDOW), \
            mock.patch.object(corpus, "_SPLIT_BYTES", 2 * _CUT_WINDOW), \
            mock.patch.object(corpus, "_cpus", lambda: cpus), open(path, "rb") as file:
        kind, starts = corpus._ranges(file, kind)
        assert file.tell() == 0
    size = len(data)
    count = min(cpus, size // (2 * _CUT_WINDOW)) if kind != "auto" else 1  # auto: nothing sniffed
    cuts = [size * i // count for i in range(1, count)]
    assert starts[0] == 0 and starts == sorted(set(starts)) and all(s < size for s in starts[1:])
    for start in starts[1:]:
        cut = max(cut for cut in cuts if cut < start)
        assert data[start - 1] == ord("\n") and start - cut <= _CUT_WINDOW
        assert b"\n" not in data[cut : start - 1]  # the first newline after its cut
    for cut, end in zip(cuts, [*cuts[1:], size]):  # a cut with no newline in its window is dropped
        after = data[cut : min(end, cut + _CUT_WINDOW)].find(b"\n") + 1
        found = [start for start in starts if cut < start <= end]
        assert found == ([cut + after] if 0 < after < size - cut else [])


@pytest.mark.parametrize("line, fault", [
    (_LONG_YEAR_LINE, "a number with too many digits"),
    (_DEEP_LINE, "nested too deeply"),
], ids=["year-past-the-digit-limit", "nested-past-the-stack"])
def test_a_json_fault_in_a_later_range_is_named_by_the_one_range_read(monkeypatch, tmp_path,
                                                                       line, fault):
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    lines = dump_records(PublicationRecord(f"P{i}", 2000, (f"Author {i}",))
                         for i in range(300)).splitlines(keepends=True)
    lines[-5] = line + "\n"
    path = tmp_path / "records.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    forked = mock.Mock(wraps=corpus._Worker)
    monkeypatch.setattr(corpus, "_Worker", forked)
    with pytest.raises(DataError, match=rf"^line 296: invalid JSON \({fault}\)$"):
        corpus._read_file(path, "auto", CountingMethod.COMPLETE)
    assert forked.call_count == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Interrupt(Exception):
    """Raised in the parent in the middle of a read."""


@pytest.mark.parametrize("case", ["valid", "fault in the first range", "fault in a later range",
                                  "interrupted", "second fork fails"])
def test_no_worker_outlives_the_read(monkeypatch, tmp_path, case):
    """A fork that fails leaves the file to be read as one range."""
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    receive = corpus._Worker.receive

    def interrupt_the_parent(worker, tally):
        receive(worker, tally)
        raise _Interrupt

    if case == "interrupted":  # after the first message the parent reads
        monkeypatch.setattr(corpus._Worker, "receive", interrupt_the_parent)
    forked = mock.Mock(wraps=corpus._Worker)
    monkeypatch.setattr(corpus, "_Worker", forked)
    lines = [f"P{i}|2000|Author {i}\n" for i in range(300)]
    if case == "fault in the first range":
        lines[5] = "P5|x|A\n"
    elif case == "fault in a later range":
        lines[-5] = "P295|x|A\n"
    path = tmp_path / "records.psv"
    path.write_text("".join(lines), encoding="utf-8")
    raised = {"interrupted": _Interrupt}.get(case, DataError if "fault" in case else None)
    if case == "second fork fails":
        fork = os.fork
        forks = iter([fork, mock.Mock(side_effect=BlockingIOError(11, "no process to be had"))])
        monkeypatch.setattr(os, "fork", lambda: next(forks)())
    try:
        loaded, tally = corpus._read_file(path, "pipe", CountingMethod.COMPLETE)
    except (DataError, _Interrupt) as exc:
        assert type(exc) is raised
    else:
        assert raised is None
        assert len(loaded) == len(tally) == 300
    assert forked.call_count == (2 if case == "second fork fails" else 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_the_parent_parses_no_range_of_a_split_file(monkeypatch, tmp_path, fmt):
    """Every range goes to a worker: the parent only tallies and joins."""
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spy = mock.Mock(wraps=corpus._records)
    monkeypatch.setattr(corpus, "_records", spy)
    records = [PublicationRecord(f"P{i}", 2000, (f"Author {i}", f"Author {i % 7}")) for i in range(300)]
    path = tmp_path / "records.txt"
    path.write_text(dump_records(records) if fmt == "jsonl" else "".join(
        f"{rec.id}|{rec.year}|{'; '.join(rec.authors)}\n" for rec in records), encoding="utf-8")
    loaded, tally = corpus._read_file(path, fmt, CountingMethod.COMPLETE)
    assert loaded.ids == [rec.id for rec in records]
    assert tally == Counter(_credited_names(Corpus(records), CountingMethod.COMPLETE))
    assert not spy.called


def test_a_worker_that_dies_leaves_the_file_to_be_read_as_one_range(monkeypatch, tmp_path):
    """A worker killed mid-read, say for memory, costs a one-range read, not the records."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(corpus, "_TALLY_NAMES", 8)
    path = tmp_path / "records.psv"
    path.write_text("".join(f"P{i}|2000|Author {i}; Author {i % 7}\n" for i in range(300)),
                    encoding="utf-8")
    expected = _file_outcome(path, "pipe", CountingMethod.COMPLETE)
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    work, send = corpus._work, corpus._send

    def send_then_die(*message):
        send(*message)
        message[0].flush()
        os.kill(os.getpid(), signal.SIGKILL)

    def work_then_die(path, kind, method, start, end, out):
        if start:  # in the second worker only: it sends one batch of names, then is killed
            corpus._send = send_then_die
        work(path, kind, method, start, end, out)

    monkeypatch.setattr(corpus, "_work", work_then_die)
    forked = mock.Mock(wraps=corpus._Worker)
    monkeypatch.setattr(corpus, "_Worker", forked)
    assert _file_outcome(path, "pipe", CountingMethod.COMPLETE) == expected
    assert forked.call_count == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_fork_that_warns_leaves_the_file_to_be_read_as_one_range(monkeypatch, tmp_path, capfd):
    """Python 3.12+ warns in the parent once it has forked a process with threads.

    Every warning is an error here, as under ``python -W error``: raised
    out of ``os.fork``, it would lose the worker's pid and pipe. The
    worker is stopped and reaped, and the file read as one range.
    """
    path = tmp_path / "records.psv"
    path.write_text("".join(f"P{i}|2000|Author {i}; Author {i % 7}\n" for i in range(300)),
                    encoding="utf-8")
    expected = _file_outcome(path, "pipe", CountingMethod.COMPLETE)
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fork = os.fork

    def fork_then_warn():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks "
                          "in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_warn)
    forked = mock.Mock(wraps=corpus._Worker)
    monkeypatch.setattr(corpus, "_Worker", forked)
    assert _file_outcome(path, "pipe", CountingMethod.COMPLETE) == expected
    assert forked.call_count == 1
    assert capfd.readouterr() == ("", "")


def test_pipe_input_that_cannot_seek_is_checked_by_columns(monkeypatch):
    """A pipe is read once, as a file that can seek is: no Python call per valid line."""
    calls = []
    parse_line = corpus._parse_pipe_line
    monkeypatch.setattr(corpus, "_parse_pipe_line",
                        lambda line: (calls.append(line), parse_line(line))[1])
    text = "".join(f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i % 13}\n" for i in range(200))
    read, write = os.pipe()
    with open(read, "rb") as source:
        with open(write, "wb") as sink:
            sink.write(text.encode("utf-8"))
        loaded, tally = corpus._read_file(f"/dev/fd/{source.fileno()}", "pipe",
                                          CountingMethod.COMPLETE)
    whole = parse_records(text)
    assert (loaded.ids, loaded.years.tolist(), loaded.offsets.tolist()) \
        == (whole.ids, whole.years.tolist(), whole.offsets.tolist())
    assert tally == Counter(whole.names) and calls == []


# ---------------------------------------------------------------------------
# counting

def _corpus(*author_lists):
    return [
        PublicationRecord(f"P{i}", 2000, tuple(authors))
        for i, authors in enumerate(author_lists)
    ]


def test_complete_counting():
    dist = count_productivity(_corpus(["A", "B"], ["B"]), CountingMethod.COMPLETE)
    assert dist.points == ((1, 1), (2, 1))
    assert dist.provenance == "counted:complete"


def test_straight_counting():
    dist = count_productivity(_corpus(["A", "B"], ["B"]), CountingMethod.STRAIGHT)
    assert dist.points == ((1, 2),)


def test_counting_accepts_strings():
    corpus = _corpus(["A"], ["A"], ["A"])
    assert count_productivity(corpus, "complete").points == ((3, 1),)
    assert count_productivity(corpus, "straight").points == ((3, 1),)


def test_counting_rejects_an_unknown_method():
    corpus = _corpus(["A"])
    with pytest.raises(DataError, match="unknown counting method 'bogus' "
                                        r"\(expected 'complete' or 'straight'\)"):
        count_productivity(corpus, "bogus")


def test_counting_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        count_productivity([], CountingMethod.COMPLETE)


def test_counting_random_corpora_match_brute_force():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        records = random_corpus(rng)
        for method in CountingMethod:
            per_author: Counter[str] = Counter()
            for rec in records:
                credited = rec.authors if method is CountingMethod.COMPLETE else rec.authors[:1]
                for name in credited:
                    per_author[name] += 1
            expected = tuple(sorted(Counter(per_author.values()).items()))
            dist = count_productivity(records, method)
            assert dist.points == expected
        complete = count_productivity(records, CountingMethod.COMPLETE)
        straight = count_productivity(records, CountingMethod.STRAIGHT)
        assert complete.total_contributions == sum(len(r.authors) for r in records)
        assert straight.total_contributions == len(records)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_RECORDS.filter(bool))
def test_counting_totals_property(records):
    complete = count_productivity(records, CountingMethod.COMPLETE)
    assert complete.total_contributions == sum(len(rec.authors) for rec in records)
    assert complete.total_authors == len({name for rec in records for name in rec.authors})
    straight = count_productivity(records, CountingMethod.STRAIGHT)
    assert straight.total_contributions == len(records)
    assert straight.total_authors == len({rec.authors[0] for rec in records})


def test_counting_order_invariance():
    rng = np.random.default_rng(77)
    records = random_corpus(rng)
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert (
        count_productivity(records, "complete").points
        == count_productivity(shuffled, "complete").points
    )


# ---------------------------------------------------------------------------
# distribution files

def test_load_distribution_fixture(cad_distribution):
    assert len(cad_distribution.points) == 34
    assert cad_distribution.total_authors == 16006
    assert cad_distribution.points[0] == (1, 8654)
    assert cad_distribution.points[-1] == (114, 1)


def test_load_distribution_header_optional():
    assert load_distribution("1,60\n2,15\n").points == ((1, 60), (2, 15))
    assert load_distribution("x,y\n1,60\n2,15\n").points == ((1, 60), (2, 15))
    assert load_distribution("X , Y\n1,60\n").points == ((1, 60),)


def test_load_distribution_sorts_rows():
    assert load_distribution("5,1\n1,9\n3,2\n").points == ((1, 9), (3, 2), (5, 1))


def test_load_distribution_rejects_zero_count():
    with pytest.raises(DataError, match="line 2.*>= 1"):
        load_distribution("1,5\n3,0\n")


def test_load_distribution_rejects_bad_x():
    with pytest.raises(DataError, match="x must be >= 1"):
        load_distribution("0,5\n")


def test_load_distribution_rejects_duplicates():
    with pytest.raises(DataError, match=r"line 3.*duplicate x=2.*line 1"):
        load_distribution("2,5\n1,9\n2,4\n")


@pytest.mark.parametrize("row", ["1_0,2", "\u0661,5", "1,\uff15"])
def test_load_distribution_rejects_integers_that_only_python_syntax_takes(row):
    with pytest.raises(DataError, match=f"^line 2: non-integer value in {re.escape(repr(row))}$"):
        load_distribution(f"x,y\n{row}\n")
    assert load_distribution("x,y\n\u30001 ,\u20032\n").points == ((1, 2),)  # padding is no digit


def test_load_distribution_rejects_garbage():
    with pytest.raises(DataError, match="line 1"):
        load_distribution("one,two\n")
    with pytest.raises(DataError, match="no rows"):
        load_distribution("\n\n")


def test_dump_load_round_trip(cad_distribution):
    again = load_distribution(dump_distribution(cad_distribution))
    assert again.points == cad_distribution.points


# ---------------------------------------------------------------------------
# value objects

def test_distribution_invariants():
    with pytest.raises(DataError):
        ProductivityDistribution(())
    with pytest.raises(DataError):
        ProductivityDistribution(((1, 3), (1, 4)))
    with pytest.raises(DataError):
        ProductivityDistribution(((2, 3), (1, 4)))
    with pytest.raises(DataError):
        ProductivityDistribution(((1, 0),))


def test_distribution_totals():
    dist = ProductivityDistribution(((1, 3), (4, 2)))
    assert dist.total_authors == 5
    assert dist.total_contributions == 3 + 8


def test_distribution_rejects_fractional_points():
    with pytest.raises(DataError, match="whole numbers, got x=1, y=10.9"):
        ProductivityDistribution(((1, 10.9), (2.5, 3), (3, 1)))
    with pytest.raises(DataError, match="whole numbers, got x=2.5, y=3"):
        ProductivityDistribution(((1, 10), (2.5, 3), (3, 1)))
    with pytest.raises(DataError, match="whole numbers"):
        ProductivityDistribution(np.array([[1.0, 3.5]]))
    whole = ((1, 10), (2, 3), (3, 1))
    for points in (((1.0, 10.0), (2.0, 3.0), (3.0, 1.0)), np.array(whole),
                   np.array(whole, dtype=np.int32), np.array(whole, dtype=np.float64)):
        assert ProductivityDistribution(points).points == whole


@pytest.mark.parametrize("point", [
    (1, math.nan), (math.nan, 1), (1, math.inf), (math.inf, 1), (2, -math.inf),
    (np.float64(math.nan), 1), (99999999999999999999, 1), (4000000000, 3000000000),
    (None, 1), (True, 5), (1, np.True_),
])
def test_distribution_rejects_non_finite_points(point):
    with pytest.raises(DataError, match=f"whole numbers, got x={point[0]}, y={point[1]}"):
        ProductivityDistribution(((1, 5), point) if point[0] == 2 else (point,))


@pytest.mark.parametrize("row", [5, (1,), (1, 2, 3), None])
def test_distribution_rows_must_be_pairs(row):
    with pytest.raises(DataError, match=re.escape(f"an (x, y) pair, got {row!r}")):
        ProductivityDistribution(((1, 5), row) if row == (1, 2, 3) else (row,))


@pytest.mark.parametrize("points", [5, None, 2.5])
def test_distribution_points_must_be_iterable(points):
    with pytest.raises(DataError, match=re.escape(f"an iterable of (x, y) pairs, got {points!r}")):
        ProductivityDistribution(points)


def test_distribution_takes_a_generator_of_pairs():
    dist = ProductivityDistribution(row for row in ((1, 3), (2, 1)))
    assert dist.points == ((1, 3), (2, 1)) and dist.total_authors == 4


def test_distribution_columns_are_built_once_and_read_only():
    dist = ProductivityDistribution(((1, 3), (4, 2)))
    assert dist.xs is dist.xs and dist.ys is dist.ys
    assert dist.xs.tolist() == [1, 4] and dist.ys.tolist() == [3, 2]
    with pytest.raises(ValueError):
        dist.xs[0] = 2
    with pytest.raises(ValueError):
        dist.ys[0] = 7
    assert dist == ProductivityDistribution(((1, 3), (4, 2)), provenance="loaded")


def _row_loop(points):
    """The row-by-row check a distribution ran before it kept only columns: the oracle.

    Returns ``(points, total_authors, total_contributions)`` or raises
    :class:`DataError`, as that constructor did.
    """
    bools = (bool, np.bool_)
    pts, prev, authors, contributions = [], 0, 0, 0
    try:
        rows = iter(points)
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
        if x is None or x != gx or y != gy or isinstance(gx, bools) or isinstance(gy, bools):
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
    return tuple(pts), authors, contributions


@st.composite
def _valid_tables(draw) -> list[tuple[int, int]]:
    """1 to 30 rows, x from 1 to 2^45, y to 2^20; at times the sum of x*y is just below 2^63."""
    gaps = draw(st.lists(st.integers(1, 2 ** draw(st.sampled_from([2, 20, 40]))), min_size=1,
                         max_size=30))
    rows = list(zip(accumulate(gaps), draw(st.lists(st.integers(1, 2**20), min_size=len(gaps),
                                                    max_size=len(gaps)))))
    while sum(x * y for x, y in rows) >= 2**62:  # the first row holds at most 2^60
        rows.pop()
    if draw(st.booleans()):  # the last count takes the sum as close to 2^63 as it goes
        x, y = rows[-1]
        rows[-1] = x, (2**63 - 1 - sum(x * y for x, y in rows[:-1])) // x
    return rows


def _forms(rows: list[tuple[int, int]]) -> list:
    """The inputs that hold the table ``rows``: pairs, lists, numpy rows, arrays, whole floats."""
    top = max(max(row) for row in rows)
    forms = [tuple(rows), [list(row) for row in rows], list(np.array(rows, np.int64)),
             np.array(rows, np.int64), np.array(rows, np.uint64)]
    if top < 2**31:
        forms.append(np.array(rows, np.int32))
    if top <= 2**53:
        forms += [tuple((float(x), float(y)) for x, y in rows), np.array(rows, np.float64)]
    return forms


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_valid_tables())
def test_every_form_of_a_valid_table_builds_what_the_row_loop_builds(rows):
    points, authors, contributions = _row_loop(rows)
    reference = ProductivityDistribution(rows)
    for form in [*_forms(rows), (row for row in rows)]:
        dist = ProductivityDistribution(form)
        assert dist.xs.dtype == dist.ys.dtype == np.int64
        assert dist.xs.tolist() == [x for x, _ in points] and dist.ys.tolist() == [y for _, y in points]
        assert dist.points == points and all(type(v) is int for row in dist.points for v in row)
        assert (dist.total_authors, dist.total_contributions) == (authors, contributions)
        assert dist.to_dict() == reference.to_dict() == {
            "points": [list(row) for row in points], "provenance": "loaded",
            "total_authors": authors, "total_contributions": contributions}
        assert dist == reference and hash(dist) == hash(reference)
    assert reference != ProductivityDistribution(rows, provenance="exact")


_NOT_PAIRS = st.sampled_from([5, None, (1,), (1, 2, 3), "ab", 2.5])
_NOT_WHOLE = st.sampled_from([True, False, np.True_, math.nan, np.float64(math.nan), math.inf,
                              -math.inf, 2.5, None, "1"])
_BELOW_1 = st.one_of(st.just(0), st.integers(-2**62, -1))
_PAST_64_BITS = st.integers(63, 200).flatmap(lambda bits: st.sampled_from([2**bits, -2**bits - 1]))


@st.composite
def _faulty_tables(draw):
    """A valid table with one fault put in, and the name of the fault."""
    rows = [list(row) for row in draw(_valid_tables())]
    i, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
    fault = draw(st.sampled_from(["empty", "not a pair", "not whole", "past 64 bits", "unsorted",
                                  "x below 1", "y below 1", "sum reaches 2^63"]))
    if fault == "empty":
        rows = []
    elif fault == "not a pair":
        rows[i] = draw(_NOT_PAIRS)
    elif fault == "not whole":
        rows[i][column] = draw(_NOT_WHOLE)
    elif fault == "past 64 bits":
        rows[i][column] = draw(_PAST_64_BITS)
    elif fault == "unsorted":  # a repeated x, or a row moved before a smaller x
        assume(len(rows) > 1)
        j = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
        rows[i][0] = rows[j][0] if draw(st.booleans()) else rows[i][0]
        rows.insert(min(i, j), rows.pop(max(i, j)))
    elif fault == "x below 1":
        rows[0][0] = draw(_BELOW_1)
    elif fault == "y below 1":
        rows[i][1] = draw(_BELOW_1)
    else:
        x = rows[-1][0]
        rows[-1][1] = -(-(2**63 - sum(x * y for x, y in rows[:-1])) // x) + draw(st.integers(0, 5))
    return rows, fault


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_faulty_tables())
def test_a_faulty_table_is_a_data_error_in_every_form_as_in_the_row_loop(table):
    rows, fault = table
    with pytest.raises(DataError):
        _row_loop(rows)
    forms = [rows, (row for row in rows)]
    if fault not in ("not a pair", "not whole"):  # an array would hold 1 for True, 2 for 2.5
        for dtype in (np.int64, np.int32, np.float64):
            try:
                array = np.array(rows, dtype)
            except OverflowError:  # past what the type holds
                continue
            if array.tolist() == rows:  # int32 wraps, float64 rounds past 2^53
                forms.append(array)
    for form in forms:
        with pytest.raises(DataError):
            ProductivityDistribution(form)


class _RowsRefused(np.ndarray):
    def __iter__(self):
        raise AssertionError("the table was read row by row")


def test_an_integer_array_is_checked_without_a_row_loop():
    for dtype in (np.int8, np.int32, np.int64):
        table = np.array([[1, 5], [2, 3], [4, 1]], dtype).view(_RowsRefused)
        assert ProductivityDistribution(table).points == ((1, 5), (2, 3), (4, 1))


_RISE = r"^x values must be strictly increasing from 1 and counts >= 1 \(omit zero rows\), got "


@pytest.mark.parametrize("rows, fault", [
    ([[1, 5], [3, 2], [2, 1]], _RISE + r"x=2, y=1 at points\[2\]$"),
    ([[0, 5], [3, 2]], _RISE + r"x=0, y=5 at points\[0\]$"),
    ([[1, 5], [3, 2], [4, 0]], _RISE + r"x=4, y=0 at points\[2\]$"),
    ([[1, 5], [2, 2**62], [3, 1]], r"^x and y must be whole numbers, got x=2, y=4611686018427387904 at "
                                   r"points\[1\], which take the sum of x\*y to 9223372036854775813, "
                                   r"past 64 bits$"),
])
def test_a_column_fault_names_the_first_bad_row(rows, fault):
    for form in (rows, np.array(rows)):
        with pytest.raises(DataError, match=fault):
            ProductivityDistribution(form)


def test_record_invariants():
    with pytest.raises(DataError):
        PublicationRecord("", 2000, ("A",))
    with pytest.raises(DataError):
        PublicationRecord("P1", -3, ("A",))
    with pytest.raises(DataError):
        PublicationRecord("P1", 2000, ())


def test_record_rejects_what_its_dump_cannot_parse():
    with pytest.raises(DataError, match="record id must be a string, got 5"):
        PublicationRecord(5, 2000, ("A",))
    with pytest.raises(DataError, match="record 'P1': author 7 is not a string"):
        PublicationRecord("P1", 2000, ("A", 7))
    with pytest.raises(DataError, match="year must be a positive integer, got True"):
        PublicationRecord("P1", True, ("A",))
    with pytest.raises(DataError, match="year must be a positive integer, got 2001.0"):
        PublicationRecord("P1", 2001.0, ("A",))
    with pytest.raises(DataError, match=f"record 'P1': year {2**63} does not fit in 64 bits"):
        PublicationRecord("P1", 2**63, ("A",))


def test_record_cleans_its_own_author_names():
    record = PublicationRecord("P1", 2000, [" Smith  J ", "", "\u3000", "Jones\tK"])
    assert record.authors == ("Smith J", "Jones K")
    with pytest.raises(DataError, match="record 'P1' has no authors"):
        PublicationRecord("P1", 2000, (" ", ""))


def test_hand_built_and_parsed_records_count_alike():
    built = [PublicationRecord("P1", 2000, ("Smith J",)),
             PublicationRecord("P2", 2001, ("Smith  J",))]
    parsed = parse_records("P1|2000|Smith J\nP2|2001|Smith  J\n")
    assert built == parsed
    assert count_productivity(built).points == count_productivity(parsed).points == ((2, 1),)


def test_record_rejects_a_bare_string_author_list():
    for authors in ("Smith", None, 5):
        with pytest.raises(DataError, match="record 'P1': authors must be a list of names"):
            PublicationRecord("P1", 2000, authors)


def test_record_accepts_a_generator_of_names():
    record = PublicationRecord("P1", 2000, (name for name in (" A ", "", "B")))
    assert record.authors == ("A", "B")
    assert record == PublicationRecord("P1", 2000, ("A", "B"))
