"""Record parsing, counting methods and distribution file handling."""

import json
import math
import re
import sys
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize("fmt, bad, fault", [
    ("pipe", "P3|2007", "3 '|'-separated columns"),
    ("pipe", "P3|2007.5|C", "year '2007.5' is not an integer"),
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
], ids=["pipe-columns", "pipe-year-text", "pipe-year-zero", "pipe-empty-id",
        "pipe-no-authors", "pipe-duplicate-id", "jsonl-invalid", "jsonl-not-object",
        "jsonl-missing-key", "jsonl-id-not-string", "jsonl-bool-year",
        "jsonl-author-not-string", "jsonl-no-authors"])
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 keeps call arguments on the caller's stack")
def test_read_input_frees_bytes_it_holds_the_only_reference_to():
    text = "".join(f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i}\n" for i in range(20_000))
    size = len(text.encode("utf-8"))
    peaks = []
    for held in (True, False):
        tracemalloc.start()
        try:  # no call inside an assert: pytest's rewrite would keep its arguments alive
            if held:
                data = text.encode("utf-8")
                corpus = read_input(data, "pipe")
                del data
            else:  # the bytes live only in read_input's frame, which drops them once decoded
                corpus = read_input(text.encode("utf-8"), "pipe")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(corpus) == 20_000
        del corpus
    assert peaks[0] - peaks[1] > 0.8 * size, (peaks, size)


def test_read_input_rejects_empty_and_unknown_layouts():
    with pytest.raises(DataError, match="input file is empty"):
        read_input(" \n\r\n\x85")
    with pytest.raises(DataError, match="cannot tell what kind of input 'hello world' starts"):
        read_input("\n hello world \n1,2\n")


def _first_line_kind(text: str) -> str:
    """Reference sniffer: splits the whole text, then takes the first non-blank line."""
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            if line.startswith("{"):
                return "jsonl"
            if "|" in line:
                return "pipe"
            squeezed = line.replace(" ", "").lower()
            if squeezed == "x,y" or re.fullmatch(r"\d+,\d+", squeezed):
                return "distribution"
            return "unknown"
    return "empty"


_SNIFF_ALPHABET = st.sampled_from(
    ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t", "\u3000",
     "{", "|", ",", "x", "Y", "1", "9", "\u0663", "a"]
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(_SNIFF_ALPHABET, max_size=14).map("".join))
def test_read_input_sniffs_like_a_full_split(text):
    try:
        kind, _ = corpus._sniff(corpus._line_chunks((text,)))
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
    """Pipe columns are checked a chunk at a time; the per-line parser only names a fault."""
    calls = []
    parse_line = corpus._parse_pipe_line
    monkeypatch.setattr(corpus, "_parse_pipe_line",
                        lambda line: (calls.append(line), parse_line(line))[1])
    monkeypatch.setattr(corpus, "_CHUNK_CHARS", 500)
    lines = [f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i % 13}\n" for i in range(1000)]
    records = parse_records("".join(lines))
    assert len(records) == 1000 and len(records.names) == 2000 and calls == []
    lines[699] = "P699|19x9|Author 1\n"
    with pytest.raises(DataError, match=r"^line 700: year '19x9' is not an integer$"):
        parse_records("".join(lines))
    assert len(calls) == 700  # the counter does count


@pytest.mark.parametrize("faulty, message", [
    ("P0|2000|A", "duplicate record id 'P0' (first seen on line 1)"),
    (" |2000|A", "empty record id"),
    ("P1|0|A", "record 'P1': year must be a positive integer, got 0"),
    ("P1|2000| ; ", "record 'P1' has no authors"),
])
def test_a_pipe_fault_ends_the_column_pass_in_its_chunk(monkeypatch, faulty, message):
    """A faulty file costs at most one chunk of column work before the per-line loop."""
    searches = []
    line_end = corpus._LINE_END

    class CountingLineEnd:
        def search(self, text, pos):
            searches.append(pos)
            return line_end.search(text, pos)

    monkeypatch.setattr(corpus, "_LINE_END", CountingLineEnd())
    monkeypatch.setattr(corpus, "_CHUNK_CHARS", 500)
    lines = [f"P{i}|{1990 + i % 30}|Author {i % 97}; Author {i % 13}" for i in range(1000)]
    assert len(parse_records("\n".join(lines))) == 1000 and len(searches) > 50
    searches.clear()
    lines[1] = faulty
    parse_line = corpus._parse_pipe_line
    before_lines = []  # searches made when the per-line loop parses its first line
    monkeypatch.setattr(corpus, "_parse_pipe_line", lambda line: (
        before_lines.append(len(searches)), parse_line(line))[1])
    with pytest.raises(DataError, match=f"^line 2: {re.escape(message)}$"):
        parse_records("\n".join(lines))
    assert before_lines[0] == 2  # the column pass's one chunk, then the per-line loop's first


def test_pipe_chunks_end_at_every_line_end(monkeypatch):
    """A file with no newline is still read a chunk at a time: memory stays bounded."""
    monkeypatch.setattr(corpus, "_CHUNK_CHARS", 2000)
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
            row[1] = draw(st.sampled_from(["x", "", "1.5", "0", "-3", str(2**63), str(-2**70)]))
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
def test_pipe_columns_match_the_per_line_loop(text, chunk_chars):
    with mock.patch.object(corpus, "_CHUNK_CHARS", chunk_chars):
        columns = _load_outcome(lambda: parse_records(text, "pipe"))
    assert columns == _load_outcome(lambda: corpus._parse_lines(corpus._line_chunks((text,)), "pipe"))


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
@given(_PIPE_SAFE_ROWS, st.sampled_from(["pipe", "jsonl"]))
def test_parse_property_matches_hand_built_records(rows, fmt):
    if fmt == "pipe":
        text = "".join(f"{rid}|{pad}{year}{pad}|{';'.join(names)}\n"
                       for rid, year, pad, names in rows)
        expected = [PublicationRecord(rid.strip(), year, names) for rid, year, _, names in rows]
    else:
        text = "".join(json.dumps({"id": rid, "year": year, "authors": names}) + "\n"
                       for rid, year, _, names in rows)
        expected = [PublicationRecord(rid, year, names) for rid, year, _, names in rows]
    assert parse_records(text, fmt) == expected


# ---------------------------------------------------------------------------
# record files read in chunks

@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.text(st.sampled_from(["\r", "\n", "\x85", " ", " ", "a"]), max_size=6),
                max_size=6), st.integers(1, 8))
def test_line_chunks_keep_every_line_of_the_text(pieces, chunk_chars):
    """No chunk ends inside a line or between the CR and LF of one line end."""
    with mock.patch.object(corpus, "_CHUNK_CHARS", chunk_chars):
        chunks = list(corpus._line_chunks(pieces))
    text = "".join(pieces)
    assert "".join(chunks) == text and "" not in chunks
    assert [line for chunk in chunks for line in chunk.splitlines()] == text.splitlines()


def test_a_line_of_many_pieces_is_chunked_in_linear_time():
    """Copying the held text for every piece took seconds here, as the square of the length."""
    text = "x" * (1 << 23) + "\n"
    pieces = [text[i : i + (1 << 10)] for i in range(0, len(text), 1 << 10)]
    start = time.perf_counter()
    chunks = list(corpus._line_chunks(pieces))
    elapsed = time.perf_counter() - start
    assert chunks == [text]
    assert elapsed < 1.0


@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_records_counted_as_they_are_read_keep_no_names(monkeypatch, tmp_path, fmt):
    """Each chunk's names go to the tally and no further; what the columns need stays."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(corpus, "_CHUNK_CHARS", 64)
    records = random_corpus(np.random.default_rng(17), max_authors=6)
    text = dump_records(records) if fmt == "jsonl" else "".join(
        f"{rec.id}|{rec.year}| ;{'; '.join(rec.authors)};\r\n" for rec in records)
    path = tmp_path / "records.txt"
    path.write_text(text, encoding="utf-8")
    handed = []
    loaded = corpus._read_file(path, fmt, lambda slots, starts: handed.append((slots, starts)))
    whole = parse_records(text, fmt)
    assert len(handed) > 10 and not hasattr(loaded, "names")
    assert [name for slots, _ in handed for name in slots] == whole.names
    assert np.concatenate([starts + done for (_, starts), done in zip(
        handed, np.cumsum([0, *(len(slots) for slots, _ in handed)]))]).tolist() \
        == whole.offsets[:-1].tolist()
    assert (loaded.ids, loaded.years.tolist(), loaded.offsets.tolist()) \
        == (whole.ids, whole.years.tolist(), whole.offsets.tolist())
    assert authorship_pattern(loaded) == authorship_pattern(whole)
    assert collab_metrics(loaded) == collab_metrics(whole)
    for use in (count_productivity, dump_records, lambda records: records[0]):
        with pytest.raises(AttributeError, match="names"):
            use(loaded)


def test_naming_a_pipe_fault_credits_no_name_twice(monkeypatch, tmp_path):
    """The second pass that names the fault credits nothing: the tally is dropped anyway."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(corpus, "_CHUNK_CHARS", 64)
    path = tmp_path / "records.psv"
    path.write_text("".join(f"P{i}|2000|Author {i}\n" for i in range(199)) + "P199|19x9|A\n",
                    encoding="utf-8")
    handed = []
    with pytest.raises(DataError, match="^line 200: year '19x9' is not an integer$"):
        corpus._read_file(path, "pipe", lambda slots, starts: handed.extend(slots))
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


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(st.tuples(st.just("pipe"), _pipe_texts()),
                 st.tuples(st.just("jsonl"), _jsonl_texts())),
       st.booleans(), st.booleans(), st.none() | st.integers(0, 10**4),
       st.integers(1, 7), st.integers(1, 40))
def test_a_file_read_in_chunks_parses_as_its_whole_text(tmp_path_factory, case, bom, sniff,
                                                        bad_byte, block_bytes, chunk_chars):
    """Blocks of a few bytes cut CR LF pairs and multi-byte characters in two."""
    fmt, text = case
    data = b"\xef\xbb\xbf" * bom + text.encode("utf-8")
    if bad_byte is not None:
        bad_byte %= len(data) + 1
        data = data[:bad_byte] + b"\xff" + data[bad_byte:]
    kind = "auto" if sniff else fmt
    expected = _load_outcome(lambda: read_input(data, kind))
    path = tmp_path_factory.getbasetemp() / "records_in_chunks"
    path.write_bytes(data)
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(corpus, "_CHUNK_CHARS", chunk_chars), \
            mock.patch.object(corpus, "read_input", wraps=corpus.read_input) as whole_file:
        assert _load_outcome(lambda: corpus._read_file(path, kind)) == expected
    # every fault is named in the stream, with no whole-file read
    assert not whole_file.called


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb", b"\xef\xbbP1|2000|A\n", b"\xef\xbb\xbf\xef\xbb"])
def test_a_file_of_part_of_a_byte_order_mark_is_not_valid_utf8(tmp_path, data):
    """Part of a BOM is no BOM: an incremental utf-8-sig decoder reads a file of only that as empty."""
    path = tmp_path / "records.psv"
    path.write_bytes(data)
    expected = _load_outcome(lambda: read_input(data))
    assert expected.startswith("input is not valid UTF-8: ")
    assert _load_outcome(lambda: corpus._read_file(path, "auto")) == expected


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
