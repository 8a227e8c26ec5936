"""Record parsing, counting methods and distribution file handling."""

from collections import Counter

import numpy as np
import pytest

from lotkalaw import (
    CountingMethod,
    DataError,
    ProductivityDistribution,
    PublicationRecord,
    count_productivity,
    dump_distribution,
    dump_records,
    load_distribution,
    normalize_author,
    parse_records,
)

from conftest import random_corpus


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


def test_parse_unknown_format():
    with pytest.raises(DataError, match="unknown record format"):
        parse_records("x", fmt="csv")


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
