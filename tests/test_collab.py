"""Authorship pattern bucketing and collaboration metrics."""

import dataclasses
import json
import re

import numpy as np
import pytest

from lotkalaw import (
    BUCKET_LABELS,
    AuthorshipPatternTable,
    DataError,
    PublicationRecord,
    authorship_pattern,
    collab_metrics,
    render_pattern_csv,
)

from conftest import PATTERN_MATRIX, PERIOD_STARTS, random_corpus


def _rec(i: int, year: int, author_count: int) -> PublicationRecord:
    return PublicationRecord(
        f"p{i}", year, tuple(f"p{i}a{j}" for j in range(author_count))
    )


# ---------------------------------------------------------------------------
# bucketing

def test_bucket_assignment_single_period():
    records = [_rec(0, 2000, 1), _rec(1, 2001, 2), _rec(2, 2002, 2), _rec(3, 2003, 11)]
    table = authorship_pattern(records)
    assert table.counts.shape == (11, 1)
    assert table.counts[0, 0] == 1
    assert table.counts[1, 0] == 2
    assert table.counts[10, 0] == 1
    assert table.grand_total == 4


def test_ten_authors_is_last_named_bucket():
    table = authorship_pattern([_rec(0, 2000, 10), _rec(1, 2000, 12), _rec(2, 2000, 40)])
    assert table.counts[9, 0] == 1
    assert table.counts[10, 0] == 2


def test_period_bins_and_gap_columns():
    table = authorship_pattern([_rec(0, 1990, 1), _rec(1, 2002, 1)])
    assert table.period_bins == ((1990, 1994), (1995, 1999), (2000, 2004))
    assert table.column_totals.tolist() == [1, 0, 1]


def test_custom_origin_and_period_length():
    table = authorship_pattern([_rec(0, 1993, 1)], period_length=10, origin_year=1985)
    assert table.period_bins == ((1985, 1994),)
    table = authorship_pattern([_rec(0, 1993, 1), _rec(1, 1994, 2)], period_length=1)
    assert table.period_bins == ((1993, 1993), (1994, 1994))
    assert table.counts[1, 1] == 1


def test_year_before_origin_rejected():
    with pytest.raises(DataError, match=r"'p0'.*1993.*precedes.*1995"):
        authorship_pattern([_rec(0, 1993, 1)], origin_year=1995)


def test_origin_error_names_the_first_early_record_in_list_order():
    records = [_rec(0, 2001, 1), _rec(1, 1994, 2), _rec(2, 1990, 1)]
    with pytest.raises(DataError, match=r"'p1'.*1994.*precedes.*1995"):
        authorship_pattern(records, origin_year=1995)


def test_year_beyond_64_bits_is_a_data_error():
    with pytest.raises(DataError, match="64 bits"):
        authorship_pattern([_rec(0, 2000, 1), _rec(1, 10**20, 1)])


def test_origin_below_one_is_a_data_error():
    with pytest.raises(DataError, match="origin year must be positive, got -100000000000000000000"):
        authorship_pattern([_rec(0, 2000, 1)], origin_year=-10**20)
    with pytest.raises(DataError, match="origin year must be positive, got 0"):
        authorship_pattern([_rec(0, 2000, 1)], origin_year=0)


def test_period_longer_than_the_span_gives_one_period():
    table = authorship_pattern([_rec(0, 1991, 1), _rec(1, 2010, 2)], period_length=10**20)
    assert table.counts.tolist() == [[1], [1]] + [[0]] * 9
    assert table.period_bins == ((1991, 1991 + 10**20 - 1),)


def test_too_many_periods_is_a_data_error():
    with pytest.raises(DataError, match="100000000000 periods"):
        authorship_pattern([_rec(0, 1, 1), _rec(1, 10**11, 1)], period_length=1)
    with pytest.raises(DataError, match="10001 periods, more than 10000"):
        authorship_pattern([_rec(0, 1, 1), _rec(1, 10_001, 1)], period_length=1)
    table = authorship_pattern([_rec(0, 1, 1), _rec(1, 10_000, 1)], period_length=1)
    assert table.counts.shape == (11, 10_000) and table.grand_total == 2


def test_pattern_and_metrics_match_a_per_record_tally():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        records = random_corpus(rng, max_authors=14)
        period = int(rng.integers(1, 8))
        origin = min(rec.year for rec in records) - int(rng.integers(0, 4))
        table = authorship_pattern(records, period_length=period, origin_year=origin)
        expected = np.zeros_like(table.counts)
        for rec in records:
            expected[min(len(rec.authors), 11) - 1, (rec.year - origin) // period] += 1
        assert table.counts.tolist() == expected.tolist()
        assert table.counts.shape[1] == (max(rec.year for rec in records) - origin) // period + 1
        metrics = collab_metrics(records)
        assert metrics.single_count == sum(len(rec.authors) == 1 for rec in records)
        assert metrics.collaborative_index == sum(len(rec.authors) for rec in records) / len(records)


@pytest.mark.parametrize("name, value", [
    ("period_length", 2.5), ("period_length", True), ("origin_year", 1990.5), ("origin_year", "1990"),
])
def test_pattern_arguments_must_be_integers(name, value):
    with pytest.raises(DataError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
        authorship_pattern([_rec(0, 2000, 1)], **{name: value})


def test_pattern_numpy_integer_arguments_give_python_int_bins():
    records = [_rec(0, 1999, 1), _rec(1, 2004, 2)]
    table = authorship_pattern(records, period_length=np.int64(3), origin_year=np.int64(1999))
    assert table == authorship_pattern(records, period_length=3, origin_year=1999)
    assert {type(year) for pair in table.period_bins for year in pair} == {int}
    assert json.loads(json.dumps(table.to_dict()))["period_bins"] == [[1999, 2001], [2002, 2004]]


def test_pattern_requires_records_and_sane_period():
    with pytest.raises(DataError, match="empty corpus"):
        authorship_pattern([])
    with pytest.raises(DataError, match="period_length"):
        authorship_pattern([_rec(0, 2000, 1)], period_length=0)


# ---------------------------------------------------------------------------
# the bundled corpus shape

def test_pattern_matches_reference_matrix(pattern_records):
    table = authorship_pattern(pattern_records)
    assert table.period_bins[0] == (1990, 1994)
    assert table.period_bins[-1] == (2015, 2019)
    assert table.counts.tolist() == [list(row) for row in PATTERN_MATRIX]
    assert table.row_totals.tolist() == [94, 159, 161, 176, 136, 122, 72, 56, 33, 32, 243]
    assert table.column_totals.tolist() == [125, 160, 122, 195, 287, 395]
    assert table.grand_total == 1284


def test_pattern_reference_percentages(pattern_records):
    table = authorship_pattern(pattern_records)
    expected = (7.32, 12.38, 12.54, 13.71, 10.59, 9.50, 5.61, 4.36, 2.57, 2.49, 18.93)
    for share, target in zip(table.bucket_percentages, expected):
        assert share == pytest.approx(target, abs=0.005)
    assert table.bucket_percentages.sum() == pytest.approx(100.0, abs=1e-9)
    assert table.period_percentages.sum() == pytest.approx(100.0, abs=1e-9)


def test_reference_collab_metrics(pattern_records):
    metrics = collab_metrics(pattern_records)
    assert metrics.single_count == 94
    assert metrics.multi_count == 1190
    assert metrics.degree_of_collaboration == pytest.approx(1190 / 1284, rel=1e-12)
    assert metrics.degree_of_collaboration == pytest.approx(0.9268, abs=1e-3)
    # builder gives ">10" records exactly 11 authors
    total_authors = sum(len(r.authors) for r in pattern_records)
    assert metrics.collaborative_index == pytest.approx(total_authors / 1284, rel=1e-12)


_MARGINS = ("row_totals", "column_totals", "grand_total", "bucket_percentages",
            "period_percentages")


def test_pattern_margins_are_read_only_fields():
    table = authorship_pattern([_rec(0, 1990, 1), _rec(1, 2002, 3)])
    fields = {f.name: f for f in dataclasses.fields(table)}
    for name in _MARGINS:
        assert not fields[name].init
        assert not isinstance(getattr(AuthorshipPatternTable, name, None), property)
    assert table.row_totals is table.row_totals
    for name in ("counts", *_MARGINS):
        if name != "grand_total":
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.grand_total = 5
    assert table.grand_total == 2 and type(table.grand_total) is int
    assert table.column_totals.tolist() == [1, 0, 1]
    assert table.period_percentages.tolist() == [50.0, 0.0, 50.0]


def test_pattern_tables_compare_by_bins_and_counts():
    records = [_rec(0, 1990, 1), _rec(1, 1996, 3), _rec(2, 2001, 12)]
    table = authorship_pattern(records)
    assert table == authorship_pattern(records)
    assert table == AuthorshipPatternTable(table.counts.tolist(), table.period_bins)
    assert table != authorship_pattern(records, origin_year=1989)
    assert table != authorship_pattern(records[:2] + [_rec(2, 2001, 10)])
    assert table != authorship_pattern(records, period_length=6)
    assert table != table.to_dict()


def test_pattern_bucket_labels_are_a_class_constant():
    table = authorship_pattern([_rec(0, 2000, 1)])
    assert table.bucket_labels == BUCKET_LABELS == AuthorshipPatternTable.bucket_labels
    assert "bucket_labels" not in {f.name for f in dataclasses.fields(table)}
    with pytest.raises(TypeError):
        AuthorshipPatternTable(table.counts, table.period_bins, BUCKET_LABELS)


# ---------------------------------------------------------------------------
# metrics

def test_metrics_all_single():
    metrics = collab_metrics([_rec(i, 2000, 1) for i in range(5)])
    assert metrics.degree_of_collaboration == 0.0
    assert metrics.collaborative_index == 1.0


def test_metrics_all_multi():
    metrics = collab_metrics([_rec(0, 2000, 2), _rec(1, 2000, 4)])
    assert metrics.degree_of_collaboration == 1.0
    assert metrics.collaborative_index == 3.0


def test_metrics_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        collab_metrics([])


def test_metrics_random_properties():
    rng = np.random.default_rng(4321)
    for _ in range(30):
        records = random_corpus(rng)
        metrics = collab_metrics(records)
        table = authorship_pattern(records)
        assert table.grand_total == len(records)
        assert metrics.single_count + metrics.multi_count == len(records)
        assert 0.0 <= metrics.degree_of_collaboration <= 1.0
        assert metrics.collaborative_index >= 1.0
        if metrics.multi_count == 0:
            assert metrics.collaborative_index == 1.0
        # doubling the corpus moves neither ratio
        doubled = records + [
            PublicationRecord(f"{r.id}-dup", r.year, r.authors) for r in records
        ]
        doubled_metrics = collab_metrics(doubled)
        assert doubled_metrics.degree_of_collaboration == pytest.approx(
            metrics.degree_of_collaboration, rel=1e-12
        )
        assert doubled_metrics.collaborative_index == pytest.approx(
            metrics.collaborative_index, rel=1e-12
        )


def test_adding_an_author_moves_adjacent_buckets():
    rng = np.random.default_rng(86)
    for _ in range(20):
        records = random_corpus(rng)
        target = records[0]
        grown = [
            PublicationRecord(target.id, target.year, target.authors + ("extra z",))
        ] + records[1:]
        before = authorship_pattern(records, origin_year=1990).counts
        after = authorship_pattern(grown, origin_year=1990).counts
        changed = np.argwhere(before != after)
        k = len(target.authors)
        if k >= 11:
            assert changed.size == 0
        else:
            moved_from = k - 1 if k <= 10 else 10
            moved_to = k if k + 1 <= 10 else 10
            assert sorted(set(changed[:, 0].tolist())) == sorted({moved_from, moved_to})


# ---------------------------------------------------------------------------
# rendering

def test_render_pattern_csv(pattern_records):
    text = render_pattern_csv(authorship_pattern(pattern_records))
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(BUCKET_LABELS) + 2
    assert lines[0] == "authors,1990-1994,1995-1999,2000-2004,2005-2009,2010-2014,2015-2019,total,share_pct"
    assert lines[1] == "1,17,20,17,12,18,10,94,7.32"
    assert lines[11] == ">10,1,8,7,15,62,150,243,18.93"
    assert lines[12] == "total,125,160,122,195,287,395,1284,100.00"
    assert lines[13].startswith("share_pct,9.74,12.46,9.50,15.19,22.35,30.76,100.00")
