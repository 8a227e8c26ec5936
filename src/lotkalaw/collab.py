"""Authorship patterns over time and collaboration summary metrics.

The pattern table buckets records by author count (1 through 10, then
">10") and by fixed-length year windows. The two scalar metrics are the
degree of collaboration (share of records with more than one author)
and the collaborative index (mean authors per record).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Iterable

import numpy as np

from .corpus import Corpus, PublicationRecord
from .errors import DataError, _require_int

__all__ = [
    "BUCKET_LABELS",
    "AuthorshipPatternTable",
    "CollabMetrics",
    "authorship_pattern",
    "collab_metrics",
    "render_pattern_csv",
]

BUCKET_LABELS = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", ">10")
_MAX_PERIODS = 10_000  # every four-digit year at one-year periods


@dataclass(frozen=True, eq=False)
class AuthorshipPatternTable:
    """Counts matrix of shape (11 buckets, period count), plus margins.

    Periods are half-open ranges of ``period_length`` consecutive years
    starting at ``origin_year``; ``period_bins`` holds inclusive
    (start, end) year pairs. Interior periods with no records are kept
    as zero columns so the time axis stays contiguous. Rows are labelled
    by the class constant ``bucket_labels``. Built once, read-only like
    ``counts``: ``row_totals``, ``column_totals``, ``grand_total`` (the
    record count) and the shares of all records in percent,
    ``bucket_percentages`` (per bucket) and ``period_percentages``.
    """

    bucket_labels: ClassVar[tuple[str, ...]] = BUCKET_LABELS
    counts: np.ndarray
    period_bins: tuple[tuple[int, int], ...]
    row_totals: np.ndarray = field(init=False, repr=False, compare=False)
    column_totals: np.ndarray = field(init=False, repr=False, compare=False)
    grand_total: int = field(init=False, repr=False, compare=False)
    bucket_percentages: np.ndarray = field(init=False, repr=False, compare=False)
    period_percentages: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = np.array(self.counts)
        rows, columns, total = counts.sum(axis=1), counts.sum(axis=0), int(counts.sum())
        object.__setattr__(self, "grand_total", total)
        for name, array in zip(
            ("counts", "row_totals", "column_totals", "bucket_percentages", "period_percentages"),
            (counts, rows, columns, 100.0 * rows / total, 100.0 * columns / total),
        ):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, AuthorshipPatternTable):
            return NotImplemented
        return self.period_bins == other.period_bins and np.array_equal(self.counts, other.counts)

    def to_dict(self) -> dict:
        return {
            "bucket_labels": list(self.bucket_labels),
            "period_bins": [list(b) for b in self.period_bins],
            "counts": self.counts.tolist(),
            "row_totals": self.row_totals.tolist(),
            "column_totals": self.column_totals.tolist(),
            "grand_total": self.grand_total,
            "bucket_percentages": self.bucket_percentages.tolist(),
            "period_percentages": self.period_percentages.tolist(),
        }


@dataclass(frozen=True)
class CollabMetrics:
    single_count: int
    multi_count: int
    degree_of_collaboration: float
    collaborative_index: float

    def to_dict(self) -> dict:
        return asdict(self)


def authorship_pattern(
    records: Iterable[PublicationRecord],
    period_length: int = 5,
    origin_year: int | None = None,
) -> AuthorshipPatternTable:
    """Bucket records by author count and publication period.

    ``origin_year`` anchors the first period and defaults to the
    earliest year in the corpus. A record dated before the origin has no
    period to land in and raises DataError naming the record, as do an
    origin below 1, a table of more than 10,000 periods and a period
    length or origin that is not an integer.
    """
    corpus = Corpus.from_records(records)
    if not corpus:
        raise DataError("empty corpus: no records to bucket")
    _require_int("period_length", period_length, 1)
    if origin_year is not None:
        _require_int("origin_year", origin_year)
        if origin_year < 1:
            raise DataError(f"origin year must be positive, got {origin_year}")
    years, sizes = corpus.years, np.diff(corpus.offsets)
    # Python ints, so that period_bins holds no numpy integer
    period_length = int(period_length)
    origin = int(years.min() if origin_year is None else origin_year)
    early = np.flatnonzero(years < origin)
    if early.size:
        i = early[0]
        raise DataError(f"record {corpus.ids[i]!r}: year {years[i]} precedes origin year {origin}")
    span = int(years.max()) - origin
    n_periods = span // period_length + 1
    if n_periods > _MAX_PERIODS:
        raise DataError(f"the table would have {n_periods} periods, more than {_MAX_PERIODS}")
    # bucket b (author counts 1..10, then ">10") and period p share one flat index;
    # a period longer than the span indexes as span + 1, so the divisor fits in int64
    buckets = np.minimum(sizes, len(BUCKET_LABELS)) - 1
    flat = buckets * n_periods + (years - origin) // min(period_length, span + 1)
    counts = np.bincount(flat, minlength=len(BUCKET_LABELS) * n_periods)
    counts = counts.reshape(len(BUCKET_LABELS), n_periods)
    bins = tuple(
        (origin + i * period_length, origin + (i + 1) * period_length - 1)
        for i in range(n_periods)
    )
    return AuthorshipPatternTable(counts=counts, period_bins=bins)


def collab_metrics(records: Iterable[PublicationRecord]) -> CollabMetrics:
    """Degree of collaboration and collaborative index for a corpus."""
    corpus = Corpus.from_records(records)
    if not corpus:
        raise DataError("empty corpus: no records to summarize")
    sizes = np.diff(corpus.offsets)
    single = int(np.count_nonzero(sizes == 1))
    multi = len(corpus) - single
    return CollabMetrics(
        single_count=single,
        multi_count=multi,
        degree_of_collaboration=multi / len(corpus),
        collaborative_index=len(corpus.names) / len(corpus),
    )


def render_pattern_csv(table: AuthorshipPatternTable) -> str:
    """CSV text of the pattern matrix with total and percentage margins."""
    period_headers = [f"{start}-{end}" for start, end in table.period_bins]
    lines = ["authors," + ",".join(period_headers) + ",total,share_pct"]
    for label, cells, total, share in zip(table.bucket_labels, table.counts.tolist(),
                                          table.row_totals.tolist(), table.bucket_percentages):
        lines.append(f"{label},{','.join(map(str, cells))},{total},{share:.2f}")
    col_cells = ",".join(str(v) for v in table.column_totals)
    lines.append(f"total,{col_cells},{table.grand_total},100.00")
    pct_cells = ",".join(f"{v:.2f}" for v in table.period_percentages)
    lines.append(f"share_pct,{pct_cells},100.00,")
    return "".join(line + "\n" for line in lines)
