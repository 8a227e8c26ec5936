"""Authorship patterns over time and collaboration summary metrics.

The pattern table buckets records by author count (1 through 10, then
">10") and by fixed-length year windows. The two scalar metrics are the
degree of collaboration (share of records with more than one author)
and the collaborative index (mean authors per record).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .corpus import PublicationRecord
from .errors import DataError

__all__ = [
    "BUCKET_LABELS",
    "AuthorshipPatternTable",
    "CollabMetrics",
    "authorship_pattern",
    "collab_metrics",
    "render_pattern_csv",
]

BUCKET_LABELS = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", ">10")


@dataclass(frozen=True)
class AuthorshipPatternTable:
    """Counts matrix of shape (11 buckets, period count), plus labels.

    Periods are half-open ranges of ``period_length`` consecutive years
    starting at ``origin_year``; ``period_bins`` holds inclusive
    (start, end) year pairs. Interior periods with no records are kept
    as zero columns so the time axis stays contiguous.
    """

    counts: np.ndarray
    period_bins: tuple[tuple[int, int], ...]
    bucket_labels: tuple[str, ...] = BUCKET_LABELS

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def column_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def grand_total(self) -> int:
        return int(self.counts.sum())

    @property
    def bucket_percentages(self) -> np.ndarray:
        """Each bucket's share of all records, in percent."""
        return 100.0 * self.row_totals / self.grand_total

    @property
    def period_percentages(self) -> np.ndarray:
        """Each period's share of all records, in percent."""
        return 100.0 * self.column_totals / self.grand_total

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
    records: list[PublicationRecord],
    period_length: int = 5,
    origin_year: int | None = None,
) -> AuthorshipPatternTable:
    """Bucket records by author count and publication period.

    ``origin_year`` anchors the first period and defaults to the
    earliest year in the corpus. A record dated before the origin has no
    period to land in and raises DataError naming the record.
    """
    if not records:
        raise DataError("empty corpus: no records to bucket")
    if period_length < 1:
        raise DataError(f"period_length must be >= 1, got {period_length}")
    try:
        years = np.fromiter((rec.year for rec in records), np.int64, len(records))
    except OverflowError:
        raise DataError("a record year does not fit in 64 bits") from None
    sizes = np.fromiter((len(rec.authors) for rec in records), np.int64, len(records))
    origin = int(years.min()) if origin_year is None else origin_year
    early = np.flatnonzero(years < origin)
    if early.size:
        rec = records[early[0]]
        raise DataError(f"record {rec.id!r}: year {rec.year} precedes origin year {origin}")
    n_periods = (int(years.max()) - origin) // period_length + 1
    # bucket b (author counts 1..10, then ">10") and period p share one flat index
    buckets = np.minimum(sizes, len(BUCKET_LABELS)) - 1
    flat = buckets * n_periods + (years - origin) // period_length
    counts = np.bincount(flat, minlength=len(BUCKET_LABELS) * n_periods)
    counts = counts.reshape(len(BUCKET_LABELS), n_periods)
    bins = tuple(
        (origin + i * period_length, origin + (i + 1) * period_length - 1)
        for i in range(n_periods)
    )
    return AuthorshipPatternTable(counts=counts, period_bins=bins)


def collab_metrics(records: list[PublicationRecord]) -> CollabMetrics:
    """Degree of collaboration and collaborative index for a corpus."""
    if not records:
        raise DataError("empty corpus: no records to summarize")
    sizes = np.fromiter((len(rec.authors) for rec in records), np.int64, len(records))
    single = int(np.count_nonzero(sizes == 1))
    multi = len(records) - single
    total_authors = int(sizes.sum())
    return CollabMetrics(
        single_count=single,
        multi_count=multi,
        degree_of_collaboration=multi / len(records),
        collaborative_index=total_authors / len(records),
    )


def render_pattern_csv(table: AuthorshipPatternTable) -> str:
    """CSV text of the pattern matrix with total and percentage margins."""
    period_headers = [f"{start}-{end}" for start, end in table.period_bins]
    lines = ["authors," + ",".join(period_headers) + ",total,share_pct"]
    for i, label in enumerate(table.bucket_labels):
        cells = ",".join(str(v) for v in table.counts[i])
        lines.append(
            f"{label},{cells},{int(table.row_totals[i])},{table.bucket_percentages[i]:.2f}"
        )
    col_cells = ",".join(str(v) for v in table.column_totals)
    lines.append(f"total,{col_cells},{table.grand_total},100.00")
    pct_cells = ",".join(f"{v:.2f}" for v in table.period_percentages)
    lines.append(f"share_pct,{pct_cells},100.00,")
    return "".join(line + "\n" for line in lines)
