"""Kolmogorov-Smirnov style conformity checks for fitted power laws.

Two statistics are computed side by side because the bibliometric
literature uses both and they disagree on long-tailed tables:

* pointwise: the maximum of (observed - expected) proportion, taken row
  by row with its sign kept. This is the looser, widely printed figure.
* cumulative: the textbook D, the maximum absolute gap between the two
  cumulative distribution curves.

The critical value is coefficient / sqrt(total authors). Standard
two-sided coefficients are provided as presets alongside the
nonstandard 2.54 used by the CAD study whose numbers ship as fixtures
(that study reused its fitted exponent as the coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import sqrt

import numpy as np

from .corpus import ProductivityDistribution
from .errors import DataError
from .lotka import expected_proportion

__all__ = [
    "COEFFICIENT_PRESETS",
    "KSReportRow",
    "KSResult",
    "ks_report",
    "ks_statistic_pointwise",
    "ks_statistic_cumulative",
    "critical_value",
    "run_ks",
    "render_report_csv",
]

COEFFICIENT_PRESETS = {
    "paper": 2.54,
    "alpha01": 1.63,
    "alpha05": 1.36,
    "alpha10": 1.22,
}


@dataclass(frozen=True)
class KSReportRow:
    """One observed productivity level with model comparison columns."""

    x: int
    y: int
    observed_proportion: float
    observed_cumulative: float
    expected_proportion: float
    expected_cumulative: float
    pointwise_diff: float
    cumulative_diff: float


@dataclass(frozen=True)
class KSResult:
    """Both statistics, the critical value and the two verdicts.

    ``rows`` is the comparison table the statistics were taken from; it
    is left out of equality, ``repr`` and :meth:`to_dict`.
    """

    d_max_pointwise: float
    d_max_cumulative: float
    critical_value: float
    coefficient: float
    total_authors: int
    conforms_pointwise: bool
    conforms_cumulative: bool
    rows: tuple[KSReportRow, ...] = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def ks_report(
    dist: ProductivityDistribution,
    n: float,
    c: float,
    dense_expected: bool = False,
) -> list[KSReportRow]:
    """Row-by-row comparison of observed and modelled author proportions.

    Expected cumulatives normally accumulate over the observed x levels
    only, matching how published worksheets tabulate them. With
    ``dense_expected`` the expected curve instead accumulates over every
    integer from 1 up to each level, including levels nobody attained.
    """
    xs = dist.xs
    observed = dist.ys / dist.total_authors
    observed_cum = np.cumsum(observed)
    # One scalar expected_proportion per level: numpy's vectorized power
    # can differ from it in the last bit, which would change printed digits.
    levels = range(1, int(xs[-1]) + 1) if dense_expected else xs.tolist()
    table = np.array([expected_proportion(n, c, x) for x in levels])
    if dense_expected:
        expected, expected_cum = table[xs - 1], np.cumsum(table)[xs - 1]
    else:
        expected, expected_cum = table, np.cumsum(table)
    pointwise, cumulative = observed - expected, observed_cum - expected_cum
    columns = (xs, dist.ys, observed, observed_cum, expected, expected_cum, pointwise, cumulative)
    return [KSReportRow(*row) for row in zip(*(column.tolist() for column in columns))]


def ks_statistic_pointwise(report: list[KSReportRow]) -> float:
    """Maximum signed row difference, observed minus expected."""
    return max(row.pointwise_diff for row in report)


def ks_statistic_cumulative(report: list[KSReportRow]) -> float:
    """Maximum absolute gap between the cumulative curves."""
    return max(abs(row.cumulative_diff) for row in report)


def critical_value(total_authors: int, coefficient: float) -> float:
    """Conformity threshold: coefficient / sqrt(total_authors)."""
    if coefficient <= 0:
        raise DataError(f"coefficient must be positive, got {coefficient}")
    if total_authors < 1:
        raise DataError(f"total_authors must be >= 1, got {total_authors}")
    return coefficient / sqrt(total_authors)


def run_ks(
    dist: ProductivityDistribution,
    n: float,
    c: float,
    coefficient: float,
    dense_expected: bool = False,
) -> KSResult:
    """Full test: report, both statistics, threshold, verdicts."""
    report = ks_report(dist, n, c, dense_expected=dense_expected)
    d_pw = ks_statistic_pointwise(report)
    d_cum = ks_statistic_cumulative(report)
    total = dist.total_authors
    crit = critical_value(total, coefficient)
    return KSResult(
        d_max_pointwise=d_pw,
        d_max_cumulative=d_cum,
        critical_value=crit,
        coefficient=coefficient,
        total_authors=total,
        conforms_pointwise=abs(d_pw) <= crit,
        conforms_cumulative=d_cum <= crit,
        rows=tuple(report),
    )


def render_report_csv(report: list[KSReportRow]) -> str:
    """CSV text of the comparison table, full float precision."""
    header = (
        "x,y,observed,observed_cum,expected,expected_cum,diff,cum_diff"
    )
    lines = [header]
    for row in report:
        lines.append(
            f"{row.x},{row.y},{row.observed_proportion!r},{row.observed_cumulative!r},"
            f"{row.expected_proportion!r},{row.expected_cumulative!r},"
            f"{row.pointwise_diff!r},{row.cumulative_diff!r}"
        )
    return "".join(line + "\n" for line in lines)
