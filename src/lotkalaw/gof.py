"""Kolmogorov-Smirnov style conformity checks for fitted power laws.

Two statistics are computed side by side because the bibliometric
literature uses both and they disagree on long-tailed tables:

* pointwise: the maximum of (observed - expected) proportion, taken row
  by row with its sign kept. This is the looser, widely printed figure.
* cumulative: the textbook D, the maximum absolute gap between the two
  cumulative distribution curves.

Both are maxima over a column of the :func:`ks_report` table.

The critical value is coefficient / sqrt(total authors). Standard
two-sided coefficients are provided as presets alongside the
nonstandard 2.54 used by the CAD study whose numbers ship as fixtures
(that study reused its fitted exponent as the coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import inf, sqrt
from numbers import Real

import numpy as np

from .corpus import ProductivityDistribution
from .errors import DataError, _require_int
from .lotka import expected_proportion

__all__ = [
    "COEFFICIENT_PRESETS",
    "KSResult",
    "ks_report",
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

# The dense expected curve holds one float per integer level up to the largest x.
_DENSE_MAX_X = 1_000_000


@dataclass(frozen=True)
class KSResult:
    """Both statistics, the critical value and the verdicts, in ``ks`` CSV summary order.

    ``rows`` is the :func:`ks_report` table the statistics were taken
    from; it is left out of equality, ``repr`` and :meth:`to_dict`.
    """

    total_authors: int
    coefficient: float
    critical_value: float
    d_max_pointwise: float
    conforms_pointwise: bool
    d_max_cumulative: float
    conforms_cumulative: bool
    rows: np.recarray = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def ks_report(
    dist: ProductivityDistribution,
    n: float,
    c: float,
    dense_expected: bool = False,
) -> np.recarray:
    """Level-by-level comparison of observed and modelled author proportions.

    A read-only ``numpy.recarray``, one record per observed level: int64
    ``x`` and ``y``, then float64 ``observed_proportion``,
    ``observed_cumulative``, ``expected_proportion``,
    ``expected_cumulative``, ``pointwise_diff`` and ``cumulative_diff``
    (observed minus expected). ``table.x`` is a column, ``table[i].x`` a value.

    Expected cumulatives normally accumulate over the observed x levels
    only, matching how published worksheets tabulate them. With
    ``dense_expected`` the expected curve instead accumulates over every
    integer from 1 up to each level, including levels nobody attained;
    a largest x above 1,000,000 raises :class:`DataError`.
    """
    xs = dist.xs
    if dense_expected and xs[-1] > _DENSE_MAX_X:
        raise DataError(f"the dense expected curve stops at x={_DENSE_MAX_X}, "
                        f"but the largest x is {xs[-1]}")
    observed = dist.ys / dist.total_authors
    observed_cum = np.cumsum(observed)
    expected_proportion(n, c, 1)  # checks n and c once: the levels come from a checked table
    # One scalar power per level: numpy's vectorized power can differ from
    # it in the last bit, which would change printed digits.
    levels = range(1, int(xs[-1]) + 1) if dense_expected else xs.tolist()
    expected = np.array([c * float(x) ** -n for x in levels])
    expected_cum = np.cumsum(expected)
    if dense_expected:
        expected, expected_cum = expected[xs - 1], expected_cum[xs - 1]
    columns = (xs, dist.ys, observed, observed_cum, expected, expected_cum,
               observed - expected, observed_cum - expected_cum)
    table = np.rec.fromarrays(columns, names=(
        "x,y,observed_proportion,observed_cumulative,expected_proportion,"
        "expected_cumulative,pointwise_diff,cumulative_diff"))
    table.flags.writeable = False
    return table


def critical_value(total_authors: int, coefficient: float) -> float:
    """Conformity threshold: coefficient / sqrt(total_authors)."""
    if isinstance(coefficient, bool) or not isinstance(coefficient, Real):
        raise DataError(f"coefficient must be a real number, got {coefficient!r}")
    if not 0 < coefficient < inf:  # NaN fails too
        raise DataError(f"coefficient must be finite and positive, got {coefficient}")
    _require_int("total_authors", total_authors, 1)
    return coefficient / sqrt(total_authors)


def run_ks(
    dist: ProductivityDistribution,
    n: float,
    c: float,
    coefficient: float,
    dense_expected: bool = False,
) -> KSResult:
    """Full test: threshold, report, both statistics, verdicts."""
    total = dist.total_authors
    crit = critical_value(total, coefficient)  # first: a bad coefficient costs no table
    table = ks_report(dist, n, c, dense_expected=dense_expected)
    d_pw = float(table.pointwise_diff.max())
    d_cum = float(np.abs(table.cumulative_diff).max())
    return KSResult(
        d_max_pointwise=d_pw,
        d_max_cumulative=d_cum,
        critical_value=crit,
        coefficient=coefficient,
        total_authors=total,
        conforms_pointwise=abs(d_pw) <= crit,
        conforms_cumulative=d_cum <= crit,
        rows=table,
    )


def render_report_csv(table: np.recarray) -> str:
    """CSV text of a :func:`ks_report` table, full float precision."""
    lines = ["x,y,observed,observed_cum,expected,expected_cum,diff,cum_diff"]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "".join(line + "\n" for line in lines)
