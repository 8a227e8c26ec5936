"""Inverse power-law model for author productivity.

The model says the number of authors writing x papers falls off as
``y(x) = C / x**n``. The exponent n comes from an ordinary least-squares
line through the points (log10 x, log10 y), every point weighted
equally. The constant C normalizes the infinite series so that modelled
author proportions sum to one:

    C = 1 / sum_{x=1..inf} x**(-n)

The series is the zeta function at n. It is evaluated here with a short
partial sum plus an Euler-Maclaurin tail correction, which is cheap and
accurate to better than 1e-8 for n >= 1.5; a plain partial sum of a
given number of terms is the slower cross-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import inf

import numpy as np

from .corpus import ProductivityDistribution
from .errors import DataError, NumericError, _require_int

__all__ = [
    "RegressionSums",
    "LotkaFit",
    "fit_exponent_lsq",
    "compute_constant",
    "fit_power_law",
    "expected_proportion",
    "EULER_MACLAURIN_CUTOFF",
]

# Start of the Euler-Maclaurin tail. 20 keeps the dropped correction terms
# below 1e-8 across every exponent the divergence guard lets through.
EULER_MACLAURIN_CUTOFF = 20


@dataclass(frozen=True)
class RegressionSums:
    """The worksheet totals behind a log-log least-squares fit."""

    sum_x: float
    sum_y: float
    sum_xy: float
    sum_x2: float
    point_count: int


@dataclass(frozen=True)
class LotkaFit:
    """Fitted exponent (the negated log-log slope) and friends.

    ``c`` is None until a constant is attached, see :func:`fit_power_law`.
    """

    n: float
    intercept: float
    sums: RegressionSums
    c: float | None = None

    def to_dict(self) -> dict:
        out = {"n": self.n, "intercept": self.intercept, "sums": asdict(self.sums)}
        if self.c is not None:
            out["c"] = self.c
            out["display"] = {"n": f"{self.n:.2f}", "c": f"{self.c:.4f}"}
        return out


def fit_exponent_lsq(
    dist: ProductivityDistribution, max_x: int | None = None
) -> LotkaFit:
    """Least-squares slope on (log10 x, log10 y); the exponent is -slope.

    ``max_x`` drops rows above a productivity cap before fitting, which
    tames the long sparse tail of observed tables. Fewer than two
    surviving rows cannot define a line and raise NumericError, and so
    does a slope that is not negative: counts that do not fall as x
    grows have no inverse power law to report.
    """
    xs, ys = dist.xs, dist.ys
    if max_x is not None:
        keep = xs <= max_x
        xs, ys = xs[keep], ys[keep]
    if len(xs) < 2:
        raise NumericError("degenerate regression: need at least two x levels")
    lx = np.log10(xs)
    ly = np.log10(ys)
    count = len(xs)
    sum_x = float(lx.sum())
    sum_y = float(ly.sum())
    sum_xy = float((lx * ly).sum())
    sum_x2 = float((lx * lx).sum())
    denom = count * sum_x2 - sum_x * sum_x
    if abs(denom) < 1e-12:
        raise NumericError("degenerate regression: no spread in log x")
    slope = (count * sum_xy - sum_x * sum_y) / denom
    if slope >= 0:
        raise NumericError(f"fitted slope {slope!r} is not negative: counts do not fall with x")
    intercept = (sum_y - slope * sum_x) / count
    sums = RegressionSums(sum_x, sum_y, sum_xy, sum_x2, count)
    return LotkaFit(n=-slope, intercept=intercept, sums=sums)


def _zeta_euler_maclaurin(n: float) -> float:
    head = _partial_power_sum(n, EULER_MACLAURIN_CUTOFF - 1)
    p = float(EULER_MACLAURIN_CUTOFF)
    tail = p ** (1.0 - n) / (n - 1.0) + 0.5 * p**-n + n * p ** (-n - 1.0) / 12.0
    return head + tail


def _partial_power_sum(n: float, limit: int) -> float:
    _require_int("sum limit", limit, 1)
    total = 0.0
    chunk = 1_000_000
    for start in range(1, limit + 1, chunk):
        stop = min(start + chunk, limit + 1)
        total += float((np.arange(start, stop, dtype=np.float64) ** -n).sum())
    return total


def compute_constant(n: float, limit: int | None = None) -> float:
    """Normalizing constant C = 1/zeta(n).

    With ``limit`` None, zeta comes from Euler-Maclaurin; an integer divides
    by the partial sum of ``limit`` terms, the law truncated at x = limit,
    which undershoots zeta by about ``limit**(1-n)/(n-1)``.
    """
    if not n > 1.0 + 1e-6:  # NaN fails too
        raise NumericError(f"series diverges: exponent must exceed 1, got {n}")
    if n == inf:
        raise NumericError(f"exponent must be finite, got {n}")
    if limit is None:
        return 1.0 / _zeta_euler_maclaurin(n)
    return 1.0 / _partial_power_sum(n, limit)


def fit_power_law(
    dist: ProductivityDistribution,
    limit: int | None = None,
    constant_digits: int | None = 2,
    max_x: int | None = None,
) -> LotkaFit:
    """Fit the exponent and attach the constant ``compute_constant(n, limit)``.

    ``constant_digits`` rounds the exponent before the constant is
    computed (None skips the rounding); else it must be an integer >= 0.
    The default of 2 mirrors the table-lookup workflow of the published
    analyses this package reproduces: the constant is read off at the
    two-decimal exponent while expected proportions keep the
    full-precision slope.
    """
    if constant_digits is not None:
        _require_int("constant_digits", constant_digits, 0)
    fit = fit_exponent_lsq(dist, max_x=max_x)
    n_for_c = round(fit.n, constant_digits) if constant_digits is not None else fit.n
    return replace(fit, c=compute_constant(n_for_c, limit))


def expected_proportion(n: float, c: float, x: int) -> float:
    """Modelled share of authors at productivity x: c * x**(-n)."""
    if not -inf < n < inf:  # NaN fails too
        raise DataError(f"exponent must be finite, got {n}")
    if not 0.0 < c <= 1.0:
        raise DataError(f"constant must lie in (0, 1], got {c}")
    if x < 1:
        raise DataError(f"x must be >= 1, got {x}")
    return c * float(x) ** -n
