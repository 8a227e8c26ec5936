"""Inverse power-law model for author productivity.

The model says the number of authors writing x papers falls off as
``y(x) = C / x**n``. The exponent n comes from an ordinary least-squares
line through the points (log10 x, log10 y), every point weighted
equally. The constant C normalizes the infinite series so that modelled
author proportions sum to one:

    C = 1 / sum_{x=1..inf} x**(-n)

The series is the zeta function at n. It is evaluated here with a short
partial sum plus an Euler-Maclaurin tail correction, which is cheap and
accurate to better than 1e-8 for n >= 1.5; a plain truncated sum is kept
as a slower cross-check route.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import ProductivityDistribution
from .errors import DataError, NumericError

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


def _zeta_euler_maclaurin(n: float, cutoff: int = EULER_MACLAURIN_CUTOFF) -> float:
    head = float((np.arange(1, cutoff, dtype=np.float64) ** -n).sum())
    p = float(cutoff)
    tail = p ** (1.0 - n) / (n - 1.0) + 0.5 * p**-n + n * p ** (-n - 1.0) / 12.0
    return head + tail


def _partial_power_sum(n: float, limit: int) -> float:
    if limit < 1:
        raise DataError(f"sum limit must be >= 1, got {limit}")
    total = 0.0
    chunk = 1_000_000
    for start in range(1, limit + 1, chunk):
        stop = min(start + chunk, limit + 1)
        total += float((np.arange(start, stop, dtype=np.float64) ** -n).sum())
    return total


def compute_constant(n: float, method: str = "zeta", limit: int = 1_000_000) -> float:
    """Normalizing constant C = 1/zeta(n).

    method 'zeta' uses the Euler-Maclaurin evaluation; 'sum' divides by a
    plain partial sum of ``limit`` terms, which undershoots zeta by about
    ``limit**(1-n)/(n-1)`` and exists as an independent check.
    """
    if not n > 1.0 + 1e-6:  # NaN fails too
        raise NumericError(f"series diverges: exponent must exceed 1, got {n}")
    if method == "zeta":
        return 1.0 / _zeta_euler_maclaurin(n)
    if method == "sum":
        return 1.0 / _partial_power_sum(n, limit)
    raise DataError(f"unknown constant method {method!r} (expected 'zeta' or 'sum')")


def fit_power_law(
    dist: ProductivityDistribution,
    c_method: str = "zeta",
    limit: int = 1_000_000,
    constant_digits: int | None = 2,
    max_x: int | None = None,
) -> LotkaFit:
    """Fit the exponent and attach the normalizing constant.

    ``constant_digits`` rounds the exponent before the constant is
    computed (None skips the rounding). The default of 2 mirrors the
    table-lookup workflow of the published analyses this package
    reproduces: the constant is read off at the two-decimal exponent
    while expected proportions keep the full-precision slope.
    """
    fit = fit_exponent_lsq(dist, max_x=max_x)
    n_for_c = round(fit.n, constant_digits) if constant_digits is not None else fit.n
    return replace(fit, c=compute_constant(n_for_c, method=c_method, limit=limit))


def expected_proportion(n: float, c: float, x: int) -> float:
    """Modelled share of authors at productivity x: c * x**(-n)."""
    if not 0.0 < c <= 1.0:
        raise DataError(f"constant must lie in (0, 1], got {c}")
    if x < 1:
        raise DataError(f"x must be >= 1, got {x}")
    return c * float(x) ** -n
