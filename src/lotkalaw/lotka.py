"""Inverse power-law model for author productivity.

The model says the number of authors writing x papers falls off as
``y(x) = C / x**n``. The exponent n comes from an ordinary least-squares
line through the points (log10 x, log10 y), every point weighted
equally. The constant C normalizes the infinite series so that modelled
author proportions sum to one:

    C = 1 / sum_{x=1..inf} x**(-n)

The series is the zeta function at n. It is evaluated here with a short
partial sum plus an Euler-Maclaurin tail correction, which is cheap and
accurate to better than 1e-8 for n >= 1.5; the law truncated at a given
number of terms adds at most 10^6 of them, then takes the same tail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import expm1, inf, log

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
        _require_int("max_x", max_x)
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


def _power_sum(n: float, limit: int | None) -> float:
    """The sum of x**-n for x = 1..limit, or zeta(n) for None: the first terms exactly, then T.

    T(p), the Euler-Maclaurin sum from x = p on, gives the terms from p,
    the first not added exactly, as ``T(p) - T(q)``: q is ``limit + 1``,
    or infinity for zeta, where every part of T is 0.0, so zeta's tail is
    ``T(20)`` to the last bit. The leading term is differenced with
    ``expm1``: at n near 1 each T is some 1e5 times the difference.
    """
    head = EULER_MACLAURIN_CUTOFF - 1 if limit is None else min(limit, 10**6)  # terms added exactly
    total = float((np.arange(1, head + 1, dtype=np.float64) ** -n).sum())
    p = float(head + 1)
    q = inf if limit is None else float(limit + 1)  # for a limit up to 10^6, q == p: the tail adds 0.0
    return total + (-(p ** (1.0 - n)) * expm1((1.0 - n) * log(q / p)) / (n - 1.0)
                    + 0.5 * (p**-n - q**-n) + n * (p ** (-n - 1.0) - q ** (-n - 1.0)) / 12.0)


def compute_constant(n: float, limit: int | None = None) -> float:
    """Normalizing constant C = 1/zeta(n).

    With ``limit`` None, zeta comes from Euler-Maclaurin; an integer below
    2^63 divides by the sum of ``limit`` terms (those past 10^6 from the
    tail), the law truncated at x = limit, which undershoots zeta by about
    ``limit**(1-n)/(n-1)``.
    """
    if not n > 1.0 + 1e-6:  # NaN fails too
        raise NumericError(f"series diverges: exponent must exceed 1, got {n}")
    if n == inf:
        raise NumericError(f"exponent must be finite, got {n}")
    if limit is not None:
        _require_int("sum limit", limit, 1)
        limit = int(limit)  # a numpy integer would wrap at limit + 1
        if limit >= 2**63:
            raise DataError(f"sum limit {limit} does not fit in 64 bits")
    return 1.0 / _power_sum(n, limit)


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
    full-precision slope. A ``limit`` below the table's largest x raises
    :class:`DataError`: the law truncated there leaves no share for the
    levels above it, which the K-S table would still give one.
    """
    if constant_digits is not None:
        _require_int("constant_digits", constant_digits, 0)
    fit = fit_exponent_lsq(dist, max_x=max_x)
    n_for_c = round(fit.n, constant_digits) if constant_digits is not None else fit.n
    c = compute_constant(n_for_c, limit)
    if limit is not None and limit < dist.xs[-1]:
        raise DataError(f"sum limit {limit} is below the largest x of the table, {dist.xs[-1]}: "
                        f"the law truncated at {limit} gives the levels above it no share")
    return replace(fit, c=c)


def expected_proportion(n: float, c: float, x: int) -> float:
    """Modelled share of authors at productivity x: c * x**(-n)."""
    if not -inf < n < inf:  # NaN fails too
        raise DataError(f"exponent must be finite, got {n}")
    if not 0.0 < c <= 1.0:
        raise DataError(f"constant must lie in (0, 1], got {c}")
    _require_int("x", x, 1)
    return c * float(x) ** -n
