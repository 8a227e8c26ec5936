"""Independent numpy recomputations that every pass is checked against."""

from __future__ import annotations

import numpy as np

D_TOLERANCE = 1e-12
SLOPE_TOLERANCE = 1e-9


def ks_d_values(xs, ys, n: float, c: float, dense: bool) -> tuple[float, float]:
    """(pointwise D, cumulative D) for observed rows against c * x**-n."""
    xs = np.asarray(xs, dtype=np.int64)
    observed = np.asarray(ys, dtype=np.float64) / np.sum(ys)
    expected = c * xs.astype(np.float64) ** -n
    if dense:
        expected_cum = np.cumsum(c * np.arange(1, xs[-1] + 1, dtype=np.float64) ** -n)[xs - 1]
    else:
        expected_cum = np.cumsum(expected)
    return (
        float(np.max(observed - expected)),
        float(np.max(np.abs(np.cumsum(observed) - expected_cum))),
    )


def lsq_exponent(xs, ys) -> float:
    """Magnitude of the least-squares slope of log10 y on log10 x."""
    return abs(float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0]))


def pattern_counts(sizes, years, period: int) -> np.ndarray:
    """Records per (author-count bucket 1..10, >10) and period from the origin year."""
    origin = int(np.min(years))
    periods = (np.asarray(years) - origin) // period
    buckets = np.minimum(np.asarray(sizes), 11) - 1
    width = int(periods.max()) + 1
    return np.bincount(buckets * width + periods, minlength=11 * width).reshape(11, width)


class Gate:
    """Counts attempted operations and the ones that failed a check or raised."""

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed = 0
        self._log = log
        self._problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self._problems.append(what)

    def close(self, op: str) -> bool:
        """Ends one operation; it failed if any check since the last close failed."""
        self.attempted += 1
        problems, self._problems = self._problems, []
        if problems:
            self.failed += 1
            self._log(f"FAILED {op}: " + "; ".join(problems))
        return not problems

    def check_ks(self, d_pointwise, d_cumulative, xs, ys, n, c, dense, what) -> None:
        want_pw, want_cum = ks_d_values(xs, ys, n, c, dense)
        self.check(
            abs(d_pointwise - want_pw) <= D_TOLERANCE
            and abs(d_cumulative - want_cum) <= D_TOLERANCE,
            f"{what}: K-S D ({d_pointwise!r}, {d_cumulative!r})"
            f" != numpy ({want_pw!r}, {want_cum!r})",
        )

    def check_slope(self, n, xs, ys, what) -> None:
        want = lsq_exponent(xs, ys)
        self.check(abs(n - want) <= SLOPE_TOLERANCE * want, f"{what}: n {n!r} != numpy {want!r}")
