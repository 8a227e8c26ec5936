"""Exponent estimation and normalizing-constant evaluation."""

import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from lotkalaw import (
    DataError,
    NumericError,
    ProductivityDistribution,
    compute_constant,
    expected_proportion,
    fit_exponent_lsq,
    fit_power_law,
)
from lotkalaw.errors import _require_int


# ---------------------------------------------------------------------------
# least-squares exponent

def test_fit_matches_hand_recomputation(cad_distribution):
    """The returned sums and slope must agree with a plain-Python redo."""
    fit = fit_exponent_lsq(cad_distribution)
    xs = [p[0] for p in cad_distribution.points]
    ys = [p[1] for p in cad_distribution.points]
    lx = [math.log10(v) for v in xs]
    ly = [math.log10(v) for v in ys]
    count = len(lx)
    sum_x, sum_y = sum(lx), sum(ly)
    sum_xy = sum(a * b for a, b in zip(lx, ly))
    sum_x2 = sum(a * a for a in lx)
    slope = (count * sum_xy - sum_x * sum_y) / (count * sum_x2 - sum_x**2)
    assert fit.sums.point_count == count
    assert fit.sums.sum_x == pytest.approx(sum_x, abs=1e-9)
    assert fit.sums.sum_y == pytest.approx(sum_y, abs=1e-9)
    assert fit.sums.sum_xy == pytest.approx(sum_xy, abs=1e-9)
    assert fit.sums.sum_x2 == pytest.approx(sum_x2, abs=1e-9)
    assert fit.n == pytest.approx(abs(slope), abs=1e-12)
    assert fit.intercept == pytest.approx((sum_y - slope * sum_x) / count, abs=1e-12)


def test_fit_fixture_values(cad_distribution):
    fit = fit_exponent_lsq(cad_distribution)
    assert 2.53 <= fit.n <= 2.56
    assert f"{fit.n:.2f}" == "2.54"
    assert fit.intercept == pytest.approx(4.1726, abs=5e-4)


def test_fit_two_points_exact():
    fit = fit_exponent_lsq(ProductivityDistribution(((1, 100), (2, 25))))
    assert fit.n == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(2.0, abs=1e-12)


def test_fit_exact_power_law_recovered_to_float_precision():
    # y = 2**30 / x**3 is integer-exact at x in powers of two
    points = tuple((x, 2**30 // x**3) for x in (1, 2, 4, 8, 16))
    fit = fit_exponent_lsq(ProductivityDistribution(points))
    assert fit.n == pytest.approx(3.0, abs=1e-12)


def test_fit_recovers_rounded_power_laws():
    """Counts rounded from large ideal tables barely move the slope."""
    rng = np.random.default_rng(99)
    xs = np.arange(1, 13)
    for _ in range(50):
        n = float(rng.uniform(1.5, 3.2))
        ys = np.rint(1e7 * xs.astype(float) ** -n).astype(int)
        dist = ProductivityDistribution(tuple(zip(xs.tolist(), ys.tolist())))
        fit = fit_exponent_lsq(dist)
        assert fit.n == pytest.approx(n, abs=5e-3)


def test_fit_scale_equivariance(cad_distribution):
    scaled = ProductivityDistribution(
        tuple((x, y * 1000) for x, y in cad_distribution.points)
    )
    base = fit_exponent_lsq(cad_distribution)
    up = fit_exponent_lsq(scaled)
    assert up.n == pytest.approx(base.n, abs=1e-12)
    assert up.intercept == pytest.approx(base.intercept + 3.0, abs=1e-9)


@st.composite
def _falling_tables(draw) -> ProductivityDistribution:
    """Levels 1 < x2 < ... <= 200 with counts that fall strictly as x grows.

    The levels start at 1, as observed tables do. The fit's uncentered sums
    cancel when every log x sits close together far from 0 (levels 190..200
    lose up to about 3e-9 in n under a count factor), so such tables would
    measure that rounding, not the invariance.
    """
    xs = [1, *sorted(draw(st.sets(st.integers(2, 200), min_size=1, max_size=30)))]
    counts = draw(st.sets(st.integers(1, 10**6), min_size=len(xs), max_size=len(xs)))
    return ProductivityDistribution(tuple(zip(xs, sorted(counts, reverse=True))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_falling_tables(), st.integers(2, 1000))
def test_fit_exponent_ignores_a_common_count_factor(dist, factor):
    scaled = ProductivityDistribution(tuple((x, y * factor) for x, y in dist.points))
    assert fit_exponent_lsq(scaled).n == pytest.approx(fit_exponent_lsq(dist).n, rel=0, abs=1e-12)


def test_fit_truncation_drops_tail(cad_distribution):
    fit = fit_exponent_lsq(cad_distribution, max_x=7)
    assert fit.sums.point_count == 7


def test_fit_degenerate_cases(cad_distribution):
    with pytest.raises(NumericError, match="degenerate"):
        fit_exponent_lsq(ProductivityDistribution(((1, 10),)))
    with pytest.raises(NumericError, match="degenerate"):
        fit_exponent_lsq(cad_distribution, max_x=1)
    with pytest.raises(NumericError, match="no spread in log x"):
        fit_exponent_lsq(ProductivityDistribution(((10**6, 2), (10**6 + 1, 1))))


@pytest.mark.parametrize(
    "points",
    [((1, 1), (2, 10), (3, 100)), ((1, 1), (2, 1), (3, 1))],
    ids=["increasing", "flat"],
)
def test_fit_rejects_a_slope_that_is_not_negative(points):
    with pytest.raises(NumericError, match=r"slope \S+ is not negative"):
        fit_exponent_lsq(ProductivityDistribution(points))
    with pytest.raises(NumericError, match="not negative"):
        fit_power_law(ProductivityDistribution(points))


@pytest.mark.parametrize("max_x, text", [
    ("10", "max_x must be an integer, got '10'"),
    (True, "max_x must be an integer, got True"),
    (10.5, "max_x must be an integer, got 10.5"),
])
def test_fit_truncation_cap_must_be_an_integer(cad_distribution, max_x, text):
    # "10" raised a bare numpy UFuncTypeError, True capped the fit at x = 1,
    # and 10.5 silently fitted ten levels
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
        fit_exponent_lsq(cad_distribution, max_x=max_x)
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
        fit_power_law(cad_distribution, max_x=max_x)


def test_fit_truncation_cap_takes_numpy_integers_and_has_no_minimum(cad_distribution):
    assert fit_power_law(cad_distribution, max_x=np.int64(10)) == fit_power_law(
        cad_distribution, max_x=10
    )
    with pytest.raises(NumericError, match="degenerate regression"):
        fit_power_law(cad_distribution, max_x=0)


# ---------------------------------------------------------------------------
# normalizing constant

def test_constant_inverse_square():
    # zeta(2) = pi**2 / 6 exactly
    assert compute_constant(2.0) == pytest.approx(6.0 / math.pi**2, abs=1e-8)
    assert 0.60790 <= compute_constant(2.0) <= 0.60795


def test_constant_at_lookup_exponent():
    c = compute_constant(2.54)
    assert 0.7534 <= c <= 0.7544
    assert f"{c:.4f}" == "0.7539"


def test_constant_matches_scipy_zeta_grid():
    for n in np.arange(1.5, 5.01, 0.1):
        n = float(n)
        assert compute_constant(n) == pytest.approx(1.0 / scipy_zeta(n), abs=1e-8)


def test_constant_sum_route_matches_within_tail_bound():
    """Truncated sums undershoot zeta by about limit**(1-n)/(n-1)."""
    limit = 1_000_000
    for n in np.arange(1.5, 5.01, 0.25):
        n = float(n)
        tail_bound = limit ** (1.0 - n) / (n - 1.0)
        diff = abs(compute_constant(n) - compute_constant(n, limit))
        assert diff <= 1e-6 + tail_bound


def test_constant_sum_steep_exponent():
    # the tail is negligible here, both routes agree tightly
    c_sum = compute_constant(10.0, 1_000_000)
    assert c_sum == pytest.approx(0.9990064, abs=1e-6)
    assert c_sum == pytest.approx(compute_constant(10.0), abs=1e-9)


def test_constant_normalizes_proportions():
    limit = 1_000_000
    xs = np.arange(1, limit + 1, dtype=np.float64)
    for n in (1.5, 2.0, 2.54, 3.0, 5.0):
        c = compute_constant(n)
        total = c * float((xs**-n).sum())
        tail_bound = limit ** (1.0 - n) / (n - 1.0)
        # 1e-8 absorbs float64 accumulation over a million terms
        assert 1.0 - 2.0 * tail_bound - 1e-8 <= total <= 1.0 + 1e-9


def test_constant_divergence_guard():
    for n in (1.0, 0.5, -2.0, 1.0000005, math.nan):
        with pytest.raises(NumericError, match="diverges"):
            compute_constant(n)


def test_constant_rejects_an_infinite_exponent():
    # the Euler-Maclaurin tail would compute inf * 0 and return NaN
    for limit in (None, 100):
        with pytest.raises(NumericError, match="exponent must be finite, got inf"):
            compute_constant(math.inf, limit)


def test_constant_bad_method_and_limit():
    with pytest.raises(DataError, match="limit"):
        compute_constant(2.0, 0)


@pytest.mark.parametrize("limit", [2.5, 1e6, 10.0, "10", True])
def test_constant_limit_must_be_an_integer(limit):
    with pytest.raises(DataError, match=rf"sum limit must be an integer, got {limit!r}"):
        compute_constant(2.0, limit)


def _exact_sum(n: float, start: int, stop: int) -> float:
    """The sum of x**-n for x in [start, stop), every term added, at most 10^6 at a time."""
    total = 0.0
    for first in range(start, stop, 1_000_000):
        total += float((np.arange(first, min(first + 1_000_000, stop), dtype=np.float64) ** -n).sum())
    return total


@pytest.mark.parametrize("n", [1.000002, 1.5, 2.54, 4.0, 10.0])
def test_constant_adds_the_first_million_terms_exactly(n):
    for limit in (1, 2, 19, 20, 114, 65_537, 999_999, 1_000_000):
        assert compute_constant(n, limit) == 1.0 / _exact_sum(n, 1, limit + 1)


@pytest.mark.parametrize("n", [1.000002, 1.01, 2.54, 4.0])
def test_constant_past_a_million_terms_takes_the_tail(n):
    """Terms past 10^6 come from the Euler-Maclaurin tail, differenced with no cancellation."""
    head = _exact_sum(n, 1, 1_000_001)
    for limit in (1_000_001, 1_000_002, 1_234_567, 3_000_001, 10_000_000):
        exact = 1.0 / (head + _exact_sum(n, 1_000_001, limit + 1))
        assert compute_constant(n, limit) == pytest.approx(exact, rel=1e-12, abs=0)


def test_constant_takes_a_sum_of_any_64_bit_length():
    for n in (1.000002, 2.54):
        assert compute_constant(n) <= compute_constant(n, 10**14) <= compute_constant(n, 10**7)
    # a numpy limit is read as a Python int, so limit + 1 cannot wrap
    assert compute_constant(2.0, np.int64(2**63 - 1)) == compute_constant(2.0, 2**63 - 1)
    for limit in (2**63, 10**400):
        with pytest.raises(DataError, match=rf"^sum limit {limit} does not fit in 64 bits$"):
            compute_constant(2.0, limit)


def test_constant_limit_alone_picks_the_evaluation(cad_distribution):
    # None is the zeta series; a count is the partial sum, also inside a fit
    assert compute_constant(2.0, None) == compute_constant(2.0)
    with pytest.raises(DataError, match="sum limit must be >= 1, got 0"):
        fit_power_law(cad_distribution, limit=0)
    fit = fit_power_law(cad_distribution, limit=1000, constant_digits=None)
    assert fit.c == compute_constant(fit.n, 1000)
    assert fit.c != compute_constant(fit.n)


def test_a_sum_limit_below_the_largest_x_is_refused(cad_distribution):
    """The law truncated at the limit leaves no share for a level above it."""
    assert cad_distribution.xs[-1] == 114
    for limit in (1, 113):
        with pytest.raises(DataError, match=rf"^sum limit {limit} is below the largest x "
                                            r"of the table, 114: "):
            fit_power_law(cad_distribution, limit=limit)
    with pytest.raises(DataError, match="sum limit 4 is below the largest x of the table, 114"):
        fit_power_law(cad_distribution, limit=np.int64(4), max_x=10)  # the K-S table keeps x > 10
    fit = fit_power_law(cad_distribution, limit=114)
    assert fit.c == compute_constant(2.54, 114)
    # the expected shares of the observed levels then sum to at most 1
    assert fit.c * float((cad_distribution.xs.astype(float) ** -fit.n).sum()) <= 1.0


# ---------------------------------------------------------------------------
# combined fit

def test_fit_power_law_lookup_rounding(cad_distribution):
    fit = fit_power_law(cad_distribution)
    # constant evaluated at the two-decimal exponent, slope kept full
    assert fit.c == compute_constant(2.54)
    assert fit.n == fit_exponent_lsq(cad_distribution).n
    assert fit.to_dict()["display"] == {"n": "2.54", "c": "0.7539"}


def test_fit_power_law_full_precision_constant(cad_distribution):
    fit = fit_power_law(cad_distribution, constant_digits=None)
    assert fit.c == compute_constant(fit.n)
    assert f"{fit.c:.4f}" == "0.7549"


def test_fit_power_law_other_digit_choices(cad_distribution):
    fit = fit_power_law(cad_distribution, constant_digits=1)
    assert fit.c == compute_constant(2.5)


@pytest.mark.parametrize("digits, text", [
    (True, "constant_digits must be an integer, got True"),
    (2.5, "constant_digits must be an integer, got 2.5"),
    ("2", "constant_digits must be an integer, got '2'"),
    (-1, "constant_digits must be >= 0, got -1"),
])
def test_fit_power_law_constant_digits_must_be_a_count(cad_distribution, digits, text):
    # True rounded to one decimal, 2.5 and "2" raised a bare TypeError,
    # and -1 blamed the exponent for a divergent series
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
        fit_power_law(cad_distribution, constant_digits=digits)


def test_fit_power_law_takes_numpy_integer_digits(cad_distribution):
    assert fit_power_law(cad_distribution, constant_digits=np.int64(2)) == fit_power_law(cad_distribution)


# ---------------------------------------------------------------------------
# expected proportions

def test_expected_proportion_at_one_is_constant():
    assert expected_proportion(2.54, 0.7539, 1) == 0.7539


def test_expected_proportion_fixture_value(cad_distribution):
    fit = fit_power_law(cad_distribution)
    assert expected_proportion(fit.n, fit.c, 2) == pytest.approx(0.129182, abs=1e-4)


def test_expected_proportion_domain_errors():
    with pytest.raises(DataError, match="x must be >= 1"):
        expected_proportion(2.0, 0.6, 0)
    with pytest.raises(DataError, match="constant"):
        expected_proportion(2.0, 0.0, 1)
    with pytest.raises(DataError, match="constant"):
        expected_proportion(2.0, 1.2, 1)
    for n in (math.nan, math.inf, -math.inf):
        with pytest.raises(DataError, match=f"exponent must be finite, got {n}"):
            expected_proportion(n, 0.6, 2)


@pytest.mark.parametrize("x, text", [
    (1.5, "x must be an integer, got 1.5"),
    (True, "x must be an integer, got True"),
    ("3", "x must be an integer, got '3'"),
    (None, "x must be an integer, got None"),
    (0, "x must be >= 1, got 0"),
])
def test_expected_proportion_level_must_be_a_positive_integer(x, text):
    # 1.5 and True gave a proportion; "3" and None raised a bare TypeError
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
        expected_proportion(2.0, 0.5, x)


def test_expected_proportion_takes_numpy_integer_levels():
    assert expected_proportion(2.0, 0.5, np.int64(2)) == expected_proportion(2.0, 0.5, 2) == 0.125


class _IntSubclass(int):
    pass


@pytest.mark.parametrize("value", [
    0, 1, 7, -3, 2**70, np.int64(5), np.uint8(0), _IntSubclass(4), _IntSubclass(0),
    True, False, np.bool_(True), 1.0, math.nan, "1", None,
])
def test_require_int_fast_path_keeps_the_integral_rule(value):
    # the plain-int shortcut must accept and refuse exactly what the full check does
    allowed = not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1
    if allowed:
        _require_int("v", value, 1)
    else:
        with pytest.raises(DataError, match="^v must be "):
            _require_int("v", value, 1)


def test_expected_distribution_values():
    c = compute_constant(2.0)
    props = [expected_proportion(2.0, c, x) for x in range(1, 6)]
    total = sum(props)
    assert total == pytest.approx(c * sum(x**-2.0 for x in range(1, 6)), rel=1e-12)
    assert total == pytest.approx(0.88977, abs=1e-5)
    assert props == sorted(props, reverse=True)


def test_expected_distribution_single_level():
    c = compute_constant(3.0)
    assert expected_proportion(3.0, c, 1) == c
