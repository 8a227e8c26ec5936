"""Conformity statistics, critical values and the comparison report."""

import re

import numpy as np
import pytest

from lotkalaw import (
    COEFFICIENT_PRESETS,
    DataError,
    ProductivityDistribution,
    compute_constant,
    critical_value,
    expected_proportion,
    fit_power_law,
    ks_report,
    render_report_csv,
    run_ks,
)
from lotkalaw import gof


@pytest.fixture(scope="module")
def cad_fit(cad_distribution):
    return fit_power_law(cad_distribution)


@pytest.fixture(scope="module")
def cad_report(cad_distribution, cad_fit):
    return ks_report(cad_distribution, cad_fit.n, cad_fit.c)


# ---------------------------------------------------------------------------
# report rows

def test_report_row_structure(cad_distribution, cad_report):
    assert len(cad_report) == len(cad_distribution.points)
    assert [row.x for row in cad_report] == [p[0] for p in cad_distribution.points]
    assert cad_report[-1].observed_cumulative == pytest.approx(1.0, abs=1e-9)


def test_report_first_rows(cad_report):
    first, second = cad_report[0], cad_report[1]
    assert first.observed_proportion == pytest.approx(8654 / 16006, rel=1e-12)
    assert first.expected_proportion == pytest.approx(0.7539, abs=1e-4)
    assert first.pointwise_diff == pytest.approx(-0.2132, abs=5e-4)
    assert second.observed_cumulative == pytest.approx(0.774834, abs=1e-5)
    assert second.expected_proportion == pytest.approx(0.129182, abs=1e-4)
    assert second.pointwise_diff == pytest.approx(0.1050, abs=5e-4)


def test_report_matches_published_table(cad_report, cad_reference):
    """Every printed column of the reference worksheet, to its precision."""
    assert len(cad_report) == len(cad_reference)
    for row, ref in zip(cad_report, cad_reference):
        assert row.x == ref["x"]
        assert row.y == ref["y"]
        assert row.observed_proportion == pytest.approx(ref["observed"], abs=1e-3)
        assert row.observed_cumulative == pytest.approx(ref["observed_cum"], abs=1e-3)
        assert row.expected_proportion == pytest.approx(ref["expected"], abs=1e-3)
        assert row.expected_cumulative == pytest.approx(ref["expected_cum"], abs=1e-3)
        assert row.pointwise_diff == pytest.approx(ref["diff"], abs=1e-3)


def test_report_two_row_hand_example():
    dist = ProductivityDistribution(((1, 6), (2, 4)))
    c = compute_constant(2.0)
    report = ks_report(dist, 2.0, c)
    assert report[0].pointwise_diff == pytest.approx(-0.00793, abs=1e-5)
    assert report[1].pointwise_diff == pytest.approx(0.24802, abs=1e-5)
    assert np.abs(report.cumulative_diff).max() == pytest.approx(0.24009, abs=1e-5)


def test_report_single_row():
    report = ks_report(ProductivityDistribution(((1, 10),)), 2.0, 0.6079)
    assert report[0].observed_proportion == 1.0
    assert report[0].pointwise_diff == pytest.approx(1.0 - 0.6079, rel=1e-12)
    assert report[0].cumulative_diff == pytest.approx(1.0 - 0.6079, rel=1e-12)


def test_dense_expected_accumulates_missing_levels(cad_distribution, cad_fit):
    sparse = ks_report(cad_distribution, cad_fit.n, cad_fit.c)
    dense = ks_report(cad_distribution, cad_fit.n, cad_fit.c, dense_expected=True)
    # x=1 and x=2 are both observed, so the curves agree there
    assert dense[0].expected_cumulative == sparse[0].expected_cumulative
    assert dense[1].expected_cumulative == pytest.approx(
        sparse[1].expected_cumulative, rel=1e-12
    )
    # by x=114 the dense curve has swept rows nobody attained
    direct = sum(
        cad_fit.c * t ** -cad_fit.n for t in range(1, 115)
    )
    assert dense[-1].expected_cumulative == pytest.approx(direct, rel=1e-9)
    assert dense[-1].expected_cumulative > sparse[-1].expected_cumulative


def test_dense_expected_stops_at_a_bounded_largest_x(monkeypatch):
    # one valid line with a large x would otherwise ask for one float per level below it
    wide = ProductivityDistribution(((1, 1000), (2, 100), (2000000, 1)))
    assert ks_report(wide, 2.0, 0.6).x.tolist() == [1, 2, 2000000]
    for dense_ks in (lambda: ks_report(wide, 2.0, 0.6, dense_expected=True),
                     lambda: run_ks(wide, 2.0, 0.6, 2.54, dense_expected=True)):
        with pytest.raises(DataError, match="stops at x=1000000, but the largest x is 2000000"):
            dense_ks()
    monkeypatch.setattr(gof, "_DENSE_MAX_X", 10)
    at_bound = ProductivityDistribution(((1, 1000), (10, 1)))
    assert ks_report(at_bound, 2.0, 0.6, dense_expected=True).x.tolist() == [1, 10]
    with pytest.raises(DataError, match="stops at x=10, but the largest x is 11"):
        ks_report(ProductivityDistribution(((1, 1000), (11, 1))), 2.0, 0.6, dense_expected=True)


# ---------------------------------------------------------------------------
# statistics

def test_pointwise_statistic_fixture(cad_report):
    d = cad_report.pointwise_diff.max()
    assert d == pytest.approx(0.1050, abs=5e-4)
    top = max(cad_report, key=lambda row: row.pointwise_diff)
    assert top.x == 2


def test_cumulative_statistic_fixture(cad_report):
    d = np.abs(cad_report.cumulative_diff).max()
    assert d == pytest.approx(0.2132, abs=5e-4)
    top = max(cad_report, key=lambda row: abs(row.cumulative_diff))
    assert top.x == 1


def test_pointwise_keeps_sign():
    # observed sits below the model at every level here
    dist = ProductivityDistribution(((1, 1), (2, 1)))
    report = ks_report(dist, 0.1, 0.99)
    d = report.pointwise_diff.max()
    assert d < 0
    assert d == pytest.approx(0.5 - 0.99 * 2**-0.1, rel=1e-9)


def test_statistics_scale_invariant(cad_distribution, cad_fit):
    scaled = ProductivityDistribution(
        tuple((x, y * 7) for x, y in cad_distribution.points)
    )
    base = ks_report(cad_distribution, cad_fit.n, cad_fit.c)
    up = ks_report(scaled, cad_fit.n, cad_fit.c)
    assert up.pointwise_diff.max() == pytest.approx(
        base.pointwise_diff.max(), abs=1e-12
    )
    assert np.abs(up.cumulative_diff).max() == pytest.approx(
        np.abs(base.cumulative_diff).max(), abs=1e-12
    )


def test_identical_distributions_give_zero():
    # feed the model back as observations, rounded to big integers
    n, x_max = 2.0, 8
    c = 1.0 / sum(x**-n for x in range(1, x_max + 1))
    ys = [round(1e9 * c * x**-n) for x in range(1, x_max + 1)]
    dist = ProductivityDistribution(tuple(zip(range(1, x_max + 1), ys)))
    report = ks_report(dist, n, c)
    assert abs(report.pointwise_diff.max()) < 1e-6
    assert np.abs(report.cumulative_diff).max() < 1e-6


# ---------------------------------------------------------------------------
# critical values and verdicts

def test_critical_value_examples():
    assert 0.0200 <= critical_value(16006, 2.54) <= 0.0201
    assert critical_value(16006, 1.63) == pytest.approx(0.01288, abs=1e-4)
    assert critical_value(100, 1.36) == pytest.approx(0.136, rel=1e-12)


def test_critical_value_errors():
    with pytest.raises(DataError, match="coefficient"):
        critical_value(100, 0.0)
    with pytest.raises(DataError, match="coefficient"):
        critical_value(100, -1.0)
    for coefficient in (float("nan"), float("inf")):
        with pytest.raises(DataError, match=f"finite and positive, got {coefficient}"):
            critical_value(100, coefficient)
    with pytest.raises(DataError, match="total_authors"):
        critical_value(0, 1.36)
    # a bool or a value that is not a real number once passed as a number or a bare TypeError
    for coefficient in (True, False, np.True_, "2.54", None, 1 + 0j):
        text = f"coefficient must be a real number, got {coefficient!r}"
        with pytest.raises(DataError, match=re.escape(text)):
            critical_value(6, coefficient)
    with pytest.raises(DataError, match="coefficient must be a real number, got True"):
        run_ks(ProductivityDistribution(((1, 5), (2, 1))), 2.0, 0.6, True)
    for total in (2.5, True, 6.0, "6"):
        text = f"total_authors must be an integer, got {total!r}"
        with pytest.raises(DataError, match=re.escape(text)):
            critical_value(total, 1.36)
    with pytest.raises(DataError, match="^total_authors must be >= 1, got 0$"):
        critical_value(0, 1.36)
    assert critical_value(np.int64(6), np.float64(1.36)) == 1.36 / 6**0.5


def test_presets():
    assert COEFFICIENT_PRESETS == {
        "paper": 2.54,
        "alpha01": 1.63,
        "alpha05": 1.36,
        "alpha10": 1.22,
    }


def test_run_ks_fixture_verdicts(cad_distribution, cad_fit):
    result = run_ks(cad_distribution, cad_fit.n, cad_fit.c, 2.54)
    assert result.total_authors == 16006
    assert result.critical_value == pytest.approx(2.54 / 16006**0.5, rel=1e-12)
    assert not result.conforms_pointwise
    assert not result.conforms_cumulative
    assert result.d_max_pointwise > result.critical_value
    assert result.d_max_cumulative > result.d_max_pointwise


def test_run_ks_conforming_case():
    # near-perfect observations conform even at the tight alpha10 threshold
    n, x_max = 2.0, 8
    c = 1.0 / sum(x**-n for x in range(1, x_max + 1))
    ys = [round(1e6 * c * x**-n) for x in range(1, x_max + 1)]
    dist = ProductivityDistribution(tuple(zip(range(1, x_max + 1), ys)))
    result = run_ks(dist, n, c, COEFFICIENT_PRESETS["alpha10"])
    assert result.conforms_pointwise
    assert result.conforms_cumulative


@pytest.mark.parametrize("n", [float("nan"), float("inf"), float("-inf")])
def test_run_ks_rejects_an_exponent_that_is_not_finite(n):
    # unchecked, NaN gives NaN statistics and inf a plausible verdict, with no error
    dist = ProductivityDistribution(((1, 10), (2, 3)))
    with pytest.raises(DataError, match=f"exponent must be finite, got {n}"):
        run_ks(dist, n, 0.6, 2.54)
    with pytest.raises(DataError, match=f"exponent must be finite, got {n}"):
        ks_report(dist, n, 0.6, dense_expected=True)


def test_run_ks_to_dict_round_trip(cad_distribution, cad_fit):
    result = run_ks(cad_distribution, cad_fit.n, cad_fit.c, 1.63)
    doc = result.to_dict()
    assert doc["coefficient"] == 1.63
    assert doc["conforms_cumulative"] is False
    assert set(doc) == {
        "d_max_pointwise",
        "d_max_cumulative",
        "critical_value",
        "coefficient",
        "total_authors",
        "conforms_pointwise",
        "conforms_cumulative",
    }


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_run_ks_carries_the_report_it_tested(cad_distribution, cad_fit, dense):
    result = run_ks(cad_distribution, cad_fit.n, cad_fit.c, 2.54, dense_expected=dense)
    report = ks_report(cad_distribution, cad_fit.n, cad_fit.c, dense_expected=dense)
    assert np.array_equal(result.rows, report)
    assert result.d_max_pointwise == report.pointwise_diff.max()
    assert result.d_max_cumulative == np.abs(report.cumulative_diff).max()
    assert "rows" not in repr(result)
    assert result == run_ks(cad_distribution, cad_fit.n, cad_fit.c, 2.54, dense_expected=dense)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_report_keeps_the_scalar_expected_proportion(cad_distribution, cad_fit, dense):
    """numpy's vectorized power can differ from the scalar one in the last
    bit (3 of the 34 CAD levels with numpy 2.4 on AVX-512), which would
    change the printed worksheet digits."""
    report = ks_report(cad_distribution, cad_fit.n, cad_fit.c, dense_expected=dense)
    for row in report:
        assert row.expected_proportion == expected_proportion(cad_fit.n, cad_fit.c, row.x)


def test_report_is_a_read_only_column_table(cad_report):
    assert isinstance(cad_report, np.ndarray) and not cad_report.flags.writeable
    assert cad_report.x.dtype == cad_report.y.dtype == np.int64
    assert cad_report.pointwise_diff.dtype == np.float64
    with pytest.raises(ValueError):
        cad_report.pointwise_diff[0] = 0.0
    with pytest.raises(ValueError):
        cad_report["x"] = 1


# ---------------------------------------------------------------------------
# rendering

def test_render_report_csv_round_trips(cad_report):
    text = render_report_csv(cad_report)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,observed,observed_cum,expected,expected_cum,diff,cum_diff"
    assert len(lines) == 1 + len(cad_report)
    fields = lines[1].split(",")
    assert int(fields[0]) == cad_report[0].x
    assert float(fields[2]) == cad_report[0].observed_proportion
    assert float(fields[6]) == cad_report[0].pointwise_diff
