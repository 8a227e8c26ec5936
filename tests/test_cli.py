"""Command line behavior: formats, flags, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from itertools import cycle
from math import log10
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lotkalaw import (ProductivityDistribution, PublicationRecord, SynthSpec, authorship_pattern,
                      collab_metrics, compute_constant, count_productivity, dump_distribution,
                      dump_records, exact_distribution, parse_records, read_input, run_ks,
                      sample_distribution)
from lotkalaw import cli, corpus, gof
from lotkalaw.cli import main

from conftest import DATA_DIR, build_mixed_records, build_pattern_records

CAD = str(DATA_DIR / "cad_productivity.csv")
SAMPLE = str(DATA_DIR / "sample_records.psv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_values(out: str) -> dict:
    """Parse the `metric,value` block that follows the blank line."""
    block = out.split("\nmetric,value\n", 1)[1]
    pairs = {}
    for line in block.strip().splitlines():
        key, value = line.split(",", 1)
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# fit

def test_fit_csv_on_fixture(capsys):
    code, out, err = run(capsys, "fit", "--input", CAD)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "field,value,display"
    fields = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert fields["n"][1] == "2.54"
    assert fields["c"][1] == "0.7539"
    assert float(fields["n"][0]) == pytest.approx(2.54498, abs=1e-5)
    assert float(fields["sum_x"][0]) == pytest.approx(39.9858, abs=1e-4)
    assert float(fields["sum_y"][0]) == pytest.approx(40.1046, abs=1e-4)
    assert float(fields["sum_xy"][0]) == pytest.approx(31.4999, abs=1e-4)
    assert float(fields["sum_x2"][0]) == pytest.approx(53.1807, abs=1e-4)
    assert fields["point_count"][0] == "34"


def test_fit_json_on_fixture(capsys):
    code, out, err = run(capsys, "fit", "--input", CAD, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["display"] == {"n": "2.54", "c": "0.7539"}
    assert doc["sums"]["point_count"] == 34


def test_fit_two_point_table(capsys, tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n1,100\n2,25\n")
    code, out, _ = run(capsys, "fit", "--input", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == pytest.approx(2.0, abs=1e-12)
    assert doc["c"] == pytest.approx(0.60793, abs=1e-5)


def test_fit_full_precision_constant(capsys):
    code, out, _ = run(capsys, "fit", "--input", CAD, "--c-digits", "full",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["display"]["c"] == "0.7549"


def test_fit_truncation_flag(capsys):
    code, out, _ = run(capsys, "fit", "--input", CAD, "--truncate-x", "10",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["sums"]["point_count"] == 10


def test_fit_degenerate_input_exits_3(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1,10\n")
    code, out, err = run(capsys, "fit", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "degenerate" in err


# ---------------------------------------------------------------------------
# ks

def test_ks_csv_summary(capsys):
    code, out, err = run(capsys, "ks", "--input", CAD, "--preset", "paper")
    assert code == 0 and err == ""
    rows = out.split("\nmetric,value\n", 1)[0].strip().splitlines()
    assert len(rows) == 1 + 34
    values = summary_values(out)
    assert float(values["d_max_pointwise"]) == pytest.approx(0.1050, abs=5e-4)
    assert float(values["d_max_cumulative"]) == pytest.approx(0.2132, abs=5e-4)
    assert 0.0200 <= float(values["critical_value"]) <= 0.0201
    assert values["conforms_pointwise"] == "false"
    assert values["conforms_cumulative"] == "false"
    assert float(values["coefficient"]) == 2.54


def test_ks_variant_filtering(capsys):
    _, out, _ = run(capsys, "ks", "--input", CAD, "--preset", "paper",
                    "--ks-variant", "standard")
    values = summary_values(out)
    assert "d_max_cumulative" in values and "d_max_pointwise" not in values
    _, out, _ = run(capsys, "ks", "--input", CAD, "--preset", "paper",
                    "--ks-variant", "pointwise")
    values = summary_values(out)
    assert "d_max_pointwise" in values and "d_max_cumulative" not in values


def test_ks_alpha01_critical_value(capsys):
    _, out, _ = run(capsys, "ks", "--input", CAD, "--preset", "alpha01")
    assert float(summary_values(out)["critical_value"]) == pytest.approx(
        0.01288, abs=1e-4
    )


def test_ks_explicit_coefficient(capsys):
    _, out, _ = run(capsys, "ks", "--input", CAD, "--coefficient", "1.36")
    assert float(summary_values(out)["coefficient"]) == 1.36


@pytest.mark.parametrize("coefficient", ["inf", "nan"])
def test_ks_coefficient_that_is_not_finite_exits_2(capsys, coefficient):
    code, out, err = run(capsys, "ks", "--input", CAD, "--coefficient", coefficient,
                         "--format", "json")
    assert code == 2 and out == ""
    assert err == f"data error: coefficient must be finite and positive, got {coefficient}\n"


def test_ks_dense_expected_on_a_wide_table_exits_2(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,1000000000\n2,100000000\n2000000,1\n")
    code, out, err = run(capsys, "ks", "--input", str(path), "--preset", "paper")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "ks", "--input", str(path), "--preset", "paper",
                         "--dense-expected")
    assert code == 2 and out == ""
    assert err == ("data error: the dense expected curve stops at x=1000000, "
                   "but the largest x is 2000000\n")


def test_ks_requires_threshold_choice(capsys):
    code, out, err = run(capsys, "ks", "--input", CAD)
    assert code == 1
    assert out == ""
    assert "requires --coefficient or --preset" in err


def test_ks_rejects_both_threshold_flags(capsys):
    code, _, err = run(capsys, "ks", "--input", CAD, "--preset", "paper",
                       "--coefficient", "1.0")
    assert code == 1
    assert "not both" in err


def test_ks_synthetic_table_conforms(capsys, tmp_path):
    path = tmp_path / "synth.csv"
    path.write_text(dump_distribution(exact_distribution(2.0, 1_000_000, 50)))
    code, out, _ = run(capsys, "ks", "--input", str(path),
                       "--preset", "alpha01", "--c-method", "sum:50")
    assert code == 0
    values = summary_values(out)
    assert values["conforms_pointwise"] == "true"
    assert values["conforms_cumulative"] == "true"


@pytest.mark.parametrize("command", ["fit", "ks", "report"])
def test_a_sum_limit_below_the_largest_x_exits_2(capsys, command):
    """``sum:1`` on the CAD table would give expected_cum 1.17 at x=2; ``sum:114`` is its largest x."""
    preset = () if command == "fit" else ("--preset", "paper")
    assert run(capsys, command, "--input", CAD, *preset, "--c-method", "sum:1") == (
        2, "", "data error: sum limit 1 is below the largest x of the table, 114: "
               "the law truncated at 1 gives the levels above it no share\n")
    code, out, err = run(capsys, command, "--input", CAD, *preset, "--c-method", "sum:114")
    assert (code, err) == (0, "")
    assert out


def test_ks_json_document(capsys):
    code, out, _ = run(capsys, "ks", "--input", CAD, "--preset", "paper",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"fit", "result", "rows"}
    assert len(doc["rows"]) == 34
    assert doc["result"]["conforms_cumulative"] is False
    assert doc["rows"][1]["x"] == 2
    assert doc["rows"][1]["pointwise_diff"] == pytest.approx(0.1050, abs=5e-4)


# ---------------------------------------------------------------------------
# ingest

def test_ingest_complete_vs_straight(capsys):
    code, out, _ = run(capsys, "ingest", "--input", SAMPLE)
    assert code == 0
    assert out == "x,y\n1,2\n2,2\n4,1\n5,1\n"
    code, out, _ = run(capsys, "ingest", "--input", SAMPLE, "--counting", "straight")
    assert code == 0
    assert out == "x,y\n1,3\n2,1\n3,1\n"


def test_ingest_json(capsys):
    code, out, _ = run(capsys, "ingest", "--input", SAMPLE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == [[1, 2], [2, 2], [4, 1], [5, 1]]
    assert doc["provenance"] == "counted:complete"


def test_ingest_normalizes_distribution_input(capsys, tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("5,1\n1,9\n")
    code, out, _ = run(capsys, "ingest", "--input", str(path))
    assert code == 0
    assert out == "x,y\n1,9\n5,1\n"


def test_ingest_jsonl_autodetected(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    records = build_pattern_records()[:10]
    path.write_text(dump_records(records))
    code, out, _ = run(capsys, "ingest", "--input", str(path))
    assert code == 0
    assert out.startswith("x,y\n")


# ---------------------------------------------------------------------------
# pattern

def test_pattern_on_reference_corpus(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(dump_records(build_pattern_records()))
    code, out, err = run(capsys, "pattern", "--input", str(path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1].startswith("1,17,20,17,12,18,10,94,7.32")
    assert "total,125,160,122,195,287,395,1284,100.00" in out
    values = summary_values(out)
    assert values["single_count"] == "94"
    assert float(values["degree_of_collaboration"]) == pytest.approx(0.9268, abs=1e-3)


def test_pattern_flags(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(dump_records(build_pattern_records()))
    code, out, _ = run(capsys, "pattern", "--input", str(path),
                       "--period", "10", "--origin", "1990")
    assert code == 0
    assert out.splitlines()[0] == "authors,1990-1999,2000-2009,2010-2019,total,share_pct"


def test_pattern_rejects_distribution_input(capsys):
    code, out, err = run(capsys, "pattern", "--input", CAD)
    assert code == 2
    assert out == ""
    assert "requires records" in err


@pytest.mark.parametrize("argv, text, message", [
    (("pattern",), "P1|2_005|A\nP2|2005|B\n", "line 1: year '2_005' is not an integer"),
    (("pattern",), "P1|2005|A\nP2|\u0662\u0660\u0660\u0665|B\n",
     "line 2: year '\u0662\u0660\u0660\u0665' is not an integer"),
    (("ingest",), "x,y\n1_0,2\n", "line 2: non-integer value in '1_0,2'"),
    (("ingest",), "\u0661,\u0665\n",
     "cannot tell what kind of input '\u0661,\u0665' starts; pass --input-kind"),
    (("ingest", "--input-kind", "distribution"), "\u0661,\u0665\n",
     "line 1: non-integer value in '\u0661,\u0665'"),
])
def test_integers_that_only_python_syntax_takes_exit_2(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, argv[0], "--input", str(path), *argv[1:]) == (2, "", f"data error: {message}\n")


@pytest.mark.parametrize("line, fault", [
    ('{"id": "P2", "year": ' + "1" * 5000 + ', "authors": ["B"]}', "a number with too many digits"),
    ('{"id": "P2", "year": 2006, "authors": ["B"], "x": ' + "[" * 100_000, "nested too deeply"),
], ids=["year-past-the-digit-limit", "nested-past-the-stack"])
def test_json_past_the_parser_limits_exits_2(capsys, tmp_path, line, fault):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "P1", "year": 2005, "authors": ["A"]}\n' + line + "\n",
                    encoding="utf-8")
    assert run(capsys, "ingest", "--input", str(path)) == (
        2, "", f"data error: line 2: invalid JSON ({fault})\n")


@pytest.mark.parametrize("origin", ["-100000000000000000000", "0"])
def test_pattern_origin_below_one_exits_2(capsys, origin):
    code, out, err = run(capsys, "pattern", "--input", SAMPLE, "--origin", origin)
    assert code == 2 and out == ""
    assert err == f"data error: origin year must be positive, got {int(origin)}\n"


def test_pattern_period_longer_than_the_span_gives_one_period(capsys):
    code, out, err = run(capsys, "pattern", "--input", SAMPLE, "--period", str(10**20))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"authors,1991-{1990 + 10**20},total,share_pct"


def test_pattern_with_too_many_periods_exits_2(capsys, tmp_path):
    path = tmp_path / "wide.psv"
    path.write_text("P1|1|A\nP2|100000000000|B\n", encoding="utf-8")
    code, out, err = run(capsys, "pattern", "--input", str(path), "--period", "1")
    assert code == 2 and out == ""
    assert err == "data error: the table would have 100000000000 periods, more than 10000\n"


# ---------------------------------------------------------------------------
# report

def test_report_document(capsys, tmp_path):
    plot = tmp_path / "plot.csv"
    code, out, err = run(capsys, "report", "--input", CAD, "--preset", "paper",
                         "--plot-out", str(plot))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["fit"]["display"]["n"] == "2.54"
    assert doc["ks"]["conforms_cumulative"] is False
    assert doc["pattern"] is None
    assert doc["distribution"]["total_authors"] == 16006
    row = doc["plot_data"][1]
    assert row[0] == pytest.approx(0.30103, abs=1e-5)
    assert row[1] == pytest.approx(3.57380, abs=1e-4)
    assert row[2] == pytest.approx(3.31549, abs=1e-4)
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "log10_x,log10_observed,log10_expected"
    assert len(plot_lines) == 1 + 34


def test_report_includes_pattern_for_records(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(dump_records(build_mixed_records()))
    code, out, _ = run(capsys, "report", "--input", str(path), "--preset", "alpha05")
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"]["n"] == pytest.approx(1.5, abs=1e-12)
    assert doc["pattern"]["grand_total"] == 13
    assert doc["collaboration"]["single_count"] == 11
    assert doc["collaboration"]["collaborative_index"] == pytest.approx(16 / 13)
    assert doc["input"]["counting"] == "complete"


def test_report_counting_is_null_for_a_table(capsys):
    code, out, _ = run(capsys, "report", "--input", CAD, "--preset", "paper",
                       "--counting", "straight")
    assert code == 0
    assert json.loads(out)["input"] == {"path": CAD, "counting": None}


def test_report_echoes_counting_for_records(capsys):
    code, out, _ = run(capsys, "report", "--input", SAMPLE, "--preset", "paper",
                       "--counting", "straight")
    assert code == 0
    assert json.loads(out)["input"]["counting"] == "straight"


def test_pattern_rejects_counting_flag(capsys):
    code, out, err = run(capsys, "pattern", "--input", SAMPLE, "--counting", "straight")
    assert code == 1 and out == ""
    assert "--counting" in err


def test_report_runs_are_byte_identical(capsys, tmp_path):
    plot_a, plot_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a, out_a, _ = run(capsys, "report", "--input", CAD, "--preset", "paper",
                           "--plot-out", str(plot_a))
    code_b, out_b, _ = run(capsys, "report", "--input", CAD, "--preset", "paper",
                           "--plot-out", str(plot_b))
    assert code_a == code_b == 0
    assert out_a == out_b
    assert plot_a.read_bytes() == plot_b.read_bytes()


_PATHS = st.one_of(st.text(), st.sampled_from([
    '",\n  "ks_rows": [],\n  "x": "', "plot_data", '"plot_data": [', "%r", "\n  ]\n}\n"]))


# no explain phase: it reran a failure that had shrunk in under a second
# about 400 times, some at 4,000 levels, for 80 s or more
@settings(derandomize=True, deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(st.integers(1, 4000), st.booleans(), st.floats(1.01, 1.6), st.integers(0, 2**64 - 1),
       _PATHS)
def test_a_document_with_wide_rows_is_what_json_dumps_writes(levels, dense, n, seed, path):
    # the K-S rows of the first 1 to 4,000 levels of a sampled table, written
    # from one template per row, beside an input path that reads like one.
    # The level count is drawn first, so a failure shrinks it first.
    sampled = sample_distribution(SynthSpec(n, 2 * 10**5, 10**4, seed))
    dist = ProductivityDistribution(np.column_stack((sampled.xs, sampled.ys))[:levels])
    result = run_ks(dist, n, compute_constant(n), 1.63, dense_expected=dense)
    rows, names = result.rows.tolist(), result.rows.dtype.names
    plot = [(log10(x), log10(y), log10(p * result.total_authors))
            for x, y, p in zip(result.rows.x.tolist(), result.rows.y.tolist(),
                               result.rows.expected_proportion.tolist())]
    doc = {"input": {"path": path, "counting": None}, "distribution": dist.to_dict(),
           "ks": result.to_dict(), "pattern": None}
    expected = json.dumps({**doc, "ks_rows": [dict(zip(names, row)) for row in rows],
                           "plot_data": [list(row) for row in plot]},
                          sort_keys=True, indent=2) + "\n"
    written = cli._json_doc(doc, ks_rows=cli._json_rows(rows, names),
                            plot_data=cli._json_rows(plot))
    # compared as lists of lines: pytest's diff of two long strings takes minutes
    assert written.split("\n") == expected.split("\n")
    ks_doc = {"fit": {}, "result": {}}
    written = cli._json_doc(ks_doc, rows=cli._json_rows(rows, names))
    expected = json.dumps({**ks_doc, "rows": [dict(zip(names, row)) for row in rows]},
                          sort_keys=True, indent=2) + "\n"
    assert written.split("\n") == expected.split("\n")


def test_report_requires_threshold(capsys):
    code, out, err = run(capsys, "report", "--input", CAD)
    assert code == 1 and out == ""


def test_report_rejects_csv_format(capsys):
    code, _, err = run(capsys, "report", "--input", CAD, "--preset", "paper",
                       "--format", "csv")
    assert code == 1
    assert "json document" in err


# ---------------------------------------------------------------------------
# errors and exit codes

def test_no_arguments_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert out == ""


def test_unknown_command_and_flag(capsys):
    code, _, _ = run(capsys, "frobnicate", "--input", CAD)
    assert code == 1
    code, _, _ = run(capsys, "fit", "--input", CAD, "--frobnicate")
    assert code == 1
    code, out, err = run(capsys, "pattern", "--input", SAMPLE, "--period", "0")
    assert code == 1 and out == ""
    assert "--period must be >= 1" in err


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "fit", "--input", "no/such/file.csv")
    assert code == 2
    assert out == ""
    assert "cannot read" in err
    code, out, err = run(capsys, "report", "--input", CAD, "--preset", "paper",
                         "--plot-out", "no/such/dir/plot.csv")
    assert code == 2
    assert out == ""
    assert err.startswith("data error: cannot write no/such/dir/plot.csv")


def test_malformed_distribution_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,abc\n")
    code, out, err = run(capsys, "fit", "--input", str(path))
    assert code == 2
    assert "line 2" in err
    path.write_text("x,y\n2,3,4\n")
    code, out, err = run(capsys, "fit", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "data error: line 2: expected 'x,y', got '2,3,4'\n"


def test_undetectable_input_exits_2(capsys, tmp_path):
    path = tmp_path / "mystery.txt"
    path.write_text("???\n")
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == 2
    assert "--input-kind" in err


def test_empty_file_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == 2


def test_increasing_table_exits_3(capsys, tmp_path):
    path = tmp_path / "rising.csv"
    path.write_text("x,y\n1,1\n2,10\n3,100\n")
    code, out, err = run(capsys, "fit", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "not negative" in err


def test_an_expected_count_that_underflows_exits_3(capsys, tmp_path):
    # n fitted on x <= 2 is about 59.8, so the expected count at x = 10^6 is
    # 0.0; its log10 once crashed the plot rows with a ValueError traceback
    path = tmp_path / "steep.csv"
    path.write_text("x,y\n1,1000000000000000000\n2,1\n1000000,1\n")
    plot = tmp_path / "plot.csv"
    flags = ("--input", str(path), "--preset", "paper", "--truncate-x", "2")
    code, out, err = run(capsys, "report", *flags, "--plot-out", str(plot))
    assert code == 3
    assert out == ""
    assert "x=1000000" in err and "underflows" in err
    assert not plot.exists()
    assert run(capsys, "ks", *flags)[0] == 0


def test_byte_order_mark_is_dropped(capsys, tmp_path):
    table = tmp_path / "bom.csv"
    table.write_bytes(b"\xef\xbb\xbfx,y\n1,9\n5,1\n")
    code, out, _ = run(capsys, "ingest", "--input", str(table))
    assert code == 0
    assert out == "x,y\n1,9\n5,1\n"
    records = tmp_path / "bom.psv"
    records.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "sample_records.psv").read_bytes())
    code, out, _ = run(capsys, "ingest", "--input", str(records))
    assert code == 0
    assert out == "x,y\n1,2\n2,2\n4,1\n5,1\n"


def test_ingest_year_beyond_64_bits_exits_2(capsys, tmp_path):
    path = tmp_path / "far.psv"
    path.write_text("P1|100000000000000000000|A\n")
    code, out, err = run(capsys, "ingest", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == ("data error: line 1: record 'P1': year 100000000000000000000 "
                   "does not fit in 64 bits\n")


@pytest.mark.parametrize("table", ["1,5\n99999999999999999999,1\n",
                                   "x,y\n1,5000000000\n4000000000,3000000000\n"])
def test_ingest_counts_beyond_64_bits_exit_2(capsys, tmp_path, table):
    path = tmp_path / "huge.csv"
    path.write_text(table)
    for output_format in ("csv", "json"):
        code, out, err = run(capsys, "ingest", "--input", str(path), "--format", output_format)
        assert code == 2
        assert out == ""
        assert err.startswith("data error: x and y must be whole numbers") and "64 bits" in err


@pytest.mark.parametrize("kind", ["auto", "pipe", "distribution"])
def test_invalid_utf8_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "latin1.psv"
    path.write_bytes("P1|2001|Müller, K\n".encode("latin-1"))
    code, out, err = run(capsys, "ingest", "--input", str(path), "--input-kind", kind)
    assert code == 2
    assert out == ""
    assert "not valid UTF-8" in err


@pytest.mark.parametrize("command", ["ks", "report"])
def test_ks_report_runs_once_per_invocation(capsys, monkeypatch, command):
    calls = []
    original = gof.ks_report

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gof, "ks_report", counted)
    monkeypatch.setattr(cli, "ks_report", counted, raising=False)  # a direct caller, if any
    code, _, _ = run(capsys, command, "--input", CAD, "--preset", "paper")
    assert code == 0
    assert len(calls) == 1


def _peaks(*loads) -> list[int]:
    """The traced peak of each load, each measured on its own."""
    peaks = []
    for load in loads:
        tracemalloc.start()
        try:  # no call inside an assert: pytest's rewrite would keep its result alive
            loaded = load()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del loaded
    return peaks


def test_cli_streams_a_record_file_it_never_holds_whole(capsys, monkeypatch, tmp_path):
    """The CLI reads a record file a block of lines at a time, never its whole text.

    The blocks shrink to 2^14 so that a block is a small part of the
    20,000-record file, as 2^20 is of a real bibliography.
    """
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1 << 14)
    records = [PublicationRecord(f"P{i}", 1990 + i % 30, (f"Author {i % 97}", f"\u0141uk {i % 13}"))
               for i in range(20_000)]
    path = tmp_path / "records.jsonl"
    path.write_text(dump_records(records), encoding="utf-8")
    text_size = sys.getsizeof(path.read_text(encoding="utf-8"))
    peaks = _peaks(lambda: main(["ingest", "--input", str(path)]),
                   lambda: read_input(path.read_text(encoding="utf-8"), "jsonl"))
    assert capsys.readouterr().out.startswith("x,y\n")
    assert peaks[1] - peaks[0] >= 0.8 * text_size, (peaks, text_size)


@pytest.mark.parametrize("command", ["ingest", "pattern"])
def test_cli_counts_a_record_file_without_its_name_list(capsys, monkeypatch, tmp_path, command):
    """The CLI tallies names as it reads the file, where the streamed read would keep them all.

    The sizes shrink as in the test above, and the CLI tallies 2^12 names
    at a time, a small part of the 40,000. Set against a whole-text
    parse, the saving would hold at any names.
    """
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1 << 14)
    monkeypatch.setattr(corpus, "_TALLY_NAMES", 1 << 12)
    records = [PublicationRecord(f"P{i}", 1990 + i % 30, (f"Author {i % 97}", f"\u0141uk {i % 13}"))
               for i in range(20_000)]
    path = tmp_path / "records.jsonl"
    path.write_text(dump_records(records), encoding="utf-8")
    names_size = sys.getsizeof(parse_records(path.read_bytes(), "jsonl").names)

    def streamed_with_names():  # the file read as the CLI reads it, but keeping every name
        names = []
        with open(path, "rb") as file:
            loaded = corpus._read_texts(corpus._file_texts(file), "jsonl", names.extend,
                                        corpus.CountingMethod.COMPLETE)
        loaded.names = names
        return loaded

    with_names = {
        "ingest": lambda: count_productivity(streamed_with_names()),
        "pattern": lambda: (lambda loaded: (authorship_pattern(loaded), collab_metrics(loaded)))(
            streamed_with_names()),
    }
    peaks = _peaks(lambda: main([command, "--input", str(path)]), with_names[command])
    assert capsys.readouterr().out.startswith("x,y\n" if command == "ingest" else "authors,")
    assert peaks[1] - peaks[0] >= 0.8 * names_size, (peaks, names_size)


def _record_lines(fmt: str, count: int) -> list[str]:
    if fmt == "pipe":
        return [f"P{i}|2000|Author {i}; \u0141uk {i % 7}\r\n" for i in range(count)]
    return [json.dumps({"id": f"P{i}", "year": 2000, "authors": [f"Author {i}", f"\u0141uk {i % 7}"]},
                       ensure_ascii=False) + "\r\n" for i in range(count)]


@pytest.fixture(params=["one range", "two ranges"])
def ranges(request, monkeypatch):
    """A record file of a few kB read as one range, or as two, each read by a worker."""
    if request.param == "two ranges":
        monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = mock.Mock(wraps=corpus._Worker)
    monkeypatch.setattr(corpus, "_Worker", forked)
    yield
    assert forked.call_count == 2 * (request.param == "two ranges")


@pytest.mark.parametrize("fmt, first, bad, position", [
    ("pipe", b"P0|19x9|Author 0\n", b"P150|2000|Au\xffthor\n", 4283),
    ("jsonl", b'{"id":"P0","year":"19x9","authors":["A"]}\n',
     b'{"id":"P150","year":2000,"authors":["Au\xffthor"]}\n', 9848),
])
def test_a_bad_byte_is_named_before_an_earlier_data_fault(capsys, monkeypatch, tmp_path, fmt, first,
                                                          bad, position, ranges):
    """A whole-file read decodes first, so its UTF-8 fault is the one named, at its file position."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    lines = [line.encode("utf-8") for line in _record_lines(fmt, 200)]
    lines[0], lines[150] = first, bad
    path = tmp_path / "records.txt"
    path.write_bytes(b"".join(lines))
    assert run(capsys, "ingest", "--input", str(path)) == (2, "", (
        "data error: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        f"in position {position}: invalid start byte\n"))


@pytest.mark.parametrize("first", [2, 150])  # split in two, the first range or the second
@pytest.mark.parametrize("fmt", ["pipe", "jsonl"])
def test_a_duplicate_id_in_a_later_chunk_names_both_lines(capsys, monkeypatch, tmp_path, fmt, first,
                                                          ranges):
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    lines = _record_lines(fmt, 200)
    lines[179] = lines[first].replace("2000", "2001")
    path = tmp_path / "records.txt"
    path.write_bytes("".join(lines).encode("utf-8"))
    assert run(capsys, "ingest", "--input", str(path)) == (2, "", (
        f"data error: line 180: duplicate record id 'P{first}' (first seen on line {first + 1})\n"))


def test_a_chunk_refused_with_no_fault_in_it_is_read_line_by_line(capsys, monkeypatch, tmp_path):
    """Should the column check refuse a valid block, the per-line reader reads it: same output."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    path = tmp_path / "records.psv"
    path.write_bytes("".join(_record_lines("pipe", 200)).encode("utf-8"))
    commands = [("ingest",), ("report", "--preset", "paper")]
    expected = [run(capsys, command[0], "--input", str(path), *command[1:]) for command in commands]
    assert [code for code, _, _ in expected] == [0, 0]
    block, refused = corpus._pipe_block, cycle([False, True])  # every second block
    monkeypatch.setattr(corpus, "_pipe_block",
                        lambda *args: None if next(refused) else block(*args))
    parse_line = mock.Mock(wraps=corpus._parse_pipe_line)
    monkeypatch.setattr(corpus, "_parse_pipe_line", parse_line)
    for command, printed in zip(commands, expected):
        assert run(capsys, command[0], "--input", str(path), *command[1:]) == printed
    assert 100 < parse_line.call_count < 400


@pytest.mark.parametrize("command", [("ingest",), ("report", "--preset", "paper"), ("pattern",)])
@pytest.mark.parametrize("fmt, fault, message", [
    ("pipe", "P199|19x9|Author 199\r\n", "line 200: year '19x9' is not an integer"),
    ("pipe", "P7|2000|Author 199\r\n", "line 200: duplicate record id 'P7' (first seen on line 8)"),
    ("jsonl", '{"id":"P199","year":2000}\r\n', "line 200: missing keys ['authors']"),
    ("jsonl", '{"id":"P199","year":2000,"authors":[" "]}\r\n', "line 200: record 'P199' has no authors"),
])
def test_a_fault_in_the_last_of_many_chunks_is_named(capsys, monkeypatch, tmp_path, command,
                                                      fmt, fault, message, ranges):
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    lines = _record_lines(fmt, 200)
    lines[-1] = fault
    path = tmp_path / "records.txt"
    path.write_bytes("".join(lines).encode("utf-8"))
    assert run(capsys, command[0], "--input", str(path), *command[1:]) == (
        2, "", f"data error: {message}\n")


@pytest.mark.parametrize("command, fault, message", [
    (("ingest",), "P39999|19x9|Author 39999\r\n", "line 40000: year '19x9' is not an integer"),
    (("report", "--preset", "paper", "--truncate-x", "10"), "P7|2000|Author 39999\r\n",
     "line 40000: duplicate record id 'P7' (first seen on line 8)"),
])
def test_a_late_fault_peaks_no_higher_than_the_valid_file(capsys, monkeypatch, tmp_path, command,
                                                           fault, message):
    """Naming a fault on the last line reads its block line by line; the file is never held whole.

    Blocks and tally shrink as in the tests above. Each of the
    two faults goes with one command: a run takes seconds under tracemalloc.
    """
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1 << 14)
    monkeypatch.setattr(corpus, "_TALLY_NAMES", 1 << 12)
    lines = [f"P{i}|{1990 + i % 30}|Author {i}; \u0141uk {40_000 // (i + 1)}\r\n"
             for i in range(40_000)]
    valid, faulty = tmp_path / "valid.psv", tmp_path / "faulty.psv"
    valid.write_text("".join(lines), encoding="utf-8")
    faulty.write_text("".join(lines[:-1]) + fault, encoding="utf-8")
    peaks = _peaks(lambda: main([command[0], "--input", str(valid), *command[1:]]),
                   lambda: main([command[0], "--input", str(faulty), *command[1:]]))
    out, err = capsys.readouterr()
    assert out.startswith("x,y\n" if command[0] == "ingest" else "{")
    assert err == f"data error: {message}\n"
    assert peaks[1] <= peaks[0], peaks


@pytest.mark.parametrize("case", ["late-bad-year", "duplicate-id", "jsonl-duplicate-id",
                                  "data-fault-then-bad-byte", "valid"])
def test_input_that_cannot_seek_reads_as_a_file(capsys, tmp_path, case):
    """A pipe is read once, as a file is: its faults are named in that pass.

    The 2 MB inputs span eight blocks, and the bad byte sits in the
    last block, after the data fault.
    """
    lines = [f"P{i}|2000|Author {i}; \u0141uk {i % 7}\n".encode("utf-8") for i in range(60_000)]
    if case == "late-bad-year":
        lines[-2] = b"P59998|19x9|Author\n"
    elif case == "duplicate-id":
        lines.append(b"P3|2001|Author\n")
    elif case == "jsonl-duplicate-id":
        lines = [line.encode("utf-8") for line in _record_lines("jsonl", 30_000)]
        lines.append(lines[2])
    elif case == "data-fault-then-bad-byte":
        lines[1] = b"P1|19x9|Author\n"
        lines.append(b"P60000|2000|Au\xffthor\n")
    path = tmp_path / "records.txt"
    path.write_bytes(b"".join(lines))
    expected = run(capsys, "ingest", "--input", str(path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    piped = subprocess.run([sys.executable, "-m", "lotkalaw", "ingest", "--input", "/dev/stdin"],
                           input=b"".join(lines), capture_output=True, env=env, timeout=120)
    assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == expected
    assert expected[0] == (0 if case == "valid" else 2)


def test_a_file_read_by_two_processes_warns_of_nothing(capsys, monkeypatch, tmp_path):
    """``python -W error`` fails on a warning, such as one that forking a threaded process gives.

    The 5 MB file is cut in two on a host with two CPUs; the output is
    that of a one-range read.
    """
    lines = [f"P{i}|{1990 + i % 30}|Author {i % 5000}; \u0141uk {i % 13}\n" for i in range(150_000)]
    path = tmp_path / "records.psv"
    path.write_text("".join(lines), encoding="utf-8")
    assert path.stat().st_size >= 2 * corpus._SPLIT_BYTES
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["report", "--input", str(path), "--preset", "paper"]
    child = subprocess.run([sys.executable, "-W", "error", "-m", "lotkalaw", *argv],
                           capture_output=True, env=env, timeout=120)
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", path.stat().st_size)
    assert (child.returncode, child.stdout.decode(), child.stderr.decode()) == run(capsys, *argv)
    assert child.stderr == b""


@pytest.mark.parametrize("kind", ["pipe", "jsonl"])
def test_a_blank_record_file_has_no_records_to_count(capsys, tmp_path, kind):
    path = tmp_path / "blank.txt"
    path.write_text(" \n\r\n\t\n", encoding="utf-8")
    assert run(capsys, "ingest", "--input", str(path), "--input-kind", kind) == (
        2, "", "data error: empty corpus: no records to count\n")


_CLI_NAMES = st.sampled_from(["Smith J", " Smith  J ", "Smith\tJ", "Smith\u3000J", "", " ",
                              "\u0141uk \u017b", "\u0141uk\u00a0 \u017b", "\u674e \u56db", "A"])


@st.composite
def _record_files(draw):
    """A record file's bytes and format: padded and empty name slots, repeats, BOM and CR LF."""
    fmt = draw(st.sampled_from(["pipe", "jsonl"]))
    rows = draw(st.lists(st.lists(_CLI_NAMES, min_size=1, max_size=5).filter(
        lambda names: any(map(str.strip, names))), min_size=1, max_size=10))
    if fmt == "pipe":
        lines = [f"P{i}|{1990 + i}|{';'.join(names)}" for i, names in enumerate(rows)]
    else:
        lines = [json.dumps({"id": f"P{i}", "year": 1990 + i, "authors": names}, ensure_ascii=False)
                 for i, names in enumerate(rows)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + end for line in lines)
    return fmt, text, b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode("utf-8")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_record_files(), st.sampled_from(["complete", "straight"]), st.booleans(),
       st.integers(1, 7), st.integers(1, 6))
def test_ingest_counts_a_file_as_the_library_counts_its_text(tmp_path_factory, case, method, sniff,
                                                             block_bytes, tally_names):
    """Blocks of a few bytes cut CR LF pairs and multi-byte characters in two."""
    fmt, text, data = case
    path = tmp_path_factory.getbasetemp() / "records_to_count"
    path.write_bytes(data)
    out = io.StringIO()
    with mock.patch.object(corpus, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(corpus, "_TALLY_NAMES", tally_names), redirect_stdout(out):
        code = main(["ingest", "--input", str(path), "--input-kind", "auto" if sniff else fmt,
                     "--counting", method, "--format", "json"])
    assert code == 0
    assert json.loads(out.getvalue()) == count_productivity(parse_records(text, fmt), method).to_dict()


def test_bad_c_method_exits_1(capsys):
    code, _, err = run(capsys, "fit", "--input", CAD, "--c-method", "magic")
    assert code == 1
    assert "c-method" in err
    for flag, value in [("--c-method", "sum:0"), ("--c-digits", "x"), ("--c-digits", "-1")]:
        code, out, err = run(capsys, "fit", "--input", CAD, flag, value)
        assert code == 1 and out == ""
        assert flag in err


def test_explicit_input_kind_overrides_sniffing(capsys, tmp_path):
    # a pipe file whose first line could pass for a distribution row
    path = tmp_path / "records.psv"
    path.write_text("1|2005|A; B\n2|2006|A\n")
    code, out, _ = run(capsys, "ingest", "--input", str(path),
                       "--input-kind", "pipe", "--counting", "straight")
    assert code == 0
    assert out == "x,y\n2,1\n"  # author A first-authored both records


# ---------------------------------------------------------------------------
# the flag surface: usage lines, and the whole text of each usage error

_INPUT_USAGE = "[-h] --input INPUT [--input-kind {auto,pipe,jsonl,distribution}] [--format {csv,json}]"
_FIT_USAGE = "[--c-method C_METHOD] [--c-digits C_DIGITS] [--truncate-x TRUNCATE_X]"
_KS_USAGE = (
    "[--coefficient COEFFICIENT] [--preset {alpha01,alpha05,alpha10,paper}] "
    "[--ks-variant {standard,pointwise,both}] [--dense-expected]"
)
_PATTERN_USAGE = "[--period PERIOD] [--origin ORIGIN]"
_COUNTING_USAGE = "[--counting {complete,straight}]"

USAGE_LINES = {
    "": "usage: lotkalaw [-h] {ingest,fit,ks,pattern,report} ...",
    "ingest": f"usage: lotkalaw ingest {_INPUT_USAGE} {_COUNTING_USAGE}",
    "fit": f"usage: lotkalaw fit {_INPUT_USAGE} {_FIT_USAGE} {_COUNTING_USAGE}",
    "ks": f"usage: lotkalaw ks {_INPUT_USAGE} {_FIT_USAGE} {_KS_USAGE} {_COUNTING_USAGE}",
    "pattern": f"usage: lotkalaw pattern {_INPUT_USAGE} {_PATTERN_USAGE}",
    "report": f"usage: lotkalaw report {_INPUT_USAGE} {_FIT_USAGE} {_KS_USAGE} {_PATTERN_USAGE}"
    f" [--plot-out PLOT_OUT] {_COUNTING_USAGE}",
}


@pytest.mark.parametrize("command", sorted(USAGE_LINES))
def test_help_usage_line(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "1000")  # argparse wraps usage to the terminal width
    assert main([*command.split(), "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.split("\n\n", 1)[0] == USAGE_LINES[command]
    assert err == ""


USAGE_ERRORS = [
    (["fit", "--c-method", "magic"], "bad --c-method 'magic'; expected 'zeta' or 'sum:<terms>'"),
    (["ks", "--preset", "paper", "--c-method", "magic"],
     "bad --c-method 'magic'; expected 'zeta' or 'sum:<terms>'"),
    (["report", "--preset", "paper", "--c-method", "sum:x"],
     "bad --c-method 'sum:x'; expected 'zeta' or 'sum:<terms>'"),
    (["fit", "--c-method", "sum:0"], "--c-method sum:<terms> needs at least one term"),
    (["fit", "--c-method", "sum:9223372036854775808"],
     "--c-method sum:<terms> takes fewer than 2^63 terms"),
    (["fit", "--c-digits", "x"], "bad --c-digits 'x'; expected an integer or 'full'"),
    (["fit", "--c-digits", "-1"], "--c-digits must be >= 0"),
    (["ks", "--c-digits", "-1", "--preset", "paper"], "--c-digits must be >= 0"),
    (["ks", "--coefficient", "1.36", "--preset", "paper"],
     "pass either --coefficient or --preset, not both"),
    (["report", "--coefficient", "1.36", "--preset", "paper"],
     "pass either --coefficient or --preset, not both"),
    (["ks"], "ks requires --coefficient or --preset"),
    (["report"], "report requires --coefficient or --preset"),
    (["report", "--preset", "paper", "--format", "csv"],
     "report emits a json document; use --plot-out for csv plot data"),
    (["pattern", "--period", "1_0"], "argument --period: invalid int value: '1_0'"),
    (["pattern", "--period", "\u0661\u0660"],
     "argument --period: invalid int value: '\u0661\u0660'"),
    (["report", "--preset", "paper", "--origin", "1_990"],
     "argument --origin: invalid int value: '1_990'"),
    (["fit", "--truncate-x", "1_00"], "argument --truncate-x: invalid int value: '1_00'"),
    (["ks", "--preset", "paper", "--truncate-x", "\u0661\u0660"],
     "argument --truncate-x: invalid int value: '\u0661\u0660'"),
    (["fit", "--c-digits", "\u0662"], "bad --c-digits '\u0662'; expected an integer or 'full'"),
    (["fit", "--c-digits", "1_0"], "bad --c-digits '1_0'; expected an integer or 'full'"),
    (["fit", "--c-method", "sum:\u0661\u0660\u0660\u0660"],
     "bad --c-method 'sum:\u0661\u0660\u0660\u0660'; expected 'zeta' or 'sum:<terms>'"),
    (["pattern", "--period", "0"], "--period must be >= 1"),
    (["report", "--preset", "paper", "--period", "0"], "--period must be >= 1"),
    (["pattern", "--counting", "straight"], "unrecognized arguments: --counting straight"),
    (["ingest", "--plot-out", "plot.csv"], "unrecognized arguments: --plot-out plot.csv"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_text(capsys, argv, message):
    command, *flags = argv
    source = SAMPLE if command == "pattern" else CAD
    assert run(capsys, command, "--input", source, *flags) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize("command", ["ingest", "fit", "ks", "pattern", "report"])
def test_missing_input_flag_text(capsys, command):
    expected = "usage error: the following arguments are required: --input\n"
    assert run(capsys, command) == (1, "", expected)


# ---------------------------------------------------------------------------
# golden output: byte-identical stdout and plot files on the bundled inputs


def _golden_inputs() -> dict[str, bytes]:
    sample = (DATA_DIR / "sample_records.psv").read_bytes()
    return {
        "cad.csv": (DATA_DIR / "cad_productivity.csv").read_bytes(),
        "sample.psv": sample,
        "sample.jsonl": dump_records(parse_records(sample)).encode("utf-8"),
    }


def _golden_cases() -> list[tuple[str, ...]]:
    """Complete counting fits n < 1 on the sample records (exit 3), so their
    K-S matrix runs on straight counts; on a table the flag changes nothing."""
    records = ("sample.psv", "sample.jsonl")
    extras = ((), ("--truncate-x", "4"), ("--c-digits", "full", "--c-method", "sum:1000"))
    countings = ((), ("--counting", "straight"))
    cases = []
    for name in ("cad.csv", *records):
        inp = ("--input", name)
        counted = ("--counting", "straight") if name in records else ()
        cases += [("ingest", *inp), ("ingest", *inp, "--format", "json")]
        if name in records:
            cases.append(("ingest", *inp, "--counting", "straight"))
            cases += [("pattern", *inp), ("pattern", *inp, "--format", "json"),
                      ("pattern", *inp, "--period", "3", "--origin", "1990")]
        for counting in countings:
            cases.append(("fit", *inp, *counting, "--format", "json"))
            cases += [("fit", *inp, *counting, *extra) for extra in extras]
            cases += [("ks", *inp, "--preset", "alpha05", *counting, *extra)
                      for extra in extras[1:]]
            report = ("report", *inp, "--preset", "paper", "--plot-out", "plot.csv", *counting)
            cases += [(*report, *extra) for extra in extras]
        for variant in ("standard", "pointwise", "both"):
            for dense in ((), ("--dense-expected",)):
                for fmt in ("csv", "json"):
                    cases.append(("ks", *inp, *counted, "--preset", "paper",
                                  "--ks-variant", variant, *dense, "--format", fmt))
        cases.append(("report", *inp, *counted, "--preset", "paper", "--plot-out", "plot.csv",
                      "--ks-variant", "standard", "--dense-expected"))
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_digest(capsys, argv: tuple[str, ...]) -> tuple[str, str | None]:
    """("<exit code> <stdout SHA-256>", plot file SHA-256 or None), run in the inputs' dir."""
    plot = Path("plot.csv")
    plot.unlink(missing_ok=True)
    code = main(list(argv))
    out = capsys.readouterr().out.encode("utf-8")
    return f"{code} {_sha(out)}", _sha(plot.read_bytes()) if plot.exists() else None


# (exit code, stdout SHA-256) per invocation, captured before the K-S and
# distribution refactor; every later change must reproduce them byte for byte.
# The seven "report --input cad.csv" digests were recaptured once, when the
# report's input.counting became null for a table, where nothing is counted.
GOLDEN_STDOUT = {
    "ingest --input cad.csv":
        "0 32bdc1da3cd5033342be520d7627c0365b02f97999862296f23557b34d362a05",
    "ingest --input cad.csv --format json":
        "0 ed75d4ed78cc291fd45018d548dba5f9483c8613c57c12126c1aa07195bdd4f1",
    "fit --input cad.csv --format json":
        "0 c04512a00264d5350c7bca9ddbbdd84957dce9b483d2c569112e64f39cc492ba",
    "fit --input cad.csv":
        "0 fcc6fd6f64da9a9d86bc80b467df7bcb7d818e143b22f1f038c0c0bf4d8c6554",
    "fit --input cad.csv --truncate-x 4":
        "0 352c130c1fce662392532e7307c4a28fc115aa15b992854fdb88d90d64324b3a",
    "fit --input cad.csv --c-digits full --c-method sum:1000":
        "0 04167ccc711a18ce384f5e5f6902ec84aabe8a3db824a22c417a5ade7ddc4296",
    "ks --input cad.csv --preset alpha05 --truncate-x 4":
        "0 fddbe02dca7be5eedb1ee4a2f9701149736c36ea8711c817e7cf0e1f17f9d68b",
    "ks --input cad.csv --preset alpha05 --c-digits full --c-method sum:1000":
        "0 e92ef842013a890cea92cbafaf871c290c86ba6052d4ace94ab334a284357c2a",
    "report --input cad.csv --preset paper --plot-out plot.csv":
        "0 a6c19bbb1b22bdbb55fe3a3a703435ea610cf0204c09fa4ef09aaf839e77dd9a",
    "report --input cad.csv --preset paper --plot-out plot.csv --truncate-x 4":
        "0 c29924a149c903d4073bb5cf67adec275d7b75d33b8335f2ab502771afa85cd3",
    "report --input cad.csv --preset paper --plot-out plot.csv --c-digits full --c-method sum:1000":
        "0 5c9c88b097af57dde146b0e0af533d52fe0c53fad2802271c2a2472d4b12c979",
    "fit --input cad.csv --counting straight --format json":
        "0 c04512a00264d5350c7bca9ddbbdd84957dce9b483d2c569112e64f39cc492ba",
    "fit --input cad.csv --counting straight":
        "0 fcc6fd6f64da9a9d86bc80b467df7bcb7d818e143b22f1f038c0c0bf4d8c6554",
    "fit --input cad.csv --counting straight --truncate-x 4":
        "0 352c130c1fce662392532e7307c4a28fc115aa15b992854fdb88d90d64324b3a",
    "fit --input cad.csv --counting straight --c-digits full --c-method sum:1000":
        "0 04167ccc711a18ce384f5e5f6902ec84aabe8a3db824a22c417a5ade7ddc4296",
    "ks --input cad.csv --preset alpha05 --counting straight --truncate-x 4":
        "0 fddbe02dca7be5eedb1ee4a2f9701149736c36ea8711c817e7cf0e1f17f9d68b",
    "ks --input cad.csv --preset alpha05 --counting straight --c-digits full --c-method sum:1000":
        "0 e92ef842013a890cea92cbafaf871c290c86ba6052d4ace94ab334a284357c2a",
    "report --input cad.csv --preset paper --plot-out plot.csv --counting straight":
        "0 a6c19bbb1b22bdbb55fe3a3a703435ea610cf0204c09fa4ef09aaf839e77dd9a",
    "report --input cad.csv --preset paper --plot-out plot.csv --counting straight --truncate-x 4":
        "0 c29924a149c903d4073bb5cf67adec275d7b75d33b8335f2ab502771afa85cd3",
    "report --input cad.csv --preset paper --plot-out plot.csv --counting straight --c-digits full --c-method sum:1000":
        "0 5c9c88b097af57dde146b0e0af533d52fe0c53fad2802271c2a2472d4b12c979",
    "ks --input cad.csv --preset paper --ks-variant standard --format csv":
        "0 f37bad93f619fc42c02eb664997a1f4a408b1461e8ff2f43a865469a5f9ef7fe",
    "ks --input cad.csv --preset paper --ks-variant standard --format json":
        "0 56ef379352befca87a55a3ab03abbd0dd17c368f5760d6bd9c921bb7a989369e",
    "ks --input cad.csv --preset paper --ks-variant standard --dense-expected --format csv":
        "0 a9006741daf3d6162fea31d89918e2224245870e2a71f6cacee77105a9cd4c1a",
    "ks --input cad.csv --preset paper --ks-variant standard --dense-expected --format json":
        "0 b3a348797bd1a85b3fada5f7146ff0ff4c46cd0469fe7150eebb603007f9b43b",
    "ks --input cad.csv --preset paper --ks-variant pointwise --format csv":
        "0 8931c8cda7f484fc4fc7f3f1d88674c8c23c09040aefb284a3d8126b6f877629",
    "ks --input cad.csv --preset paper --ks-variant pointwise --format json":
        "0 2080c4fac6dd7c0642ee5befc4c32d18a1fa8dea1dd951f0a42c8c49b7d23e2d",
    "ks --input cad.csv --preset paper --ks-variant pointwise --dense-expected --format csv":
        "0 150e4253c849e764e2028e061c6471b31e3d09d9d260a3c1c94ce9384a830cf4",
    "ks --input cad.csv --preset paper --ks-variant pointwise --dense-expected --format json":
        "0 8cf90705c45469c27d78e1dd02d5349c0126e70c87dcd1d6f332e992c90a4368",
    "ks --input cad.csv --preset paper --ks-variant both --format csv":
        "0 0b6e39a67faaf0bbf837500eb47bf73dce54abba2802f74dff1290b6cad69f5d",
    "ks --input cad.csv --preset paper --ks-variant both --format json":
        "0 7e5dc10950c350ad143847a457b03e569e81defac329719b0ea930412ad83d18",
    "ks --input cad.csv --preset paper --ks-variant both --dense-expected --format csv":
        "0 43a2e3c2db1fe3e9a123e62c0250952ff303631b6ff50211be845c43f113cf8c",
    "ks --input cad.csv --preset paper --ks-variant both --dense-expected --format json":
        "0 f488f4da75cd212508af48b5bbdf1cacdbf0459ceeac67a7f5b205877b9aca9a",
    "report --input cad.csv --preset paper --plot-out plot.csv --ks-variant standard --dense-expected":
        "0 54c07b75a84162c763408070794cbcb19c3485432b0ea45283e9b557f6e2a4eb",
    "ingest --input sample.psv":
        "0 43a852c4f0ae841f4c3ff28ece3d4f65ddf2a33b1a4f21809dc39423723ba94c",
    "ingest --input sample.psv --format json":
        "0 d774a30d34b1e400f519a9cf0e3ac350f23309c06846b0c2e8da89ba6e44d303",
    "ingest --input sample.psv --counting straight":
        "0 783418e25df34cd300af62d86513747202ff244c700a5e02278bf55536b51720",
    "pattern --input sample.psv":
        "0 6b15e0d31b47de74432071cb30ea88d95b9800f963e4f7663701a326cdfdd4aa",
    "pattern --input sample.psv --format json":
        "0 1454cb36156bd4ab3e331e5c098110e8a6b7a763b07946a354a4dc1f7604c52f",
    "pattern --input sample.psv --period 3 --origin 1990":
        "0 e962c3663ff412f205b861a540786151923fcad62496cd07916eb88f0cfc2483",
    "fit --input sample.psv --format json":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.psv":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.psv --truncate-x 4":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.psv --c-digits full --c-method sum:1000":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ks --input sample.psv --preset alpha05 --truncate-x 4":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ks --input sample.psv --preset alpha05 --c-digits full --c-method sum:1000":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report --input sample.psv --preset paper --plot-out plot.csv":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report --input sample.psv --preset paper --plot-out plot.csv --truncate-x 4":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report --input sample.psv --preset paper --plot-out plot.csv --c-digits full --c-method sum:1000":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.psv --counting straight --format json":
        "0 39633746061c9aed4335963312b2734d43a6e67277648db46f2216a7a83d505d",
    "fit --input sample.psv --counting straight":
        "0 28bcb1735bac291efa5ea31645f2549905d406b1ff2ca1ab8ba33bcc242f7d3f",
    "fit --input sample.psv --counting straight --truncate-x 4":
        "0 28bcb1735bac291efa5ea31645f2549905d406b1ff2ca1ab8ba33bcc242f7d3f",
    "fit --input sample.psv --counting straight --c-digits full --c-method sum:1000":
        "0 a26965714b513457dd5a4631bdbbbb1d9744146bc23fd4200af331ca6021795c",
    "ks --input sample.psv --preset alpha05 --counting straight --truncate-x 4":
        "0 5353d6e354e9091eb760232221ac4848759c5c9fb704c87661eaaf902b3eb74e",
    "ks --input sample.psv --preset alpha05 --counting straight --c-digits full --c-method sum:1000":
        "0 2fc2cde15a02d60e8bcddc2b42b9b7d2e1af31a3bdeacfb07cace77d872f6e23",
    "report --input sample.psv --preset paper --plot-out plot.csv --counting straight":
        "0 940b0cf0243e94473ed68a6dde34ff8b4b1d686e3efed590b851eaf499a96684",
    "report --input sample.psv --preset paper --plot-out plot.csv --counting straight --truncate-x 4":
        "0 940b0cf0243e94473ed68a6dde34ff8b4b1d686e3efed590b851eaf499a96684",
    "report --input sample.psv --preset paper --plot-out plot.csv --counting straight --c-digits full --c-method sum:1000":
        "0 c2a68c176dd13f18c70a362b182de2dd145728ebd358252a928e5c855c98a3dc",
    "ks --input sample.psv --counting straight --preset paper --ks-variant standard --format csv":
        "0 84f296ae875081f2d5fcccfe5f4d171a0e5068165770b399a6e9e5f7a83b82ac",
    "ks --input sample.psv --counting straight --preset paper --ks-variant standard --format json":
        "0 13d211e4695fcfdb456da0e483afbce673b6c1b351cc7eb5814726d0611c699f",
    "ks --input sample.psv --counting straight --preset paper --ks-variant standard --dense-expected --format csv":
        "0 84f296ae875081f2d5fcccfe5f4d171a0e5068165770b399a6e9e5f7a83b82ac",
    "ks --input sample.psv --counting straight --preset paper --ks-variant standard --dense-expected --format json":
        "0 13d211e4695fcfdb456da0e483afbce673b6c1b351cc7eb5814726d0611c699f",
    "ks --input sample.psv --counting straight --preset paper --ks-variant pointwise --format csv":
        "0 9c52b718ad9a0ee67b7d4c41c936c0685e660cf55edc1342ece26f17d162a1c8",
    "ks --input sample.psv --counting straight --preset paper --ks-variant pointwise --format json":
        "0 c045da3cf2864f6a8e1ff761d2c97b00618752524507b8ff07dbccb9fa51bd57",
    "ks --input sample.psv --counting straight --preset paper --ks-variant pointwise --dense-expected --format csv":
        "0 9c52b718ad9a0ee67b7d4c41c936c0685e660cf55edc1342ece26f17d162a1c8",
    "ks --input sample.psv --counting straight --preset paper --ks-variant pointwise --dense-expected --format json":
        "0 c045da3cf2864f6a8e1ff761d2c97b00618752524507b8ff07dbccb9fa51bd57",
    "ks --input sample.psv --counting straight --preset paper --ks-variant both --format csv":
        "0 e7d46b066600399843334008e00709939af51e7b65e3da84052464fa25a1685e",
    "ks --input sample.psv --counting straight --preset paper --ks-variant both --format json":
        "0 e2d7444175830a414bbe333875c361e5006fdd493523a2f1bc729b84240ca936",
    "ks --input sample.psv --counting straight --preset paper --ks-variant both --dense-expected --format csv":
        "0 e7d46b066600399843334008e00709939af51e7b65e3da84052464fa25a1685e",
    "ks --input sample.psv --counting straight --preset paper --ks-variant both --dense-expected --format json":
        "0 e2d7444175830a414bbe333875c361e5006fdd493523a2f1bc729b84240ca936",
    "report --input sample.psv --counting straight --preset paper --plot-out plot.csv --ks-variant standard --dense-expected":
        "0 9c61925b49bae74dbfc5b3b26033eb2a3098f50419c669b598fa63df777ea702",
    "ingest --input sample.jsonl":
        "0 43a852c4f0ae841f4c3ff28ece3d4f65ddf2a33b1a4f21809dc39423723ba94c",
    "ingest --input sample.jsonl --format json":
        "0 d774a30d34b1e400f519a9cf0e3ac350f23309c06846b0c2e8da89ba6e44d303",
    "ingest --input sample.jsonl --counting straight":
        "0 783418e25df34cd300af62d86513747202ff244c700a5e02278bf55536b51720",
    "pattern --input sample.jsonl":
        "0 6b15e0d31b47de74432071cb30ea88d95b9800f963e4f7663701a326cdfdd4aa",
    "pattern --input sample.jsonl --format json":
        "0 1454cb36156bd4ab3e331e5c098110e8a6b7a763b07946a354a4dc1f7604c52f",
    "pattern --input sample.jsonl --period 3 --origin 1990":
        "0 e962c3663ff412f205b861a540786151923fcad62496cd07916eb88f0cfc2483",
    "fit --input sample.jsonl --format json":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.jsonl":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.jsonl --truncate-x 4":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.jsonl --c-digits full --c-method sum:1000":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ks --input sample.jsonl --preset alpha05 --truncate-x 4":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ks --input sample.jsonl --preset alpha05 --c-digits full --c-method sum:1000":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report --input sample.jsonl --preset paper --plot-out plot.csv":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --truncate-x 4":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --c-digits full --c-method sum:1000":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit --input sample.jsonl --counting straight --format json":
        "0 39633746061c9aed4335963312b2734d43a6e67277648db46f2216a7a83d505d",
    "fit --input sample.jsonl --counting straight":
        "0 28bcb1735bac291efa5ea31645f2549905d406b1ff2ca1ab8ba33bcc242f7d3f",
    "fit --input sample.jsonl --counting straight --truncate-x 4":
        "0 28bcb1735bac291efa5ea31645f2549905d406b1ff2ca1ab8ba33bcc242f7d3f",
    "fit --input sample.jsonl --counting straight --c-digits full --c-method sum:1000":
        "0 a26965714b513457dd5a4631bdbbbb1d9744146bc23fd4200af331ca6021795c",
    "ks --input sample.jsonl --preset alpha05 --counting straight --truncate-x 4":
        "0 5353d6e354e9091eb760232221ac4848759c5c9fb704c87661eaaf902b3eb74e",
    "ks --input sample.jsonl --preset alpha05 --counting straight --c-digits full --c-method sum:1000":
        "0 2fc2cde15a02d60e8bcddc2b42b9b7d2e1af31a3bdeacfb07cace77d872f6e23",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --counting straight":
        "0 1e60863ed7f1540d285760a4c07871f37de91a4c9bc0e9fea7ad2571b1ba41ca",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --counting straight --truncate-x 4":
        "0 1e60863ed7f1540d285760a4c07871f37de91a4c9bc0e9fea7ad2571b1ba41ca",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --counting straight --c-digits full --c-method sum:1000":
        "0 df1805f3b69d1e821e2d84f9f6535707134ea31e14a758469b1fe44b53a05474",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant standard --format csv":
        "0 84f296ae875081f2d5fcccfe5f4d171a0e5068165770b399a6e9e5f7a83b82ac",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant standard --format json":
        "0 13d211e4695fcfdb456da0e483afbce673b6c1b351cc7eb5814726d0611c699f",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant standard --dense-expected --format csv":
        "0 84f296ae875081f2d5fcccfe5f4d171a0e5068165770b399a6e9e5f7a83b82ac",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant standard --dense-expected --format json":
        "0 13d211e4695fcfdb456da0e483afbce673b6c1b351cc7eb5814726d0611c699f",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant pointwise --format csv":
        "0 9c52b718ad9a0ee67b7d4c41c936c0685e660cf55edc1342ece26f17d162a1c8",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant pointwise --format json":
        "0 c045da3cf2864f6a8e1ff761d2c97b00618752524507b8ff07dbccb9fa51bd57",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant pointwise --dense-expected --format csv":
        "0 9c52b718ad9a0ee67b7d4c41c936c0685e660cf55edc1342ece26f17d162a1c8",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant pointwise --dense-expected --format json":
        "0 c045da3cf2864f6a8e1ff761d2c97b00618752524507b8ff07dbccb9fa51bd57",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant both --format csv":
        "0 e7d46b066600399843334008e00709939af51e7b65e3da84052464fa25a1685e",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant both --format json":
        "0 e2d7444175830a414bbe333875c361e5006fdd493523a2f1bc729b84240ca936",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant both --dense-expected --format csv":
        "0 e7d46b066600399843334008e00709939af51e7b65e3da84052464fa25a1685e",
    "ks --input sample.jsonl --counting straight --preset paper --ks-variant both --dense-expected --format json":
        "0 e2d7444175830a414bbe333875c361e5006fdd493523a2f1bc729b84240ca936",
    "report --input sample.jsonl --counting straight --preset paper --plot-out plot.csv --ks-variant standard --dense-expected":
        "0 84efdd6c28a2418eee7c482fc9c31768f1d7dc2993bb0c659dd46e1feb645750",
}

# SHA-256 of the --plot-out file, for the report invocations that write one.
GOLDEN_PLOT = {
    "report --input cad.csv --preset paper --plot-out plot.csv":
        "2344774643b5227fc634d23ae9e86551f568cb9ae0a0a98c1cb9911c704d3ab7",
    "report --input cad.csv --preset paper --plot-out plot.csv --truncate-x 4":
        "90acbdc9cd5a710ee0b6951c86249113ecd7444b7ac42d87d6e7d7d497b84d66",
    "report --input cad.csv --preset paper --plot-out plot.csv --c-digits full --c-method sum:1000":
        "78c833e2b75b8227a18364b66d06fd318b88903bcb6888727af8a0ae9072e392",
    "report --input cad.csv --preset paper --plot-out plot.csv --counting straight":
        "2344774643b5227fc634d23ae9e86551f568cb9ae0a0a98c1cb9911c704d3ab7",
    "report --input cad.csv --preset paper --plot-out plot.csv --counting straight --truncate-x 4":
        "90acbdc9cd5a710ee0b6951c86249113ecd7444b7ac42d87d6e7d7d497b84d66",
    "report --input cad.csv --preset paper --plot-out plot.csv --counting straight --c-digits full --c-method sum:1000":
        "78c833e2b75b8227a18364b66d06fd318b88903bcb6888727af8a0ae9072e392",
    "report --input cad.csv --preset paper --plot-out plot.csv --ks-variant standard --dense-expected":
        "2344774643b5227fc634d23ae9e86551f568cb9ae0a0a98c1cb9911c704d3ab7",
    "report --input sample.psv --preset paper --plot-out plot.csv --counting straight":
        "54b77865eca1e31220dca890b57d6ee58f60feaddca02a4c64e1bcfd828bfef0",
    "report --input sample.psv --preset paper --plot-out plot.csv --counting straight --truncate-x 4":
        "54b77865eca1e31220dca890b57d6ee58f60feaddca02a4c64e1bcfd828bfef0",
    "report --input sample.psv --preset paper --plot-out plot.csv --counting straight --c-digits full --c-method sum:1000":
        "e2c3f13c4bfbd38e8d97a9b18afae468afe99886081655be24a707c793fa1806",
    "report --input sample.psv --counting straight --preset paper --plot-out plot.csv --ks-variant standard --dense-expected":
        "54b77865eca1e31220dca890b57d6ee58f60feaddca02a4c64e1bcfd828bfef0",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --counting straight":
        "54b77865eca1e31220dca890b57d6ee58f60feaddca02a4c64e1bcfd828bfef0",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --counting straight --truncate-x 4":
        "54b77865eca1e31220dca890b57d6ee58f60feaddca02a4c64e1bcfd828bfef0",
    "report --input sample.jsonl --preset paper --plot-out plot.csv --counting straight --c-digits full --c-method sum:1000":
        "e2c3f13c4bfbd38e8d97a9b18afae468afe99886081655be24a707c793fa1806",
    "report --input sample.jsonl --counting straight --preset paper --plot-out plot.csv --ks-variant standard --dense-expected":
        "54b77865eca1e31220dca890b57d6ee58f60feaddca02a4c64e1bcfd828bfef0",
}


def test_golden_outputs_are_byte_identical(capsys, tmp_path, monkeypatch):
    for name, data in _golden_inputs().items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    found = {" ".join(argv): _golden_digest(capsys, argv) for argv in _golden_cases()}
    assert list(found) == list(GOLDEN_STDOUT)
    for key, (stdout, plot) in found.items():
        assert stdout == GOLDEN_STDOUT[key], key
        assert plot == GOLDEN_PLOT.get(key), key
