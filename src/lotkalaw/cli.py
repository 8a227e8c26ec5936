"""Command line front end.

Five subcommands: ingest, fit, ks, pattern, report. Exit codes: 0 on
success, 1 for usage problems, 2 for bad input data, 3 for numeric
failures. Error text goes to stderr; nothing is written to stdout on an
error path. Identical inputs and flags always produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from itertools import chain
from math import isfinite, log10
from pathlib import Path

import numpy as np

from .collab import authorship_pattern, collab_metrics, render_pattern_csv
from .corpus import (
    Corpus,
    CountingMethod,
    ProductivityDistribution,
    _distribution_of,
    _integer,
    _read_file,
    dump_distribution,
)
from .errors import DataError, NumericError
from .gof import COEFFICIENT_PRESETS, render_report_csv, run_ks
from .lotka import fit_power_law

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse calls this on any usage problem
        raise UsageError(message)


# ---------------------------------------------------------------------------
# parser construction

def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="input file path")
    sub.add_argument(
        "--input-kind",
        choices=["auto", "pipe", "jsonl", "distribution"],
        default="auto",
        help="input layout; auto sniffs the first content line",
    )
    sub.add_argument(
        "--format",
        dest="output_format",
        choices=["csv", "json"],
        default="csv",
        help="output format (default csv; report always emits json)",
    )


def _add_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--c-method",
        dest="c_limit",
        metavar="C_METHOD",
        type=_parse_c_method,
        default="zeta",
        help="constant evaluation: 'zeta' or 'sum:<terms>' (default zeta)",
    )
    sub.add_argument(
        "--c-digits",
        type=_parse_c_digits,
        default="2",
        help="round the exponent to this many decimals before the constant "
        "lookup; 'full' disables the rounding (default 2)",
    )
    sub.add_argument(
        "--truncate-x",
        type=_int_flag,
        default=None,
        help="ignore productivity levels above this value when fitting",
    )


def _add_ks_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--coefficient", type=float, default=None, help="critical value numerator")
    sub.add_argument(
        "--preset",
        choices=sorted(COEFFICIENT_PRESETS),
        default=None,
        help="named coefficient: " + ", ".join(
            f"{k}={v}" for k, v in sorted(COEFFICIENT_PRESETS.items())
        ),
    )
    sub.add_argument(
        "--ks-variant",
        choices=["standard", "pointwise", "both"],
        default="both",
        help="which statistic to report (default both)",
    )
    sub.add_argument(
        "--dense-expected",
        action="store_true",
        help="accumulate expected proportions over every integer level, "
        "not just the observed ones",
    )


def _add_pattern_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--period", type=_int_flag, default=5, help="years per period (default 5)")
    sub.add_argument(
        "--origin",
        type=_int_flag,
        default=None,
        help="first year of the first period (default: earliest record year)",
    )


def _add_plot_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--plot-out", default=None, help="also write plot-ready CSV here")
    sub.set_defaults(output_format="json")


def _add_counting_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--counting",
        choices=[m.value for m in CountingMethod],
        default=CountingMethod.COMPLETE.value,
        help="credit every listed author (complete) or only the first (straight)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lotkalaw", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, flag_groups) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(run=run)
        for add_flags in (_add_input_flags, *flag_groups):
            add_flags(sub)
    return parser


def _int_flag(text: str) -> int:
    """An integer flag's value, read as a record year is: no ``_``, no non-ASCII digit."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_c_method(text: str) -> int | None:
    if text in ("zeta", "sum"):
        return None if text == "zeta" else 1_000_000
    match = re.fullmatch(r"sum:([0-9]+)", text)
    if match:
        limit = int(match.group(1))
        if limit < 1:
            raise UsageError("--c-method sum:<terms> needs at least one term")
        if limit >= 2**63:
            raise UsageError("--c-method sum:<terms> takes fewer than 2^63 terms")
        return limit
    raise UsageError(f"bad --c-method {text!r}; expected 'zeta' or 'sum:<terms>'")


def _parse_c_digits(text: str) -> int | None:
    if text == "full":
        return None
    try:
        digits = _integer(text)
    except ValueError:
        raise UsageError(f"bad --c-digits {text!r}; expected an integer or 'full'") from None
    if digits < 0:
        raise UsageError("--c-digits must be >= 0")
    return digits


def _resolve_args(args: argparse.Namespace) -> argparse.Namespace:
    """Validate flag combinations once and resolve defaults in place."""
    if args.command == "report" and args.output_format != "json":
        raise UsageError("report emits a json document; use --plot-out for csv plot data")
    if hasattr(args, "coefficient"):
        if args.coefficient is not None and args.preset is not None:
            raise UsageError("pass either --coefficient or --preset, not both")
        if args.preset is not None:
            args.coefficient = COEFFICIENT_PRESETS[args.preset]
        elif args.coefficient is None:
            raise UsageError(f"{args.command} requires --coefficient or --preset")
    if hasattr(args, "period") and args.period < 1:
        raise UsageError("--period must be >= 1")
    return args


# ---------------------------------------------------------------------------
# input handling

def _load_input(args: argparse.Namespace, method: CountingMethod | None = None):
    """The input's records or table, and the tally of the names ``method`` credits."""
    try:
        return _read_file(args.input, args.input_kind, method)
    except OSError as exc:
        raise DataError(f"cannot read {args.input}: {exc.strerror}") from None


def _distribution_for(args: argparse.Namespace) -> tuple[ProductivityDistribution, Corpus | None]:
    """The table to fit, counted as the file is read, and its records (None for a table)."""
    method = CountingMethod(args.counting)
    loaded, tally = _load_input(args, method)
    if isinstance(loaded, ProductivityDistribution):
        return loaded, None
    return _distribution_of(tally, method), loaded


# ---------------------------------------------------------------------------
# commands

def _fit_for(args: argparse.Namespace, dist: ProductivityDistribution):
    return fit_power_law(
        dist,
        limit=args.c_limit,
        constant_digits=args.c_digits,
        max_x=args.truncate_x,
    )


def _ks_for(args: argparse.Namespace, dist: ProductivityDistribution):
    fit = _fit_for(args, dist)
    result = run_ks(dist, fit.n, fit.c, args.coefficient, dense_expected=args.dense_expected)
    # --ks-variant drops the other statistic's D and verdict
    dropped = {"standard": "_pointwise", "pointwise": "_cumulative"}.get(args.ks_variant)
    doc = {
        k: v for k, v in result.to_dict().items() if dropped is None or not k.endswith(dropped)
    }
    return fit, result, doc


def _json_doc(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` byte for byte, later lines led by ``pad``.

    ``indent`` sends ``json`` to its pure-Python encoder, so a dict with
    string keys is written a key at a time, and a table at any depth from
    one ``%r`` template per row: a numpy record array as objects keyed by
    its sorted field names, a list of equal-length lists or tuples as
    arrays. A table's cells must be ints and finite floats of no subclass
    (no bool, no numpy scalar), whose ``%r`` is their ``json`` text. Any
    other value, an empty one too, goes to ``json``.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        return "{" + ",".join(f"{inner}{json.dumps(key)}: {_json_doc(value[key], inner)}"
                              for key in sorted(value)) + pad + "}"
    names = isinstance(value, np.ndarray) and sorted(value.dtype.names or ())
    rows = value[names].tolist() if names else value  # a numpy 2 scalar's %r is np.float64(...)
    cells = type(rows) is list and {*map(type, rows)} <= {list, tuple} and [*chain(*rows)]
    # isfinite is asked of floats alone: isfinite(10**400) raises
    if not cells or len({*map(len, rows)}) > 1 or not {*map(type, cells)} <= {int, float} \
            or not all(map(isfinite, filter(float.__instancecheck__, cells))):
        value = [dict(zip(names, row)) for row in rows] if names else value
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)  # json escapes "\n"
    ends, keys = ("{}", [json.dumps(k).replace("%", "%%") + ": " for k in names]) if names \
        else ("[]", [""] * len(rows[0]))
    template = inner + ends[0] + ",".join(f"{inner}  {key}%r" for key in keys) + inner + ends[1]
    return "[" + ",".join([template % row for row in map(tuple, rows)]) + pad + "]"


def _metric_lines(pairs) -> str:
    """``key,value`` lines; repr keeps full float precision, bools print lowercase."""
    return "".join(f"{k},{repr(v).lower()}\n" for k, v in pairs)


def cmd_ingest(args: argparse.Namespace) -> str:
    dist, _ = _distribution_for(args)
    if args.output_format == "json":
        return _json_doc(dist.to_dict()) + "\n"
    return dump_distribution(dist)


def cmd_fit(args: argparse.Namespace) -> str:
    dist, _ = _distribution_for(args)
    fit = _fit_for(args, dist)
    if args.output_format == "json":
        return _json_doc(fit.to_dict()) + "\n"
    lines = [
        "field,value,display",
        f"n,{fit.n!r},{fit.n:.2f}",
        f"c,{fit.c!r},{fit.c:.4f}",
        f"intercept,{fit.intercept!r},{fit.intercept:.2f}",
        *(f"{name},{value!r}," for name, value in asdict(fit.sums).items()),
    ]
    return "".join(line + "\n" for line in lines)


def cmd_ks(args: argparse.Namespace) -> str:
    dist, _ = _distribution_for(args)
    fit, result, doc = _ks_for(args, dist)
    if args.output_format == "json":
        return _json_doc({"fit": fit.to_dict(), "result": doc, "rows": result.rows}) + "\n"
    summary = [("n", fit.n), ("c", fit.c), ("intercept", fit.intercept)]
    summary += doc.items()
    return render_report_csv(result.rows) + "\nmetric,value\n" + _metric_lines(summary)


def cmd_pattern(args: argparse.Namespace) -> str:
    records, _ = _load_input(args)  # no names are needed
    if isinstance(records, ProductivityDistribution):
        raise DataError("pattern requires records input, not a distribution table")
    table = authorship_pattern(records, period_length=args.period, origin_year=args.origin)
    metrics = collab_metrics(records)
    if args.output_format == "json":
        return _json_doc({"pattern": table.to_dict(), "metrics": metrics.to_dict()}) + "\n"
    metric_lines = _metric_lines(metrics.to_dict().items())
    return render_pattern_csv(table) + "\nmetric,value\n" + metric_lines


def cmd_report(args: argparse.Namespace) -> str:
    dist, records = _distribution_for(args)
    fit, result, ks_doc = _ks_for(args, dist)
    xs, ys, expected = (result.rows[name].tolist() for name in ("x", "y", "expected_proportion"))
    if 0.0 in expected:
        raise NumericError(f"expected count at x={xs[expected.index(0.0)]} underflows to zero, "
                           "so its log10 cannot be plotted")
    plot_rows = [(log10(x), log10(y), log10(p * result.total_authors))
                 for x, y, p in zip(xs, ys, expected)]
    doc = {
        "input": {"path": args.input, "counting": args.counting if records is not None else None},
        "distribution": dist.to_dict(),
        "fit": fit.to_dict(),
        "ks": ks_doc,
        "ks_rows": result.rows,
        "plot_data": plot_rows,
        "pattern": None,
        "collaboration": None,
    }
    if records is not None:
        table = authorship_pattern(records, period_length=args.period, origin_year=args.origin)
        doc["pattern"] = table.to_dict()
        doc["collaboration"] = collab_metrics(records).to_dict()
    if args.plot_out is not None:
        lines = ["log10_x,log10_observed,log10_expected"]
        lines += [",".join(map(repr, row)) for row in plot_rows]
        try:
            Path(args.plot_out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {args.plot_out}: {exc.strerror}") from None
    return _json_doc(doc) + "\n"


# name -> (help, function, flag groups added after the input flags, in help order)
_COMMANDS = {
    "ingest": ("parse records and emit the counted distribution", cmd_ingest,
               (_add_counting_flag,)),
    "fit": ("fit the inverse power law", cmd_fit, (_add_fit_flags, _add_counting_flag)),
    "ks": ("fit, then test conformity", cmd_ks,
           (_add_fit_flags, _add_ks_flags, _add_counting_flag)),
    "pattern": ("authorship pattern table and collaboration metrics", cmd_pattern,
                (_add_pattern_flags,)),
    "report": ("combined JSON report with plot-ready data", cmd_report,
               (_add_fit_flags, _add_ks_flags, _add_pattern_flags, _add_plot_flag,
                _add_counting_flag)),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output = args.run(_resolve_args(args))
    except SystemExit as exc:  # argparse exits with 0 once it has printed --help
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0
