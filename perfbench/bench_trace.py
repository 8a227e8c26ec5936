"""In-memory spans around calls into lotkalaw's public functions.

The tracer replaces module attributes with timing wrappers: the names
``lotkalaw.cli`` imported, the ones the benchmark itself calls, and
``lotkalaw.gof.ks_report``, which ``run_ks`` looks up at call time. No
file under ``src/`` changes. Spans stay in a list until the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Public functions timed per layer (module of lotkalaw -> names).
LAYERS = {
    "corpus": (
        "parse_records",
        "count_productivity",
        "dump_records",
        "load_distribution",
        "dump_distribution",
    ),
    "collab": ("authorship_pattern", "collab_metrics"),
    "lotka": ("fit_power_law",),
    "gof": ("ks_report", "run_ks"),
    "synth": ("sample_distribution",),
    "cli": ("main",),
}


def _records_in(args, result) -> dict:
    return {"records": len(result), "bytes": len(args[0])}


def _counted(args, result) -> dict:
    return {"slots": result.total_contributions, "authors": result.total_authors}


# Work counts taken from a call's arguments and result, at the boundary.
COUNTERS: dict[str, Callable[[tuple, object], dict]] = {
    "corpus.parse_records": _records_in,
    "corpus.count_productivity": _counted,
    "lotka.fit_power_law": lambda args, fit: {"levels": fit.sums.point_count},
    "gof.ks_report": lambda args, rows: {"levels": len(rows)},
    "synth.sample_distribution": lambda args, dist: {"authors": args[0].author_count},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    pass_id: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while installed; restores every attribute on exit."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules  # layer name -> imported lotkalaw module
        self.spans: list[Span] = []
        self.pass_id = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        cli = self.modules["cli"]
        for layer, names in LAYERS.items():
            for name in names:
                span_name = f"{layer}.{name}"
                self._wrap(self.modules[layer], name, span_name)
                if layer != "cli" and hasattr(cli, name):
                    self._wrap(cli, name, span_name)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, module, name: str, span_name: str) -> None:
        original = getattr(module, name)
        counter = COUNTERS.get(span_name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(span_name, perf_counter(), 0.0, self._open[-1] if self._open else -1,
                        self.pass_id)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        self._saved.append((module, name, original))
        setattr(module, name, traced)

    def per_pass(self) -> dict[str, dict[str, dict[str, float]]]:
        """pass id -> span name -> summed calls, seconds, self seconds, counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        passes: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span, children in zip(self.spans, child_time):
            totals = passes[span.pass_id][span.name]
            totals["calls"] += 1
            totals["s"] += span.end - span.start
            totals["self_s"] += span.end - span.start - children
            for key, value in span.counts.items():
                totals[key] += value
        return passes

    def dump(self) -> list[dict]:
        return [span.__dict__ for span in self.spans]
