"""lotkalaw benchmark: three seeded closed-loop workloads, one process each.

    python3 perfbench/run.py --workload pipe_report --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs one operation at a time on one thread: the next pass
starts when the previous one ends, and CLI children run one at a time.
Inputs come from ``--seed`` and are generated before timing starts.
Every pass is checked against numpy-only oracles; failures are counted,
never skipped. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, their times scaled for host drift (``bench_probe``),
with ``--trace 1`` the per-layer metrics of a
separate traced run. A readable summary goes to stderr and a
``BENCH_<workload>_seed<n>_trace<t>.json`` file to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_inputs as inputs
from bench_checks import Gate, pattern_counts
from bench_probe import PROBE_REFERENCE_S, probe
from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pipe_report", "jsonl_collab", "calibration_sweep")
PAPER_COEFFICIENT = 2.54  # the CLI's --preset paper
CHILD_RUNS = 3  # CLI children run until this many ran and CHILD_SECONDS passed
CHILD_SECONDS = 8.0
SETUP_RUNS = 5
TAIL_BEYOND = 10


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_lotkalaw() -> dict:
    """The checkout's own lotkalaw modules, by layer name."""
    if not (SRC / "lotkalaw" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lotkalaw sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lotkalaw
    from lotkalaw import cli, collab, corpus, gof, lotka, synth

    if Path(lotkalaw.__file__).resolve().parent != SRC / "lotkalaw":
        raise SystemExit(f"perfbench: imported lotkalaw from {lotkalaw.__file__}, not {SRC}")
    return {"corpus": corpus, "collab": collab, "lotka": lotka, "gof": gof,
            "synth": synth, "cli": cli}


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class Pass:
    seconds: float  # timed work only; checks run outside the timed region
    latencies_ms: list[float]
    output_bytes: int  # stdout of the pass's CLI call


class RecordWorkload:
    """One pass: ``lotkalaw report`` in process on a generated record file."""

    def __init__(self, mods, workdir: Path, data: bytes, oracle, fmt: str, flags: list[str],
                 counting: str, period: int, round_trip: bool) -> None:
        self.mods = mods
        self.data = data
        self.oracle = oracle
        self.round_trip = round_trip
        path = workdir / f"records.{fmt}"
        path.write_bytes(data)
        self.argv = ["report", "--input", os.path.relpath(path, ROOT), "--preset", "paper",
                     *flags]
        self.items = oracle.records
        self.item_name = "records"
        self.fmt = fmt
        self.counting = counting
        self.last_output = ""
        xs, ys = oracle.complete if counting == "complete" else oracle.straight
        self.expected_points = np.column_stack([xs, ys]).tolist()
        self.expected_pattern = pattern_counts(oracle.sizes, oracle.years, period).tolist()
        self.singles = int((oracle.sizes == 1).sum())

    def describe(self) -> str:
        o = self.oracle
        return (f"{o.records} {self.fmt} records, {len(self.data) / 1e6:.1f} MB, {o.slots} author "
                f"slots, {int(o.complete[1].sum())} distinct authors; "
                f"lotkalaw {' '.join(self.argv)}")

    def run_pass(self, gate: Gate) -> Pass:
        corpus = self.mods["corpus"]
        t0 = perf_counter()
        code, output = run_cli(self.mods["cli"], self.argv)
        if self.round_trip:
            dumped = corpus.dump_records(corpus.parse_records(self.data, "jsonl"))
        seconds = perf_counter() - t0
        self.last_output = output
        gate.check(code == 0, f"report exited {code}")
        if code == 0:
            self._check_report(gate, json.loads(output))
        if self.round_trip:
            gate.check(dumped.encode("utf-8") == self.data,
                       "JSONL round trip is not byte-identical")
        gate.close(f"{self.fmt} report pass")
        return Pass(seconds, [seconds * 1e3], len(output.encode()))

    def _check_report(self, gate: Gate, doc: dict) -> None:
        o = self.oracle
        dist = doc["distribution"]
        gate.check(dist["points"] == self.expected_points, "counted distribution != oracle")
        want_total = o.slots if self.counting == "complete" else o.records
        gate.check(dist["total_contributions"] == want_total,
                   f"total_contributions {dist['total_contributions']} != {want_total}")
        gate.check(doc["pattern"]["counts"] == self.expected_pattern, "pattern counts != oracle")
        gate.check(doc["pattern"]["grand_total"] == o.records, "pattern grand total != records")
        collab = doc["collaboration"]
        gate.check((collab["single_count"], collab["multi_count"])
                   == (self.singles, o.records - self.singles), "single/multi counts != oracle")
        xs, ys = np.array(self.expected_points).T
        fit = doc["fit"]
        gate.check_slope(fit["n"], xs, ys, "report")
        ks = doc["ks"]
        gate.check_ks(ks["d_max_pointwise"], ks["d_max_cumulative"], xs, ys, fit["n"], fit["c"],
                      False, "report")


def pipe_report(mods, seed: int, scale: str, workdir: Path) -> RecordWorkload:
    data, oracle = inputs.pipe_records(seed, scale)
    return RecordWorkload(mods, workdir, data, oracle, "psv", [], "complete", 5, False)


def jsonl_collab(mods, seed: int, scale: str, workdir: Path) -> RecordWorkload:
    data, oracle = inputs.jsonl_records(seed, scale)
    flags = ["--counting", "straight", "--period", "3"]
    return RecordWorkload(mods, workdir, data, oracle, "jsonl", flags, "straight", 3, True)


class CalibrationSweep:
    """One pass: every grid table through synth, corpus, lotka and gof as
    the CLI ``ks`` does it, then ``lotkalaw report`` on the widest table."""

    def __init__(self, mods, seed: int, scale: str, workdir: Path) -> None:
        self.mods = mods
        self.specs = inputs.calibration_grid(seed, scale)
        self.tables = [inputs.sampled_table(spec) for spec in self.specs]
        self.widest = max(self.tables, key=lambda table: table[0].size)
        path = workdir / "widest.csv"
        path.write_bytes(inputs.distribution_csv(*self.widest))
        self.argv = ["report", "--input", os.path.relpath(path, ROOT), "--preset", "paper"]
        self.items = len(self.specs)
        self.item_name = "tables"
        self.last_output = ""

    def describe(self) -> str:
        levels = sorted(xs.size for xs, _ in self.tables)
        return (f"{len(self.specs)} tables per pass ({sum(s.authors for s in self.specs)} "
                f"authors, {levels[0]}..{levels[-1]} levels), then lotkalaw {' '.join(self.argv)}")

    def run_pass(self, gate: Gate) -> Pass:
        latencies = []
        for spec, table in zip(self.specs, self.tables):
            try:
                latencies.append(self._table(gate, spec, table))
            except Exception:
                gate.check(False, traceback.format_exc())
            gate.close(f"table n={spec.n} authors={spec.authors} x_max={spec.x_max}")
        t0 = perf_counter()
        code, output = run_cli(self.mods["cli"], self.argv)
        cli_seconds = perf_counter() - t0
        self.last_output = output
        gate.check(code == 0, f"report exited {code}")
        if code == 0:
            doc = json.loads(output)
            xs, ys = self.widest
            gate.check(doc["distribution"]["points"] == np.column_stack([xs, ys]).tolist(),
                       "report distribution != widest table")
            gate.check_ks(doc["ks"]["d_max_pointwise"], doc["ks"]["d_max_cumulative"], xs, ys,
                          doc["fit"]["n"], doc["fit"]["c"], False, "report")
        gate.close("report on the widest table")
        return Pass(sum(latencies) / 1e3 + cli_seconds, latencies, len(output.encode()))

    def _table(self, gate: Gate, spec, table) -> float:
        corpus, lotka, gof, synth = (self.mods[k] for k in ("corpus", "lotka", "gof", "synth"))
        t0 = perf_counter()
        dist = synth.sample_distribution(
            synth.SynthSpec(spec.n, spec.authors, spec.x_max, spec.seed))
        loaded = corpus.load_distribution(corpus.dump_distribution(dist))
        fit = lotka.fit_power_law(loaded)
        rows = gof.ks_report(loaded, fit.n, fit.c, dense_expected=spec.dense)
        result = gof.run_ks(loaded, fit.n, fit.c, PAPER_COEFFICIENT, dense_expected=spec.dense)
        elapsed_ms = (perf_counter() - t0) * 1e3
        xs, ys = table
        gate.check(dist.points == tuple(zip(xs.tolist(), ys.tolist())), "sampled table != oracle")
        gate.check(loaded.points == dist.points, "distribution CSV round trip changed the table")
        gate.check(len(rows) == xs.size, f"ks_report has {len(rows)} rows for {xs.size} levels")
        gate.check(max(row.pointwise_diff for row in rows) == result.d_max_pointwise,
                   "ks_report and run_ks disagree")
        gate.check_slope(fit.n, xs, ys, "table")
        gate.check_ks(result.d_max_pointwise, result.d_max_cumulative, xs, ys, fit.n, fit.c,
                      spec.dense, "table")
        return elapsed_ms


WORKLOAD_BUILDERS = {
    "pipe_report": pipe_report,
    "jsonl_collab": jsonl_collab,
    "calibration_sweep": CalibrationSweep,
}


def fixture_pass(mods, gate: Gate, seed: int) -> None:
    """Once per run: the bundled fixtures through every traced public function.

    The CAD table must reproduce the worksheet (n 2.54, C 0.7539,
    D 0.1050 / 0.2132, critical value 0.0200).
    """
    corpus, collab, synth = mods["corpus"], mods["collab"], mods["synth"]
    code, output = run_cli(mods["cli"], ["report", "--input", "data/cad_productivity.csv",
                                          "--preset", "paper"])
    gate.check(code == 0, f"CAD report exited {code}")
    if code == 0:
        doc = json.loads(output)
        ks = doc["ks"]
        gate.check(doc["fit"]["display"] == {"n": "2.54", "c": "0.7539"},
                   f"CAD display {doc['fit']['display']}")
        gate.check(abs(ks["d_max_pointwise"] - 0.1050) <= 5e-4, f"CAD D {ks['d_max_pointwise']}")
        gate.check(abs(ks["d_max_cumulative"] - 0.2132) <= 5e-4,
                   f"CAD D {ks['d_max_cumulative']}")
        gate.check(0.0200 <= ks["critical_value"] <= 0.0201,
                   f"CAD critical value {ks['critical_value']}")
    gate.close("CAD worksheet")

    data = (ROOT / "data" / "sample_records.psv").read_bytes()
    lines = [line for line in data.decode().splitlines() if line.strip()]
    slots = sum(len([a for a in line.split("|")[2].split(";") if a.strip()]) for line in lines)
    records = corpus.parse_records(data, "pipe")
    counted = corpus.count_productivity(records, "complete")
    pattern = collab.authorship_pattern(records)
    metrics = collab.collab_metrics(records)
    again = corpus.parse_records(corpus.dump_records(records), "jsonl")
    gate.check(counted.total_contributions == slots, "sample records: contributions != slots")
    gate.check(pattern.grand_total == len(lines), "sample records: pattern total != lines")
    gate.check(metrics.single_count + metrics.multi_count == len(lines), "sample records: counts")
    gate.check(again == records, "sample records: JSONL round trip changed the records")
    gate.close("sample records")

    spec = inputs.TableSpec(2.54, 16006, 100, seed, False)
    dist = synth.sample_distribution(
        synth.SynthSpec(spec.n, spec.authors, spec.x_max, spec.seed))
    xs, ys = inputs.sampled_table(spec)
    gate.check(dist.points == tuple(zip(xs.tolist(), ys.tolist())), "CAD-sized draw != oracle")
    gate.check(corpus.load_distribution(corpus.dump_distribution(dist)).points == dist.points,
               "CAD-sized draw: CSV round trip changed the table")
    gate.close("CAD-sized synthetic draw")


def safe_pass(workload, gate: Gate) -> Pass | None:
    gc.collect()
    try:
        return workload.run_pass(gate)
    except Exception:
        gate.check(False, traceback.format_exc())
        gate.close("pass")
        return None


def child(argv: list[str], workdir: Path) -> tuple[float, float, int, bytes]:
    """Runs ``python argv`` from the checkout root; (wall s, peak RSS MB, exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path = workdir / "child.out"
    launcher = [sys.executable, str(HERE / "spawn.py"), str(out_path), str(workdir / "child.err")]
    done = subprocess.run([*launcher, "--", sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    found = json.loads(done.stdout)
    return found["wall_s"], found["peak_rss_mb"], found["code"], out_path.read_bytes()


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return None
    count = len(ordered)
    return ordered[-TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count, count


def setup_child(gate: Gate, workdir: Path) -> float | None:
    wall, _, code, _ = child(["-c", "import lotkalaw.cli; lotkalaw.cli.build_parser()"], workdir)
    gate.check(code == 0, f"import child exited {code}")
    return wall if gate.close("import lotkalaw.cli") else None


def measure(workload, gate: Gate, seconds: float, mods, workdir: Path) -> dict:
    """Passes for ``seconds``, then the CLI children; a host-speed probe and a
    set-up child follow each pass, and a probe follows each CLI child."""
    setup_child(gate, workdir)  # writes the bytecode caches a user's later runs find
    passes, setup, probes = [], [], []
    attempts, start = 0, perf_counter()
    while not attempts or perf_counter() - start < seconds or len(setup) < SETUP_RUNS:
        if not attempts or perf_counter() - start < seconds:
            attempts += 1
            passes.append(safe_pass(workload, gate))
        probes.append(probe())
        setup.append(setup_child(gate, workdir))
    passes = [p for p in passes if p is not None]
    setup = [s for s in setup if s is not None]
    if not passes:
        raise SystemExit("perfbench: every pass failed")
    latencies = [ms for p in passes for ms in p.latencies_ms]

    walls, rss = [], []
    children, children_start = 0, perf_counter()
    while children < CHILD_RUNS or perf_counter() - children_start < CHILD_SECONDS:
        children += 1
        wall, peak, code, stdout = child(["-m", "lotkalaw", *workload.argv], workdir)
        gate.check(code == 0, f"CLI child exited {code}")
        gate.check(stdout == workload.last_output.encode(),
                   "CLI child stdout != in-process output")
        if gate.close("CLI child"):
            walls.append(wall)
            rss.append(peak)
        probes.append(probe())

    if not (walls and setup):
        raise SystemExit("perfbench: every CLI or import child failed")
    pass_s = statistics.median(p.seconds for p in passes)
    raw = {
        "items_per_s": workload.items / pass_s,
        "cli_wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
    }
    scale = PROBE_REFERENCE_S / statistics.median(probes)  # below 1 on a slow host
    metrics = {
        "items_per_s": (raw["items_per_s"] / scale, "1/s"),
        "cli_wall_s": (raw["cli_wall_s"] * scale, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    notes = [f"passes: {len(passes)}, {workload.items} {workload.item_name} each, "
             f"median pass {pass_s:.4f} s; items_per_s counts {workload.item_name}",
             f"host-speed probe: median {statistics.median(probes):.4f} s of {len(probes)}, "
             f"times scaled by {scale:.4f}; unscaled: "
             + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())]
    found = tail(latencies)
    notes.append(f"operation latency (unscaled): p50 {statistics.median(latencies):.4f} ms, "
                 + (f"tail {found[0]:.4f} ms at p{found[1]:.2f}" if found else
                    f"no tail with {TAIL_BEYOND} samples beyond it")
                 + f", {len(latencies)} operations")
    samples = {"pass_s": [p.seconds for p in passes], "latencies_ms": latencies,
               "cli_wall_s": walls, "peak_rss_mb": rss, "setup_s": setup, "probe_s": probes}
    return {"metrics": metrics, "notes": notes, "raw": samples}


# Per-layer metrics read from span totals: name -> (span, total, unit).
# A unit per second divides the total by the seconds spent in the span.
LAYER_METRICS = {
    "corpus.parse_records.s": ("corpus.parse_records", "s", "s"),
    "corpus.parse_records.records_per_s": ("corpus.parse_records", "records", "1/s"),
    "corpus.parse_records.mb_per_s": ("corpus.parse_records", "bytes", "MB/s"),
    "corpus.count_productivity.s": ("corpus.count_productivity", "s", "s"),
    "corpus.count_productivity.slots_per_s": ("corpus.count_productivity", "slots", "1/s"),
    "corpus.distinct_authors": ("corpus.count_productivity", "authors", "count"),
    "corpus.dump_records.s": ("corpus.dump_records", "s", "s"),
    "corpus.load_distribution.s": ("corpus.load_distribution", "s", "s"),
    "corpus.dump_distribution.s": ("corpus.dump_distribution", "s", "s"),
    "collab.authorship_pattern.s": ("collab.authorship_pattern", "s", "s"),
    "collab.collab_metrics.s": ("collab.collab_metrics", "s", "s"),
    "lotka.fit_power_law.s": ("lotka.fit_power_law", "s", "s"),
    "lotka.levels_fitted": ("lotka.fit_power_law", "levels", "count"),
    "gof.ks_report.s": ("gof.ks_report", "s", "s"),
    "gof.ks_report.calls": ("gof.ks_report", "calls", "count"),
    "gof.run_ks.self_s": ("gof.run_ks", "self_s", "s"),
    "gof.levels_tested": ("gof.ks_report", "levels", "count"),
    "synth.sample_distribution.s": ("synth.sample_distribution", "s", "s"),
    "synth.sample_distribution.authors_per_s": ("synth.sample_distribution", "authors", "1/s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


def layer_value(passes: list[dict], fixtures: dict, span: str, total: str, unit: str) -> float:
    """Median over the passes that called ``span``; the fixture pass if none did."""
    called = [p[span] for p in passes if span in p] or [fixtures[span]]
    scale = 1e-6 if unit == "MB/s" else 1.0
    per_second = unit.endswith("/s")
    return statistics.median(t[total] * scale / (t["s"] if per_second else 1.0) for t in called)


def traced(workload, gate: Gate, seconds: float, mods, seed: int) -> dict:
    """Alternates untraced and traced passes; per-layer numbers come from the traced ones."""
    tracer = Tracer(mods)
    with tracer:
        tracer.pass_id = "fixtures"
        fixture_pass(mods, gate, seed)
    plain, timed, traced_ids, output_bytes = [], [], [], []
    attempt, start = 0, perf_counter()
    while not attempt or perf_counter() - start < seconds:
        attempt += 1
        untraced_pass = safe_pass(workload, gate)
        with tracer:
            tracer.pass_id = f"pass{attempt}"
            traced_pass = safe_pass(workload, gate)
        if untraced_pass is None or traced_pass is None:
            continue
        plain.append(untraced_pass.seconds)
        timed.append(traced_pass.seconds)
        traced_ids.append(tracer.pass_id)
        output_bytes.append(traced_pass.output_bytes)
    if not timed:
        raise SystemExit("perfbench: every pass failed")
    totals = tracer.per_pass()
    fixtures = totals["fixtures"]
    passes = [totals[pass_id] for pass_id in traced_ids]

    metrics = {name: (layer_value(passes, fixtures, *spec), spec[2])
               for name, spec in LAYER_METRICS.items()}
    ks_per_result = metrics["gof.ks_report.calls"][0] / layer_value(
        passes, fixtures, "gof.run_ks", "calls", "count")
    metrics["gof.ks_report_calls_per_ks_result"] = (ks_per_result, "ratio")
    metrics["cli.output_bytes"] = (statistics.median(output_bytes), "count")
    metrics["trace.overhead_s"] = (statistics.median(timed) - statistics.median(plain), "s")
    pass_s = statistics.median(timed)
    shares = {
        layer: statistics.median(
            sum(t["self_s"] for span, t in totals.items() if span.startswith(layer + "."))
            / pass_seconds
            for totals, pass_seconds in zip(passes, timed)
        )
        for layer in ("corpus", "collab", "lotka", "gof", "synth", "cli")
    }
    notes = [f"traced passes: {len(timed)}, median traced pass {pass_s:.4f} s, "
             f"untraced {statistics.median(plain):.4f} s",
             "self-time share of the traced pass: "
             + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())
             + f", outside lotkalaw {100 * (1 - sum(shares.values())):.1f}%"]
    raw = {"pass_s_traced": timed, "pass_s_untraced": plain, "shares": shares,
           "spans": tracer.dump()}
    return {"metrics": metrics, "notes": notes, "raw": raw}


def machine_info() -> dict:
    commit = "unknown"  # a checkout without git history has none
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                   text=True, check=False)
            commit = found.stdout.strip() or commit
        except OSError:
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "lotkalaw").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "src_lines": src_lines}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str, mods) -> dict:
    gate = Gate(log)
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        workload = WORKLOAD_BUILDERS[name](mods, seed, scale, workdir)
        log(f"[{name}] input: {workload.describe()} (generated in {perf_counter() - t0:.1f} s)")
        if trace:
            found = traced(workload, gate, seconds, mods, seed)
        else:
            fixture_pass(mods, gate, seed)
            found = measure(workload, gate, seconds, mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found["metrics"].items()},
    }
    for note in found["notes"]:
        log(f"[{name}] {note}")
    for key, (value, unit) in found["metrics"].items():
        log(f"[{name}] {key} = {value:.6g} {unit}")
    log(f"[{name}] error_rate = {gate.failed / max(gate.attempted, 1):.6g} "
        f"({gate.failed} failed of {gate.attempted} operations)")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
              "machine": machine_info(), "input": workload.describe(), "result": result,
              "notes": found["notes"], "raw": found["raw"]}
    (out / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="all: every workload, untraced and then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: 1e3 records and a handful of tables, for the self-test")
    args = parser.parse_args()
    mods = import_lotkalaw()
    if args.workload == "all":
        print(json.dumps({
            name: {mode: run_workload(name, args.seed, args.seconds, trace, args.scale, mods)
                   for mode, trace in (("end_to_end", False), ("per_layer", True))}
            for name in WORKLOADS
        }))
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      args.scale, mods)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
