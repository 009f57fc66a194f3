"""Benchmark of the convexmatch command line, one workload per run.

    python3 bench/run.py --workload compose --seed 1 --seconds 25 --trace 0

Each operation is one in-process call to ``convexmatch.cli.main([...,
"--format", "json"])`` with stdout captured, so its time includes
argument parsing and report formatting.  One process, one thread, a
closed loop: the next operation starts when the last one returns.  A
run makes the workload's operations from ``--seed``, warms up, then
repeats the whole list (a round) while another round still fits in
``--seconds``.  After the timed phase, ``check.py``, which does not
import convexmatch, checks every distinct report of every operation;
rounds may return different matchings, as long as each one is correct.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters importing ``convexmatch.cli``), ``ops_per_s``
(operations per second of the timed phase), ``op_ms_p50`` and
``peak_rss_mb``, and ``op_ms_p90`` when a run holds at least 100
samples.  ``--trace 1`` alternates plain and traced rounds and prints
the per-layer metrics, per traced round, with the tracing overhead.
The last line of stdout is the result as JSON; results, raw samples and
spans are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import check
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
STARTS = 11  # fresh interpreters per run for setup_s
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
_ELAPSED = re.compile(r'"elapsed_ms": \d+')
_IMPORT_LINE = re.compile(r"import time:\s*\d+ \|\s*(\d+) \| (\s*)(\S+)")


def interpreter_starts(count: int, *flags: str) -> list[tuple[float, str]]:
    """Wall time and stderr of ``count`` fresh ``import convexmatch.cli``,
    after one start that is not counted (it may compile bytecode)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *flags, "-c", "import convexmatch.cli"]
    out = []
    for _ in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        out.append((time.perf_counter() - start, proc.stderr))
    return out[1:]


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative ms of ``convexmatch.cli`` and of ``multiprocessing``
    from ``python -X importtime``."""
    found = {"setup.import_ms": 0.0, "setup.multiprocessing_import_ms": 0.0}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative, indent, name = match.groups()
        if name == "convexmatch.cli" and len(indent) <= 1:
            found["setup.import_ms"] = int(cumulative) / 1000
        elif name == "multiprocessing":
            found["setup.multiprocessing_import_ms"] = int(cumulative) / 1000
    return found


def normalize(text: str) -> str:
    return _ELAPSED.sub('"elapsed_ms": 0', text)


class Runner:
    """Runs rounds of operations and keeps each one's distinct reports."""

    def __init__(self, cli, ops: list[dict]):
        self.cli = cli
        self.ops = ops
        # per operation, an insertion-ordered set of (report, atlas CSV)
        self.reports: list[dict[tuple, None]] = [{} for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # failed operations, first few

    def execute(self, op: dict) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op["argv"] + ["--format", "json"])
        except Exception:  # a crash fails this operation, not the run
            code = None
            err.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def round(self) -> list[tuple[int, float]]:
        """One pass over the operations: (index, wall time) of each one
        that answered."""
        times = []
        for i, op in enumerate(self.ops):
            seconds, code, text, err = self.execute(op)
            self.attempted += 1
            if code not in check.expected_codes(op):
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(
                        f"{' '.join(op['argv'])[:120]}: exit {code}: "
                        f"{err.strip()[-300:]}")
                continue
            times.append((i, seconds))
            artifact = Path(op["out"]).read_text() if "out" in op else None
            self.reports[i].setdefault((normalize(text), artifact))
        return times

    def check(self) -> list[str]:
        checker = check.Checker()
        problems = []
        for op, reports in zip(self.ops, self.reports):
            for text, artifact in reports:
                try:
                    found = checker.check(op, json.loads(text),
                                          {"csv": artifact})
                except (KeyError, TypeError, ValueError) as exc:
                    found = [f"malformed report: {exc!r}"]
                problems += [f"{' '.join(op['argv'])[:120]}: {p}"
                             for p in found]
        return problems + checker.finish()

    def report_kb(self) -> float:
        """Bytes of each operation's first report, summed over a round."""
        return sum(len(next(iter(r))[0]) for r in self.reports if r) / 1024


def timed_rounds(step, seconds: float) -> int:
    """Call ``step`` (one round) while another round fits; at least once."""
    start = time.perf_counter()
    rounds = 0
    while True:
        step()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def overhead_pct(plain, traced) -> float:
    """Median over operations of traced / plain wall time, as % above 1."""
    totals = [[0.0, 0.0] for _ in range(max(i for i, _ in plain) + 1)]
    for i, seconds in plain:
        totals[i][0] += seconds
    for i, seconds in traced:
        totals[i][1] += seconds
    ratios = [t / p for p, t in totals if p and t]
    return 100 * (statistics.median(ratios) - 1)


def command_medians(ops, samples) -> dict[str, list]:
    """Median ms and sample count per command, for the README."""
    by_command: dict[str, list[float]] = {}
    for i, seconds in samples:
        key = " ".join(ops[i]["argv"][:2] if ops[i]["kind"] == "construct"
                       else ops[i]["argv"][:1])
        by_command.setdefault(key, []).append(1000 * seconds)
    return {key: [statistics.median(v), len(v)]
            for key, v in sorted(by_command.items())}


def balanced_cuts(colors: str) -> int:
    """Candidate partitions lemma3_witness scores: antipodal cut pairs
    0 <= c1 <= c2 < n whose two arcs are color-balanced on the core of
    monochromatic antipodal pairs, or the one all-antipodal matching
    when the core is empty."""
    n = len(colors) // 2
    prefix = [0]
    for p, c in enumerate(colors):
        step = 0
        if colors[p] == colors[(p + n) % (2 * n)]:
            step = 1 if c == "R" else -1
        prefix.append(prefix[-1] + step)
    if all(colors[i] != colors[i + n] for i in range(n)):
        return 1
    return sum(1 for c1 in range(n) for c2 in range(c1, n)
               if prefix[c2] == prefix[c1] and prefix[c1 + n] == prefix[c2])


def input_counts(ops: list[dict]) -> dict[str, float]:
    """Per-round counts the harness derives from the inputs."""
    from convexmatch import Coloring, window_partition

    counts = {"compose.windows": 0, "compose.windows_repeated": 0,
              "construct.balanced_cuts": 0}
    seen = set()
    for op in ops:
        if op["kind"] == "compose":
            colors = op["coloring"]
            for window in window_partition(Coloring(colors)).windows:
                key = "".join(colors[p] for p in window)
                counts["compose.windows"] += 1
                counts["compose.windows_repeated"] += key in seen
                seen.add(key)
        elif op.get("construction") == "witness":
            counts["construct.balanced_cuts"] += balanced_cuts(op["coloring"])
    return counts


def run(workload: str, seed: int, seconds: float, traced: bool,
        scratch: str) -> tuple[dict, dict]:
    """(result line, extra details) of one run."""
    extra: dict = {"workload": workload, "seed": seed, "trace": int(traced)}
    if traced:
        found = [import_times(err) for _, err in
                 interpreter_starts(STARTS, "-X", "importtime")]
        setup = {key: statistics.median(f[key] for f in found)
                 for key in found[0]}
    else:
        setup_s = statistics.median(t for t, _ in interpreter_starts(STARTS))

    sys.path.insert(0, str(SRC))
    from convexmatch import cli

    warm, ops = workloads.build(workload, seed, scratch)
    Runner(cli, warm).round()
    runner = Runner(cli, ops)

    if traced:
        tracer = spans.Tracer()
        plain: list[tuple[int, float]] = []
        with_spans: list[tuple[int, float]] = []

        order = [False, True]

        def step():
            # alternate which goes first, so drift does not bias the overhead
            for with_tracing in order:
                if with_tracing:
                    with tracer.patched():
                        with_spans.extend(runner.round())
                else:
                    plain.extend(runner.round())
            order.reverse()

        rounds = timed_rounds(step, seconds)
        totals = tracer.totals()
        metrics = {key: totals.get(key, 0.0) / rounds for key in PER_LAYER}
        metrics.update(setup)
        metrics.update(input_counts(ops))
        metrics["cli.report_kb"] = runner.report_kb()
        metrics["trace.overhead_pct"] = overhead_pct(plain, with_spans)
        extra["spans"] = tracer.dump()
        samples = with_spans
    else:
        samples = []
        start = time.perf_counter()
        rounds = timed_rounds(lambda: samples.extend(runner.round()), seconds)
        wall = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ms = sorted(1000 * s for _, s in samples)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(samples) / wall,
            "op_ms_p50": statistics.median(ms),
            "peak_rss_mb": peak_kb / 1024,
        }
        if len(ms) >= P90_MIN_SAMPLES:
            extra["op_ms_p90"] = statistics.quantiles(ms, n=10)[-1]

    problems = runner.check()
    extra.update(rounds=rounds, samples=len(samples), problems=problems,
                 failures=runner.failures,
                 op_ms_by_command=command_medians(ops, samples),
                 samples_ms=[[i, 1000 * t] for i, t in samples])
    units = UNITS if not traced else PER_LAYER
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }
    return result, extra


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
         "peak_rss_mb": "MB"}

PER_LAYER = {
    "setup.import_ms": "ms",
    "setup.multiprocessing_import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.report_kb": "KB",
    "cli.atlas.self_ms": "ms",
    "compose.compose.self_ms": "ms",
    "compose.windows": "count",
    "compose.windows_repeated": "count",
    "compose.window_partition.ms": "ms",
    "compose.window_partition.calls": "count",
    "search.find_with_k.ms": "ms",
    "search.find_with_k.calls": "count",
    "search.spectrum.ms": "ms",
    "search.max_crossing.ms": "ms",
    "search.minmax_sweep.self_ms": "ms",
    "search.orbits": "count",
    "search.enumerate_colorings.ms": "ms",
    "construct.lemma3_witness.ms": "ms",
    "construct.balanced_cuts": "count",
    "construct.fourblock_max_matching.ms": "ms",
    "construct.plane_matching.ms": "ms",
    "core.crossing_number.ms": "ms",
    "core.crossing_number.calls": "count",
    "core.symmetry_apply.calls": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convexmatch" / "cli.py").is_file():
        print(f"error: no convexmatch sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        result, extra = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorded = extra.pop("spans", None)
    if recorded is not None:
        (OUT / f"spans-{name}.json").write_text(json.dumps(recorded) + "\n")
    (OUT / f"result-{name}.json").write_text(
        json.dumps({**extra, **result}, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{extra['rounds']}  samples {extra['samples']}  attempted "
          f"{result['attempted']}  failed {result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:36} {metric['value']:14.4f} {metric['unit']}")
    if "op_ms_p90" in extra:
        print(f"  {'op_ms_p90':36} {extra['op_ms_p90']:14.4f} ms "
              f"({extra['samples']} samples)")
    for failure in extra["failures"]:
        print(f"  failed: {failure}", file=sys.stderr)
    for problem in extra["problems"][:20]:
        print(f"  wrong: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
