"""The repository benchmark: one command per workload, metrics by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Workloads: ``campaign``, ``reduce``, ``service`` (see ``workloads.py`` and
``README.md`` for why each exists).  With ``--trace 0`` the command runs
fresh-process passes of the workload until ``--seconds`` of timed work have
been measured (five to eight passes), checks the outputs, and reports every
end-to-end metric.  With ``--trace 1`` it runs a checked untraced pass, a
traced pass and an untraced pass, and reports every per-layer metric, the
tracing overhead and the wall time no span covers.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when a correctness check fails and 2
when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, layers  # noqa: E402
from perfbench.common import ROOT, WORK, require_src, tail  # noqa: E402

WORKLOADS = ("campaign", "reduce", "service")
#: Passes every untraced run makes, at least (five make the median robust to
#: two slow passes, such as the first of a run often is) and at most.
MIN_PASSES, MAX_PASSES = 5, 8
#: A trial process that has not finished by then is killed.
TRIAL_TIMEOUT_S = 150.0
#: Span names the traced run's layer-share table lists.
SHARE_TABLE_ROWS = 14

#: End-to-end metrics: (name, unit, better); what each means per workload
#: is in README.md.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_tail", "ms", "lower"),
    ("job_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_item", "count", "lower"),
    ("output_len_mean", "count", "lower"),
]
#: The issue's name for each end-to-end metric on each workload.
ALIASES = {
    "campaign": {"items_per_s": "seeds_per_s", "item_ms_p50": "seed_ms_p50",
                 "item_ms_tail": "seed_ms_tail",
                 "job_s_p50": "campaign_wall_s",
                 "work_per_item": "probes_per_seed",
                 "output_len_mean": "finding_len_mean"},
    "reduce": {"items_per_s": "reductions_per_s",
               "item_ms_p50": "reduce_ms_p50",
               "item_ms_tail": "reduce_ms_tail",
               "job_s_p50": "reduce_set_wall_s",
               "work_per_item": "probes_per_reduction",
               "output_len_mean": "reduced_len_mean"},
    "service": {"items_per_s": "seeds_per_s",
                "item_ms_p50": "seed_durable_ms_p50",
                "item_ms_tail": "seed_durable_ms_tail",
                "job_s_p50": "campaign_s_p50",
                "work_per_item": "stored_bytes_per_seed",
                "output_len_mean": "reduced_len_mean"},
}


def fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


class Trials:
    """Runs ``trial.py`` requests in fresh processes inside a work directory."""

    def __init__(self, workload: str, seed: int, directory: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.count = 0

    def run(self, mode: str, **fields) -> dict:
        self.count += 1
        request_path = self.directory / f"request-{self.count}.json"
        result_path = self.directory / f"result-{self.count}.json"
        latencies_path = self.directory / f"latencies-{self.count}.bin"
        request = {"workload": self.workload, "seed": self.seed,
                   "mode": mode, "latencies": str(latencies_path), **fields}
        request_path.write_text(json.dumps(request), encoding="utf-8")
        command = [sys.executable, str(Path(__file__).with_name("trial.py")),
                   str(request_path), str(result_path)]
        # A session of its own, so a timeout kills the trial's fleet workers
        # with it.
        process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
        try:
            code = process.wait(timeout=TRIAL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if process.returncode is None:  # timed out, or we are stopping
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if code is None:
            raise RuntimeError(f"{mode} trial timed out")
        if code != 0:
            raise RuntimeError(f"{mode} trial exited with code {code}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if latencies_path.exists():
            latencies = array("d")
            with open(latencies_path, "rb") as handle:
                latencies.frombytes(handle.read())
            result["latencies_ms"] = latencies
        return result


def _inputs(trials: Trials, workload: str) -> tuple[dict, list[str]]:
    """Per-run inputs every pass shares, and what building them printed."""
    notes = []
    fields: dict = {}
    if workload == "reduce":
        fields["input"] = str(trials.directory / "reduce-set.json")
        built = trials.run("reduce_set", **fields)
        notes.append(
            f"reduce set: {built['findings']} findings over {built['cells']} "
            f"(target, kind) cells, built in {built['build_s']:.2f} s")
    if workload == "service":
        fields["direct"] = trials.run("direct")
    return fields, notes


def measure(trials: Trials, seconds: float, fields: dict) -> list[dict]:
    """Passes until *seconds* of timed work (MIN..MAX passes); the first
    pass's outputs are checked."""
    passes: list[dict] = []
    while len(passes) < MAX_PASSES and (
        len(passes) < MIN_PASSES or sum(p["wall_s"] for p in passes) < seconds
    ):
        passes.append(trials.run("pass", checks=not passes, **fields))
    return passes


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's median calibrated latency over the passes (items are in
    the same order in every pass; the service's are in completion order)."""
    columns = [[value * p["scale"] for value in p["latencies_ms"]]
               for p in passes]
    if len({len(column) for column in columns}) != 1:
        raise RuntimeError("passes timed different numbers of items")
    return [statistics.median(values) for values in zip(*columns)]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Every end-to-end metric, each a median over the passes.  Times are
    in reference-machine seconds: each is scaled by its own pass's
    calibration (``common.CALIBRATION_REF_S``)."""
    median = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    latencies = item_latencies(passes)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * p["scale"] for p in passes),
        "items_per_s": statistics.median(
            p["items"] / (p["wall_s"] * p["scale"]) for p in passes),
        "item_ms_p50": statistics.median(latencies),
        "item_ms_tail": tail(latencies)[0],
        "job_s_p50": statistics.median(
            statistics.median(p["job_s"]) * p["scale"] for p in passes),
        "peak_rss_mb": median("peak_rss_mb"),
        "work_per_item": median("work_per_item"),
        "output_len_mean": median("output_len_mean"),
    }


def run_untraced(trials, workload, seconds, fields) -> tuple[dict, list, dict]:
    passes = measure(trials, seconds, fields)
    problems = list(passes[0]["problems"])
    if "digest" in passes[0]:
        problems += checks.repeats(
            f"{workload} output digest", [p["digest"] for p in passes])
    values = end_to_end(passes)
    _, percentile, samples = tail(item_latencies(passes))
    counts = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    lines = [
        f"passes: {len(passes)} (fresh process each); walls "
        + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s; cpu "
        + ", ".join(f"{p['cpu_s']:.3f}" for p in passes)
        + " s; set-ups " + ", ".join(f"{p['setup_s']:.3f}" for p in passes)
        + " s (raw)",
        "calibration walk (median ms): " + ", ".join(
            f"{1000 * statistics.median(p['calibration_s']):.2f}"
            for p in passes)
        + "; scale to reference seconds: "
        + ", ".join(f"{p['scale']:.4f}" for p in passes),
        f"item latency: each item's median over the passes; tail is "
        f"p{percentile:.3f} of {samples} items (the highest percentile with "
        "at least ten samples beyond)",
        f"error_rate: {counts['failed']}/{counts['attempted']} = "
        f"{counts['failed'] / counts['attempted']:.6f}",
    ]
    return values, problems, {**counts, "lines": lines}


def run_traced(trials, workload, fields, spans_path) -> tuple[dict, list, dict]:
    """A checked untraced pass first (the first pass of a run is often the
    slowest), then a traced pass and an untraced pass of the same inputs:
    tracing overhead compares the last two."""
    from perfbench import spans

    first = trials.run("pass", checks=True, **fields)
    traced = trials.run(
        "pass", trace=True, checks=True, minimality=True,
        spans=str(spans_path), **fields)
    untraced = trials.run("pass", checks=False, **fields)
    span_list, counters = spans.load(spans_path)
    values = layers.layer_metrics(
        span_list, counters, wall=traced["wall_s"],
        untraced_wall=untraced["wall_s"], uncovered=traced["uncovered_s"])
    lines = [f"spans written to {spans_path.relative_to(ROOT)}"]
    lines += share_table(span_list, traced["wall_s"])
    lines.append(
        f"tracing overhead {values['trace.overhead']:+.3f} "
        f"({traced['wall_s']:.3f} s traced vs {untraced['wall_s']:.3f} s "
        f"untraced; first untraced pass {first['wall_s']:.3f} s), "
        f"wall no span covers {values['trace.uncovered_s']:.4f} s")
    problems = list(first["problems"]) + list(traced["problems"])
    if "digest" in first:
        problems += checks.repeats(
            f"{workload} output digest",
            [p["digest"] for p in (first, traced, untraced)])
    counts = {"attempted": traced["attempted"], "failed": traced["failed"]}
    return values, problems, {**counts, "lines": lines}


def share_table(span_list, wall: float) -> list[str]:
    """Self time per span name as a share of the timed wall."""
    from perfbench.spans import aggregate

    totals = sorted(aggregate(span_list).items(),
                    key=lambda item: -item[1]["self_s"])
    lines = ["layer self time (share of traced wall):"]
    for name, entry in totals[:SHARE_TABLE_ROWS]:
        lines.append(
            f"  {name:<52} {entry['self_s']:9.3f} s {100 * entry['self_s'] / wall:6.2f}%"
            f"  calls {entry['calls']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running trials are killed and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    require_src()

    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    trials = Trials(args.workload, args.seed, directory)
    try:
        fields, notes = _inputs(trials, args.workload)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            values, problems, info = run_traced(
                trials, args.workload, fields, spans_path)
            declared = layers.PER_LAYER
        else:
            values, problems, info = run_untraced(
                trials, args.workload, args.seconds, fields)
            declared = END_TO_END
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    machine = fingerprint()
    print(f"workload {args.workload}, seed {args.seed}, "
          f"nproc {machine['nproc']}, cpu {machine['cpu']}, "
          f"python {machine['python']}")
    for line in notes + info["lines"]:
        print(line)
    aliases = ALIASES[args.workload]
    for name, unit, _ in declared:
        alias = aliases.get(name, "")
        print(f"  {name:<58} {values[name]:>16.6f} {unit:<6} {alias}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in declared
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
