"""One pass of a workload in a fresh process.

Usage: ``python3 perfbench/trial.py <request.json> <result.json>``.

Every pass starts cold: a new interpreter, a new harness, empty replay and
reference-outcome caches, because users pay that fill on every campaign.
The request names the workload, the workload seed and the mode:

* ``pass`` — set up, run the timed region, optionally check the outputs
  (``checks``) and trace the layers (``trace``);
* ``reduce_set`` — build the reduce workload's finding set;
* ``direct`` — what direct in-process calls give for the service
  workload's inputs (seed records, reductions, dedup picks).
"""

from __future__ import annotations

import json
import resource
import sys
from array import array
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    calibrate, ensure_src_on_path, scale_of)


def run_pass(request: dict, started: float) -> dict:
    """Set up (timed from *started*, before the package was imported), then
    run, check and trace one pass as the request asks."""
    from perfbench import layers, spans
    from perfbench.workloads import WORKLOADS, peak_rss_mb, reset_peak_rss

    recorder = installed = None
    if request.get("trace"):
        recorder = spans.SpanRecorder()
        installed = spans.install(recorder, layers.patch_points())
    # Calibration walks just before set-up and right after the timed region
    # (see ``common.calibration_walk``) give the machine's speed during the
    # pass.  The peak resident set restarts after the first walks, so their
    # graph does not count as the program's memory.
    walk_start = time.perf_counter()
    samples = calibrate()
    reset_peak_rss()
    walking = time.perf_counter() - walk_start
    workload = WORKLOADS[request["workload"]](request)
    workload.setup()
    result: dict = {"setup_s": time.perf_counter() - started - walking}
    try:
        if recorder is not None:
            recorder.enabled = True
        cpu_start = time.process_time()
        result.update(workload.run())
        result["cpu_s"] = time.process_time() - cpu_start
        if recorder is not None:
            recorder.enabled = False
        own_peak = peak_rss_mb()  # before the second walks allocate
        result["calibration_s"] = samples + calibrate()
        result["scale"] = scale_of(result["calibration_s"])
        region_start, region_end = result.pop("started"), result.pop("finished")
        result["wall_s"] = region_end - region_start
        # Per-item latencies go to a binary file: the parent takes each
        # item's median over the passes of a run.
        latencies = array("d", result.pop("latencies_ms"))
        with open(request["latencies"], "wb") as handle:
            latencies.tofile(handle)
        result.setdefault("job_s", [result["wall_s"]])
        problems = workload.check(result) if request.get("checks") else []
        if recorder is not None:
            problems += workload.check_traced(recorder)
            layers.count_dedup_engines(recorder)
            recorder.dump(Path(request["spans"]))
            span_list = recorder.spans()
            result["uncovered_s"] = spans.uncovered(
                span_list, region_start, region_end)
            result["counters"] = dict(recorder.counters)
        result["problems"] = problems
    finally:
        workload.close()
        if installed is not None:
            installed.remove()
    # Fleet workers are reaped by ``close``; their peak adds to the parent's.
    result["peak_rss_mb"] = own_peak + (
        peak_rss_mb(resource.RUSAGE_CHILDREN) if workload.name == "service"
        else 0.0)
    return result


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    request = json.loads(Path(argv[0]).read_text("utf-8"))
    ensure_src_on_path()
    # ``repro.robustness.journal`` imported before ``repro.core`` fails on a
    # circular import inside the package; importing ``repro.core`` first is
    # the order the package's own entry points use.
    import repro.core  # noqa: F401

    mode = request["mode"]
    if mode == "pass":
        result = run_pass(request, started)
    elif mode == "reduce_set":
        from perfbench.workloads import build_reduce_set

        result = build_reduce_set(Path(request["input"]))
        result["build_s"] = time.perf_counter() - started
    elif mode == "direct":
        from perfbench.workloads import direct_expectation

        result = direct_expectation()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
