"""Which layers the traced run measures, and where each is patched.

:data:`PER_LAYER` lists the per-layer metrics in the order
``BENCHMARK.json`` declares them.  The layer → end-to-end map (which
end-to-end metric each layer should move, on which workload) is in
``perfbench/README.md``.
"""

from __future__ import annotations

#: Pass modules under ``repro.compilers.passes`` and their classes.
PASSES = (
    ("legalize", "LegalizePass"),
    ("mem2reg", "Mem2RegPass"),
    ("copyprop", "CopyPropagationPass"),
    ("constfold", "ConstantFoldingPass"),
    ("simplify_cfg", "SimplifyCfgPass"),
    ("inline", "InlinePass"),
    ("dce", "DeadCodeEliminationPass"),
    ("layout", "BlockLayoutPass"),
)

#: Spans whose call count and self time are reported.
SPANS = (
    ["core.fuzzer.Fuzzer.run", "ir.module.Module.clone"]
    + [f"compilers.passes.{module}.run" for module, _ in PASSES]
    + [
        "compilers.pipeline.Target.run",
        "compilers.pipeline.optimize",
        "ir.validator.validate",
        "interp.execute",
        "core.transformation.apply_sequence",
        "core.reducer.reduce_transformations",
        "core.harness.Harness.reduce_finding",
        "core.harness.Harness.run_seed",
        "core.harness.Harness.run_campaign",
        "core.dedup_scale.StreamingDedup.ingest",
        "service.engine.CampaignService.step",
        "service.engine.CampaignService.submit",
        "service.store.CampaignStore.transition",
        "service.store.CampaignStore.write_result",
        "robustness.journal.CampaignJournal.append_record",
        "robustness.journal.ReductionJournal.append",
    ]
)

#: Further per-layer metrics: (name, unit, better).
EXTRA = [
    ("core.fuzzer.transformations", "count", "higher"),
    ("compilers.pipeline.Target.run.ok", "count", "lower"),
    ("compilers.pipeline.Target.run.crash", "count", "lower"),
    ("compilers.pipeline.Target.run.invalid", "count", "lower"),
    ("core.transformation.applied", "count", "lower"),
    ("perf.replay_cache.prefix_hit_ratio", "ratio", "higher"),
    ("perf.replay_cache.memo_hit_ratio", "ratio", "higher"),
    ("perf.replay_cache.transformations_saved", "count", "higher"),
    ("core.reducer.probes", "count", "lower"),
    ("core.reducer.accept_ratio", "ratio", "higher"),
    ("core.dedup_scale.comparisons_per_candidate", "ratio", "lower"),
    ("core.dedup_scale.sketch.suppressions", "count", "higher"),
    ("service.fleet.WorkerFleet.send_batch.calls", "count", "lower"),
    ("service.fleet.WorkerFleet.poll.calls", "count", "lower"),
    ("service.fleet.poll.wait_s", "s", "lower"),
    ("robustness.journal.CampaignJournal.append_record.bytes", "B", "lower"),
    ("robustness.journal.ReductionJournal.append.bytes", "B", "lower"),
    ("observability.metrics.probes", "count", "lower"),
    ("observability.metrics.findings", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Every per-layer metric: (name, unit, better), in ``BENCHMARK.json`` order.
PER_LAYER = [
    entry
    for name in SPANS
    for entry in ((f"{name}.calls", "count", "lower"),
                  (f"{name}.self_s", "s", "lower"))
] + EXTRA


def patch_points() -> list[tuple[object, str, str | None, object]]:
    """``(owner, attribute, span name, after-hook)`` for :func:`spans.install`.

    Each owner is the object the caller looks the name up on.  A span name
    of ``None`` marks the byte counter on ``FileOps.write``.
    """
    import multiprocessing.connection

    import repro.compilers.passes as passes
    import repro.compilers.pipeline as pipeline
    import repro.core.harness as harness
    import repro.core.reducer as reducer
    import repro.perf.replay_cache as replay_cache
    from repro.core.dedup_scale import StreamingDedup
    from repro.core.fuzzer import Fuzzer
    from repro.ir.module import Module
    from repro.robustness.chaos import FileOps
    from repro.robustness.journal import CampaignJournal, ReductionJournal
    from repro.service.engine import CampaignService
    from repro.service.fleet import WorkerFleet
    from repro.service.store import CampaignStore

    points = [
        (Fuzzer, "run", "core.fuzzer.Fuzzer.run", _after_fuzz),
        (Module, "clone", "ir.module.Module.clone", None),
    ]
    for module, cls in PASSES:
        points.append(
            (getattr(passes, cls), "run", f"compilers.passes.{module}.run",
             None)
        )
    points += [
        (pipeline.Target, "run", "compilers.pipeline.Target.run",
         _after_target),
        # Harness binds ``optimize`` when it is built; trials install the
        # wrappers before building one.
        (harness, "optimize", "compilers.pipeline.optimize", None),
        (pipeline, "validate", "ir.validator.validate", None),
        (pipeline, "execute", "interp.execute", None),
        (replay_cache, "apply_sequence", "core.transformation.apply_sequence",
         _after_apply),
        (reducer, "apply_sequence", "core.transformation.apply_sequence",
         _after_apply),
        (harness, "reduce_transformations",
         "core.reducer.reduce_transformations", None),
        (harness.Harness, "reduce_finding",
         "core.harness.Harness.reduce_finding", _after_reduce),
        (harness.Harness, "run_seed", "core.harness.Harness.run_seed", None),
        (harness.Harness, "run_campaign", "core.harness.Harness.run_campaign",
         None),
        (StreamingDedup, "ingest", "core.dedup_scale.StreamingDedup.ingest",
         _after_ingest),
        (CampaignService, "step", "service.engine.CampaignService.step",
         None),
        (CampaignService, "submit", "service.engine.CampaignService.submit",
         None),
        (WorkerFleet, "send_batch", "service.fleet.WorkerFleet.send_batch",
         None),
        (WorkerFleet, "poll", "service.fleet.WorkerFleet.poll", None),
        (multiprocessing.connection, "wait", "service.fleet.poll.wait", None),
        (CampaignStore, "transition",
         "service.store.CampaignStore.transition", None),
        (CampaignStore, "write_result",
         "service.store.CampaignStore.write_result", None),
        (CampaignJournal, "append_record",
         "robustness.journal.CampaignJournal.append_record", None),
        (ReductionJournal, "append",
         "robustness.journal.ReductionJournal.append", None),
        (FileOps, "write", None, None),
    ]
    return points


# -- after-hooks: counts read off return values --------------------------------


def _after_fuzz(recorder, args, result) -> None:
    recorder.count("core.fuzzer.transformations", len(result.transformations))


def _after_target(recorder, args, outcome) -> None:
    recorder.count(f"compilers.pipeline.Target.run.{outcome.kind.value}")


def _after_apply(recorder, args, applied) -> None:
    recorder.count("core.transformation.applied", sum(applied))


def _after_reduce(recorder, args, result) -> None:
    recorder.count("core.reducer.probes", result.tests_run)
    recorder.count("core.reducer.chunks_removed", result.chunks_removed)
    stats = result.replay_stats
    if stats is not None:
        for field in ("requests", "memo_hits", "replays", "prefix_hits",
                      "transformations_saved"):
            recorder.count(f"perf.replay_cache.{field}", getattr(stats, field))


def _after_ingest(recorder, args, action) -> None:
    recorder.seen[id(args[0])] = args[0]


def count_dedup_engines(recorder) -> None:
    """Fold the comparison and sketch counters of every traced dedup engine
    into the recorder's counters."""
    for engine in recorder.seen.values():
        stats = engine.stats
        recorder.count("core.dedup_scale.candidates", stats.candidates)
        recorder.count("core.dedup_scale.comparisons", stats.comparisons)
        recorder.count("core.dedup_scale.sketch.suppressions",
                       stats.sketch_suppressions)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list, counters: dict, *, wall: float, untraced_wall: float,
    uncovered: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from a traced trial's spans/counters.

    An :data:`EXTRA` metric is the counter of the same name unless it is
    derived below.
    """
    from perfbench.spans import aggregate

    totals = aggregate(spans)
    values: dict[str, float] = {}
    for name in SPANS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    get = lambda key: counters.get(key, 0)  # noqa: E731
    span = lambda name, key: totals.get(name, {}).get(key, 0)  # noqa: E731
    derived = {
        "perf.replay_cache.prefix_hit_ratio": _ratio(
            get("perf.replay_cache.prefix_hits"),
            get("perf.replay_cache.replays")),
        "perf.replay_cache.memo_hit_ratio": _ratio(
            get("perf.replay_cache.memo_hits"),
            get("perf.replay_cache.requests")),
        "core.reducer.accept_ratio": _ratio(
            get("core.reducer.chunks_removed"), get("core.reducer.probes")),
        "core.dedup_scale.comparisons_per_candidate": _ratio(
            get("core.dedup_scale.comparisons"),
            get("core.dedup_scale.candidates")),
        "service.fleet.WorkerFleet.send_batch.calls": span(
            "service.fleet.WorkerFleet.send_batch", "calls"),
        "service.fleet.WorkerFleet.poll.calls": span(
            "service.fleet.WorkerFleet.poll", "calls"),
        "service.fleet.poll.wait_s": span("service.fleet.poll.wait", "wall_s"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead": _ratio(wall, untraced_wall) - 1.0
        if untraced_wall else 0.0,
        "trace.uncovered_s": uncovered,
        "trace.spans": len(spans),
    }
    for name, _, _ in EXTRA:
        values[name] = derived[name] if name in derived else get(name)
    return values
