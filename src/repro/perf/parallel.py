"""Parallel campaign execution over ``concurrent.futures``.

A campaign is embarrassingly parallel across seeds: each seed's fuzz/run
cycle is deterministic given the seed, the target set, and the corpus, and
targets never share state between seeds (reference outcomes are a pure
per-target cache).  We shard the seed sequence into contiguous chunks,
rebuild the harness *inside* each worker from a picklable
:class:`CampaignSpec` (targets hold pass-pipeline objects and corpora hold
IR modules — cheap to reconstruct, wasteful to ship), and merge the
per-seed results back in the exact order the serial loop would have
produced them, so parallel results are byte-identical to serial ones.

``workers=1`` never touches a process pool: callers fall back to the
original serial path.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: Per-process state built once by the pool initializer: the rebuilt harness.
_WORKER_STATE: dict[str, Any] = {}


def default_worker_count() -> int:
    """Worker count used when a caller asks for "all the hardware"."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CampaignSpec:
    """A picklable recipe for rebuilding a campaign harness in a worker.

    Targets and corpus programs are named, not serialized: workers call the
    same deterministic factories (:func:`repro.compilers.make_target`,
    :func:`repro.corpus.reference_programs`, ...) the parent used, so the
    rebuilt harness is behaviourally identical to the original.
    """

    kind: str  #: "core" (transformation harness) | "baseline" (glsl-fuzz)
    target_names: tuple[str, ...]
    reference_names: tuple[str, ...] | None = None  #: None = full corpus, in order
    donor_names: tuple[str, ...] | None = None  #: core only; None = full corpus
    options: Any = None  #: FuzzerOptions (core only; a picklable dataclass)
    rounds: int = 25  #: baseline only
    optimized_flow: bool = True
    robustness: Any = None  #: RobustnessConfig; workers supervise probes too
    #: Trace file path; workers build their own Tracer over it and rely on
    #: O_APPEND line atomicity to share the file with the parent.
    trace: str | None = None
    #: Probe-throughput layer (core only): each worker gets its own
    #: content-hash probe cache / batched probing, mirroring the parent.
    probe_cache: bool = False
    batch_probes: bool = False

    def build(self):
        """Construct a fresh harness equivalent to the one that produced
        this spec."""
        from repro.compilers import make_target

        targets = [make_target(name) for name in self.target_names]
        if self.kind == "core":
            from repro.core.harness import Harness
            from repro.corpus import donor_programs, reference_programs

            references = _select(reference_programs(), self.reference_names)
            donors = _select(donor_programs(), self.donor_names)
            return Harness(
                targets,
                references,
                donors,
                self.options,
                optimized_flow=self.optimized_flow,
                robustness=self.robustness,
                tracer=self.trace,
                probe_cache=self.probe_cache,
                batch_probes=self.batch_probes,
            )
        if self.kind == "baseline":
            from repro.baseline import source_programs
            from repro.baseline.harness import BaselineHarness

            references = _select(source_programs(), self.reference_names)
            return BaselineHarness(
                targets,
                references,
                rounds=self.rounds,
                optimized_flow=self.optimized_flow,
                robustness=self.robustness,
                tracer=self.trace,
            )
        raise ValueError(f"unknown campaign spec kind {self.kind!r}")


def _select(programs: list, names: tuple[str, ...] | None) -> list:
    if names is None:
        return programs
    by_name = {program.name: program for program in programs}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(
            f"programs not in the standard corpus: {missing}; "
            "pass an explicit spec to run custom corpora in parallel"
        )
    return [by_name[name] for name in names]


def spec_names_for(programs: Sequence, factory) -> tuple[str, ...]:
    """Validate that *programs* are drawn from *factory*'s corpus and return
    their names in order (raises ``ValueError`` otherwise — a custom corpus
    cannot be rebuilt by name inside a worker)."""
    known = {program.name for program in factory()}
    names = tuple(program.name for program in programs)
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            "cannot run a parallel campaign over a non-standard corpus "
            f"(unknown programs: {unknown}); run with workers=1 or provide "
            "a custom CampaignSpec"
        )
    return names


def _exit_with_parent() -> None:
    """Pool-worker initializer step: a daemon thread ends this worker once
    its parent dies (a SIGKILLed parent's ``ProcessPoolExecutor`` workers
    would otherwise block on their call queue forever, holding its pipes)."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _init_worker(spec: CampaignSpec) -> None:
    _WORKER_STATE["harness"] = spec.build()


def _init_pool_worker(spec: CampaignSpec) -> None:
    _exit_with_parent()
    _init_worker(spec)


def _run_seed_shard(seeds: Sequence[int]) -> tuple[list, dict | None]:
    """Run one shard; returns ``(per-seed results, metrics delta)``.

    The worker harness accumulates into its own metrics registry; draining
    it per shard ships exactly this shard's increments back to the parent,
    so merged parent metrics equal a serial run's counts no matter how
    shards land on workers.
    """
    harness = _WORKER_STATE["harness"]
    results = [harness.run_seed(seed) for seed in seeds]
    metrics = getattr(harness, "metrics", None)
    return results, metrics.drain() if metrics is not None else None


class ParallelExecutor:
    """Shards a seed sequence across worker processes.

    ``run_seed_shards`` returns one result per seed (whatever the harness's
    ``run_seed`` returns: a ``SeedRun`` for the core harness, a finding list
    for the baseline), **in the original seed order** — chunks are contiguous
    and ``ProcessPoolExecutor.map`` yields in submission order, so the merge
    is a deterministic concatenation regardless of worker scheduling.
    """

    def __init__(self, workers: int | None = None, *, chunks_per_worker: int = 4) -> None:
        from repro.observability import Metrics

        self.workers = workers if workers and workers > 0 else default_worker_count()
        self.chunks_per_worker = max(1, chunks_per_worker)
        #: Worker metric deltas, merged shard by shard; the calling harness
        #: folds this registry into its own after the campaign.
        self.metrics = Metrics()

    def run_seed_shards(
        self,
        spec: CampaignSpec,
        seeds: Sequence[int],
        *,
        on_shard_result: Callable[[list], None] | None = None,
    ) -> list:
        """Run *seeds* sharded across the pool; *on_shard_result* (when
        given) is invoked with each shard's per-seed results as soon as that
        shard is collected, in seed order — the journaling hook.

        A worker that dies hard (OOM-killed, segfaulted) breaks the whole
        ``ProcessPoolExecutor``; instead of letting ``BrokenProcessPool``
        abort the campaign, every shard whose future was lost is re-run
        serially in the parent on a harness rebuilt from *spec*.  Seeds are
        deterministic given the spec, so the recovered results are identical
        to what the lost workers would have produced.
        """
        seeds = list(seeds)
        if not seeds:
            return []
        if self.workers == 1:
            # Serial fallback without a pool: build once, run in-process.
            _init_worker(spec)
            try:
                results, metrics_delta = _run_seed_shard(seeds)
                self.metrics.merge(metrics_delta)
                if on_shard_result is not None:
                    on_shard_result(results)
                return results
            finally:
                _WORKER_STATE.clear()
        shards = self._shard(seeds)
        per_shard: list[list] = []
        fallback_harness = None
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(shards)),
            initializer=_init_pool_worker,
            initargs=(spec,),
        ) as pool:
            futures: list = []
            try:
                for shard in shards:
                    futures.append(pool.submit(_run_seed_shard, shard))
            except BrokenProcessPool:
                pass  # shards without a future fall back below
            for index, shard in enumerate(shards):
                shard_result = None
                if index < len(futures):
                    try:
                        shard_result = futures[index].result()
                    except BrokenProcessPool:
                        shard_result = None
                if shard_result is None:
                    # The pool is gone; recover this shard in-process.
                    if fallback_harness is None:
                        fallback_harness = spec.build()
                    results = [fallback_harness.run_seed(seed) for seed in shard]
                    fallback_metrics = getattr(fallback_harness, "metrics", None)
                    metrics_delta = (
                        fallback_metrics.drain()
                        if fallback_metrics is not None
                        else None
                    )
                else:
                    results, metrics_delta = shard_result
                self.metrics.merge(metrics_delta)
                per_shard.append(results)
                if on_shard_result is not None:
                    on_shard_result(results)
        return [result for shard in per_shard for result in shard]

    def _shard(self, seeds: list[int]) -> list[list[int]]:
        """Contiguous, order-preserving chunks; several per worker so a slow
        chunk (seed cost varies with the variant) cannot serialize the pool."""
        count = min(len(seeds), self.workers * self.chunks_per_worker)
        base, extra = divmod(len(seeds), count)
        shards = []
        position = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            shards.append(seeds[position : position + size])
            position += size
        return shards
