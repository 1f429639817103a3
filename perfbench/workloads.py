"""The workloads: inputs, set-up, the timed pass, and its checks.

Every workload runs the package's default configuration.  One *pass* is one
fresh trial process (see ``trial.py``): :meth:`setup` builds the inputs and
the program objects, :meth:`run` is the timed region, :meth:`check` runs
afterwards, outside the timer.

Why the inputs are fixed pools: per-seed cost is heavy-tailed (most seeds
take about 0.1 s, a few that put calls inside the ``nested_loop_3x4`` loops
take 2-7 s in the interpreter).  Drawing the fuzz seeds from the workload
seed made seeds/s differ by 24-31% (quartile distance over median) between
workload seeds at 126 seeds a run, and reductions/s by more.  So the fuzz
seeds are the first N, the same for every workload seed, and the workload
seed orders them (for the service, which tenant submits first).
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from perfbench import checks
from perfbench.common import WORK, digest

#: Fuzz seeds of the campaign workload: three per reference program.
CAMPAIGN_POOL = tuple(range(63))
#: Fuzz seeds whose findings the reduce workload draws from.
REDUCE_POOL = tuple(range(42))
#: Findings kept per (target, kind) cell of the reduce set.
REDUCE_PER_CELL = 2
#: Fuzz seeds of the service workload, split between two tenants.
SERVICE_POOL = tuple(range(42))
#: Findings each service campaign reduces in its REDUCING phase.
SERVICE_REDUCE = 1
#: The service workload's tenants; each submits one campaign.
TENANTS = ("alice", "bob")


def ordered(pool, seed: int) -> list:
    """*pool* in the order the workload seed gives it."""
    items = list(pool)
    random.Random(seed).shuffle(items)
    return items


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process, or of its largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Free what can be freed and restart this process's peak resident set
    from its current size (Linux ``clear_refs``; elsewhere a no-op)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def default_harness():
    from repro.compilers import make_targets
    from repro.core.harness import Harness
    from repro.corpus import donor_programs, reference_programs

    return Harness(make_targets(), reference_programs(), donor_programs())


def _finding_key(finding) -> list:
    from repro.core.transformation import sequence_to_json

    return [finding.seed, finding.target_name, finding.kind,
            finding.signature, finding.optimized_flow,
            finding.ground_truth_bug,
            sequence_to_json(finding.transformations)]


class Workload:
    name = ""

    def __init__(self, request: dict) -> None:
        self.request = request
        self.seed = request["seed"]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> dict:
        """The timed work.  Returns ``started``/``finished`` clock stamps
        around the program calls, ``items``, ``latencies_ms`` (one per item)
        and the counts the metrics need."""
        raise NotImplementedError

    def check(self, result: dict) -> list[str]:
        return []

    def check_traced(self, recorder) -> list[str]:
        """After a traced run: record the program's own counters beside the
        wrappers' and return where they disagree."""
        return []

    def close(self) -> None:
        pass


class Campaign(Workload):
    name = "campaign"

    def setup(self) -> None:
        self.harness = default_harness()
        self.seeds = ordered(CAMPAIGN_POOL, self.seed)

    def run(self) -> dict:
        stamps: list[float] = []
        started = time.perf_counter()
        self.campaign = self.harness.run_campaign(
            self.seeds, progress=lambda run: stamps.append(time.perf_counter())
        )
        finished = time.perf_counter()
        latencies = [
            1000.0 * (end - begin)
            for begin, end in zip([started] + stamps, stamps)
        ]
        metrics = self.harness.metrics
        findings = self.campaign.findings
        skipped = metrics.counter("skipped_probes")
        return {
            "started": started,
            "finished": finished,
            "items": len(self.seeds),
            "latencies_ms": latencies,
            "work_per_item": metrics.counter("probes") / len(self.seeds),
            "output_len_mean": statistics.mean(
                len(f.transformations) for f in findings) if findings else 0,
            "attempted": metrics.counter("probes") + skipped,
            "failed": metrics.counter("faults") + skipped,
            "digest": digest(sorted(_finding_key(f) for f in findings)),
        }

    def check(self, result: dict) -> list[str]:
        targets = {t.name: t for t in self.harness.targets}
        return checks.ground_truth_enabled(
            [(f.seed, f.target_name, f.kind, f.ground_truth_bug,
              None if f.ground_truth_bug is not None
              else self._clean_build_agrees(f, targets[f.target_name]))
             for f in self.campaign.findings],
            {name: t.enabled_bugs for name, t in targets.items()},
        )

    def _clean_build_agrees(self, finding, target) -> bool:
        """Does the target without its injected bugs give the variant the
        original's result?"""
        import dataclasses

        from repro.compilers.pipeline import optimize
        from repro.core.reducer import replay

        clean = dataclasses.replace(target, enabled_bugs=frozenset())
        ctx = replay(finding.original, finding.inputs, finding.transformations)
        variant = optimize(ctx.module) if finding.optimized_flow else ctx.module
        reference = clean.run(finding.original, finding.inputs)
        outcome = clean.run(variant, ctx.inputs)
        return (reference.result is not None and outcome.result is not None
                and reference.result.agrees_with(outcome.result))

    def check_traced(self, recorder) -> list[str]:
        metrics = self.harness.metrics
        recorder.count("observability.metrics.probes",
                       metrics.counter("probes"))
        recorder.count("observability.metrics.findings",
                       metrics.counter("findings"))
        runs = sum(recorder.counters.get(f"compilers.pipeline.Target.run.{kind}",
                                         0) for kind in ("ok", "crash", "invalid"))
        counted = metrics.counter("probes") + metrics.counter("reference_probes")
        problems = []
        if runs != counted:
            problems.append(
                f"Target.run ran {runs} times; the harness counted {counted}")
        if metrics.counter("findings") != len(self.campaign.findings):
            problems.append("the harness's findings counter differs from "
                            "the findings returned")
        return problems


# -- reduce ------------------------------------------------------------------


def build_reduce_set(path: Path) -> dict:
    """Campaign over :data:`REDUCE_POOL`; keep the first
    :data:`REDUCE_PER_CELL` findings of every (target, kind) cell."""
    from repro.robustness.journal import run_to_record

    harness = default_harness()
    campaign = harness.run_campaign(REDUCE_POOL)
    kept: dict[tuple[str, str], int] = {}
    records = []
    for run in campaign.seed_runs:
        for finding in run.findings:
            cell = (finding.target_name, finding.kind)
            if kept.get(cell, 0) >= REDUCE_PER_CELL:
                continue
            kept[cell] = kept.get(cell, 0) + 1
            record = run_to_record(run)
            record["findings"] = [
                entry for entry in record["findings"]
                if entry["target"] == finding.target_name
            ]
            records.append(record)
    path.write_text(json.dumps(records), encoding="utf-8")
    return {"findings": len(records), "cells": len(kept)}


class Reduce(Workload):
    name = "reduce"

    def setup(self) -> None:
        from repro.robustness.journal import record_to_run

        self.harness = default_harness()
        references = {p.name: p for p in self.harness.references}
        records = json.loads(Path(self.request["input"]).read_text("utf-8"))
        self.findings = ordered(
            [record_to_run(r, references).findings[0] for r in records],
            self.seed,
        )

    def run(self) -> dict:
        latencies = []
        self.results = []
        started = time.perf_counter()
        for finding in self.findings:
            begin = time.perf_counter()
            self.results.append(self.harness.reduce_finding(finding))
            latencies.append(1000.0 * (time.perf_counter() - begin))
        finished = time.perf_counter()
        return {"started": started, "finished": finished,
                **self._summary(latencies)}

    def _summary(self, latencies: list[float]) -> dict:
        from repro.core.transformation import sequence_to_json

        results = self.results
        return {
            "items": len(results),
            "latencies_ms": latencies,
            "work_per_item": statistics.mean(r.tests_run for r in results),
            "output_len_mean": statistics.mean(
                len(r.transformations) for r in results),
            "attempted": len(results),
            "failed": sum(
                1 for r in results if r.timed_out or r.degraded is not None),
            "digest": digest(sorted(
                [f.seed, f.target_name, f.kind,
                 sequence_to_json(r.transformations), r.tests_run]
                for f, r in zip(self.findings, results))),
        }

    def check(self, result: dict) -> list[str]:
        cases = [
            (f"seed {f.seed} {f.target_name} {f.kind}", f.transformations,
             r.transformations, self.harness.make_interestingness_test(f))
            for f, r in zip(self.findings, self.results)
        ]
        return checks.reductions_reproduce(
            cases, minimality=bool(self.request.get("minimality"))
        )

    def check_traced(self, recorder) -> list[str]:
        tests_run = self.harness.metrics.counter("reduction_tests_run")
        recorder.count("observability.metrics.probes", tests_run)
        if tests_run != recorder.counters.get("core.reducer.probes", 0):
            return ["the harness's reduction_tests_run differs from the "
                    "summed tests_run"]
        return []


# -- service -----------------------------------------------------------------


def service_spec():
    from repro.compilers import make_targets
    from repro.core.fuzzer import FuzzerOptions
    from repro.perf.parallel import CampaignSpec

    return CampaignSpec(
        "core", tuple(t.name for t in make_targets()), options=FuzzerOptions()
    )


def service_workers() -> int:
    """One worker per CPU but one, which the parent keeps for fsync and
    polling (at least one)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        cpus = os.cpu_count() or 1
    return max(1, cpus - 1)


def service_chunks() -> dict[str, tuple[int, ...]]:
    """Each tenant's seeds: half the pool each, in seed order (the REDUCING
    phase reduces a campaign's first findings in that order)."""
    half = len(SERVICE_POOL) // 2
    return dict(zip(TENANTS, (SERVICE_POOL[:half], SERVICE_POOL[half:])))


def dedup_picks(result) -> list[dict]:
    """A dedup result's picks, shaped as ``result.json`` lists them."""
    return [{"test": test.test_id, "types": sorted(test.types),
             "nondeterministic": test.nondeterministic}
            for test in result.to_investigate]


def direct_expectation() -> dict:
    """What direct in-process calls give for the service workload's inputs:
    the digest of the seed records (``run_to_record``) and, per tenant, the
    default ``reduce_finding`` of its campaign's first findings and the batch
    ``deduplicate`` picks over those reductions."""
    from repro.core.dedup import ReducedTest, deduplicate
    from repro.robustness.journal import record_to_run, run_to_record

    spec = service_spec()
    campaign = spec.build().run_campaign(list(SERVICE_POOL))
    records = {run.seed: run_to_record(run) for run in campaign.seed_runs}
    expected: dict = {
        "records": digest({str(seed): r for seed, r in records.items()}),
        "tenants": {},
    }
    for tenant, seeds in service_chunks().items():
        harness = spec.build()
        references = {p.name: p for p in harness.references}
        findings = [finding for seed in seeds
                    for finding in record_to_run(records[seed],
                                                 references).findings]
        findings = findings[:SERVICE_REDUCE]
        try:
            results = [harness.reduce_finding(f) for f in findings]
        finally:
            harness.close()
        expected["tenants"][tenant] = {
            "reductions": [
                {"target": f.target_name, "signature": f.signature,
                 "seed": f.seed, "initial_length": r.initial_length,
                 "reduced_length": len(r.transformations),
                 "degraded": r.degraded}
                for f, r in zip(findings, results)
            ],
            "dedup_reduced": dedup_picks(deduplicate([
                ReducedTest.from_reduction(f"reduce-{index}", f, r)
                for index, (f, r) in enumerate(zip(findings, results))
            ])),
        }
    return expected


class Service(Workload):
    name = "service"

    def setup(self) -> None:
        from repro.service import CampaignService, CampaignStore, ServiceConfig
        from repro.service import state as st
        from repro.robustness.journal import CampaignJournal
        from perfbench.spans import Installed

        WORK.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="store-", dir=WORK))
        self.store = CampaignStore(self.directory / "store")
        self.service = CampaignService(
            self.store, ServiceConfig(workers=service_workers())
        )
        # The workload seed decides which tenant submits first.
        self.plan = {
            f"{tenant}-{self.seed}": (tenant, seeds)
            for tenant, seeds in ordered(service_chunks().items(), self.seed)
        }
        self.spec = service_spec()
        # The service exposes no per-seed completion time, so two hooks
        # stamp the durable events: a seed record's journal append and a
        # campaign's DONE transition.
        self.journaled: list[float] = []
        self.done: dict[str, float] = {}
        hooks = Installed()
        append = CampaignJournal.append_record
        transition = type(self.store).transition

        def stamped_append(journal, record):
            append(journal, record)
            self.journaled.append(time.perf_counter())

        def stamped_transition(store, campaign_id, new_state, **fields):
            transition(store, campaign_id, new_state, **fields)
            if new_state == st.DONE:
                self.done[campaign_id] = time.perf_counter()

        hooks.patch(CampaignJournal, "append_record", stamped_append)
        hooks.patch(type(self.store), "transition", stamped_transition)
        self.hooks = hooks
        self.service.start()

    def run(self) -> dict:
        from repro.service import CampaignManifest

        started = time.perf_counter()
        self.rejected = 0
        for campaign_id, (tenant, seeds) in self.plan.items():
            rejection = self.service.submit(CampaignManifest(
                campaign_id=campaign_id, spec=self.spec, seeds=seeds,
                tenant=tenant, reduce=SERVICE_REDUCE,
            ))
            self.rejected += rejection is not None
        self.service.run_until_idle(max_seconds=150.0)
        finished = time.perf_counter()
        self.results = {cid: self.store.read_result(cid) or {}
                        for cid in self.plan}
        seeds = sum(len(chunk) for _, chunk in self.plan.values())
        reductions = [entry["reduced_length"]
                      for stored in self.results.values()
                      for entry in stored.get("reductions", [])]
        stored_bytes = sum(
            path.stat().st_size
            for path in self.store.root.rglob("*") if path.is_file()
        )
        not_done = sum(
            1 for campaign_id in self.plan if campaign_id not in self.done)
        return {
            "started": started,
            "finished": finished,
            "items": seeds,
            "latencies_ms": sorted(
                1000.0 * (t - started) for t in self.journaled),
            "job_s": [t - started for t in self.done.values()],
            "work_per_item": stored_bytes / seeds,
            "output_len_mean": statistics.mean(reductions)
            if reductions else 0,
            "attempted": len(self.plan),
            "failed": not_done + self.rejected,
            # result.json holds no timestamps: findings, reductions and
            # both dedup blocks must repeat on every pass.
            "digest": digest({
                tenant: [self.store.state(cid), self.results[cid]]
                for cid, (tenant, _) in self.plan.items()
            }),
        }

    def check(self, result: dict) -> list[str]:
        from repro.core.dedup import deduplicate
        from repro.core.dedup_scale import reduced_tests_from_record
        from repro.robustness.journal import CampaignJournal

        expected = self.request["direct"]
        problems: list[str] = []
        records: dict[str, dict] = {}
        for campaign_id, (tenant, seeds) in self.plan.items():
            journaled = CampaignJournal(
                self.store.journal_path(campaign_id)).load_records()
            records.update(
                {str(seed): record for seed, record in journaled.items()})
            stored = self.results[campaign_id]
            live = deduplicate([
                test for seed in seeds
                for test in reduced_tests_from_record(journaled.get(seed, {}))
            ])
            problems += checks.dedup_picks(
                f"{campaign_id} live dedup",
                stored.get("dedup", {}).get("picks"), dedup_picks(live))
            direct = expected["tenants"][tenant]
            problems += checks.dedup_picks(
                f"{campaign_id} reduced dedup",
                stored.get("dedup_reduced", {}).get("picks"),
                direct["dedup_reduced"])
            if stored.get("reductions") != direct["reductions"]:
                problems.append(
                    f"{campaign_id}: reductions differ from a direct "
                    "reduce_finding of the same findings")
        return checks.service_outcome(
            {cid: self.store.state(cid) for cid in self.plan},
            self.store.check_all(),
            digest(records),
            expected["records"],
        ) + problems

    def close(self) -> None:
        self.service.shutdown()
        self.hooks.remove()
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Campaign, Reduce, Service)}
