"""Every ddmin leg runs on one executor: the speculative engine driven by
``run_sessions``, over a worker pool or the in-process ``InlinePool``.

* ``data/parent_fault_reduce.json`` pins the fault-path results from before
  the executors were unified: for the first finding of each kind in the
  campaign below, the ``reduce_finding(journal=…)`` journal text and
  ``to_json()`` at ``workers=1`` and ``workers=2``, written by the reducer
  that still ran serial fault legs through ``reduce_transformations``.
  Both must reproduce byte for byte.
* The pipeline honours ``ReductionPolicy.max_seconds``.
* ``probe_batch`` applies to fault-mode pool sessions too.
* Fault-mode ``workers > 1`` without a caller pool builds its own pool.
* The inline executor re-raises the oracle's own exception.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.compilers import make_targets
from repro.core.fuzzer import FuzzerOptions
from repro.perf.parallel import CampaignSpec
from repro.reduce import PassPipeline, PipelineContext
from repro.robustness import ProbeVerdict, ReductionPolicy

from tests.reduce.ddmin import run_ddmin

PARENT = json.loads((Path(__file__).parent / "data" / "parent_fault_reduce.json").read_text())

SPEC = CampaignSpec(
    kind="core",
    target_names=tuple(t.name for t in make_targets()),
    reference_names=("arith_mix_0", "loop_sum_5"),
    donor_names=("donor_math_0",),
    options=FuzzerOptions(max_transformations=30),
)

ITEMS = list(range(40))
POLICY = ReductionPolicy(retry_backoff=0.0)


@dataclass(frozen=True)
class Needles:
    needles: frozenset

    def __call__(self, candidate) -> ProbeVerdict:
        return ProbeVerdict(self.needles <= set(candidate))


@pytest.fixture(scope="module")
def harness_and_findings():
    harness = SPEC.build()
    firsts: dict = {}
    for finding in harness.run_campaign(range(PARENT["seeds"])).findings:
        firsts.setdefault(finding.kind, finding)
    findings = [firsts[kind] for kind in sorted(firsts)]
    assert [(f.seed, f.target_name, f.kind) for f in findings] == [
        (entry["seed"], entry["target"], entry["kind"])
        for entry in PARENT["findings"]
    ]
    yield harness, findings
    harness.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_fault_path_reproduces_the_parent_byte_for_byte(
    harness_and_findings, tmp_path, workers
):
    harness, findings = harness_and_findings
    for index, (finding, entry) in enumerate(zip(findings, PARENT["findings"])):
        journal = tmp_path / f"{index}-{workers}.jsonl"
        result = harness.reduce_finding(finding, journal=journal, workers=workers)
        expected = entry["runs"][str(workers)]
        assert journal.read_text(encoding="utf-8") == expected["journal"]
        assert result.to_json() == expected["result"]


def test_fault_mode_probe_batch_matches_serial(harness_and_findings, tmp_path):
    harness, findings = harness_and_findings
    before = harness.metrics.counter("probe_batch.batches")
    for index, finding in enumerate(findings):
        serial_journal = tmp_path / f"serial-{index}.jsonl"
        batched_journal = tmp_path / f"batched-{index}.jsonl"
        serial = harness.reduce_finding(finding, journal=serial_journal)
        batched = harness.reduce_finding(
            finding, journal=batched_journal, workers=2, probe_batch=4
        )
        assert batched.to_json() == serial.to_json()
        assert batched_journal.read_bytes() == serial_journal.read_bytes()
        assert batched.speculation.mode == "pool"
    assert harness.metrics.counter("probe_batch.batches") > before


class SlowNeedles(Needles):
    def __call__(self, candidate) -> ProbeVerdict:
        time.sleep(0.01)
        return super().__call__(candidate)


def test_pipeline_honours_the_policy_budget():
    started = time.monotonic()
    result = PassPipeline(["ddmin"]).run(
        ITEMS,
        PipelineContext(
            verdict_test=SlowNeedles(frozenset({3, 17, 38})),
            policy=ReductionPolicy(retry_backoff=0.0, max_seconds=0.1),
        ),
    )
    elapsed = time.monotonic() - started
    assert result.degraded == "budget-exhausted"
    assert result.timed_out is True
    assert {3, 17, 38} <= set(result.transformations)
    assert elapsed < 5.0


def test_fault_mode_workers_build_their_own_pool():
    oracle = Needles(frozenset({3, 17, 38}))
    serial = run_ddmin(ITEMS, verdict_test=oracle, policy=POLICY)
    pooled = PassPipeline(["ddmin"]).run(
        ITEMS, PipelineContext(verdict_test=oracle, policy=POLICY, workers=2)
    )
    assert serial.speculation.mode == "inline"
    assert pooled.speculation.mode == "pool"
    assert pooled.speculation.workers == 2
    assert pooled.to_json() == serial.to_json()


@dataclass(frozen=True)
class Exploding:
    """Raises its own exception type once candidates shrink below 30."""

    def __call__(self, candidate):
        if len(candidate) < 30:
            raise KeyError("oracle exploded")
        return ProbeVerdict(3 in candidate)


def test_inline_executor_reraises_the_oracles_own_exception():
    with pytest.raises(KeyError):
        run_ddmin(ITEMS, is_interesting=lambda c: Exploding()(c).interesting)


@pytest.mark.parametrize("workers", [1, 2])
def test_fault_mode_names_the_oracles_exception(workers):
    result = run_ddmin(ITEMS, workers=workers, verdict_test=Exploding(), policy=POLICY)
    assert result.degraded == "oracle-error: KeyError"
    assert 3 in result.transformations
