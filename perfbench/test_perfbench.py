"""Self-tests of the benchmark: its checks, its error counts and its tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json

import pytest

from perfbench import checks, layers, run, spans
from perfbench.common import ROOT, ensure_src_on_path, tail

ensure_src_on_path()
import repro.core  # noqa: E402,F401  (package import order; see trial.py)


@pytest.fixture(scope="module")
def campaign():
    """A three-seed default campaign, enough for several findings."""
    from perfbench.workloads import Campaign

    workload = Campaign({"seed": 0})
    workload.setup()
    workload.seeds = [0, 1, 2]
    result = workload.run()
    assert workload.campaign.findings, "expected findings from seeds 0-2"
    return workload, result


def test_campaign_checks_reject_dropped_finding_and_wrong_blame(campaign):
    from perfbench.common import digest
    from perfbench.workloads import _finding_key

    workload, result = campaign
    assert workload.check(result) == []
    findings = workload.campaign.findings
    full = digest(sorted(_finding_key(f) for f in findings))
    dropped = digest(sorted(_finding_key(f) for f in findings[1:]))
    assert full == result["digest"]
    assert checks.repeats("digest", [full, full]) == []
    assert checks.repeats("digest", [full, dropped])

    seed, target = findings[0].seed, findings[0].target_name
    planted = [(seed, target, "crash", "no-such-bug", None)]
    enabled = {t.name: t.enabled_bugs for t in workload.harness.targets}
    assert checks.ground_truth_enabled(planted, enabled)
    unattributed = [(seed, target, "miscompilation", None, False)]
    assert checks.ground_truth_enabled(unattributed, enabled)


@pytest.fixture(scope="module")
def reduction(campaign):
    workload, _ = campaign
    finding = min(workload.campaign.findings,
                  key=lambda f: len(f.transformations))
    result = workload.harness.reduce_finding(finding)
    test = workload.harness.make_interestingness_test(finding)
    return workload.harness, finding, result, test


def test_reduce_check_rejects_altered_sequences(reduction):
    _, finding, result, test = reduction
    initial, reduced = finding.transformations, result.transformations

    def problems(sequence, minimality=False):
        return checks.reductions_reproduce(
            [("planted", initial, sequence, test)], minimality=minimality)

    assert problems(reduced, minimality=True) == []
    assert problems(reduced[1:])  # 1-minimal: dropping one no longer works
    assert problems(list(initial) + list(reduced))  # longer than its input
    if len(initial) > len(reduced) and test(list(initial)):
        assert problems(list(initial), minimality=True)  # not 1-minimal


def test_error_rate_counts_degraded_reduction(reduction):
    from perfbench.workloads import Reduce

    harness, finding, _, _ = reduction
    workload = Reduce({"seed": 0})
    workload.harness, workload.findings = harness, [finding]
    workload.results = [harness.reduce_finding(finding, max_seconds=0)]
    summary = workload._summary([1.0])
    assert workload.results[0].timed_out
    assert (summary["attempted"], summary["failed"]) == (1, 1)


def test_service_check_rejects_unfinished_or_diverged_campaign():
    assert checks.service_outcome({"a": "DONE"}, [], "x", "x") == []
    assert checks.service_outcome({"a": "FAILED"}, [], "x", "x")
    assert checks.service_outcome({"a": "DONE"}, ["torn meta"], "x", "x")
    assert checks.service_outcome({"a": "DONE"}, [], "x", "y")


def test_dedup_check_rejects_extra_or_overlapping_pick():
    picks = [
        {"test": "a", "types": ["T1"], "nondeterministic": False},
        {"test": "b", "types": ["T2", "T3"], "nondeterministic": False},
        {"test": "c", "types": ["T1"], "nondeterministic": True},
    ]
    assert checks.dedup_picks("planted", picks, picks) == []
    extra = picks + [{"test": "d", "types": ["T4"], "nondeterministic": False}]
    assert checks.dedup_picks("planted", extra, picks)
    overlapping = picks + [
        {"test": "e", "types": ["T3", "T5"], "nondeterministic": False}]
    assert len(checks.dedup_picks("planted", overlapping, overlapping)) == 1


def test_self_time_on_synthetic_span_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: their union covers 5 s of root
        ("a.child", 1.5, 2.0, 1),
        ("late-root", 11.0, 12.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.5, 3.0, 0.5, 1.0])
    assert spans.uncovered(tree, -1.0, 12.0) == pytest.approx(2.0)
    totals = spans.aggregate(tree)
    assert totals["a"] == pytest.approx(
        {"calls": 1, "wall_s": 3.0, "self_s": 2.5})


def test_recorder_nests_spans_and_restores_originals():
    from repro.compilers import make_target
    from repro.compilers.pipeline import Target
    from repro.corpus import reference_programs

    original = Target.__dict__["run"]
    recorder = spans.SpanRecorder()
    installed = spans.install(recorder, layers.patch_points())
    try:
        program = reference_programs()[0]
        recorder.enabled = True
        make_target("SwiftShader").run(program.module, program.inputs)
        recorder.enabled = False
    finally:
        installed.remove()
    assert Target.__dict__["run"] is original
    names = [name for name, *_ in recorder.spans()]
    assert names[0] == "compilers.pipeline.Target.run"
    assert "interp.execute" in names
    assert all(parent == 0 for _, _, _, parent in recorder.spans()[1:2])
    assert recorder.counters["compilers.pipeline.Target.run.ok"] == 1


def test_end_to_end_times_are_scaled_by_each_pass_calibration():
    def fake_pass(slowdown, scale):
        return {"setup_s": 0.5 * slowdown, "items": 10, "wall_s": 2 * slowdown,
                "latencies_ms": [100.0 * slowdown] * 12,
                "job_s": [2 * slowdown], "peak_rss_mb": 30.0,
                "work_per_item": 7.0, "output_len_mean": 3.0, "scale": scale}

    reference = run.end_to_end([fake_pass(1.0, 1.0)] * 5)
    # The same work on a machine half as fast: twice the raw times, and a
    # calibration walk twice as slow.
    slow = run.end_to_end([fake_pass(2.0, 0.5)] * 5)
    assert slow == pytest.approx(reference)
    assert reference["items_per_s"] == pytest.approx(5.0)
    assert reference["item_ms_p50"] == pytest.approx(100.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == layers.PER_LAYER
