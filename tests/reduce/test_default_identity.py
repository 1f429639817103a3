"""The default ``reduce_finding`` is the paper's delta debugging (§3.4).

``reduce_finding`` always runs the pass pipeline; with its default pass
list, ``("ddmin",)``, it must return exactly what the reference reducer
:func:`~repro.core.reducer.reduce_transformations` returns over the
finding's interestingness test — on every finding of a real campaign, in
every execution mode.
"""

from __future__ import annotations

import pytest

from repro.compilers import make_targets
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.core.reducer import reduce_transformations
from repro.core.transformation import sequence_to_json
from repro.corpus import donor_programs, reference_programs


@pytest.fixture(scope="module")
def reduced():
    """Every finding of a small campaign over all nine targets, with its
    reference reduction."""
    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=40),
    )
    findings = harness.run_campaign(range(4)).findings
    kinds = {finding.kind for finding in findings}
    assert kinds == {"crash", "invalid-ir", "miscompilation"}, kinds
    references = [
        reduce_transformations(
            finding.transformations, harness.make_interestingness_test(finding)
        )
        for finding in findings
    ]
    return harness, findings, references


def _assert_same(result, reference):
    assert sequence_to_json(result.transformations) == sequence_to_json(
        reference.transformations
    )
    assert result.tests_run == reference.tests_run
    assert result.history == reference.history
    assert result.chunks_removed == reference.chunks_removed
    assert result.degraded is None


def test_default_reduction_is_the_reference_reducer(reduced):
    harness, findings, references = reduced
    for finding, reference in zip(findings, references):
        result = harness.reduce_finding(finding)
        _assert_same(result, reference)
        assert [s.name for s in result.pass_stats] == ["ddmin"]


def test_two_workers_match_the_reference_reducer(reduced):
    harness, findings, references = reduced
    for finding, reference in zip(findings, references):
        _assert_same(harness.reduce_finding(finding, workers=2), reference)


def test_journaled_resumable_reduction_matches_the_reference_reducer(
    reduced, tmp_path
):
    harness, findings, references = reduced
    for index, (finding, reference) in enumerate(zip(findings, references)):
        result = harness.reduce_finding(
            finding, journal=tmp_path / f"reduce-{index}.jsonl", resume=True
        )
        _assert_same(result, reference)


@pytest.mark.parametrize("fault_tolerant", [False, True])
def test_reduce_all_fleet_matches_reduce_finding(reduced, fault_tolerant):
    from repro.robustness import ReductionPolicy

    harness, findings, references = reduced
    policy = ReductionPolicy() if fault_tolerant else None
    fleet = harness.reduce_all(findings, workers=2, policy=policy)
    for result, reference, finding in zip(fleet, references, findings):
        _assert_same(result, reference)
        serial = harness.reduce_finding(finding, policy=policy)
        assert result.to_json() == serial.to_json()
