"""The pipeline against real findings: never worse than the pre-pipeline
ddmin → payload-shrink → spirv-cleanup chain, worker-count invariant, and
wired through ``Harness.reduce_finding`` / ``reduce_all``."""

from __future__ import annotations

import pytest

from repro.compilers import make_targets
from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.core.reducer import (
    reduce_transformations,
    shrink_add_function_payloads,
    spirv_reduce,
)
from repro.corpus import donor_programs, reference_programs
from repro.reduce import DEFAULT_PASS_NAMES


@pytest.fixture(scope="module")
def campaign():
    harness = Harness(
        make_targets(),
        reference_programs(),
        donor_programs(),
        FuzzerOptions(max_transformations=100),
    )
    result = harness.run_campaign(range(10))
    assert result.findings, "a 10-seed campaign should find something"
    return harness, result


class TestPipelineVsChain:
    def test_never_larger_than_the_prepipeline_chain(self, campaign):
        harness, result = campaign
        for finding in result.findings[:3]:
            test = harness.make_interestingness_test(finding)
            chain = shrink_add_function_payloads(
                reduce_transformations(finding.transformations, test)
                .transformations,
                test,
            )
            module, module_verdict = harness.make_probe_test(
                finding
            ).module_probe(chain.transformations)
            cleaned = spirv_reduce(
                module, lambda candidate: module_verdict(candidate).interesting
            )
            piped = harness.reduce_finding(finding, passes=DEFAULT_PASS_NAMES)
            assert len(piped.transformations) <= len(chain.transformations)
            if piped.cleaned_module is not None:
                piped_insts = sum(
                    1 for _ in piped.cleaned_module.all_instructions()
                )
                chain_insts = sum(
                    1 for _ in cleaned.module.all_instructions()
                )
                assert piped_insts <= chain_insts
            # Still interesting, like any reduction.
            assert test(piped.transformations)

    def test_per_pass_stats_cover_the_pipeline(self, campaign):
        harness, result = campaign
        finding = result.findings[0]
        piped = harness.reduce_finding(finding, passes=DEFAULT_PASS_NAMES)
        assert [s.name for s in piped.pass_stats] == list(DEFAULT_PASS_NAMES)
        ddmin = next(s for s in piped.pass_stats if s.name == "ddmin")
        assert ddmin.runs >= 1 and ddmin.probes > 0


class TestWorkerInvariance:
    def test_one_and_two_workers_agree(self, campaign):
        harness, result = campaign
        finding = result.findings[0]
        serial = harness.reduce_finding(
            finding, passes=DEFAULT_PASS_NAMES, workers=1
        )
        parallel = harness.reduce_finding(
            finding, passes=DEFAULT_PASS_NAMES, workers=2
        )
        assert parallel.transformations == serial.transformations
        assert parallel.tests_run == serial.tests_run
        assert parallel.history == serial.history
        assert [s.to_json() for s in parallel.pass_stats] == [
            s.to_json() for s in serial.pass_stats
        ]


class TestReduceAll:
    def test_reduce_all_routes_through_the_pipeline(self, campaign):
        harness, result = campaign
        reductions = harness.reduce_all(
            result.findings[:2], passes=("type-batch", "ddmin")
        )
        assert len(reductions) == 2
        for reduction in reductions:
            assert [s.name for s in reduction.pass_stats] == [
                "type-batch",
                "ddmin",
            ]
