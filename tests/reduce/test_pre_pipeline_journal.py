"""Reduction journals in the pre-pipeline format still resume.

Before every reduction ran through the pass pipeline, a reduction journal
held a header and one record per decision, keyed by the unscoped candidate
content key, with no pipeline config record.  The fixtures in ``data/``
were written in that format by that reducer, for the first finding of the
campaign below (seed 0, a 36-transformation SwiftShader crash):

* ``pre_pipeline_reduce_journal.jsonl`` — the complete journal (a header
  and 18 decisions);
* ``pre_pipeline_reduce_result.json`` — its ``ReductionResult.to_json()``.

The pipeline cannot match unscoped keys to its pass-scoped ones, so a
resume re-probes what the old records decided, appends its config record
and pass-scoped records after them, and reaches the same result.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.fuzzer import FuzzerOptions
from repro.core.harness import Harness
from repro.perf.parallel import CampaignSpec
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
)
from repro.service import state as st

DATA = Path(__file__).parent / "data"
OLD_JOURNAL = DATA / "pre_pipeline_reduce_journal.jsonl"
OLD_RESULT = json.loads((DATA / "pre_pipeline_reduce_result.json").read_text())

SPEC = CampaignSpec(
    kind="core",
    target_names=("SwiftShader", "NVIDIA"),
    reference_names=("arith_mix_0", "loop_sum_5"),
    donor_names=("donor_math_0",),
    options=FuzzerOptions(max_transformations=40),
)


def _old_journal(path: Path, lines: int) -> str:
    """Write the fixture's first *lines* lines to *path*; return them."""
    text = "".join(OLD_JOURNAL.read_text().splitlines(keepends=True)[:lines])
    path.write_text(text)
    return text


@pytest.fixture(scope="module")
def harness_and_finding():
    harness = SPEC.build()
    finding = harness.run_campaign(range(1)).findings[0]
    assert (finding.seed, finding.target_name, finding.kind) == (
        0,
        "SwiftShader",
        "crash",
    )
    yield harness, finding
    harness.close()


def _without_passes(result) -> dict:
    data = result.to_json()
    data.pop("passes")
    return data


@pytest.mark.parametrize("lines", [9, 19], ids=["killed", "complete"])
def test_pre_pipeline_journal_resumes_to_the_same_result(
    harness_and_finding, tmp_path, lines
):
    harness, finding = harness_and_finding
    fresh = harness.reduce_finding(
        finding, journal=tmp_path / "fresh.jsonl", resume=True
    )
    assert _without_passes(fresh) == OLD_RESULT

    journal = tmp_path / "old.jsonl"
    old_text = _old_journal(journal, lines)
    resumed = harness.reduce_finding(finding, journal=journal, resume=True)
    assert resumed.to_json() == fresh.to_json()
    assert resumed.history == fresh.history
    # The old records stay; the pipeline's config and decisions follow.
    upgraded = journal.read_text()
    assert upgraded.startswith(old_text)
    assert upgraded[len(old_text):] == "".join(
        (tmp_path / "fresh.jsonl").read_text().splitlines(keepends=True)[1:]
    )

    # The upgraded journal now resumes from its own records alone.
    again = harness.reduce_finding(finding, journal=journal, resume=True)
    assert again.to_json() == fresh.to_json()
    assert journal.read_text() == upgraded


class _Killed(BaseException):
    """Stands in for a SIGKILL: escapes the engine's ``except Exception``."""


def _service(root: Path) -> CampaignService:
    return CampaignService(
        CampaignStore(root),
        ServiceConfig(workers=1, batch_size=2, poll_interval=0.02),
    )


def test_service_recovered_in_reducing_with_a_pre_pipeline_journal(
    tmp_path, monkeypatch
):
    manifest = CampaignManifest("c1", SPEC, (0, 1), reduce=1)

    baseline = _service(tmp_path / "baseline")
    baseline.start()
    try:
        baseline.submit(manifest)
        baseline.run_until_idle(max_seconds=120)
    finally:
        baseline.shutdown()
    assert baseline.store.state("c1") == st.DONE
    expected = baseline.store.read_result("c1")
    assert len(expected["reductions"]) == 1

    def killed_mid_reduction(self, finding, *, journal, **kwargs):
        _old_journal(Path(journal), 9)
        raise _Killed

    first = _service(tmp_path / "store")
    first.start()
    try:
        first.submit(manifest)
        with monkeypatch.context() as patch:
            patch.setattr(Harness, "reduce_finding", killed_mid_reduction)
            with pytest.raises(_Killed):
                first.run_until_idle(max_seconds=120)
    finally:
        first.shutdown()
    assert first.store.state("c1") == st.REDUCING
    journal = first.store.reduce_journal_path("c1", 0)
    old_text = journal.read_text()

    second = _service(tmp_path / "store")
    second.start()
    try:
        assert second._recovered == ["c1"]
        second.run_until_idle(max_seconds=120)
    finally:
        second.shutdown()
    assert second.store.state("c1") == st.DONE
    assert second.store.check_all() == []
    assert second.store.read_result("c1") == expected
    assert journal.read_text().startswith(old_text)
