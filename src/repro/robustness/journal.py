"""Campaign and reduction journals: JSONL records enabling checkpoint/resume.

``Harness.run_campaign(journal=...)`` appends one self-contained JSON line
per completed seed; ``resume=True`` replays those records instead of
re-fuzzing, so a campaign killed mid-run (even by ``SIGKILL``) restarts
where it left off and yields a :class:`~repro.core.harness.CampaignResult`
identical to an uninterrupted run.

Record shape (one per line)::

    {"v": 1, "seed": 3, "program": "loops_nested", "transformation_count": 41,
     "skipped_targets": [...], "faults": [["NVIDIA", "timeout"], ...],
     "findings": [{"target": ..., "signature": ..., "kind": ...,
                   "optimized_flow": ..., "nondeterministic": ...,
                   "ground_truth_bug": ..., "inputs": {...},
                   "transformations": [...]}]}

Findings reference their original program *by name* (as
:class:`~repro.perf.parallel.CampaignSpec` does) — the loader rebuilds the
module from the harness's reference corpus, so journal files stay small and
the resumed findings are behaviourally identical to freshly computed ones.
Both journals are record schemas over one
:class:`~repro.robustness.sealed.SealedLog`.  A line torn by an untimely
kill is cut by the next append and its seed simply re-run.  Every line
carries a mandatory CRC-32 (``crc``) over its canonical JSON, so
*interior* corruption — a flipped byte that still parses — is detected
and the record skipped rather than surfacing partially merged (see
:func:`seal_record` / :func:`parse_record`, re-exported here;
pre-checksum journals re-run their seeds).

:class:`ReductionJournal` applies the same fsync-per-line discipline to the
fault-tolerant reducer (:mod:`repro.robustness.reduction`): one header line
binding the journal to the initial transformation sequence, then one record
per oracle *decision* — candidate content key, final verdict, and the probe
/ vote / fault accounting the decision cost.  Because the delta-debugging
loop is a deterministic function of the verdict sequence, replaying the
journal reproduces the exact candidate order, so a resumed reduction appends
precisely the records the killed run never got to write and finishes with a
journal (and :class:`~repro.core.reducer.ReductionResult`) byte-identical to
an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.core.transformation import sequence_from_json, sequence_to_json
from repro.robustness.chaos import REAL_FILEOPS, FileOps
from repro.robustness.sealed import (  # noqa: F401 - records re-exported
    SealedLog,
    parse_record,
    seal_record,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.harness import Finding, SeedRun

JOURNAL_VERSION = 1
REDUCTION_JOURNAL_VERSION = 1


def run_to_record(run: "SeedRun") -> dict:
    return {
        "v": JOURNAL_VERSION,
        "seed": run.seed,
        "program": run.program_name,
        "transformation_count": run.transformation_count,
        "skipped_targets": list(run.skipped_targets),
        "faults": [list(fault) for fault in run.faults],
        "findings": [
            {
                "target": f.target_name,
                "signature": f.signature,
                "kind": f.kind,
                "optimized_flow": f.optimized_flow,
                "nondeterministic": f.nondeterministic,
                "ground_truth_bug": f.ground_truth_bug,
                "inputs": dict(f.inputs),
                "transformations": sequence_to_json(f.transformations),
            }
            for f in run.findings
        ],
    }


def record_to_run(record: dict, references_by_name: dict) -> "SeedRun":
    from repro.core.harness import Finding, SeedRun

    program_name = record["program"]
    program = references_by_name.get(program_name)
    if program is None and record["findings"]:
        raise KeyError(
            f"journal references program {program_name!r}, which is not in "
            "this harness's corpus — resume with the harness that wrote it"
        )
    run = SeedRun(
        program_name=program_name,
        seed=record["seed"],
        transformation_count=record["transformation_count"],
        skipped_targets=tuple(record.get("skipped_targets", ())),
        faults=tuple(
            (target, kind) for target, kind in record.get("faults", ())
        ),
    )
    for entry in record["findings"]:
        run.findings.append(
            Finding(
                target_name=entry["target"],
                program_name=program_name,
                seed=record["seed"],
                signature=entry["signature"],
                kind=entry["kind"],
                optimized_flow=entry["optimized_flow"],
                transformations=sequence_from_json(entry["transformations"]),
                original=program.module,
                inputs=dict(entry["inputs"]),
                ground_truth_bug=entry.get("ground_truth_bug"),
                nondeterministic=entry.get("nondeterministic", False),
            )
        )
    return run


class CampaignJournal:
    """Append-only journal of one sealed record per seed.

    All durable writes go through *fileops* (default: the real OS calls),
    the chaos seam that lets tests make any individual ``open``/``write``/
    ``fsync`` fail or tear — see :mod:`repro.robustness.chaos`.
    """

    def __init__(
        self, path: Path | str, *, fileops: FileOps | None = None
    ) -> None:
        self.log = SealedLog(path, fileops or REAL_FILEOPS)
        self.path = self.log.path

    def append(self, run: "SeedRun") -> None:
        self.append_record(run_to_record(run))

    def append_record(self, record: dict) -> None:
        """Append one already-serialized seed record (fsync-per-line).

        The campaign service's fleet workers ship records (not ``SeedRun``
        objects) over their result pipes; the service appends them through
        this path so worker and CLI journals are interchangeable.
        """
        self.log.append(record)

    def load_records(self) -> dict[int, dict]:
        """Verified records keyed by seed; corrupt lines (torn, garbled, or
        failing their checksum) are skipped — their seeds are simply re-run.
        A later valid record for the same seed wins (re-executed lease
        batches journal identical records, so the duplicate is harmless)."""
        return {
            record["seed"]: record
            for record in self.log.read()
            if record is not None and "seed" in record
        }

    def load(self, references_by_name: dict) -> dict[int, "SeedRun"]:
        """Completed seeds, keyed by seed.  Malformed (e.g. kill-truncated)
        lines are skipped; a later valid record for the same seed wins."""
        return {
            seed: record_to_run(record, references_by_name)
            for seed, record in self.load_records().items()
        }


class ReductionJournal:
    """Append-only JSONL journal of per-candidate reduction verdicts.

    Line 1 is a header ``{"header": true, "sequence": <key>, "length": n}``
    binding the file to one initial transformation sequence; every further
    line records one oracle decision::

        {"v": 1, "key": <candidate content key>, "n": <candidate length>,
         "verdict": bool, "probes": k, "escalations": e, "fault_retries": r,
         "disagreements": d, "faults": {kind: count}, "faulted": bool}

    Candidates are keyed by *content* (the SHA-1 of their canonical JSON), so
    keys survive process death — a resumed reduction rebuilds the same
    transformation objects from the finding and looks decisions up by value.
    The pass pipeline adds one config record (``{"pipeline": [...],
    "giveup": g}``) after the header.
    """

    def __init__(
        self, path: Path | str, *, fileops: FileOps | None = None
    ) -> None:
        self.log = SealedLog(path, fileops or REAL_FILEOPS)
        self.path = self.log.path
        #: The config record :meth:`prepare` found on resume, else ``None``.
        self.config: dict | None = None

    def __fspath__(self) -> str:
        """The journal stands for its file wherever a path is accepted."""
        return str(self.path)

    @staticmethod
    def candidate_key(candidate: Sequence) -> str:
        """A process-stable content fingerprint of a candidate subsequence.

        Real transformation sequences canonicalise through
        :func:`~repro.core.transformation.sequence_to_json`; opaque test
        doubles (the reducer treats elements as black boxes) fall back to
        their ``repr``.
        """
        try:
            payload = json.dumps(sequence_to_json(candidate), sort_keys=True)
        except (AttributeError, TypeError):
            payload = json.dumps([repr(item) for item in candidate])
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def append(self, record: dict) -> None:
        self.log.append(record)

    def prepare(
        self, sequence_key: str, length: int, *, resume: bool
    ) -> dict[str, dict]:
        """Open the journal for one reduction run.

        With ``resume=False`` any existing content is discarded and a fresh
        header is written.  With ``resume=True`` the existing decisions are
        returned keyed by candidate key and the pass pipeline's config
        record (if one landed) is kept as :attr:`config`.  A journal written
        for a different initial sequence raises ``ValueError`` — resuming
        someone else's reduction would replay the wrong verdicts.
        """
        header = {
            "v": REDUCTION_JOURNAL_VERSION,
            "header": True,
            "sequence": sequence_key,
            "length": length,
        }
        records = self.log.bind(
            header,
            resume=resume,
            mismatch="reduction journal was written for a different "
            "transformation sequence — resume with the finding that "
            "produced it",
        )
        self.config = next(
            (r for r in records if r is not None and "pipeline" in r), None
        )
        return {
            record["key"]: record
            for record in records
            if record is not None and "key" in record and "verdict" in record
        }
