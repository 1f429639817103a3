"""One crash matrix for every log built on :class:`SealedLog`.

The campaign, reduction and dedup journals and the service store's meta
log are record schemas over one sealed log, so their crash behaviour is
proved once, here, over all four:

* cut the log at every line boundary and mid-line (a torn record): the
  schema's reader returns exactly the records before the cut, and the
  next append lands on a clean line — the file is byte-identical to an
  uninterrupted log's;
* fail or kill every ``FileOps`` call of one append: the log reads back
  as a valid prefix, and a healthy append afterwards catches it up
  byte-identically.

The per-format tests (resume, corruption fuzz, chaos matrices) stay; this
is the shared floor under them.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.dedup_scale import DedupJournal
from repro.robustness.chaos import REAL_FILEOPS, ChaosFileOps, ChaosKill, Fault
from repro.robustness.journal import CampaignJournal, ReductionJournal
from repro.service.store import CampaignStore

#: Data records per log (headers come on top).
N = 5


class _Campaign:
    """Seed records, invalid lines skipped, no header."""

    header_lines = 0

    def __init__(self, root):
        self.path = root / "journal.jsonl"

    def record(self, i):
        return {"v": 1, "seed": i, "program": "p", "findings": []}

    def open(self, fileops=REAL_FILEOPS, resume=True):
        journal = CampaignJournal(self.path, fileops=fileops)
        return journal, list(journal.load_records().values())

    def append(self, journal, record):
        journal.append_record(record)


class _Reduction:
    """Decisions keyed by candidate, header bound to the sequence."""

    header_lines = 1

    def __init__(self, root):
        self.path = root / "reduce.jsonl"

    def record(self, i):
        return {"v": 1, "key": f"k{i}", "n": N - i, "verdict": i % 2 == 0}

    def open(self, fileops=REAL_FILEOPS, resume=True):
        journal = ReductionJournal(self.path, fileops=fileops)
        return journal, list(journal.prepare("seq", N, resume=resume).values())

    def append(self, journal, record):
        journal.append(record)


class _Dedup:
    """Contiguous decisions, header bound to the stream."""

    header_lines = 1

    def __init__(self, root):
        self.path = root / "dedup.jsonl"

    def record(self, i):
        return {"v": 1, "i": i, "test": f"t{i}", "action": "pick"}

    def open(self, fileops=REAL_FILEOPS, resume=True):
        journal = DedupJournal(self.path, fileops=fileops)
        return journal, journal.prepare("stream", resume=resume)

    def append(self, journal, record):
        journal.append(record)


class _Meta:
    """The store's meta log: verified prefix only."""

    header_lines = 0

    def __init__(self, root):
        self.root = root / "store"
        CampaignStore(self.root).campaign_dir("c1").mkdir(parents=True)
        self.path = CampaignStore(self.root).meta_path("c1")

    def record(self, i):
        if i == 0:
            return {"v": 1, "type": "submit", "campaign": "c1"}
        return {"v": 1, "type": "state", "state": f"S{i}"}

    def open(self, fileops=REAL_FILEOPS, resume=True):
        store = CampaignStore(self.root, fileops=fileops)
        return store, store.history("c1")

    def append(self, store, record):
        store._meta_log("c1").append(record)


SCHEMAS = {
    "campaign": _Campaign,
    "reduction": _Reduction,
    "dedup": _Dedup,
    "meta": _Meta,
}


@pytest.fixture(params=sorted(SCHEMAS))
def schema(request, tmp_path):
    return SCHEMAS[request.param](tmp_path)


def _build(schema, count):
    schema.path.unlink(missing_ok=True)
    log, _ = schema.open(resume=False)
    for i in range(count):
        schema.append(log, schema.record(i))
    return schema.path.read_bytes()


def test_cut_at_every_line_and_mid_line(schema):
    pristine = _build(schema, N)
    lines = pristine.splitlines(keepends=True)
    assert len(lines) == schema.header_lines + N
    offsets = [0, *itertools.accumulate(len(line) for line in lines)]
    cuts = [(j, offsets[j]) for j in range(len(lines) + 1)]
    cuts += [(j, offsets[j] + len(lines[j]) // 2) for j in range(len(lines))]
    for kept, offset in cuts:
        schema.path.write_bytes(pristine[:offset])
        log, loaded = schema.open()
        # A log cut inside its header restarts with the header alone.
        kept = max(kept, schema.header_lines)
        done = kept - schema.header_lines
        assert loaded == [schema.record(i) for i in range(done)], offset
        if done < N:
            schema.append(log, schema.record(done))
            assert schema.path.read_bytes() == b"".join(lines[: kept + 1]), offset


@pytest.mark.parametrize("mode", ["error", "short", "kill"])
def test_fault_at_every_op_of_one_append(schema, mode):
    pristine = _build(schema, N)
    before = _build(schema, N - 1)
    expected = [schema.record(i) for i in range(N)]

    healthy = ChaosFileOps(armed=False)
    log, _ = schema.open(healthy)
    healthy.arm()
    schema.append(log, expected[-1])
    ops = [op for op, _path in healthy.ops]
    assert ops == ["open", "write", "fsync"]
    assert schema.path.read_bytes() == pristine

    for op in ops:
        schema.path.write_bytes(before)
        chaos = ChaosFileOps([Fault(op, 0, mode=mode, tear_at=7)], armed=False)
        log, _ = schema.open(chaos)
        chaos.arm()
        with pytest.raises((OSError, ChaosKill)):
            schema.append(log, expected[-1])
        assert chaos.fired, op

        log, loaded = schema.open()
        assert loaded in (expected[:-1], expected), (op, loaded)
        if loaded == expected[:-1]:
            schema.append(log, expected[-1])
        assert schema.path.read_bytes() == pristine, op
