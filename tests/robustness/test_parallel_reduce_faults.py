"""Parallel reduction composed with the fault envelope.

The fault-mode ddmin pipeline at K workers (a
:class:`~repro.perf.reduce_pool.ReductionPool` of decision-record
:class:`~repro.perf.reduce_pool.CallableProbeSpec`) must be byte-identical
to the serial pipeline — result *and* journal — for deterministic oracles,
including deterministic fault patterns and journal resume; and a SIGKILLed
worker must be recovered with the result unchanged (verdict purity makes
re-probing sound).

Oracles are module-level frozen dataclasses so they ship to workers.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.robustness import ProbeVerdict, ReductionPolicy

from tests.reduce.ddmin import run_ddmin

SEQUENCE = list("abcdefghijkl")
NEEDLES = frozenset({"c", "i"})

#: No sleeps, deterministic voting.
POLICY = ReductionPolicy(retry_backoff=0.0)


@dataclass(frozen=True)
class CleanOracle:
    needles: frozenset

    def __call__(self, candidate) -> ProbeVerdict:
        return ProbeVerdict(self.needles <= set(candidate))


@dataclass(frozen=True)
class DeterministicFaultOracle:
    """Specific candidates always fault, on every probe in every process:
    the fault pattern is a pure function of the candidate, so serial and
    parallel runs absorb identical faults."""

    needles: frozenset
    fault_on: tuple  # candidate tuples whose probes always time out

    def __call__(self, candidate) -> ProbeVerdict:
        if tuple(candidate) in self.fault_on:
            return ProbeVerdict(False, fault="timeout")
        return ProbeVerdict(self.needles <= set(candidate))


@dataclass(frozen=True)
class KillOnceOracle:
    """SIGKILLs the probing worker process the first time a candidate of
    *kill_length* is probed (coordinated through a flag file), then behaves
    like the clean oracle forever after."""

    needles: frozenset
    flag_path: str
    kill_length: int

    def __call__(self, candidate) -> ProbeVerdict:
        if len(candidate) == self.kill_length:
            flag = Path(self.flag_path)
            if not flag.exists():
                flag.write_text("killed")
                os.kill(os.getpid(), signal.SIGKILL)
        return ProbeVerdict(self.needles <= set(candidate))


CLEAN = CleanOracle(NEEDLES)


def reduce_with(oracle, **fields):
    return run_ddmin(SEQUENCE, verdict_test=oracle, policy=POLICY, **fields)


class TestCleanParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_result_and_stability_match_serial(self, workers):
        serial = reduce_with(CLEAN)
        parallel = reduce_with(CLEAN, workers=workers)
        assert parallel.to_json() == serial.to_json()
        assert parallel.transformations == serial.transformations
        assert parallel.tests_run == serial.tests_run
        assert parallel.stability == serial.stability
        assert parallel.degraded is None

    def test_journal_bytes_match_serial(self, tmp_path):
        serial_journal = tmp_path / "serial.jsonl"
        parallel_journal = tmp_path / "parallel.jsonl"
        serial = reduce_with(CLEAN, journal=serial_journal)
        parallel = reduce_with(CLEAN, journal=parallel_journal, workers=2)
        assert parallel.to_json() == serial.to_json()
        assert parallel_journal.read_bytes() == serial_journal.read_bytes()


class TestJournalResume:
    def test_parallel_resume_is_byte_identical(self, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        full = reduce_with(CLEAN, journal=full_journal)
        full_bytes = full_journal.read_bytes()
        lines = full_bytes.decode().splitlines(keepends=True)

        # Resume a parallel run from several serial-run truncation points:
        # journaled verdicts short-circuit dispatch, fresh ones are probed
        # speculatively, and the journal converges to the same bytes.
        for keep in (1, 3, len(lines) // 2, len(lines) - 1):
            partial = tmp_path / f"partial_{keep}.jsonl"
            partial.write_text("".join(lines[:keep]))
            resumed = reduce_with(CLEAN, journal=partial, resume=True, workers=2)
            assert resumed.to_json() == full.to_json(), f"diverged at {keep}"
            assert partial.read_bytes() == full_bytes, f"diverged at {keep}"

    def test_complete_journal_short_circuits_all_dispatch(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        full = reduce_with(CLEAN, journal=journal)
        resumed = reduce_with(CLEAN, journal=journal, resume=True, workers=2)
        assert resumed.to_json() == full.to_json()
        assert resumed.stability["probes"] == full.stability["probes"]


class TestDeterministicFaults:
    def test_fault_pattern_is_absorbed_identically(self):
        # Sabotage the reducer's guaranteed first candidate (the input minus
        # its trailing half-chunk): every probe of it faults, in serial and
        # in every worker alike.
        oracle = DeterministicFaultOracle(
            NEEDLES, (tuple(SEQUENCE[: len(SEQUENCE) // 2]),)
        )
        serial = reduce_with(oracle)
        parallel = reduce_with(oracle, workers=2)
        assert serial.stability["faults"]["timeout"] > 0
        assert parallel.to_json() == serial.to_json()
        assert parallel.stability == serial.stability
        assert parallel.degraded is None


class TestWorkerLoss:
    def test_sigkilled_worker_is_recovered_with_identical_result(self, tmp_path):
        flag = tmp_path / "killed.flag"
        oracle = KillOnceOracle(NEEDLES, str(flag), kill_length=9)
        serial = reduce_with(CLEAN)

        parallel = reduce_with(oracle, workers=2)
        assert flag.exists(), "the kill never triggered — adjust kill_length"
        assert parallel.to_json() == serial.to_json()
        assert parallel.transformations == serial.transformations
        speculation = getattr(parallel, "speculation", None)
        assert speculation is not None
        assert speculation.worker_recoveries >= 1
