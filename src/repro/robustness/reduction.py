"""The fault envelope of reduction probes (beyond the paper; ReduKtor-style).

The paper's "almost free" reduction (§3.4, Theorem 2.6) holds only while the
interestingness test behaves.  In production it does not: a hung probe
freezes the reducer, a hard crash loses every accepted chunk, and a flaky
verdict silently breaks the 1-minimality guarantee — it can even *accept* a
removal the bug does not survive, returning a "reduced" sequence that is not
interesting at all.  :class:`FlakeHardenedOracle` gives the pass pipeline
(:mod:`repro.reduce.pipeline`) the same fault envelope the campaign phase
got in the robustness layer; the pipeline engages it whenever its context
carries a verdict test:

* **Supervised probes** — candidate probes route through the harness's
  :class:`~repro.robustness.supervisor.SupervisedTarget` (child process,
  wall-clock timeout, ``RLIMIT_AS`` cap).  A probe-level fault (timeout /
  OOM / worker death) is retried with the shared backoff policy and, once
  the ``fault_retries`` budget is spent, counts as *not interesting* —
  never as acceptance.  Each supervised probe's timeout is additionally
  clamped to ``min(probe_timeout, remaining reduction budget)``, so a hung
  probe cannot overshoot the deadline the engine checks between probes.
* **Flake-hardened voting** — a removal is accepted only after
  ``accept_votes`` unanimous probes (a wrong acceptance corrupts the
  result; a wrong rejection merely costs minimality), and once any
  disagreement has been observed, rejections are double-checked by a
  best-of-``reject_votes`` majority.  The accounting lands in
  ``ReductionResult.stability``.
* **Journal + resume** — every decision is appended to a
  :class:`~repro.robustness.journal.ReductionJournal` (fsync per line), so
  a reduction killed mid-round resumes to a byte-identical result and
  journal; composes with the perf layer's replay-prefix cache.
* **Graceful degradation** — budget exhaustion, a persistently unresponsive
  target, or an oracle-infrastructure failure returns the best-so-far
  subsequence with a structured ``degraded`` reason instead of raising,
  and emits ``reduce.fault`` / ``reduce.degraded`` tracer events plus
  metrics counters so ``repro-report`` shows reduction fault totals.

A decision is made in two halves.  :meth:`FlakeHardenedOracle._decide`
probes and fills a decision *record* — in the parent or in a pool worker.
:meth:`FlakeHardenedOracle.fold` commits a record in serial order — fresh,
from a worker, or replayed from the journal — into the stability
accounting, metrics, ``reduce.fault`` events, the memo and the journal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

from repro.observability import as_tracer
from repro.robustness.config import ReductionPolicy
from repro.robustness.journal import ReductionJournal
from repro.robustness.retry import DecorrelatedJitter, backoff_sleep


class ProbeVerdict(NamedTuple):
    """One raw oracle probe: the verdict plus any probe-level fault.

    ``fault`` is an :class:`~repro.compilers.base.OutcomeKind` value string
    (``"timeout"`` / ``"resource"`` / ``"worker-crash"``) when the probe
    misbehaved as a *process*; ``None`` for a clean verdict.  A probe whose
    fault kind *is* the finding's bug (reducing a ``timeout`` finding, say)
    reports ``interesting=True`` with ``fault=None`` — the fault is the
    signal there, not noise.
    """

    interesting: bool
    fault: str | None = None


#: A verdict test maps a candidate subsequence to a :class:`ProbeVerdict`.
VerdictTest = Callable[[Sequence], "ProbeVerdict"]


class ReductionAborted(RuntimeError):
    """Raised internally when the oracle gives up on the target; callers of
    the pass pipeline never see it — it degrades to best-so-far."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail


@dataclass
class OracleStability:
    """Work and flakiness accounting for one fault-tolerant reduction."""

    probes: int = 0  #: raw verdict-test invocations (votes and retries included)
    escalation_probes: int = 0  #: probes beyond the first per candidate
    fault_retries: int = 0  #: probes re-run after a supervision fault
    disagreements: int = 0  #: votes that contradicted an earlier probe
    faulted_candidates: int = 0  #: candidates rejected on fault-budget exhaustion
    journal_hits: int = 0  #: decisions replayed from a resumed journal
    escalated: bool = False  #: a disagreement switched rejections to voting
    faults: dict[str, int] = field(default_factory=dict)  #: fault kind -> count

    @property
    def fault_total(self) -> int:
        return sum(self.faults.values())

    def to_json(self) -> dict:
        """The accounting attached to ``ReductionResult.stability``.

        ``journal_hits`` is deliberately excluded: a resumed run replays
        decisions from the journal instead of re-probing, so the hit count
        is the one counter that *legitimately* differs between a resumed
        and an uninterrupted reduction — everything else (probes, votes,
        faults, disagreements) is folded back from the journal records and
        matches exactly.
        """
        return {
            "probes": self.probes,
            "escalation_probes": self.escalation_probes,
            "fault_retries": self.fault_retries,
            "disagreements": self.disagreements,
            "faulted_candidates": self.faulted_candidates,
            "escalated": self.escalated,
            "faults": dict(sorted(self.faults.items())),
        }


class FlakeHardenedOracle:
    """An :data:`~repro.core.reducer.InterestingnessTest` that survives
    faulty and flaky verdict tests.

    Per candidate it runs the adaptive probe/vote/retry pipeline described
    in the module docstring, memoizes the final decision by candidate
    content (so the reducer's repeated candidates stay deterministic *and*
    free), and journals every fresh decision.  Called directly it decides
    in the parent; as the speculative engine's ``lookup`` / ``on_commit``
    hooks it commits decisions made by an executor.
    """

    def __init__(
        self,
        verdict_test: VerdictTest,
        policy: ReductionPolicy,
        *,
        journal: ReductionJournal | None = None,
        resume_records: dict[str, dict] | None = None,
        supervised_target: Any = None,
        tracer: Any = None,
        metrics: Any = None,
        replay_stats: Any = None,
        key_fn: Callable[[Sequence], str] | None = None,
    ) -> None:
        self._test = verdict_test
        self.policy = policy
        self.journal = journal
        #: Candidate -> journal/memo key.  The pass pipeline injects a
        #: pass-scoped key function so decisions from different passes never
        #: collide in a shared journal.
        self._key = key_fn or ReductionJournal.candidate_key
        self._resume = dict(resume_records or {})
        self._target = supervised_target
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self._stats = replay_stats  # a perf ReplayStats, shared with the replayer
        self.stability = OracleStability()
        #: Fault-retry backoff jitter (None = deterministic exponential).
        #: Seeded per policy, so identical runs sleep identically — only the
        #: *fleet-wide alignment* of sleeps is broken, never reproducibility.
        self._jitter = (
            DecorrelatedJitter(
                policy.retry_backoff, seed=policy.retry_jitter_seed
            )
            if policy.retry_jitter_seed is not None
            else None
        )
        self._memo: dict[str, bool] = {}
        self._escalated = False
        self._fault_streak = 0
        #: Wall-clock deadline (monotonic); supervised probe timeouts are
        #: clamped to what remains of it.
        self.deadline: float | None = None
        self.calls = 0  #: interestingness queries (mirrors the reducer's tests_run)
        self.last_verdict_faulted = False  #: last decision fell to the fault budget

    # -- InterestingnessTest surface ----------------------------------------------

    def __call__(self, candidate: Sequence, *, mode: str = "candidate") -> bool:
        """Decide *candidate* here and now: memo, then journal, then a fresh
        decision.  ``mode="verify"`` decides the full input by majority."""
        key = self._key(candidate)
        record = self._resume.get(key)
        if record is not None or key in self._memo:
            return self.fold(key, len(candidate), record, replayed=True)
        return self.fold(key, len(candidate), self._decide(candidate, mode=mode))

    # -- speculative engine hooks --------------------------------------------------

    def lookup(self, candidate: list, engine_candidate: Any) -> tuple | None:
        """Resolve a journaled or memoized decision without a probe.  Must
        not mutate the oracle — the candidate may never commit; it only
        keeps the content key on the engine candidate for :meth:`on_commit`."""
        key = engine_candidate.key = self._key(candidate)
        record = self._resume.get(key)
        if record is not None:
            return bool(record["verdict"]), record, "journal"
        if key in self._memo:
            return self._memo[key], None, "memo"
        return None

    def on_commit(
        self,
        candidate: list,
        engine_candidate: Any,
        verdict: bool,
        record: dict | None,
        source: str,
    ) -> bool:
        key = engine_candidate.key or self._key(candidate)
        return self.fold(key, len(candidate), record, replayed=source == "journal")

    # -- the commit path -----------------------------------------------------------

    def fold(
        self, key: str, length: int, record: dict | None, *, replayed: bool = False
    ) -> bool:
        """Commit one decision and return its verdict.

        A memoized key answers from the memo (duplicate-content candidates
        may be decided more than once; only the first commit counts).
        Otherwise *record*'s accounting folds into the stability totals; a
        fresh record (not *replayed* from the journal) also emits its fault
        metrics and ``reduce.fault`` events and is journaled, while a
        journal replay counts a ``journal_hit``.  A record carrying
        ``"aborted"`` raises :class:`ReductionAborted` after its
        accounting.
        """
        self.calls += 1
        if self._stats is not None:
            self._stats.requests += 1
        self.last_verdict_faulted = False
        if key in self._memo:
            if self._stats is not None:
                self._stats.memo_hits += 1
            return self._memo[key]
        s = self.stability
        if replayed:
            del self._resume[key]
            s.journal_hits += 1
        s.probes += record.get("probes", 0)
        s.escalation_probes += record.get("escalations", 0)
        s.fault_retries += record.get("fault_retries", 0)
        s.disagreements += record.get("disagreements", 0)
        for kind, count in (record.get("faults") or {}).items():
            s.faults[kind] = s.faults.get(kind, 0) + count
            if replayed:
                continue
            if self.metrics is not None:
                self.metrics.inc("reduce.faults", count)
                self.metrics.inc(f"reduce.faults.{kind}", count)
            if self.tracer.enabled:
                for _ in range(count):
                    self.tracer.emit(
                        "reduce.fault", kind=kind, candidate_length=length
                    )
        if record.get("faulted"):
            s.faulted_candidates += 1
            self.last_verdict_faulted = True
        if record.get("disagreements"):
            self._escalated = s.escalated = True
        if "aborted" in record:
            raise ReductionAborted(*record["aborted"])
        verdict = self._memo[key] = bool(record["verdict"])
        if not replayed and self.journal is not None:
            record["key"] = key
            record["n"] = length
            self.journal.append(record)
        return verdict

    # -- decision pipeline ---------------------------------------------------------

    def _decide(self, candidate: Sequence, *, mode: str = "candidate") -> dict:
        """Probe *candidate* and return its decision record.  Touches only
        the decision state (escalation, fault streak); giving up on the
        target is recorded as ``"aborted"`` for :meth:`fold` to raise."""
        record = {
            "v": 1,
            "verdict": False,
            "probes": 0,
            "escalations": 0,
            "fault_retries": 0,
            "disagreements": 0,
            "faults": {},
            "faulted": False,
        }
        try:
            if mode == "verify":
                # Wrongly rejecting the input aborts the whole reduction (and
                # a wrongly *accepted* non-interesting input merely fails to
                # shrink — every removal gets rejected — which is safe), so
                # the verify probe is decided by a best-of-N majority, not
                # unanimity.
                verdict = self._majority(candidate, record)
            else:
                verdict = self._probe(candidate, record, escalation=False)
                if verdict or (verdict is not None and self._escalated):
                    verdict = self._vote(candidate, record, verdict)
        except ReductionAborted as abort:
            record["aborted"] = [abort.reason, abort.detail]
            return record
        record["faulted"] = verdict is None
        record["verdict"] = bool(verdict)
        return record

    def _majority(self, candidate: Sequence, record: dict) -> bool | None:
        """Best-of-``reject_votes`` majority; ``None`` when *every* probe
        fell to the fault budget (pure infrastructure failure)."""
        majority = max(1, self.policy.reject_votes) // 2 + 1
        trues = falses = clean = 0
        while trues < majority and falses < majority:
            vote = self._probe(
                candidate, record, escalation=(trues + falses) > 0
            )
            if vote is None:
                falses += 1  # a faulted probe can never vote "interesting"
            else:
                clean += 1
                if vote:
                    trues += 1
                else:
                    falses += 1
        if clean == 0:
            return None
        if trues and falses:
            self._disagree(record)
        return trues >= majority

    def _vote(self, candidate: Sequence, record: dict, first: bool) -> bool:
        # Rejection rescue (escalated mode only): the first probe said "not
        # interesting", but the oracle has already been caught lying — take a
        # best-of-N majority before giving up on the removal.
        if not first:
            majority = max(1, self.policy.reject_votes) // 2 + 1
            trues, falses = 0, 1
            while trues < majority and falses < majority:
                vote = self._probe(candidate, record, escalation=True)
                if vote:
                    trues += 1
                else:  # a fault-budgeted probe (None) votes "not interesting"
                    falses += 1
            if falses >= majority:
                return False
            self._disagree(record)  # the initial rejection was outvoted
        # Acceptance confirmation: the initial True (or the rescue majority)
        # plus accept_votes-1 unanimous confirmations.  Any dissent — or any
        # fault — rejects: a false rejection only costs minimality, a false
        # acceptance corrupts the result.
        for _ in range(max(1, self.policy.accept_votes) - 1):
            vote = self._probe(candidate, record, escalation=True)
            if vote is None:
                return False
            if not vote:
                self._disagree(record)
                return False
        return True

    def _probe(
        self, candidate: Sequence, record: dict, *, escalation: bool
    ) -> bool | None:
        """One logical probe with fault retries.

        Returns the clean verdict, or ``None`` when the fault-retry budget
        is exhausted (never acceptance).  Raises :class:`ReductionAborted`
        once ``unresponsive_after`` consecutive probes have faulted.
        """
        for attempt in range(max(0, self.policy.fault_retries) + 1):
            backoff_sleep(attempt, self.policy.retry_backoff, jitter=self._jitter)
            if attempt:
                record["fault_retries"] += 1
            self._clamp_probe_timeout()
            verdict = self._test(candidate)
            record["probes"] += 1
            if escalation:
                record["escalations"] += 1
            if verdict.fault is None:
                self._fault_streak = 0
                return bool(verdict.interesting)
            self._fault_streak += 1
            record["faults"][verdict.fault] = record["faults"].get(verdict.fault, 0) + 1
            if (
                self.policy.unresponsive_after is not None
                and self._fault_streak >= self.policy.unresponsive_after
            ):
                raise ReductionAborted(
                    "target-unresponsive",
                    f"{self._fault_streak} consecutive probe faults "
                    f"(last: {verdict.fault})",
                )
        return None

    def _disagree(self, record: dict) -> None:
        record["disagreements"] += 1
        self._escalated = True

    def _clamp_probe_timeout(self) -> None:
        if self._target is None:
            return
        if self.deadline is None:
            self._target.set_timeout_override(None)
            return
        remaining = self.deadline - time.monotonic()
        self._target.set_timeout_override(max(0.001, remaining))
