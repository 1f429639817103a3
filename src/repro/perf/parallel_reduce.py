"""Speculative parallel delta debugging (beyond the paper; C-Reduce-style).

Candidates within a delta-debugging scan are independent until one is
accepted: a verdict is a pure function of the candidate subsequence
(Definition 2.5 — replaying a subsequence is deterministic in the original
module and inputs), so probing several candidates concurrently cannot
change any individual verdict.  What speculation *can* change is which
candidates ever get probed: once a removal is accepted, every candidate
generated against the stale base is obsolete.

This module keeps the serial reducer's exact semantics under a
**deterministic commit protocol**:

1. Candidates are generated along the *all-reject trajectory* — the exact
   stream :func:`~repro.core.reducer.reduce_transformations` would probe if
   every pending verdict came back "not interesting".  A window of them is
   dispatched to an executor.
2. Verdicts are **committed strictly in serial scan order**, no matter in
   which order workers finish.  A committed rejection keeps the trajectory
   valid; a committed acceptance invalidates every speculative verdict and
   in-flight probe after it (counted as *wasted*), rebuilds the trajectory
   from the accepted state, and continues.
3. The committed ``(candidate, verdict)`` stream therefore equals the
   serial reducer's stream **exactly**, so ``transformations``,
   ``tests_run``, ``chunks_removed``, and the accepted-chunk ``history``
   are byte-identical to the serial result for every worker count.

:func:`run_sessions` is the one loop that drives engines.  Its executor is
a :class:`~repro.perf.reduce_pool.ReductionPool` of worker processes, or —
for one worker — the in-process :class:`~repro.perf.reduce_pool.InlinePool`
with capacity 1, which is the serial reducer.  The pass pipeline
(:mod:`repro.reduce.pipeline`) runs every ddmin leg this way.

The speculation window ramps adaptively — small after an acceptance (where
speculation is likely wasted), doubling while rejections commit (where the
all-reject assumption is holding) — and the ramp is a function of the
committed verdict stream only, never of timing, so results stay
deterministic.  Byte-identity is guaranteed for deterministic oracles; a
run cut short by a deadline or a genuinely flaky oracle is
timing-dependent in the serial reducer already.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.observability import as_tracer


@dataclass
class SpeculationStats:
    """Work accounting for one speculative reduction."""

    dispatched: int = 0  #: probes sent to the executor
    committed: int = 0  #: candidate decisions committed in serial order
    wasted: int = 0  #: dispatched probes discarded by an earlier acceptance
    memo_short_circuits: int = 0  #: candidates resolved from the parent memo
    journal_short_circuits: int = 0  #: candidates resolved from a resumed journal
    batches: int = 0  #: dispatch rounds
    max_in_flight: int = 0  #: peak concurrently outstanding probes
    worker_recoveries: int = 0  #: pool rebuilds after a worker died hard
    workers: int = 1  #: worker processes backing the reduction
    mode: str = "inline"  #: "inline" (in-process executor) or "pool"

    @property
    def wasted_percent(self) -> float:
        if not self.dispatched:
            return 0.0
        return 100.0 * self.wasted / self.dispatched

    def to_json(self) -> dict:
        return {
            "dispatched": self.dispatched,
            "committed": self.committed,
            "wasted": self.wasted,
            "wasted_percent": round(self.wasted_percent, 2),
            "memo_short_circuits": self.memo_short_circuits,
            "journal_short_circuits": self.journal_short_circuits,
            "batches": self.batches,
            "max_in_flight": self.max_in_flight,
            "worker_recoveries": self.worker_recoveries,
            "workers": self.workers,
            "mode": self.mode,
        }


class _Candidate:
    """One generated candidate: its position in the serial commit order plus
    the index tuple (into the engine's sequence) that materialises it.
    ``key`` is free for the hooks: the fault oracle stores the candidate's
    content key there at lookup so its commit does not recompute it."""

    __slots__ = ("sid", "chunk", "start", "end", "indices", "key")

    def __init__(
        self, sid: int, chunk: int, start: int, end: int, indices: tuple[int, ...]
    ) -> None:
        self.sid = sid
        self.chunk = chunk
        self.start = start
        self.end = end
        self.indices = indices
        self.key: str | None = None


def _trajectory(
    length: int, chunk: int, end: int, removed_in_pass: bool
) -> Iterator[tuple[int, int, int]]:
    """Yield the serial reducer's ``(chunk_size, start, end)`` probe stream
    under the all-reject assumption, starting from the given scan state.

    The serial loop's ``current`` only changes on acceptance, and the engine
    rebuilds this generator at every committed acceptance, so within one
    generator's life the base (and hence ``length``) is fixed.  The chunk
    ladder is ``length``-independent: the serial reducer halves from
    ``⌊n/2⌋`` of the *initial* sequence regardless of later removals.
    """
    while chunk >= 1:
        while True:
            while end > 0:
                start = max(0, end - chunk)
                # The serial reducer skips the empty candidate (start == 0 and
                # end == length) without spending a test; so do we.
                if not (start == 0 and end == length):
                    yield chunk, start, end
                end = start
            if removed_in_pass:
                # A removal succeeded earlier in this pass: repeat the pass at
                # the same chunk size (the serial ``while removed_any`` loop).
                removed_in_pass = False
                end = length
                continue
            break
        chunk //= 2
        end = length


class SpeculativeReduction:
    """The speculative engine for one reduction.

    The engine owns the trajectory, the dispatch window, and the commit
    protocol; :func:`run_sessions` drives it through three calls:
    :meth:`take_dispatch` (candidates needing probes), :meth:`deliver` (a
    probe verdict arrived), and :meth:`commit_ready` (commit every verdict
    at the serial frontier).

    *lookup* (optional) resolves a candidate without dispatching — the
    journal-resume short-circuit.  It must be **read-only**: speculative
    candidates may never commit, so all bookkeeping belongs in *on_commit*
    (called as ``on_commit(items, candidate, verdict, record, source)``),
    which observes the committed serial-order stream exactly as a serial
    oracle would and may veto/correct the verdict (memo semantics) or raise
    to abort the reduction.  A commit that raises still counts in
    ``tests_run``: the decision was made.
    """

    def __init__(
        self,
        items: Sequence,
        *,
        window: int = 8,
        lookup: Callable[[list, "_Candidate"], tuple | None] | None = None,
        on_commit: Callable[..., bool] | None = None,
        tracer: Any = None,
    ) -> None:
        self.items = list(items)
        length = len(self.items)
        self.current: list[int] = list(range(length))
        self.initial_length = length
        self.window = max(1, window)
        self.lookup = lookup
        self.on_commit = on_commit
        self.tracer = as_tracer(tracer)
        self.stats = SpeculationStats()
        self.tests_run = 0
        self.chunks_removed = 0
        self.history: list[tuple[int, int, int]] = []
        self.timed_out = False
        self._memo: dict[tuple[int, ...], bool] = {}
        self._ladder: list[int] = []
        chunk = length // 2
        while chunk >= 1:
            self._ladder.append(chunk)
            chunk //= 2
        self._round_index = 0
        self._round_tried = 0
        self._round_removed = 0
        self._gen: Iterator[tuple[int, int, int]] = (
            _trajectory(length, self._ladder[0], length, False)
            if self._ladder
            else iter(())
        )
        self._gen_exhausted = not self._ladder
        self._next_sid = 0
        self._commit_sid = 0
        self._pending: deque[_Candidate] = deque()
        self._outstanding: dict[int, _Candidate] = {}
        self._resolved: dict[int, tuple[_Candidate, bool, dict | None, str]] = {}
        self._ramp = 1
        self._finished = False

    # -- driver surface ----------------------------------------------------------

    @property
    def done(self) -> bool:
        if self._finished:
            return True
        return (
            self._gen_exhausted
            and not self._pending
            and not self._outstanding
            and not self._resolved
        )

    def is_outstanding(self, sid: int) -> bool:
        return sid in self._outstanding

    def materialize(self, candidate: "_Candidate") -> list:
        return [self.items[i] for i in candidate.indices]

    def take_dispatch(self, limit: int) -> list["_Candidate"]:
        """Up to *limit* candidates that need a real probe, respecting the
        adaptive window; memo/lookup-resolvable candidates are resolved on
        the spot (they cost nothing) and never count against the window.
        A window of 1 is the serial reducer: one candidate at a time, each
        committed before the next is generated."""
        out: list[_Candidate] = []
        if self._finished:
            return out
        while len(out) < limit and len(self._outstanding) + len(out) < self._ramp:
            if self.window == 1 and self._resolved:
                break  # no speculation: nothing past the commit frontier
            candidate = self._pending.popleft() if self._pending else self._generate()
            if candidate is None:
                break
            cached = self._memo.get(candidate.indices)
            if cached is not None:
                self._resolved[candidate.sid] = (candidate, cached, None, "memo")
                self.stats.memo_short_circuits += 1
                continue
            if self.lookup is not None:
                hit = self.lookup(self.materialize(candidate), candidate)
                if hit is not None:
                    verdict, record, source = hit
                    self._resolved[candidate.sid] = (candidate, verdict, record, source)
                    if source == "journal":
                        self.stats.journal_short_circuits += 1
                    continue
            self._outstanding[candidate.sid] = candidate
            out.append(candidate)
        if out:
            self.stats.dispatched += len(out)
            self.stats.batches += 1
            in_flight = len(self._outstanding)
            if in_flight > self.stats.max_in_flight:
                self.stats.max_in_flight = in_flight
            if self.tracer.enabled:
                self.tracer.emit(
                    "reduce.dispatch",
                    count=len(out),
                    in_flight=in_flight,
                    chunk_size=out[0].chunk,
                )
        return out

    def deliver(
        self,
        sid: int,
        verdict: bool,
        record: dict | None = None,
        source: str = "pool",
    ) -> bool:
        """Record a probe verdict; returns False for stale deliveries (the
        candidate was invalidated by an earlier acceptance, or the engine
        already finished) — their waste was counted at invalidation time."""
        candidate = self._outstanding.pop(sid, None)
        if candidate is None or self._finished:
            return False
        self._resolved[sid] = (candidate, verdict, record, source)
        return True

    def commit_ready(self) -> bool:
        """Commit every resolved verdict at the serial frontier, in order."""
        progressed = False
        while not self._finished and self._commit_sid in self._resolved:
            candidate, verdict, record, source = self._resolved.pop(self._commit_sid)
            self._commit_sid += 1
            self.tests_run += 1
            if self.on_commit is not None:
                verdict = self.on_commit(
                    self.materialize(candidate), candidate, verdict, record, source
                )
            self._commit(candidate, verdict)
            progressed = True
        return progressed

    def finish_timed_out(self) -> None:
        """Stop at the current best: the wall-clock budget ran out."""
        if self._finished:
            return
        self.timed_out = True
        self.stats.wasted += len(self._outstanding) + sum(
            1 for (_, _, _, source) in self._resolved.values() if source == "pool"
        )
        self._outstanding.clear()
        self._resolved.clear()
        self._pending.clear()
        self._finished = True
        # The serial reducer emits the partially scanned round before exiting.
        if self._ladder and self._round_index < len(self._ladder):
            self._flush_round()

    def finalize(self) -> None:
        """Emit the remaining per-chunk-size round events (the serial reducer
        visits every ladder entry, probing or not)."""
        if self._finished:
            return
        self._finished = True
        while self._round_index < len(self._ladder):
            self._flush_round()

    # -- internals ---------------------------------------------------------------

    def _generate(self) -> "_Candidate | None":
        for chunk, start, end in self._gen:
            indices = tuple(self.current[:start] + self.current[end:])
            candidate = _Candidate(self._next_sid, chunk, start, end, indices)
            self._next_sid += 1
            return candidate
        self._gen_exhausted = True
        return None

    def _commit(self, candidate: "_Candidate", verdict: bool) -> None:
        self._sync_round(candidate.chunk)
        self.stats.committed += 1
        self._round_tried += 1
        self._memo[candidate.indices] = verdict
        if not verdict:
            self._ramp = min(self.window, self._ramp * 2)
            return
        # Acceptance: adopt the candidate, invalidate all speculation beyond
        # it, and restart the trajectory from the serial reducer's state —
        # same chunk size, scan resuming at the removal point, pass marked
        # as having removed something.
        self.current = list(candidate.indices)
        self.chunks_removed += 1
        self._round_removed += 1
        self.history.append((candidate.chunk, candidate.start, candidate.end))
        wasted = len(self._outstanding) + sum(
            1 for (_, _, _, source) in self._resolved.values() if source == "pool"
        )
        self._outstanding.clear()
        self._resolved.clear()
        self._pending.clear()
        self._commit_sid = self._next_sid
        self.stats.wasted += wasted
        self._ramp = 1
        self._gen = _trajectory(
            len(self.current), candidate.chunk, candidate.start, True
        )
        self._gen_exhausted = False
        if self.tracer.enabled:
            self.tracer.emit(
                "reduce.commit",
                chunk_size=candidate.chunk,
                start=candidate.start,
                end=candidate.end,
                remaining=len(self.current),
            )
            if wasted:
                self.tracer.emit(
                    "reduce.speculate", wasted=wasted, chunk_size=candidate.chunk
                )

    def _sync_round(self, chunk: int) -> None:
        while self._ladder[self._round_index] != chunk:
            self._flush_round()

    def _flush_round(self) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "reduce.round",
                chunk_size=self._ladder[self._round_index],
                tried=self._round_tried,
                removed=self._round_removed,
                remaining=len(self.current),
            )
        self._round_index += 1
        self._round_tried = 0
        self._round_removed = 0


class SpeculativeSession:
    """One engine bound to a pool key, driven by :func:`run_sessions`.

    Pools rebuild the sequence their spec was built from; *positions* maps
    the engine's sequence onto it (``positions[i]`` is the spec index of
    engine item ``i``; ``None`` when they coincide).  Replies carry a
    fault-pipeline decision record (a dict) or a plain boolean verdict.
    """

    def __init__(
        self,
        key: str,
        engine: SpeculativeReduction,
        *,
        positions: Sequence[int] | None = None,
        deadline: float | None = None,
    ) -> None:
        self.key = key
        self.engine = engine
        self.positions = positions
        self.deadline = deadline
        self.error: BaseException | None = None

    @property
    def active(self) -> bool:
        return self.error is None and not self.engine.done

    def wire(self, candidate: "_Candidate") -> tuple[int, ...]:
        """*candidate*'s index tuple as the pool's spec numbers it."""
        if self.positions is None:
            return candidate.indices
        return tuple(self.positions[i] for i in candidate.indices)

    def deliver(self, candidate: "_Candidate", payload: tuple) -> None:
        if payload[0] != "ok":
            from repro.perf.reduce_pool import WorkerProbeError

            self.error = WorkerProbeError(payload[1], payload[2])
            return
        value = payload[1]
        if isinstance(value, dict):
            self.engine.deliver(candidate.sid, bool(value.get("verdict")), value)
        else:
            self.engine.deliver(candidate.sid, bool(value))

    def commit(self) -> None:
        try:
            self.engine.commit_ready()
        except Exception as exc:  # noqa: BLE001 - the session's owner re-raises
            self.error = exc


def run_sessions(
    pool: Any,
    sessions: Sequence[SpeculativeSession],
    *,
    batch: int = 1,
    metrics: Any = None,
) -> None:
    """Drive *sessions* over one shared executor — a :class:`~repro.perf.
    reduce_pool.ReductionPool` or an :class:`~repro.perf.reduce_pool.
    InlinePool` — until every engine finishes or errors out.  An error
    (the oracle's own exception, a :class:`~repro.perf.reduce_pool.
    WorkerProbeError`, or a commit hook's abort) lands on ``session.error``
    for the session's owner to raise; other sessions carry on.

    Fairness: dispatch rotates round-robin across active sessions, one
    submission per turn, so a large reduction cannot starve a small one.
    ``batch > 1`` packs that many speculation candidates into a single
    worker round-trip (amortizing IPC); verdicts still commit in serial
    order, so results are unchanged.  A hard worker death
    (``BrokenProcessPool``) rebuilds the pool and re-dispatches every
    outstanding probe — singly, since any member of a batch may have been
    the killer — verdicts are pure functions of the candidate, so
    re-probing is sound.
    """
    from concurrent.futures import FIRST_COMPLETED
    from concurrent.futures import wait as wait_futures
    from concurrent.futures.process import BrokenProcessPool

    batch = max(1, batch)
    futures: dict[Any, tuple[SpeculativeSession, list[_Candidate]]] = {}
    rotation = 0

    def recover() -> None:
        pool.recover()
        entries = list(futures.values())
        futures.clear()
        affected: dict[int, SpeculativeSession] = {}
        for session, candidates in entries:
            for candidate in candidates:
                if session.active and session.engine.is_outstanding(
                    candidate.sid
                ):
                    futures[pool.submit(session.key, session.wire(candidate))] = (
                        session,
                        [candidate],
                    )
                    affected[id(session)] = session
        for session in affected.values():
            session.engine.stats.worker_recoveries += 1

    def do_submit(session: SpeculativeSession, candidates: list[_Candidate]):
        if len(candidates) == 1:
            return pool.submit(session.key, session.wire(candidates[0]))
        if metrics is not None:
            metrics.inc("probe_batch.batches")
            metrics.inc("probe_batch.probes", len(candidates))
        return pool.submit_batch(session.key, [session.wire(c) for c in candidates])

    def submit(session: SpeculativeSession, candidates: list[_Candidate]) -> None:
        try:
            future = do_submit(session, candidates)
        except BrokenProcessPool:
            recover()
            future = do_submit(session, candidates)
        futures[future] = (session, candidates)

    while True:
        now = time.monotonic()
        for session in sessions:
            if (
                session.error is None
                and not session.engine.done
                and session.deadline is not None
                and now >= session.deadline
            ):
                session.engine.finish_timed_out()
        active = [s for s in sessions if s.active]
        for session in active:
            session.commit()
        active = [s for s in sessions if s.active]
        if not active and not futures:
            break

        in_flight = sum(len(candidates) for _, candidates in futures.values())
        capacity = pool.capacity - in_flight
        if active and capacity > 0:
            progressed = True
            while capacity > 0 and progressed:
                progressed = False
                for offset in range(len(active)):
                    if capacity <= 0:
                        break
                    session = active[(rotation + offset) % len(active)]
                    if not session.active:
                        continue
                    candidates = session.engine.take_dispatch(
                        min(batch, capacity)
                    )
                    if candidates:
                        submit(session, candidates)
                        capacity -= len(candidates)
                        progressed = True
                    session.commit()
                rotation += 1
            active = [s for s in sessions if s.active]
            if not active and not futures:
                break
        if not futures:
            continue  # engines progressed through memo/lookup commits alone

        timeout = None
        deadlines = [s.deadline for s in active if s.deadline is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        done, _ = wait_futures(
            set(futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            continue  # a deadline expired; handled at the top of the loop
        touched: list[SpeculativeSession] = []
        broken = False
        for future in done:
            entry = futures.pop(future)
            session, candidates = entry
            try:
                payload = future.result()
            except BrokenProcessPool:
                futures[future] = entry
                recover()
                broken = True
                break
            except Exception as exc:  # noqa: BLE001 - the session's owner re-raises
                session.error = exc
                continue
            if payload[0] == "batch":
                payloads = payload[1]
                stats_delta = payload[2]
            else:
                payloads = [payload[:3]]
                stats_delta = payload[3] if len(payload) > 3 else None
            if stats_delta:
                pool.absorb(session.key, stats_delta)
            if session.active:
                for candidate, item in zip(candidates, payloads):
                    session.deliver(candidate, item)
                touched.append(session)
        if broken:
            continue
        for session in touched:
            session.commit()

    for session in sessions:
        if session.error is None:
            session.engine.finalize()
