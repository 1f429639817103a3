"""The creduce-style pass scheduler (beyond the paper; §3.4 + creduce).

Creduce structures reduction as many small *passes* run in groups to a
global fixpoint under a give-up budget (``GIVEUP_CONSTANT``); ReduKtor
showed that combining general delta passes with domain-specific cleanup
passes beats either alone.  :class:`PassPipeline` brings that scheduling to
the transformation-sequence reducer:

* **Pass protocol** — a pass has a ``name``, a ``stage`` (``"sequence"``
  passes edit the transformation list, ``"module"`` passes edit the
  materialized SPIR-V module after the sequence has stabilised), and a
  ``run(run)`` method that drives the :class:`PassRun` probe surface.
* **Scheduling** — each pass runs to its *own* completion; the scheduler
  re-invokes a pass only when another pass has since changed the sequence
  (a ``pending`` set).  The global fixpoint is reached when every pass has
  run on the current sequence without any other pass invalidating it.
  This makes ``PassPipeline([DdminPass()])`` invoke ddmin exactly once —
  byte-identical to bare :func:`~repro.core.reducer.reduce_transformations`
  — and terminates because every accepted proposal strictly shrinks a
  well-founded measure (sequence length, payload lines, constant
  magnitudes, module instructions).
* **Give-up budget** — greedy passes auto-reject (without probing) once
  ``giveup`` *consecutive* rejections accumulate in one invocation, the
  creduce escape hatch for passes grinding on an oracle that has stopped
  saying yes.  The ddmin pass is exempt: its halving schedule already
  bounds it, and budgeting it serially but not inside pool workers would
  break cross-worker-count byte-identity.
* **Fault envelope + journal** — with a verdict test, every probe routes
  through a per-pass :class:`~repro.robustness.reduction.FlakeHardenedOracle`
  sharing one :class:`~repro.robustness.journal.ReductionJournal`; decisions
  are keyed by ``sha1(pass_name + candidate_key)`` (:func:`pass_scoped_key`)
  so passes never collide and a SIGKILL'd pipeline resumes byte-identically
  mid-pass.  A pipeline-config record after the header pins the pass list
  and budget; resuming with a different configuration raises ``ValueError``.
* **One ddmin executor** — every ddmin leg, plain or fault-tolerant, at
  any worker count, is a :class:`~repro.perf.parallel_reduce.
  SpeculativeReduction` session driven by :func:`~repro.perf.parallel_reduce.
  run_sessions`.  The executor is chosen by one rule: the context's
  ``pool``; else, with ``workers > 1``, a :class:`~repro.perf.reduce_pool.
  CallableProbeSpec` pool built once per run; else the in-process
  :class:`~repro.perf.reduce_pool.InlinePool` (capacity 1 — the serial
  reducer).  A pool rebuilds the *original* sequence in its workers, so
  candidate index tuples are re-based through the pipeline's positions map;
  once a pass has *mutated* an element in place (payload shrinking) the map
  is void and later ddmin legs run inline — cheap, because they happen
  after the big first leg.  :meth:`PassPipeline.run_fleet` drives the ddmin
  legs of many runs through one ``run_sessions`` over one shared pool.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.core.reducer import ReductionResult
from repro.observability import as_tracer
from repro.perf.parallel_reduce import (
    SpeculativeReduction,
    SpeculativeSession,
    run_sessions,
)
from repro.perf.reduce_pool import CallableProbeSpec, InlinePool, ReductionPool

#: Creduce's GIVEUP_CONSTANT: consecutive rejections before a greedy pass
#: is abandoned for this invocation.
DEFAULT_GIVEUP = 1000


def pass_scoped_key(pass_name: str, base_key: str) -> str:
    """Journal/memo key for a candidate probed by *pass_name*.

    Scoping keeps one shared journal sound: two passes probing the same
    candidate content record independent decisions (their oracles may vote
    differently — e.g. the cleanup pass probes modules, not sequences), and
    resume replays each decision to the pass that made it.
    """
    payload = f"{pass_name}\x00{base_key}".encode("utf-8")
    return hashlib.sha1(payload).hexdigest()


@runtime_checkable
class ReductionPass(Protocol):
    """One reduction pass.  ``stage`` is ``"sequence"`` or ``"module"``;
    ``run`` drives the :class:`PassRun` probe surface and never touches
    pipeline state directly."""

    name: str
    stage: str

    def run(self, run: "PassRun") -> None: ...


@dataclass
class PassStats:
    """Deterministic per-pass accounting (no wall-clock fields, so stats are
    byte-identical across worker counts and resume)."""

    name: str
    runs: int = 0  #: scheduler invocations
    probes: int = 0  #: oracle/interestingness queries billed to this pass
    accepted: int = 0  #: accepted proposals
    removed: int = 0  #: sequence elements / payload lines / instructions shed
    gave_up: int = 0  #: invocations abandoned by the give-up budget

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "runs": self.runs,
            "probes": self.probes,
            "accepted": self.accepted,
            "removed": self.removed,
            "gave_up": self.gave_up,
        }


@dataclass
class PipelineResult(ReductionResult):
    """A :class:`~repro.core.reducer.ReductionResult` plus per-pass stats,
    the cleanup pass's module (when it ran) and the speculation stats."""

    pass_stats: list[PassStats] = field(default_factory=list)
    #: The module after the ``cleanup`` (spirv-reduce) pass; ``None`` when no
    #: module pass ran.  Like ``replay_stats`` it is observational.
    cleaned_module: Any = None
    #: The ddmin legs' merged :class:`~repro.perf.parallel_reduce.
    #: SpeculationStats`; ``None`` when no ddmin leg ran.  Observational.
    speculation: Any = None

    def to_json(self) -> dict:
        data = super().to_json()
        data["passes"] = [stats.to_json() for stats in self.pass_stats]
        return data


@dataclass
class PipelineContext:
    """Everything a pipeline run probes through.

    Exactly one of ``is_interesting`` (plain boolean oracle) or
    ``verdict_test`` (a :class:`~repro.robustness.reduction.ProbeVerdict`
    test routed through the fault envelope + journal) must be set.
    ``module_probe`` maps the final sequence to ``(module, module_verdict)``
    for module-stage passes; without it they are skipped.

    ``pool`` is a caller-owned :class:`~repro.perf.reduce_pool.
    ReductionPool` whose ``pool_key`` spec rebuilds the input sequence;
    without one, ``workers > 1`` builds a pool over the test itself.
    ``probe_batch`` candidates share one worker round-trip.  The deadline
    is ``max_seconds``, else ``policy.max_seconds``.
    """

    is_interesting: Callable | None = None
    verdict_test: Callable | None = None
    policy: Any = None
    journal: Any = None
    resume: bool = False
    supervised_target: Any = None
    workers: int = 1
    window: int | None = None
    pool: Any = None
    pool_key: str = "reduction"
    probe_batch: int | None = None
    max_seconds: float | None = None
    tracer: Any = None
    metrics: Any = None
    replay_stats: Any = None
    module_probe: Callable | None = None


class PassRun:
    """One invocation of one pass: the probe surface the pass drives.

    A pass reads :attr:`current` (or :attr:`module`) and changes state only
    through :meth:`propose_subset` / :meth:`propose_replace` /
    :meth:`set_module` / :meth:`ddmin`, so the pipeline can account every
    probe, enforce the give-up budget and deadline, and keep the positions
    map consistent.
    """

    def __init__(self, execution: "_Execution", reduction_pass: ReductionPass) -> None:
        self._exec = execution
        self._pass = reduction_pass
        self.name = reduction_pass.name
        self.stats = execution.stats[reduction_pass.name]
        self.changed = False
        self.gave_up = False
        self._streak = 0

    # -- shared state ----------------------------------------------------------

    @property
    def current(self) -> list:
        """The current transformation sequence (do not mutate — propose)."""
        return self._exec.current

    @property
    def module(self) -> Any:
        """The materialized module (module-stage passes only)."""
        return self._exec.module

    # -- probing ---------------------------------------------------------------

    def test(self, candidate) -> bool:
        """Probe one candidate (sequence or module, by stage), budgeted."""
        giveup = self._exec.giveup
        if self.gave_up or self._exec.stopped:
            return False
        if self._exec.out_of_time():
            self._exec.timed_out = True
            return False
        self.stats.probes += 1
        verdict = self._exec.probe(self._pass, candidate)
        if verdict:
            self._streak = 0
        else:
            self._streak += 1
            if giveup is not None and self._streak >= giveup:
                self.gave_up = True
                self.stats.gave_up += 1
        return verdict

    def propose_subset(self, keep: Sequence[int]) -> bool:
        """Propose keeping exactly the elements at *keep* (current indices).
        Accepted removals update the positions map, so later ddmin legs can
        still ride the worker pool."""
        state = self._exec
        before = state.current
        candidate = [before[i] for i in keep]
        if len(candidate) >= len(before) or not candidate:
            return False  # no-op or empty candidate: never probed (§3.4)
        if not self.test(candidate):
            return False
        self.stats.accepted += 1
        self.stats.removed += len(before) - len(candidate)
        state.sequence_chunks += 1
        self.changed = True
        state.current = candidate
        if state.positions is not None:
            state.positions = [state.positions[i] for i in keep]
        return True

    def propose_replace(self, index: int, replacement) -> bool:
        """Propose replacing one element in place (payload shrinking).  An
        accepted replacement voids the positions map: the element no longer
        exists in the original sequence the worker pool rebuilds."""
        state = self._exec
        before = state.current
        trial = before[:index] + [replacement] + before[index + 1 :]
        if not self.test(trial):
            return False
        self.stats.accepted += 1
        self.changed = True
        state.current = trial
        state.positions = None
        return True

    def set_module(self, module: Any) -> None:
        """Install the (reduced) module a module-stage pass produced."""
        self._exec.module = module

    def ddmin(self) -> None:
        """Run the chunked delta-debugging leg over the engines (exempt from
        the give-up budget — its halving schedule already bounds it)."""
        self._exec.run_ddmin(self)


class PassPipeline:
    """Run a configurable pass list in groups to a global fixpoint."""

    def __init__(
        self,
        passes: Sequence,
        *,
        giveup: int | None = DEFAULT_GIVEUP,
    ) -> None:
        from repro.reduce.passes import resolve_pass

        self.passes = [resolve_pass(p) for p in passes]
        if not self.passes:
            raise ValueError("a pass pipeline needs at least one pass")
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names: {names}")
        self.giveup = giveup

    def run(self, transformations: Sequence, ctx=None) -> PipelineResult:
        """Reduce *transformations* to the pipeline fixpoint.

        *ctx* is a :class:`PipelineContext`, or a bare callable treated as a
        plain interestingness test.  Raises ``ValueError`` when the input is
        genuinely non-interesting, exactly like the raw reducer.
        """
        if callable(ctx):
            ctx = PipelineContext(is_interesting=ctx)
        if ctx is None or (ctx.is_interesting is None and ctx.verdict_test is None):
            raise ValueError("PipelineContext needs is_interesting or verdict_test")
        return _Execution(self, ctx, transformations).run()

    def run_fleet(self, jobs: Sequence[tuple[Sequence, PipelineContext]]) -> list:
        """Run a lone-ddmin pipeline over several ``(transformations, ctx)``
        jobs at once and return their results in order.

        Every job's ``ctx.pool`` is the same shared pool, with a spec under
        the job's own ``pool_key``; one :func:`~repro.perf.parallel_reduce.
        run_sessions` drives every job's ddmin leg over it with fair
        round-robin dispatch.  Each result equals what :meth:`run` returns
        for that job alone.
        """
        from repro.reduce.passes import DdminPass

        if len(self.passes) != 1 or not isinstance(self.passes[0], DdminPass):
            raise ValueError("run_fleet needs a pipeline of one ddmin pass")
        executions = [_Execution(self, ctx, items) for items, ctx in jobs]
        legs = []
        try:
            for execution in executions:
                run = execution.begin() and execution.open_pass(self.passes[0])
                if run:
                    _, session = execution.start_ddmin(run)
                    legs.append((execution, run, session))
            if legs:
                ctx = legs[0][0].ctx
                run_sessions(
                    ctx.pool,
                    [session for _, _, session in legs],
                    batch=ctx.probe_batch or 1,
                    metrics=ctx.metrics,
                )
            for execution, run, session in legs:
                body = functools.partial(execution.absorb_ddmin, session=session)
                execution.close_pass(run, 1, body)
        finally:
            for execution in executions:
                execution.release()
        return [execution.finish() for execution in executions]


class _Execution:
    """Single-use state machine for one pipeline run."""

    def __init__(self, pipeline: PassPipeline, ctx: PipelineContext, transformations):
        self.pipeline = pipeline
        self.ctx = ctx
        self.giveup = pipeline.giveup
        self.tracer = as_tracer(ctx.tracer)
        self.sequence = list(transformations)
        self.current = list(transformations)
        self.positions: list[int] | None = list(range(len(self.sequence)))
        self.fault = ctx.verdict_test is not None
        self.stats = {p.name: PassStats(p.name) for p in pipeline.passes}
        self.histories: list = []
        self.sequence_chunks = 0
        self.tests_total = 0
        self.timed_out = False
        self.degraded: str | None = None
        self.detail = ""
        self.module: Any = None
        self.module_verdict: Callable | None = None
        self.speculations: list = []
        self.journal = None
        self.decisions: dict[str, dict] = {}
        self.policy = None
        self.oracles: dict[str, Any] = {}
        if self.fault:
            from repro.robustness.config import ReductionPolicy
            from repro.robustness.journal import ReductionJournal

            self.policy = ctx.policy or ReductionPolicy()
            journal = ctx.journal
            if journal is not None and not isinstance(journal, ReductionJournal):
                journal = ReductionJournal(journal)
            self.journal = journal
        max_seconds = ctx.max_seconds
        if max_seconds is None and self.policy is not None:
            max_seconds = self.policy.max_seconds
        self.deadline: float | None = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )
        # The executor rule: the caller's pool; else, with workers > 1, one
        # pool over the test itself for the whole run (processes start on
        # first use); else ddmin legs run inline.
        self.pool = ctx.pool
        self._owns_pool = False
        if self.pool is None and ctx.workers > 1:
            spec = CallableProbeSpec(
                test=ctx.verdict_test or ctx.is_interesting,
                items=tuple(self.sequence),
                decide=self.fault,
                policy=self.policy,
            )
            if ReductionPool.shippable(spec):
                self.pool = ReductionPool({ctx.pool_key: spec}, ctx.workers)
                self._owns_pool = True

    @property
    def stopped(self) -> bool:
        return self.degraded is not None or self.timed_out

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    # -- oracle / journal plumbing -------------------------------------------------

    def _prepare_journal(self) -> None:
        from repro.robustness.journal import ReductionJournal

        if self.journal is None:
            return
        self.decisions = self.journal.prepare(
            ReductionJournal.candidate_key(self.sequence),
            len(self.sequence),
            resume=self.ctx.resume,
        )
        config = {
            "v": 1,
            "pipeline": [p.name for p in self.pipeline.passes],
            "giveup": self.giveup,
        }
        existing = self.journal.config
        if existing is None:
            # Fresh run — or a resume killed before the config record landed.
            self.journal.append(config)
        elif (
            existing.get("pipeline") != config["pipeline"]
            or existing.get("giveup") != config["giveup"]
        ):
            raise ValueError(
                "reduction journal was written by a different pass pipeline "
                f"({existing.get('pipeline')}, giveup={existing.get('giveup')}) — "
                "resume with the same --reduce-passes/--giveup configuration"
            )

    def oracle_for(self, scope: str, verdict_test=None, key_fn=None):
        """One long-lived flake-hardened oracle per pass scope.  Long-lived
        so its memo deduplicates repeat candidates across scheduler rounds —
        each scoped key journals at most once, keeping resumed journals
        byte-identical."""
        from repro.robustness.journal import ReductionJournal
        from repro.robustness.reduction import FlakeHardenedOracle

        oracle = self.oracles.get(scope)
        if oracle is None:
            if key_fn is None:
                def key_fn(candidate, _scope=scope):
                    return pass_scoped_key(
                        _scope, ReductionJournal.candidate_key(candidate)
                    )

            oracle = FlakeHardenedOracle(
                verdict_test or self.ctx.verdict_test,
                self.policy,
                journal=self.journal,
                # Each oracle gets its own copy: scoped keys are disjoint
                # across passes, and a commit consumes its replayed record.
                resume_records=dict(self.decisions),
                supervised_target=self.ctx.supervised_target,
                tracer=self.tracer,
                metrics=self.ctx.metrics,
                replay_stats=self.ctx.replay_stats,
                key_fn=key_fn,
            )
            oracle.deadline = self.deadline
            self.oracles[scope] = oracle
        return oracle

    def probe(self, reduction_pass: ReductionPass, candidate) -> bool:
        """One budget-exempt probe: the raw verdict for *candidate*, through
        the pass's oracle in fault mode or the plain test otherwise."""
        if reduction_pass.stage == "module":
            return self._probe_module(reduction_pass, candidate)
        if self.fault:
            return bool(self.oracle_for(reduction_pass.name)(candidate))
        self.tests_total += 1
        return bool(self.ctx.is_interesting(candidate))

    def _probe_module(self, reduction_pass: ReductionPass, module) -> bool:
        verdict_test = self.module_verdict
        if self.fault:
            def module_key(boxed, _scope=reduction_pass.name):
                return pass_scoped_key(_scope, _module_content_key(boxed[0]))

            def boxed_test(boxed):
                return _as_probe_verdict(verdict_test(boxed[0]))

            oracle = self.oracle_for(
                reduction_pass.name, verdict_test=boxed_test, key_fn=module_key
            )
            # Module candidates are boxed in a one-element list so the
            # oracle's Sequence bookkeeping (len, list) stays meaningful.
            return bool(oracle([module]))
        self.tests_total += 1
        return bool(_as_probe_verdict(verdict_test(module)).interesting)

    # -- the ddmin leg ---------------------------------------------------------------

    def run_ddmin(self, run: PassRun) -> None:
        pool, session = self.start_ddmin(run)
        run_sessions(
            pool,
            [session],
            batch=self.ctx.probe_batch or 1,
            metrics=self.ctx.metrics,
        )
        self.absorb_ddmin(run, session)

    def start_ddmin(self, run: PassRun) -> tuple[Any, SpeculativeSession]:
        """Open a ddmin leg over the current sequence: its executor and the
        engine session for :func:`~repro.perf.parallel_reduce.run_sessions`.
        A pool serves the leg while the positions map into the sequence it
        rebuilds is intact; otherwise the leg runs inline, over the current
        sequence, in this process."""
        oracle = self.oracle_for(run.name) if self.fault else None
        pool, positions = self.pool, self.positions
        if pool is None or positions is None:
            pool = InlinePool(
                self.current, probe=self.ctx.is_interesting, oracle=oracle
            )
            positions = None
        inline = isinstance(pool, InlinePool)
        engine = SpeculativeReduction(
            self.current,
            window=1 if inline else self.ctx.window or pool.workers * 4,
            lookup=oracle.lookup if oracle is not None else None,
            on_commit=oracle.on_commit if oracle is not None else None,
            tracer=self.tracer,
        )
        engine.stats.workers = pool.workers
        engine.stats.mode = "inline" if inline else "pool"
        session = SpeculativeSession(
            self.ctx.pool_key, engine, positions=positions, deadline=self.deadline
        )
        return pool, session

    def absorb_ddmin(self, run: PassRun, session: SpeculativeSession) -> None:
        """Fold a driven ddmin leg into the run.  The engine's committed
        state is the leg's result — also the best-so-far when the leg
        stopped on its deadline or an error, which is re-raised after."""
        engine = session.engine
        kept = engine.current
        run.stats.probes += engine.tests_run
        run.stats.accepted += len(engine.history)
        run.stats.removed += len(self.current) - len(kept)
        if not self.fault:
            self.tests_total += engine.tests_run
        self.sequence_chunks += len(engine.history)
        if engine.history:
            run.changed = True
        self.current = [self.current[i] for i in kept]
        if self.positions is not None:
            self.positions = [self.positions[i] for i in kept]
        self.histories.extend(engine.history)
        self.speculations.append(engine.stats)
        if engine.timed_out:
            self.timed_out = True
        if session.error is not None:
            raise session.error

    # -- scheduling ------------------------------------------------------------------

    def run(self) -> PipelineResult:
        try:
            if self.begin():
                self._schedule()
        finally:
            self.release()
        return self.finish()

    def begin(self) -> bool:
        """Prepare the journal and verify the input.  ``False`` when the run
        already ended, degraded; ``ValueError`` when the input is genuinely
        not interesting."""
        if not self.fault:
            self.tests_total = 1
            if not self.ctx.is_interesting(self.sequence):
                raise ValueError("the full transformation sequence is not interesting")
            return True
        self._prepare_journal()
        oracle = self.oracle_for("verify")
        try:
            # The verify probe lands in the verify oracle's ``calls``;
            # fault-mode tests_run sums oracle calls.
            verified = oracle(self.sequence, mode="verify")
        except ValueError:
            raise
        except Exception as exc:  # noqa: BLE001 - degrade to the input
            self._degrade(exc)
            return False
        if not verified:
            if not oracle.last_verdict_faulted:
                raise ValueError("the full transformation sequence is not interesting")
            self.degraded = "verify-faulted"
            return False
        return True

    def _schedule(self) -> None:
        sequence_passes = [p for p in self.pipeline.passes if p.stage == "sequence"]
        module_passes = [p for p in self.pipeline.passes if p.stage != "sequence"]
        pending = {p.name for p in sequence_passes}
        sweep = 0
        while pending and not self.stopped:
            sweep += 1
            for reduction_pass in sequence_passes:
                if reduction_pass.name not in pending or self.stopped:
                    continue
                pending.discard(reduction_pass.name)
                run = self._invoke(reduction_pass, sweep)
                if run is not None and run.changed:
                    pending.update(
                        p.name for p in sequence_passes if p.name != reduction_pass.name
                    )
        if module_passes and not self.stopped and self.ctx.module_probe is not None:
            self.module, self.module_verdict = self.ctx.module_probe(self.current)
            for reduction_pass in module_passes:
                if self.stopped:
                    break
                self._invoke(reduction_pass, sweep)

    def release(self) -> None:
        if self.ctx.supervised_target is not None:
            self.ctx.supervised_target.set_timeout_override(None)
        if self._owns_pool:
            self.pool.close()

    def _invoke(self, reduction_pass: ReductionPass, sweep: int) -> PassRun | None:
        run = self.open_pass(reduction_pass)
        if run is not None:
            self.close_pass(run, sweep, reduction_pass.run)
        return run

    def open_pass(self, reduction_pass: ReductionPass) -> PassRun | None:
        """Start one pass invocation; ``None`` when the deadline has passed."""
        if self.out_of_time():
            self.timed_out = True
            return None
        run = PassRun(self, reduction_pass)
        run.stats.runs += 1
        return run

    def close_pass(self, run: PassRun, sweep: int, body: Callable) -> None:
        """Run *body(run)* — the pass, or the rest of its ddmin leg — then
        account the invocation.  In fault mode an oracle failure degrades
        the run; a genuinely non-interesting input still raises."""
        stats = run.stats
        probes, accepted, removed = stats.probes, stats.accepted, stats.removed
        try:
            body(run)
        except ValueError:
            raise
        except Exception as exc:  # noqa: BLE001 - degrade, in fault mode only
            if not self.fault:
                raise
            self._degrade(exc)
        self.tracer.emit(
            "reduce.pass",
            name=run.name,
            sweep=sweep,
            probes=stats.probes - probes,
            accepted=stats.accepted - accepted,
            removed=stats.removed - removed,
            gave_up=run.gave_up,
            remaining=len(self.current),
        )
        if self.ctx.metrics is not None:
            self.ctx.metrics.inc("reduce.pass_runs")
            self.ctx.metrics.inc(f"reduce.pass_runs.{run.name}")

    def _degrade(self, exc: Exception) -> None:
        from repro.robustness.reduction import ReductionAborted

        if isinstance(exc, ReductionAborted):
            self.degraded, self.detail = exc.reason, exc.detail
            return
        # A worker's exception arrives as WorkerProbeError: name the original.
        name = getattr(exc, "original_type", None) or type(exc).__name__
        self.degraded, self.detail = f"oracle-error: {name}", str(exc)

    # -- result assembly ---------------------------------------------------------------

    def finish(self) -> PipelineResult:
        # Plain probes count in ``tests_total``; fault-mode ones in their
        # oracles' ``calls`` (there are no oracles in plain mode).
        tests_run = self.tests_total + sum(o.calls for o in self.oracles.values())
        result = PipelineResult(
            transformations=list(self.current),
            tests_run=tests_run,
            chunks_removed=self.sequence_chunks,
            initial_length=len(self.sequence),
            timed_out=self.timed_out,
            history=list(self.histories),
            pass_stats=[self.stats[p.name] for p in self.pipeline.passes],
            cleaned_module=self.module,
        )
        result.speculation = _merge_speculation(self.speculations)
        if self.fault:
            result.stability = self._merged_stability()
            if result.timed_out and self.degraded is None:
                self.degraded = "budget-exhausted"
            result.degraded = self.degraded
            if self.degraded is not None:
                if self.ctx.metrics is not None:
                    self.ctx.metrics.inc("reduce.degraded")
                    self.ctx.metrics.inc(
                        f"reduce.degraded.{self.degraded.split(':', 1)[0]}"
                    )
                self.tracer.emit(
                    "reduce.degraded",
                    reason=self.degraded,
                    detail=self.detail,
                    initial_length=result.initial_length,
                    final_length=result.final_length,
                    faults=sum(
                        oracle.stability.fault_total
                        for oracle in self.oracles.values()
                    ),
                )
        return result

    def _merged_stability(self) -> dict:
        merged: dict[str, Any] = {
            "probes": 0,
            "escalation_probes": 0,
            "fault_retries": 0,
            "disagreements": 0,
            "faulted_candidates": 0,
            "escalated": False,
            "faults": {},
        }
        for oracle in self.oracles.values():
            stability = oracle.stability.to_json()
            for key in (
                "probes",
                "escalation_probes",
                "fault_retries",
                "disagreements",
                "faulted_candidates",
            ):
                merged[key] += stability[key]
            merged["escalated"] = merged["escalated"] or stability["escalated"]
            for kind, count in stability["faults"].items():
                merged["faults"][kind] = merged["faults"].get(kind, 0) + count
        merged["faults"] = dict(sorted(merged["faults"].items()))
        return merged


def _merge_speculation(speculations: list):
    if not speculations:
        return None
    from dataclasses import replace as dc_replace

    merged = dc_replace(speculations[0])
    for stats in speculations[1:]:
        merged.dispatched += stats.dispatched
        merged.committed += stats.committed
        merged.wasted += stats.wasted
        merged.memo_short_circuits += stats.memo_short_circuits
        merged.journal_short_circuits += stats.journal_short_circuits
        merged.batches += stats.batches
        merged.max_in_flight = max(merged.max_in_flight, stats.max_in_flight)
        merged.worker_recoveries += stats.worker_recoveries
        merged.workers = max(merged.workers, stats.workers)
        if stats.mode == "pool":
            merged.mode = "pool"
    return merged


def _module_content_key(module: Any) -> str:
    """A content key for a module candidate.  ``touch()`` first: spirv-reduce
    edits instruction lists in place without bumping the module version, so
    the cached fingerprint would otherwise be stale."""
    module.touch()
    return hashlib.sha1(repr(module.fingerprint()).encode("utf-8")).hexdigest()


def _as_probe_verdict(verdict):
    """Coerce a module verdict to a ProbeVerdict (test doubles return bools)."""
    from repro.robustness.reduction import ProbeVerdict

    if isinstance(verdict, ProbeVerdict):
        return verdict
    if isinstance(verdict, tuple):
        return ProbeVerdict(*verdict)
    return ProbeVerdict(bool(verdict))
