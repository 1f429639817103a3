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
* **Parallelism** — ddmin legs run on the speculative parallel engine.  A
  harness-built probe pool rebuilds the *original* finding sequence in its
  workers, so candidate index tuples are re-based through the pipeline's
  positions map (:class:`_IndexMappedPool`); once a pass has *mutated* an
  element in place (payload shrinking) the map is void and later ddmin legs
  run serially — cheap, because they happen after the big first leg.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.core.reducer import ReductionResult
from repro.observability import as_tracer

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
    """A :class:`~repro.core.reducer.ReductionResult` plus per-pass stats
    and the cleanup pass's module (when it ran)."""

    pass_stats: list[PassStats] = field(default_factory=list)
    #: The module after the ``cleanup`` (spirv-reduce) pass; ``None`` when no
    #: module pass ran.  Like ``replay_stats`` it is observational.
    cleaned_module: Any = None

    def to_json(self) -> dict:
        data = super().to_json()
        data["passes"] = [stats.to_json() for stats in self.pass_stats]
        return data


def ddmin_pipeline_result(
    result: ReductionResult, *, ran: bool = True
) -> PipelineResult:
    """The :class:`PipelineResult` ``PassPipeline(["ddmin"])`` reports for a
    bare ddmin reduction *result* — for engines driven outside the pipeline
    (``Harness.reduce_all``'s cross-finding fleet).  *ran* is false when the
    reduction degraded while verifying its input, before ddmin started."""
    from dataclasses import fields

    stats = PassStats("ddmin")
    if ran:
        stats.runs = 1
        stats.probes = result.tests_run - 1  # all but the verify probe
        stats.accepted = len(result.history)
        stats.removed = result.initial_length - result.final_length
    piped = PipelineResult(
        **{f.name: getattr(result, f.name) for f in fields(ReductionResult)},
        pass_stats=[stats],
    )
    speculation = getattr(result, "speculation", None)
    if speculation is not None:
        piped.speculation = speculation
    return piped


@dataclass
class PipelineContext:
    """Everything a pipeline run probes through.

    Exactly one of ``is_interesting`` (plain boolean oracle) or
    ``verdict_test`` (a :class:`~repro.robustness.reduction.ProbeVerdict`
    test routed through the fault envelope + journal) must be set.
    ``module_probe`` maps the final sequence to ``(module, module_verdict)``
    for module-stage passes; without it they are skipped.
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


class _IndexMappedPool:
    """A :class:`~repro.perf.reduce_pool.ReductionPool` proxy that re-bases
    candidate index tuples from the pipeline's current sequence to the
    original the pool's worker spec was built from.  ``close`` is a no-op —
    the pipeline's caller owns the real pool."""

    def __init__(self, pool: Any, positions: Sequence[int]) -> None:
        self._pool = pool
        self._positions = list(positions)

    def _map(self, indices) -> tuple:
        return tuple(self._positions[i] for i in indices)

    def submit(self, key: str, indices):
        return self._pool.submit(key, self._map(indices))

    def submit_batch(self, key: str, index_lists):
        return self._pool.submit_batch(key, [self._map(ix) for ix in index_lists])

    @property
    def capacity(self) -> int:
        return self._pool.capacity

    def absorb(self, key: str, delta) -> None:
        return self._pool.absorb(key, delta)

    def recover(self) -> None:
        return self._pool.recover()

    def replay_stats_for(self, key: str):
        return self._pool.replay_stats_for(key)

    def close(self) -> None:
        pass


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
        execution = _Execution(self, ctx, transformations)
        return execution.run()


class _Execution:
    """Single-use state machine for one :meth:`PassPipeline.run`."""

    def __init__(self, pipeline: PassPipeline, ctx: PipelineContext, transformations):
        self.pipeline = pipeline
        self.ctx = ctx
        self.giveup = pipeline.giveup
        self.tracer = as_tracer(ctx.tracer)
        self.sequence = list(transformations)
        self.current = list(transformations)
        self.positions: list[int] | None = list(range(len(self.sequence)))
        self.fault = ctx.verdict_test is not None
        self.deadline: float | None = (
            time.monotonic() + ctx.max_seconds if ctx.max_seconds is not None else None
        )
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

    @property
    def stopped(self) -> bool:
        return self.degraded is not None or self.timed_out

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    # -- oracle / journal plumbing -------------------------------------------------

    def _prepare_journal(self) -> None:
        from repro.robustness.journal import ReductionJournal, parse_record

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
        existing = None
        if self.ctx.resume and self.journal.path.exists():
            for line in self.journal.path.read_text(
                encoding="utf-8", errors="replace"
            ).splitlines():
                record = parse_record(line)
                if record is not None and "pipeline" in record:
                    existing = record
                    break
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
                # across passes, and ``__call__`` pops consumed records.
                resume_records=dict(self.decisions),
                supervised_target=self.ctx.supervised_target,
                tracer=self.tracer,
                metrics=self.ctx.metrics,
                replay_stats=self.ctx.replay_stats,
                key_fn=key_fn,
            )
            oracle.initial_length = len(self.sequence)
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
        from repro.perf.parallel_reduce import parallel_reduce
        from repro.robustness.reduction import reduce_with_faults

        before_len = len(self.current)
        remaining = None
        if self.deadline is not None:
            remaining = max(0.0, self.deadline - time.monotonic())
        workers = max(1, self.ctx.workers or 1)
        pool = None
        if self.ctx.pool is not None and workers > 1 and self.positions is not None:
            pool = _IndexMappedPool(self.ctx.pool, self.positions)
        if self.fault:
            oracle = self.oracle_for(run.name)
            calls_before = oracle.calls
            result = reduce_with_faults(
                self.current,
                self.ctx.verdict_test,
                self.policy,
                supervised_target=self.ctx.supervised_target,
                tracer=self.tracer,
                metrics=self.ctx.metrics,
                replay_stats=self.ctx.replay_stats,
                workers=workers if pool is not None else 1,
                window=self.ctx.window,
                pool=pool,
                pool_key=self.ctx.pool_key,
                oracle=oracle,
                verify=False,
            )
            probes = oracle.calls - calls_before
        else:
            result = parallel_reduce(
                self.current,
                self.ctx.is_interesting,
                workers=workers if self.ctx.pool is None or pool is not None else 1,
                window=self.ctx.window,
                verify_input=False,
                max_seconds=remaining,
                tracer=self.tracer,
                pool=pool,
                pool_key=self.ctx.pool_key,
                batch=self.ctx.probe_batch,
                metrics=self.ctx.metrics,
            )
            probes = result.tests_run
            self.tests_total += result.tests_run
        run.stats.probes += probes
        run.stats.accepted += len(result.history)
        run.stats.removed += before_len - len(result.transformations)
        self.sequence_chunks += len(result.history)
        if len(result.transformations) < before_len:
            run.changed = True
        if self.positions is not None:
            positions = list(self.positions)
            for _chunk, start, end in result.history:
                del positions[start:end]
            if len(positions) == len(result.transformations):
                self.positions = positions
            else:  # a degraded leg lost its trajectory; stop pool mapping
                self.positions = None
        self.current = list(result.transformations)
        self.histories.extend(result.history)
        speculation = getattr(result, "speculation", None)
        if speculation is not None:
            self.speculations.append(speculation)
        if result.timed_out or result.degraded == "budget-exhausted":
            self.timed_out = True
        elif result.degraded:
            self.degraded = result.degraded

    # -- scheduling ------------------------------------------------------------------

    def run(self) -> PipelineResult:
        from repro.robustness.reduction import ReductionAborted

        if self.fault:
            self._prepare_journal()
            oracle = self.oracle_for("verify")
            try:
                verified = oracle.verify(self.sequence)
            except ReductionAborted as abort:
                self.degraded = abort.reason
                self.detail = abort.detail
                return self._finish()
            except ValueError:
                raise
            except Exception as exc:  # noqa: BLE001 - degrade like reduce_with_faults
                self.degraded = f"oracle-error: {type(exc).__name__}"
                self.detail = str(exc)
                return self._finish()
            # The verify probe is already in the verify oracle's ``calls``;
            # fault-mode tests_run sums oracle calls, so don't bill it twice.
            if not verified:
                if oracle.last_verdict_faulted:
                    self.degraded = "verify-faulted"
                    return self._finish()
                raise ValueError(
                    "the full transformation sequence is not interesting"
                )
        else:
            self.tests_total = 1
            if not self.ctx.is_interesting(self.sequence):
                raise ValueError(
                    "the full transformation sequence is not interesting"
                )

        sequence_passes = [p for p in self.pipeline.passes if p.stage == "sequence"]
        module_passes = [p for p in self.pipeline.passes if p.stage != "sequence"]
        pending = {p.name for p in sequence_passes}
        sweep = 0
        try:
            while pending and not self.stopped:
                sweep += 1
                for reduction_pass in sequence_passes:
                    if reduction_pass.name not in pending or self.stopped:
                        continue
                    pending.discard(reduction_pass.name)
                    run = self._invoke(reduction_pass, sweep)
                    if run is not None and run.changed:
                        pending.update(
                            p.name
                            for p in sequence_passes
                            if p.name != reduction_pass.name
                        )
            if module_passes and not self.stopped and self.ctx.module_probe is not None:
                self.module, self.module_verdict = self.ctx.module_probe(self.current)
                for reduction_pass in module_passes:
                    if self.stopped:
                        break
                    self._invoke(reduction_pass, sweep)
        finally:
            if self.ctx.supervised_target is not None:
                self.ctx.supervised_target.set_timeout_override(None)
        return self._finish()

    def _invoke(self, reduction_pass: ReductionPass, sweep: int) -> PassRun | None:
        from repro.robustness.reduction import ReductionAborted

        if self.out_of_time():
            self.timed_out = True
            return None
        run = PassRun(self, reduction_pass)
        self.stats[reduction_pass.name].runs += 1
        probes_before = run.stats.probes
        accepted_before = run.stats.accepted
        removed_before = run.stats.removed
        try:
            reduction_pass.run(run)
        except ReductionAborted as abort:
            self.degraded = abort.reason
            self.detail = abort.detail
        except ValueError:
            raise
        except Exception as exc:  # noqa: BLE001 - degrade like reduce_with_faults
            if not self.fault:
                raise
            self.degraded = f"oracle-error: {type(exc).__name__}"
            self.detail = str(exc)
        self.tracer.emit(
            "reduce.pass",
            name=reduction_pass.name,
            sweep=sweep,
            probes=run.stats.probes - probes_before,
            accepted=run.stats.accepted - accepted_before,
            removed=run.stats.removed - removed_before,
            gave_up=run.gave_up,
            remaining=len(self.current),
        )
        if self.ctx.metrics is not None:
            self.ctx.metrics.inc("reduce.pass_runs")
            self.ctx.metrics.inc(f"reduce.pass_runs.{reduction_pass.name}")
        return run

    # -- result assembly ---------------------------------------------------------------

    def _finish(self) -> PipelineResult:
        if self.fault:
            tests_run = self.tests_total + sum(
                oracle.calls for oracle in self.oracles.values()
            )
        else:
            tests_run = self.tests_total
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
        speculation = _merge_speculation(self.speculations)
        if speculation is not None:
            result.speculation = speculation
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
