"""Fault-isolated campaign execution (an extension beyond the paper).

The paper's harness assumes every compiler probe returns; industrial
campaigns cannot.  This package keeps long unattended campaigns alive when
targets misbehave:

* :class:`SupervisedTarget` — run each probe in a child process with a
  wall-clock timeout and memory cap; hangs/OOMs/hard crashes become
  ``TIMEOUT`` / ``RESOURCE`` / ``WORKER_CRASH`` outcomes instead of killing
  the campaign.
* :class:`CampaignJournal` — per-seed JSONL checkpoints so an interrupted
  campaign resumes (``Harness.run_campaign(journal=..., resume=True)``).
* :class:`QuarantineTracker` — targets that exceed a fault budget are
  skipped for the rest of the campaign.
* :func:`verdict_is_stable` — re-probe findings and flag flaky verdicts as
  ``nondeterministic`` so deduplication keeps them apart from stable bugs.
* :class:`FlakeHardenedOracle` — the fault envelope the reduction pass
  pipeline (:class:`repro.reduce.PassPipeline`, given a verdict test)
  probes through: supervised probes with per-candidate fault verdicts,
  adaptive k-of-n voting against flaky oracles, a fsync-per-line
  :class:`ReductionJournal` enabling byte-identical ``SIGKILL`` resume,
  and best-so-far graceful degradation.
* :mod:`repro.robustness.chaos` — the deterministic I/O fault-injection
  seam (:class:`FileOps` / :class:`ChaosFileOps`): every durable writer
  above performs its I/O through an injectable object, so tests can fail
  any *individual* ``write``/``fsync``/``open`` with ENOSPC/EIO, tear it
  at a chosen byte, or simulate ``SIGKILL`` at that exact instant
  (:class:`ChaosKill`); plus raw-socket misbehaving HTTP clients.
* :class:`CircuitBreaker` — per-tenant admission breaker over seeded
  decorrelated-jitter cooldowns (the campaign service's serial-failure
  backstop).
"""

from repro.robustness.breaker import CircuitBreaker
from repro.robustness.chaos import (
    REAL_FILEOPS,
    ChaosFileOps,
    ChaosKill,
    Fault,
    FileOps,
    slow_loris_post,
    truncated_post,
)
from repro.robustness.config import ReductionPolicy, RobustnessConfig
from repro.robustness.journal import (
    CampaignJournal,
    ReductionJournal,
    record_to_run,
    run_to_record,
)
from repro.robustness.quarantine import QuarantineTracker
from repro.robustness.reduction import (
    FlakeHardenedOracle,
    ProbeVerdict,
    ReductionAborted,
)
from repro.robustness.retry import (
    DecorrelatedJitter,
    backoff_sleep,
    verdict_is_stable,
)
from repro.robustness.sealed import parse_record, seal_record
from repro.robustness.supervisor import (
    SupervisedTarget,
    close_targets,
    find_supervised,
    supervise_targets,
)

__all__ = [
    "CampaignJournal",
    "ChaosFileOps",
    "ChaosKill",
    "CircuitBreaker",
    "DecorrelatedJitter",
    "Fault",
    "FileOps",
    "FlakeHardenedOracle",
    "ProbeVerdict",
    "QuarantineTracker",
    "REAL_FILEOPS",
    "ReductionAborted",
    "ReductionJournal",
    "ReductionPolicy",
    "RobustnessConfig",
    "SupervisedTarget",
    "backoff_sleep",
    "close_targets",
    "find_supervised",
    "parse_record",
    "record_to_run",
    "run_to_record",
    "seal_record",
    "slow_loris_post",
    "supervise_targets",
    "truncated_post",
    "verdict_is_stable",
]
