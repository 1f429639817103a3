"""Flaky-oracle property: the hardened reducer never returns garbage.

A seeded oracle lies about its verdict with probability ``p`` per probe.
The raw delta-debugging loop trusts every probe, so a single lucky lie can
make it *accept* a removal the bug does not survive — the "reduced" output
then is not interesting at all — or reject the input outright.  The
flake-hardened pipeline votes (3 unanimous probes to accept, best-of-5
majorities for verify and escalated rejections), which this property pins
down across hundreds of seeded runs: zero corrupt results, while the raw
reducer demonstrably fails on a large fraction of the same oracles.

Everything is seeded (``random.Random(seed)``), so the runs — and the
failure counts asserted below — are deterministic.
"""

from __future__ import annotations

import random

from repro.core.reducer import reduce_transformations
from repro.robustness import ProbeVerdict, ReductionPolicy

from tests.reduce.ddmin import run_ddmin

SEQUENCE = list("abcdefghijkl")
NEEDLES = {"c", "i"}
LIE_PROBABILITY = 0.05
RUNS = 250

HARDENED = ReductionPolicy(accept_votes=3, reject_votes=5, retry_backoff=0.0)


def truth(candidate) -> bool:
    return NEEDLES.issubset(candidate)


class FlakyOracle:
    """Returns the true verdict, flipped with probability ``p`` per probe."""

    def __init__(self, seed: int, p: float = LIE_PROBABILITY) -> None:
        self.rng = random.Random(seed)
        self.p = p

    def __call__(self, candidate) -> ProbeVerdict:
        verdict = truth(candidate)
        if self.rng.random() < self.p:
            verdict = not verdict
        return ProbeVerdict(verdict)


def test_hardened_reducer_never_returns_a_non_interesting_sequence():
    flaky_runs = 0
    for seed in range(RUNS):
        result = run_ddmin(
            SEQUENCE, verdict_test=FlakyOracle(seed), policy=HARDENED
        )
        assert truth(result.transformations), (
            f"seed {seed}: hardened reduction returned a non-interesting "
            f"sequence {result.transformations!r}"
        )
        if result.stability["disagreements"]:
            flaky_runs += 1
    # The property is vacuous if the oracle never actually lied: most runs
    # must have observed (and survived) at least one disagreement.
    assert flaky_runs > RUNS // 2


def test_raw_reducer_demonstrably_fails_on_the_same_oracles():
    failures = 0
    first_failure = None
    for seed in range(RUNS):
        oracle = FlakyOracle(seed)
        try:
            result = reduce_transformations(
                SEQUENCE, lambda candidate: oracle(candidate).interesting
            )
        except ValueError:  # a lie on the verify probe rejected the input
            failures += 1
        else:
            if not truth(result.transformations):
                failures += 1
            else:
                continue
        if first_failure is None:
            first_failure = seed
    assert failures > 0, "the raw reducer survived every flaky oracle"
    # Not a fluke: a double-digit share of runs is corrupted or aborted.
    assert failures >= RUNS // 10, (failures, first_failure)


def test_hardened_result_matches_raw_on_a_truthful_oracle():
    # With no lies, the voting machinery must be invisible: same minimal
    # sequence, no disagreements, no escalation.
    raw = reduce_transformations(SEQUENCE, truth)
    hardened = run_ddmin(
        SEQUENCE, verdict_test=lambda c: ProbeVerdict(truth(c)), policy=HARDENED
    )
    assert hardened.transformations == raw.transformations
    assert hardened.stability["disagreements"] == 0
    assert hardened.stability["escalated"] is False
