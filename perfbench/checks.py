"""Correctness checks of each workload's outputs.

Each check returns a list of problems (empty when the output is right), so
the benchmark can fail the run on any of them and the self-tests can plant
wrong outputs and see them rejected.
"""

from __future__ import annotations

from typing import Callable, Sequence


def ground_truth_enabled(
    findings: Sequence[tuple[int, str, str, str | None, bool | None]],
    enabled: dict[str, frozenset],
) -> list[str]:
    """Every finding's ground-truth bug is enabled on its target.

    *findings* holds ``(seed, target, kind, ground_truth_bug, clean_agrees)``.
    The harness leaves ``ground_truth_bug`` unset for a miscompilation when
    the same bugs fired on the original and the variant; such a finding
    passes only if a bug-free build of its target (``clean_agrees``) gives
    the variant the original's result, so an enabled bug made the
    difference.
    """
    problems = []
    for seed, target, kind, bug, clean_agrees in findings:
        if bug is None and kind == "miscompilation" and clean_agrees:
            continue
        if bug is None or bug not in enabled.get(target, frozenset()):
            problems.append(
                f"seed {seed}: {kind} finding on {target} blames {bug!r}, "
                "which that target does not enable")
    return problems


def repeats(label: str, digests: Sequence[str]) -> list[str]:
    """The same inputs gave the same output digest on every pass."""
    if len(set(digests)) <= 1:
        return []
    return [f"{label} differs between passes of one seed: {sorted(set(digests))}"]


def reductions_reproduce(
    cases: Sequence[tuple[str, Sequence, Sequence, Callable[[Sequence], bool]]],
    *,
    minimality: bool = False,
) -> list[str]:
    """Each reduced sequence is no longer than its input and still triggers
    its finding; with *minimality*, removing any one transformation stops
    it triggering (1-minimality).

    *cases* holds ``(label, input, reduced, is_interesting)``; the empty
    sequence counts as not interesting without a probe, as in the reducer.
    """
    problems = []
    for label, initial, reduced, is_interesting in cases:
        reduced = list(reduced)
        if len(reduced) > len(initial):
            problems.append(
                f"{label}: reduced to {len(reduced)} from {len(initial)}")
        if not reduced or not is_interesting(reduced):
            problems.append(f"{label}: reduced sequence no longer reproduces")
            continue
        if minimality:
            for index in range(len(reduced)):
                candidate = reduced[:index] + reduced[index + 1:]
                if candidate and is_interesting(candidate):
                    problems.append(
                        f"{label}: not 1-minimal (transformation {index} "
                        "can be removed)")
                    break
    return problems


def service_outcome(
    states: dict[str, str | None],
    violations: Sequence[str],
    journaled_digest: str,
    direct_digest: str,
) -> list[str]:
    """Every campaign reached DONE, the store checks clean, and the journaled
    seed records equal those of a direct run on the same seeds."""
    problems = [
        f"campaign {cid} ended {state}, not DONE"
        for cid, state in states.items()
        if state != "DONE"
    ]
    problems += [f"store: {violation}" for violation in violations]
    if journaled_digest != direct_digest:
        problems.append(
            "journaled seed records differ from a direct run's records")
    return problems


def dedup_picks(label: str, picks, expected: list[dict]) -> list[str]:
    """Streamed dedup picks equal the batch ``deduplicate`` picks over the
    same tests, and within each pool (stable, nondeterministic) no two
    picks share a transformation type."""
    problems = []
    if picks != expected:
        problems.append(
            f"{label}: streamed picks differ from batch deduplicate picks")
    for pool in (False, True):
        covered: set[str] = set()
        for pick in picks or ():
            if pick["nondeterministic"] is not pool:
                continue
            if covered & set(pick["types"]):
                problems.append(
                    f"{label}: pick {pick['test']} shares a type with an "
                    "earlier pick")
            covered.update(pick["types"])
    return problems
