"""The deterministic I/O fault matrix: every store write can fail, and the
blast radius is always exactly one campaign.

Scenario: two tenants (alice's ``alpha``, bob's ``beta``), one worker, two
seeds each.  A counting pass over a healthy :class:`ChaosFileOps` first
enumerates every armed durable I/O call the scenario performs (journal
open/write/fsync per seed, meta appends per transition, the atomic result
write's open/write/fsync/replace/dir-fsync).  Then, for a stride-sampled
subset of those fault points (``SERVICE_CHAOS_IO_STRIDE``; CI runs stride
1 = the full matrix):

* **error mode** — that one call raises ENOSPC/EIO: the campaign owning
  the faulted path must land ``DEGRADED`` with a structured reason, the
  *other* campaign must finish ``DONE`` with byte-identical result bytes,
  and ``store.check_all()`` must be clean;
* **kill mode** — that one call tears its write at a seeded offset and the
  process "dies" (:class:`ChaosKill`): a fresh service over the same store
  must recover to exactly the baseline — both campaigns ``DONE``, result
  bytes identical, journal records identical.

Everything is reproducible: fault points come from the deterministic
enumeration (asserted identical across two counting passes) and tear
offsets derive from a seeded RNG, so any red run reproduces from its
parametrization alone.
"""

from __future__ import annotations

import errno
import os
import random
from pathlib import Path

import pytest

from repro.core.fuzzer import FuzzerOptions
from repro.perf.parallel import CampaignSpec
from repro.robustness.chaos import ChaosFileOps, ChaosKill, Fault
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
)
from repro.service import state as st

#: A real (JSON-round-trippable) spec, small enough to keep every matrix
#: trial cheap — recovery rebuilds it from the submit record, so the spec
#: doubles (not serialisable) cannot be used here.
SPEC = CampaignSpec(
    kind="core",
    target_names=("SwiftShader",),
    reference_names=("arith_mix_0",),
    options=FuzzerOptions(max_transformations=12),
)

SEEDS = (0, 1)
CAMPAIGNS = (("alpha", "alice"), ("beta", "bob"))

CONFIG = ServiceConfig(
    workers=1,
    batch_size=2,
    lease_ttl=30.0,
    restart_backoff=0.01,
    poll_interval=0.02,
)


def _submit_all(service: CampaignService) -> None:
    for campaign_id, tenant in CAMPAIGNS:
        manifest = CampaignManifest(
            campaign_id=campaign_id,
            spec=SPEC,
            seeds=SEEDS,
            tenant=tenant,
        )
        assert service.submit(manifest) is None


def _run_scenario(root: Path, fileops: ChaosFileOps) -> CampaignStore:
    """Set up (unarmed), arm, and drive the two-campaign scenario to idle.
    The caller owns exception handling (kill mode) and shutdown."""
    store = CampaignStore(root, fileops=fileops)
    service = CampaignService(store, CONFIG)
    _submit_all(service)
    service.fleet.start()
    fileops.arm()
    try:
        service.run_until_idle(max_seconds=120.0)
    finally:
        service.shutdown()
    return store


def _snapshot(store: CampaignStore) -> dict:
    out: dict = {}
    for campaign_id, _tenant in CAMPAIGNS:
        out[campaign_id] = {
            "state": store.state(campaign_id),
            "result_bytes": store.result_path(campaign_id).read_bytes(),
            "journal": store.journal(campaign_id).load_records(),
        }
    return out


def _campaign_of(store_root: Path, path: str) -> str:
    relative = Path(path).relative_to(store_root / "campaigns")
    return relative.parts[0]


def _enumerate(tmp_path: Path, name: str) -> tuple[list, dict, Path]:
    """One healthy counting pass: returns (ops, snapshot, store_root)."""
    root = tmp_path / name
    ops = ChaosFileOps(armed=False)
    store = _run_scenario(root, ops)
    assert store.check_all() == []
    return ops.ops, _snapshot(store), root


def _relative_ops(ops: list, root: Path) -> list:
    return [(op, os.path.relpath(path, root)) for op, path in ops]


def _fault_for(ops: list, position: int, **kwargs) -> Fault:
    op, _path = ops[position]
    index = sum(1 for other, _ in ops[:position] if other == op)
    return Fault(op=op, index=index, **kwargs)


def _stride() -> int:
    return max(1, int(os.environ.get("SERVICE_CHAOS_IO_STRIDE", "3")))


def test_fault_point_enumeration_is_deterministic(tmp_path):
    ops_a, snap_a, root_a = _enumerate(tmp_path, "a")
    ops_b, snap_b, root_b = _enumerate(tmp_path, "b")
    assert _relative_ops(ops_a, root_a) == _relative_ops(ops_b, root_b)
    for campaign_id, _tenant in CAMPAIGNS:
        assert (
            snap_a[campaign_id]["result_bytes"]
            == snap_b[campaign_id]["result_bytes"]
        )
        assert snap_a[campaign_id]["journal"] == snap_b[campaign_id]["journal"]
    # The matrix below relies on the scenario exercising every op kind.
    kinds = {op for op, _ in ops_a}
    assert kinds == {"open", "write", "fsync", "replace", "fsync_dir"}


def test_error_matrix_single_campaign_blast_radius(tmp_path):
    baseline_ops, baseline, baseline_root = _enumerate(tmp_path, "baseline")
    errno_for = {
        "open": errno.ENOSPC,
        "write": errno.ENOSPC,  # injected as a realistic short write
        "fsync": errno.EIO,
        "replace": errno.EIO,
        "fsync_dir": errno.EIO,
    }
    positions = range(0, len(baseline_ops), _stride())
    for position in positions:
        op, path = baseline_ops[position]
        affected = _campaign_of(baseline_root, path)
        others = [c for c, _t in CAMPAIGNS if c != affected]
        mode = "short" if op == "write" else "error"
        fault = _fault_for(
            baseline_ops,
            position,
            mode=mode,
            error=errno_for[op],
            tear_at=5 if mode == "short" else None,
        )
        ops = ChaosFileOps([fault], armed=False)
        store = _run_scenario(tmp_path / f"err-{position}", ops)
        assert ops.fired, f"fault at point {position} ({op}) never fired"

        affected_state = store.state(affected)
        if affected_state == st.DONE:
            # The one benign shape: the faulted call was the fsync of the
            # campaign's own terminal record, which had already landed —
            # the campaign genuinely completed (durability unconfirmed,
            # which a crash would resolve by re-finalizing identically).
            assert (
                store.result_path(affected).read_bytes()
                == baseline[affected]["result_bytes"]
            )
        else:
            assert affected_state == st.DEGRADED, (
                f"point {position}: {op} on {affected} -> {affected_state}"
            )
            last = store.history(affected)[-1]
            assert last.get("reason") in {
                "journal-write-failed",
                "meta-write-failed",
                "finalize-io-error",
            }, last
        # The blast radius is one campaign: everyone else is untouched.
        for other in others:
            assert store.state(other) == st.DONE
            assert (
                store.result_path(other).read_bytes()
                == baseline[other]["result_bytes"]
            )
            assert (
                store.journal(other).load_records()
                == baseline[other]["journal"]
            )
        assert store.check_all() == [], store.check_all()


def test_kill_matrix_recovers_byte_identical(tmp_path):
    baseline_ops, baseline, _root = _enumerate(tmp_path, "baseline")
    stride = _stride()
    for position in range(stride // 2, len(baseline_ops), stride):
        op, _path = baseline_ops[position]
        rng = random.Random(0xC0FFEE ^ position)
        fault = _fault_for(
            baseline_ops,
            position,
            mode="kill",
            tear_at=rng.randrange(0, 64) if op == "write" else None,
        )
        root = tmp_path / f"kill-{position}"
        ops = ChaosFileOps([fault], armed=False)
        try:
            _run_scenario(root, ops)
        except ChaosKill:
            pass
        else:
            pytest.fail(f"kill fault at point {position} ({op}) never fired")

        # "Reboot": a fresh service over the same store, healthy disk.
        store = CampaignStore(root)
        service = CampaignService(store, CONFIG)
        service.start()
        try:
            service.run_until_idle(max_seconds=120.0)
        finally:
            service.shutdown()
        assert store.check_all() == [], store.check_all()
        for campaign_id, _tenant in CAMPAIGNS:
            assert store.state(campaign_id) == st.DONE, (
                f"point {position}: {campaign_id} -> "
                f"{store.state(campaign_id)}"
            )
            assert (
                store.result_path(campaign_id).read_bytes()
                == baseline[campaign_id]["result_bytes"]
            ), f"point {position}: result bytes diverged for {campaign_id}"
            assert (
                store.journal(campaign_id).load_records()
                == baseline[campaign_id]["journal"]
            )


#: A spec whose first two seeds yield a finding, so ``reduce=1`` runs the
#: REDUCING phase and writes ``reduce-0.jsonl``.
REDUCE_SPEC = CampaignSpec(
    kind="core",
    target_names=("SwiftShader", "NVIDIA"),
    reference_names=("arith_mix_0", "loop_sum_5"),
    donor_names=("donor_math_0",),
    options=FuzzerOptions(max_transformations=40),
)


def _run_reducing(root: Path, fileops: ChaosFileOps) -> CampaignStore:
    store = CampaignStore(root, fileops=fileops)
    service = CampaignService(store, CONFIG)
    assert (
        service.submit(CampaignManifest("r1", REDUCE_SPEC, SEEDS, reduce=1))
        is None
    )
    service.fleet.start()
    fileops.arm()
    try:
        service.run_until_idle(max_seconds=120.0)
    finally:
        service.shutdown()
    return store


def test_reduction_journal_goes_through_the_seam(tmp_path):
    healthy = ChaosFileOps(armed=False)
    store = _run_reducing(tmp_path / "healthy", healthy)
    assert store.state("r1") == st.DONE
    reduce_ops = [
        op
        for op, path in _relative_ops(healthy.ops, tmp_path / "healthy")
        if path == os.path.join("campaigns", "r1", "reduce-0.jsonl")
    ]
    assert {"open", "write", "fsync"} <= set(reduce_ops), reduce_ops

    position = next(
        index
        for index, (op, path) in enumerate(healthy.ops)
        if op == "write" and path.endswith("reduce-0.jsonl")
    )
    fault = _fault_for(healthy.ops, position, error=errno.ENOSPC)
    faulty = ChaosFileOps([fault], armed=False)
    store = _run_reducing(tmp_path / "enospc", faulty)
    assert faulty.fired == [fault]
    assert store.state("r1") == st.DEGRADED
    assert store.history("r1")[-1].get("reason") == "finalize-io-error"
    assert store.check_all() == []
