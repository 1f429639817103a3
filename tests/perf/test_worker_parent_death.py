"""Pool workers exit when the process holding their pool is SIGKILLed.

A ``ProcessPoolExecutor`` worker blocks on its call queue; if its parent
dies without shutting the pool down, nothing ever wakes it, and it keeps
the parent's pipes open (a shell ``$(...)`` around the killed reducer then
hangs).  Both pool initializers start a parent watch, so a SIGKILLed
holder leaves no worker behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Holds a two-worker pool whose workers each record their pid and then
#: block in a probe (or a seed shard), until the test kills the holder.
HOLDER = r"""
import os, sys, time

def record_and_block(*args):
    with open(sys.argv[2], "a") as handle:
        handle.write(f"{os.getpid()}\n")
    time.sleep(120)
    return True

if sys.argv[1] == "reduction-pool":
    from repro.perf.reduce_pool import CallableProbeSpec, ReductionPool

    spec = CallableProbeSpec(test=record_and_block, items=(0, 1))
    pool = ReductionPool({"k": spec}, 2)
    pool.submit("k", (0,))
    pool.submit("k", (1,))
    time.sleep(120)
else:
    import repro.perf.parallel as parallel

    spec = parallel.CampaignSpec(
        kind="core",
        target_names=("SwiftShader",),
        reference_names=("arith_mix_0",),
    )
    parallel._run_seed_shard = record_and_block
    parallel.ParallelExecutor(2).run_seed_shards(spec, [0, 1, 2, 3])
"""


def _alive(pid: int) -> bool:
    """Running (a reaped or zombie process counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("pool", ["reduction-pool", "parallel-executor"])
def test_workers_exit_when_the_holder_is_sigkilled(tmp_path, pool):
    pids_path = tmp_path / "pids"
    env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLDER, pool, str(pids_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(workers) < 2:
            assert holder.poll() is None, "holder exited early"
            if pids_path.exists():
                workers = [int(p) for p in pids_path.read_text().split()]
            time.sleep(0.05)
        assert len(workers) == 2, workers
        os.kill(holder.pid, signal.SIGKILL)
        holder.wait(timeout=10)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.05)
        assert not any(map(_alive, workers)), "pool workers outlived the holder"
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
