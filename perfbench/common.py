"""Paths and small statistics shared by the benchmark's entry points."""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in (the directory holding ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for inputs handed to trial processes, service stores and
#: written span files.  Inside the checkout and ignored by git.
WORK = ROOT / ".perfbench_work"


#: What the calibration walk takes, in seconds, on the reference machine.
#: Every end-to-end time is scaled by ``CALIBRATION_REF_S`` over the walk's
#: median time in its own pass, so it reads in reference-machine seconds.
CALIBRATION_REF_S = 0.1
#: Calibration walks timed before each pass's set-up, and again after its
#: timed region.
CALIBRATION_SAMPLES = 4


class _Node:
    __slots__ = ("id", "op", "args", "value")

    def __init__(self, node_id: int, op: str, args: list) -> None:
        self.id = node_id
        self.op = op
        self.args = args
        self.value = 0


def calibration_walk() -> int:
    """Build and sweep a fixed 20k-node object graph; runs no package code.

    On a shared machine the CPU's speed moves by tens of percent over
    minutes.  This walk does the kind of work the program does (small
    objects, attribute reads, list and dict lookups), so its time tracks
    that speed closely enough to take it out of the reported times.
    """
    rng = random.Random(7)
    nodes: list[_Node] = []
    by_id: dict[int, _Node] = {}
    for index in range(20000):
        args = ([nodes[rng.randrange(index)] for _ in range(2)]
                if index > 2 else [])
        node = _Node(index, ("add", "mul", "load", "phi")[index % 4], args)
        nodes.append(node)
        by_id[index] = node
    for _ in range(3):
        for node in nodes:
            if node.args:
                node.value = (node.args[0].value
                              + by_id[node.args[1].id].value + 1) & 0xFFFF
    return len({node.id for node in nodes if node.value % 3})


def calibrate() -> list[float]:
    """:data:`CALIBRATION_SAMPLES` timings of :func:`calibration_walk`."""
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        calibration_walk()
        samples.append(time.perf_counter() - start)
    return samples


def scale_of(samples: list[float]) -> float:
    """The factor that turns this machine's seconds into reference seconds."""
    return CALIBRATION_REF_S / statistics.median(samples)


def require_src() -> None:
    """Exit with code 2 when the checkout has no package source, so the
    benchmark fails loudly instead of measuring some other installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def ensure_src_on_path() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    require_src()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def digest(payload: object) -> str:
    """A stable content digest of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``: the 11th-largest sample,
    the percentile it sits at, and how many samples there were.  With ten
    or fewer samples no such percentile exists and the maximum is returned
    at percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count
