"""Show that fresh-process passes remove the warm-state difference.

Usage: ``python3 perfbench/isolation.py`` from the repository root.

Takes the first 12 findings of the reduce workload's set and reduces them
twice: once more in the same process with the same harness (the second
time finds the harness, the replay machinery and the interpreter warm), and
once more in a fresh process, as the benchmark runs its passes.  Each pair
is repeated three times in both orders (same-process pair first, and fresh
pair first); the report gives each pair's second-over-first time ratio.
Probe counts are equal in all runs, so any time ratio away from 1 is warm
state (or machine noise, which the repeats show).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, WORK, ensure_src_on_path  # noqa: E402

FINDINGS = 12
REPEATS = 3


def reduce_set(path: str, times: int) -> list[dict]:
    """Reduce the findings in *path* *times* times with one harness."""
    ensure_src_on_path()
    import repro.core  # noqa: F401  (package import order; see trial.py)
    from repro.robustness.journal import record_to_run

    from perfbench.workloads import default_harness

    harness = default_harness()
    references = {p.name: p for p in harness.references}
    records = json.loads(Path(path).read_text("utf-8"))
    rounds = []
    for _ in range(times):
        findings = [record_to_run(r, references).findings[0] for r in records]
        started = time.perf_counter()
        probes = sum(harness.reduce_finding(f).tests_run for f in findings)
        rounds.append({"seconds": time.perf_counter() - started,
                       "probes": probes})
    return rounds


def _child(path: Path, times: int) -> list[dict]:
    output = subprocess.run(
        [sys.executable, __file__, "--child", str(path), str(times)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(output.splitlines()[-1])


def main() -> int:
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="isolation-", dir=WORK))
    try:
        ensure_src_on_path()
        import repro.core  # noqa: F401
        from perfbench.workloads import build_reduce_set

        path = directory / "set.json"
        build_reduce_set(path)
        records = json.loads(path.read_text("utf-8"))[:FINDINGS]
        path.write_text(json.dumps(records))
        ratios: dict[str, list[float]] = {"same process": [], "fresh": []}
        probes = set()
        orders = (("same process", "fresh"), ("fresh", "same process"))
        for repeat in range(REPEATS):
            for position, arm in enumerate(orders[repeat % 2]):
                if arm == "same process":
                    rounds = _child(path, 2)
                else:
                    rounds = _child(path, 1) + _child(path, 1)
                probes.update(r["probes"] for r in rounds)
                ratio = rounds[1]["seconds"] / rounds[0]["seconds"]
                ratios[arm].append(ratio)
                print(f"{arm:>12} pair, {('first', 'second')[position]} in "
                      f"its order: {rounds[0]['seconds']:.3f} s then "
                      f"{rounds[1]['seconds']:.3f} s, ratio {ratio:.3f}")
        print(f"{len(records)} findings; probes to reduce them, every time: "
              f"{sorted(probes)}")
        for arm, values in ratios.items():
            print(f"{arm}: median second/first ratio "
                  f"{statistics.median(values):.3f} over {len(values)} pairs")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(reduce_set(sys.argv[2], int(sys.argv[3]))))
        sys.exit(0)
    sys.exit(main())
