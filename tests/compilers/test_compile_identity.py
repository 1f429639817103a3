"""Compile identity: every optimizer output is pinned byte for byte.

``data/parent_compiles.json`` records, for a fixed set of compiles, the
input module's ``content_digest`` and either the output's ``content_digest``,
sorted ``bugs.fired`` and ``id_bound``, or the crash message and bug id.
The compiles are the tool pipeline (``optimize``) and every target's
``Target.compile`` on each reference program, and on the campaign variant of
each seed in :data:`SEEDS` plus that variant's ``optimize`` output (the
campaign's optimized flow).

The fixture was written by the optimizer before its passes were made
use-driven.  Injected bugs key on program shape after each pass, so a drift
in ``bugs.fired`` (or in any digest) is a fault in the passes, never a
reason to rewrite the fixture.  To write the fixture from a checkout::

    PYTHONPATH=src:. python -m tests.compilers.test_compile_identity
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.compilers import make_targets
from repro.compilers.base import CompilerCrash
from repro.compilers.pipeline import optimize
from repro.core.fuzzer import Fuzzer, FuzzerOptions
from repro.corpus import donor_programs, reference_programs
from repro.ir.module import IrError, Module

FIXTURE = Path(__file__).parent / "data" / "parent_compiles.json"
#: Campaign fuzz seeds whose variants are compiled.
SEEDS = range(30)


def _compile_record(target, module: Module) -> dict:
    try:
        out, bugs = target.compile(module)
    except CompilerCrash as crash:
        return {"crash": crash.message, "bug": crash.bug_id}
    except (IrError, RecursionError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "out": out.content_digest(),
        "fired": sorted(bugs.fired),
        "id_bound": out.id_bound,
    }


def _optimize_record(module: Module) -> dict:
    out = optimize(module)
    return {"out": out.content_digest(), "id_bound": out.id_bound}


def _compile_all(label: str, module: Module, targets, records: list) -> None:
    digest = module.content_digest()
    records.append({"key": f"{label}/optimize", "in": digest, **_optimize_record(module)})
    for target in targets:
        records.append(
            {"key": f"{label}/{target.name}", "in": digest, **_compile_record(target, module)}
        )


def compile_records() -> list[dict]:
    """Recompute every pinned compile, in fixture order."""
    targets = make_targets()
    references = reference_programs()
    fuzzer = Fuzzer(donor_programs(), FuzzerOptions())
    records: list[dict] = []
    for program in references:
        _compile_all(program.name, program.module, targets, records)
    for seed in SEEDS:
        program = references[seed % len(references)]
        variant = fuzzer.run(program.module, program.inputs, seed).variant
        _compile_all(f"seed{seed}", variant, targets, records)
        _compile_all(f"seed{seed}/optimized", optimize(variant), targets, records)
    return records


def test_compiles_match_the_pinned_outputs():
    expected = json.loads(FIXTURE.read_text())["compiles"]
    # The pinned set exercises crash sites and miscompile sites alike.
    assert any("crash" in r for r in expected)
    assert any(r.get("fired") for r in expected)
    actual = compile_records()
    assert [r["key"] for r in actual] == [r["key"] for r in expected]
    drifted = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not drifted, f"{len(drifted)} compiles drifted; first: {drifted[0]}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({"seeds": list(SEEDS), "compiles": compile_records()}, indent=1)
        + "\n"
    )
