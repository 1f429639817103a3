"""Every ``repro`` package imports as the first import of a fresh
interpreter — no import cycle depends on what happened to be imported
before it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in SRC.glob("repro/**/__init__.py")
)
#: Leaf modules on the journal / dedup import path, which ``repro.core``
#: and ``repro.robustness`` both reach.
MODULES = PACKAGES + [
    "repro.core.dedup_scale",
    "repro.robustness.journal",
    "repro.robustness.reduction",
]


@pytest.mark.parametrize("module", MODULES)
def test_first_import_in_a_fresh_interpreter(module):
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
