"""The public API: every exported name exists, and importing it stays light."""

import os
import subprocess
import sys
from pathlib import Path

import logweight as lw

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in lw.__all__ if not hasattr(lw, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(lw.__all__)) == len(lw.__all__)


def test_import_loads_no_scipy():
    # scipy takes about a second to import; only sphere sampling needs it.
    code = "import sys, logweight; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
