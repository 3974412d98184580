"""The benchmark harness still runs against the package.

perfbench/tracing.py patches logweight functions, methods and hook
arguments by name; a refactor that drops or renames one of them breaks the
traced run, and its self-check reports that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout
