"""The benchmark harness still runs against the package, and its reports
keep their bytes.

perfbench/tracing.py patches logweight functions, methods and hook
arguments by name; a refactor that drops or renames one of them breaks the
traced run, and its self-check reports that here.  Each workload digests
the reports of its ops; at seed 7 the digests are pinned, so a change that
moves a single report byte fails here.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the sha256 "report digest" each workload prints at seed 7
REPORT_DIGESTS = {
    "deep_lemmas": "11c146172d366459858669e86ca90c05dc753035223ef3437690b09715a428a7",
    "cli_grid": "ec85e434a571da59e86499068c00602d1a791acb38b7eb9effe49b677fb120ae",
    "converse": "150041b4dd84bd981c391dedf176e929dee5735f36bef15af75432ba419ed632",
}


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout


@pytest.mark.parametrize("workload", list(REPORT_DIGESTS))
def test_report_digest_pinned(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "0.1",
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.findall(r"report digest (\S+)", proc.stdout) == [REPORT_DIGESTS[workload]]
