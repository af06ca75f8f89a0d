"""The benchmark's independent output checks stay in step with the
program: `perfbench/selftest.py` runs genuine jobs of each workload
through them, plants one fault per check, and exits 1 on any mismatch."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
