"""The scripts end to end, each in a fresh interpreter.

`scripts/survey_twisted_fields.py --classify` must print
`golden/survey_classify.txt` byte for byte: it builds every twisted
quasi-field of the survey suite, checks its axioms and the algebraic
predictions, and classifies the planes of order <= 16.  Regenerate the
file only for an intended change to what the survey prints:

    PYTHONPATH=src python scripts/survey_twisted_fields.py --classify > tests/golden/survey_classify.txt
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_survey_classify_matches_golden():
    done = _run("scripts/survey_twisted_fields.py", "--classify")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "golden" / "survey_classify.txt").read_text()


def test_bench_help_exits_zero():
    done = _run("scripts/bench.py", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bench.py")
