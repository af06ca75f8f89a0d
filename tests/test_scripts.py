"""The scripts end to end, each in a fresh interpreter.

`scripts/survey_twisted_fields.py --classify` must print
`golden/survey_classify.txt` byte for byte: it builds every twisted
quasi-field of the survey suite, checks its axioms and the algebraic
predictions, and classifies every plane.  Regenerate the
file only for an intended change to what the survey prints:

    PYTHONPATH=src python scripts/survey_twisted_fields.py --classify > tests/golden/survey_classify.txt
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_survey_classify_matches_golden():
    done = _run("scripts/survey_twisted_fields.py", "--classify")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "golden" / "survey_classify.txt").read_text()


@pytest.mark.parametrize("predictor", ["predicts_associative",
                                       "predicts_right_distributive"])
def test_survey_fails_a_wrong_prediction_under_optimization(predictor):
    """Under `python -O`, which drops `assert`, a predictor patched to be
    wrong on every phi still stops the survey with `InternalCheckError`
    at the first phi, the field's."""
    code = (f"import runpy, affplane; f = affplane.{predictor}; "
            f"affplane.{predictor} = lambda spec: not f(spec); "
            "runpy.run_path('scripts/survey_twisted_fields.py', run_name='__main__')")
    done = _run("-O", "-c", code)
    prediction = {"predicts_associative": "associative",
                  "predicts_right_distributive": "right-distributive"}[predictor]
    assert done.returncode != 0
    assert done.stderr.endswith(f"InternalCheckError: phi=(0, 0): predicted "
                                f"{prediction}=False, but the scan says True\n")
    assert done.stdout == "GF(9), group order 2: 2 phi maps\n"


def test_bench_help_exits_zero():
    done = _run("scripts/bench.py", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bench.py")


def test_bench_src_tree_is_the_tree_git_commits(tmp_path):
    """`scripts/bench.py` names `src/` as it stands on disk by the id that
    `git rev-parse HEAD:src` prints once it is committed: committed and
    untracked files count, ignored ones do not, and the index is kept."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def git(*args):
        return bench._git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t",
                          "-c", "commit.gpgsign=false", *args)

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("*.log\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "committed.py").write_text("x = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (tmp_path / "src" / "committed.py").write_text("x = 2\n")
    (tmp_path / "src" / "untracked.py").write_text("y = 1\n")
    (tmp_path / "src" / "ignored.log").write_text("z\n")
    index = (tmp_path / ".git" / "index").read_bytes()
    tree = bench._src_tree(tmp_path)
    assert (tmp_path / ".git" / "index").read_bytes() == index
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    assert tree == git("rev-parse", "HEAD:src")
    assert "ignored.log" not in git("ls-tree", "--name-only", "HEAD:src")
