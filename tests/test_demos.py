"""Each demo script, and the README's library tour, runs to completion as
a fresh process, with RuntimeWarning an error, and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def _run(args):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable] + args, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path,
                                   PYTHONWARNINGS="error::RuntimeWarning"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert _run([str(demo)]).strip()


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "run_fig1" in code
    assert _run(["-c", code]).splitlines()[0] == "[0.5392 0.4608]"
