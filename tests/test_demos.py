"""The three demos, run as a user runs them, print exactly the text recorded
in ``demo_stdout/``: every verdict, contracted r-matrix and divergence
message that they show is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout == (ROOT / "tests" / "demo_stdout" / f"{demo.stem}.txt").read_text()
