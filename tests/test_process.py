"""Properties that need a fresh interpreter: what importing the package does
to the process, and the benchmark tracer's hold on the engine's names."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def run(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def test_import_keeps_recursion_limit():
    p = run("import sys; before = sys.getrecursionlimit(); import hopfc.cli; "
            "print(before, sys.getrecursionlimit())")
    assert p.returncode == 0, p.stderr
    before, after = p.stdout.split()
    assert before == after


def test_bench_tracer_installs():
    # bench/tracing.py wraps engine functions by module attribute name; a
    # rename in src/ breaks the traced benchmark run with AttributeError
    p = run("import sys; sys.path.insert(0, 'bench'); "
            "from tracing import Tracer; Tracer().install()")
    assert p.returncode == 0, p.stderr
