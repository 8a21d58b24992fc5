import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    # The benchmark reaches divcurl by name; a changed signature there
    # breaks every benchmark run, so its selftest is part of the suite.
    run = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
