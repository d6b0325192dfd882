"""The benchmark's self-test, run as part of the suite.

``perfbench/tracer.py`` wraps voxtherm functions and methods by name, so a
rename in ``src/`` would silently break traced benchmark runs; running the
self-test here makes it fail the suite instead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
