"""The benchmark's own smoke check, run as part of the test suite so that a
layer the benchmark tracer binds by name (for example
`spdecomp.make_clean` or `recognize_dsp`) cannot disappear unnoticed."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
