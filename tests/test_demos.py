import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # warnings as errors, as for hardylab all: a floating-point warning that
    # leaks out of a library call fails the demo
    out = subprocess.run([sys.executable, "-W", "error", str(script)], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
