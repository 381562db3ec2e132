"""The quick demos stay runnable: each runs in a fresh interpreter from
the repository root and must exit 0. `demos/02_*.py` trains a model for
about 20 s, so it is left to be run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("pattern", ["01_*.py", "03_*.py"])
def test_demo_exits_0(pattern):
    (demo,) = sorted((ROOT / "demos").glob(pattern))
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
