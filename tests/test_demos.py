"""Every demo script runs to the end: exit 0 and no traceback."""
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, BEAUVILLE_CACHE_DIR=str(tmp_path))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
