"""The quick demos still run against the current API. Demos 03 and 04
simulate full desk days and are left to be run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_city_and_routes.py", "02_influence_and_cascade.py"])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
