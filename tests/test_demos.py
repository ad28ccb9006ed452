"""Every demo script runs to completion against the current package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
