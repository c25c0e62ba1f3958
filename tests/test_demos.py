"""Each shipped demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_covered():
    assert {d.name for d in DEMOS} >= {"absolute_pose.py", "custom_objective.py",
                                       "noise_sweep.py", "relative_pose.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # Run from a scratch directory: noise_sweep.py writes sweep.csv to its cwd.
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo.name == "noise_sweep.py":
        assert (tmp_path / "sweep.csv").stat().st_size > 0
