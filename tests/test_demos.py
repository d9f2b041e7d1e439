"""Every script in demos/ runs to completion and reports no failed check;
every config there loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cshiftlab as cl

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
CONFIGS = sorted(DEMO_DIR.glob("*.cfg"))
SRC = str(Path(cl.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) == 6 and len(CONFIGS) == 2


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_loads(path):
    # load_config rejects a key the pipeline does not read: a shipped
    # config that still carries a retired key fails here
    assert isinstance(cl.load_config(str(path)), cl.SweepConfig)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # in tmp_path, since the demos write their CSV files to the working
    # directory; the package is imported from the same source tree
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
