"""Every script in demos/ runs to completion and reports no failed check."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cshiftlab as cl

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(cl.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) == 6


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
