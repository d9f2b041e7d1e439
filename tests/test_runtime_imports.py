"""The runtime needs numpy alone: no pipeline loads a scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import cshiftlab

#: a sweep, a t-derivative check and a parametrix, in a fresh interpreter
SCRIPT = """
import sys

import cshiftlab as cl
from cshiftlab.flow import SweepConfig, dt_logdet_check, theorem1_sweep

theorem1_sweep(SweepConfig(x_list=(50.0, 100.0)))
dt_logdet_check(SweepConfig(x_list=(50.0,)), 0.5 + 0.05j, x=50.0)
pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=50.0,
                     F=cl.constant_symbol(0.2), p=cl.identity_phase())
grid = cl.laguerre_halfline(48, pd.c)
rule = cl.gauss_interval(96, pd.a, pd.b)
srh = cl.ScalarRH(pd, rule)
betas = [cl.solve_beta(pd, rule, grid, k, srh) for k in (1, 2)]
fac = cl.OperatorFactory(pd, grid, srh, *betas)
cl.build_parametrix("a", pd, fac).boundary_residual()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_pipelines_load_no_scipy():
    # the child imports the same cshiftlab as this process
    src = str(Path(cshiftlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
