"""Tests of the benchmark itself: tracer, output checks, seeded inputs.

Run from the repository root with ``python -m pytest -q bench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cshiftlab as cl  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, op_metrics  # noqa: E402

DT = workloads.WORKLOADS["dtcheck"]


@pytest.fixture(scope="module")
def traced_dt():
    """Two traced dtcheck ops on different draws, plus their reports."""
    inputs = DT.make_inputs(cl, np.random.default_rng(7))
    tracer = Tracer(cl)
    ops = []
    for inp in inputs[:2]:
        first = len(tracer.spans)
        with tracer, tracer.root() as root:
            rep = DT.op(cl, inp)
        ops.append((inp, rep, root.wall, op_metrics(tracer, first),
                    (first, len(tracer.spans))))
    return tracer, ops


def test_traced_dtcheck_counts_chi_evaluations(traced_dt):
    _, ops = traced_dt
    for _, _, _, metrics, _ in ops:
        assert metrics["rhp.chi_evals"] == 704
        assert metrics["fredholm.n_max"] == 199


def test_self_times_sum_to_op_wall_time(traced_dt):
    tracer, ops = traced_dt
    for _, _, wall, metrics, span_range in ops:
        # every span's self time, the root's included, adds up exactly
        assert tracer.self_times(*span_range).sum() == pytest.approx(wall,
                                                                     rel=1e-9)
        layers = sum(v for k, v in metrics.items()
                     if LAYER_METRICS.get(k) == "s" and k != "op.self_s")
        # what the layers do not cover is benchmark glue and tracer
        # bookkeeping outside the spans: a small share of the op
        assert layers == pytest.approx(wall, rel=0.05)
        assert metrics["op.self_s"] < 0.05 * wall


def test_counts_repeat_across_draws(traced_dt):
    _, ops = traced_dt
    counts = [{k: v for k, v in m.items() if LAYER_METRICS[k] != "s"
               and k != "chf.err_max"} for *_, m, _ in ops]
    assert counts[0] == counts[1]


def test_tracer_wraps_every_binding_and_restores_it():
    original = cl.fredholm.assemble
    method = cl.rhp.ChiSolution.__dict__["chi"]
    with Tracer(cl):
        assert cl.flow.assemble is cl.fredholm.assemble is cl.assemble
        assert cl.flow.assemble.__wrapped__ is original
        assert cl.parametrix.tricomi_psi is cl.chf.tricomi_psi
        assert cl.rhp.ChiSolution.__dict__["chi"].__wrapped__ is method
    assert cl.flow.assemble is cl.fredholm.assemble is original
    assert cl.rhp.ChiSolution.__dict__["chi"] is method


def test_dt_check_rejects_perturbed_result(traced_dt):
    _, ops = traced_dt
    inp, rep = ops[0][:2]
    assert DT.check(inp, rep).ok
    bad = dataclasses.replace(rep, d_contour=rep.d_contour + 1e-3)
    assert not DT.check(inp, bad).ok


def _sweep_report(rel_errors, consistency=0.0):
    xs = workloads.SWEEP_XS
    rep = cl.flow.SweepReport(product_consistency=consistency)
    for x, e in zip(xs, rel_errors):
        rep.rows.append(cl.flow.SweepRow(x=x, det_v=1.0, det_v0=1.0, ratio=1.0,
                                         det_up=1.0, det_um=1.0, product=1.0,
                                         rel_error=e, runtime=0.0))
    rep.fitted_decay_exponent = float(np.polyfit(np.log(xs),
                                                 np.log(rel_errors), 1)[0])
    return rep


def test_sweep_check_rejects_perturbed_result():
    good = [3.5e-3 / x for x in workloads.SWEEP_XS]
    assert workloads.check_sweep(None, _sweep_report(good)).ok
    assert not workloads.check_sweep(None, _sweep_report(good, 1e-3)).ok
    flat = good[:2] + [good[1]]
    assert not workloads.check_sweep(None, _sweep_report(flat)).ok


def _probe_result(jump=3e-10, lens=(1e-4, 5e-8, 2e-14, 2e-27), ratio=0.5):
    rep = cl.rhp.PiReport(xs=list(workloads.PROBE_XS), eps=0.0)
    for x, v in zip(workloads.PROBE_XS, lens):
        rep.lens_max[x] = v
        for ep in ("a", "b"):
            rep.disk_max[(ep, x)] = 1e-3 * ratio ** np.log2(x / 100.0)
    return workloads.ProbeResult(jump={"a": jump, "b": jump},
                                 cut={"a": 2e-9, "b": 2e-9},
                                 boundary={"a": 1e-3, "b": 1e-3}, pi=rep)


def test_probe_check_rejects_perturbed_result():
    check = workloads.check_probe
    assert check(None, _probe_result()).ok
    assert not check(None, _probe_result(jump=1e-3)).ok
    assert not check(None, _probe_result(lens=(1e-4, 2e-4, 1e-5, 1e-6))).ok
    assert not check(None, _probe_result(ratio=2.0)).ok


def _drawn(inp):
    """The seeded parameter of one input."""
    if isinstance(inp, workloads.DtInput):
        return inp.t0
    if isinstance(inp, cl.flow.SweepConfig):
        return inp.F_params[0]
    return complex(inp.F(0.0))


def test_inputs_follow_the_seed():
    for wl in workloads.WORKLOADS.values():
        a, b, c = ([_drawn(i) for i in wl.make_inputs(
            cl, np.random.default_rng(s))] for s in (3, 3, 4))
        assert a == b != c
    lo, hi = workloads.DT_IM_T0_RANGE
    assert all(lo <= inp.t0.imag <= hi
               for inp in DT.make_inputs(cl, np.random.default_rng(5)))


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero with
    no result line."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    manifest = BENCH.parent / "BENCHMARK.json"
    if manifest.is_file():
        shutil.copy(manifest, tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dtcheck", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
