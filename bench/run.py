"""Benchmark of cshiftlab: three seeded closed-loop workloads.

Run one workload; the last line of standard output is a JSON result::

    python3 bench/run.py --workload dtcheck --seed 1 --seconds 35 --trace 0

or all of them, each in its own process, with a summary table::

    python3 bench/run.py --seed 1 --seconds 35 [--trace 1]

A run measures for ``--seconds``: it starts another op only while one of
median length still fits.  With ``--trace 0`` the metrics are end to
end: ``setup_s`` (median of several fresh processes importing cshiftlab
and building the inputs), ``op_s`` and ``op_cpu_s`` (medians per op),
and ``peak_rss_mb``.
``fail_frac`` is ``failed / attempted`` of the result line.  With
``--trace 1`` untraced and traced ops alternate; the metrics are the
per-layer medians over traced ops (see ``tracer.py``) plus the tracing
overhead, and the spans are written to ``bench/out/trace-<workload>.json``.

The benchmark imports cshiftlab from ``src/`` next to this directory and
nowhere else, and exits with code 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
ORDER = ("sweep_dense", "dtcheck", "smallnorm_probe")
#: fresh processes timed for setup_s, besides the run's own set-up
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


class SetupError(RuntimeError):
    pass


def pin_blas_threads() -> int:
    """One BLAS thread per usable core; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def setup(workload: str, seed: int):
    """Import cshiftlab from this checkout and build the workload's inputs.

    Returns (package, workload, inputs, seconds taken).
    """
    t0 = time.perf_counter()
    init = SRC / "cshiftlab" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no cshiftlab package at {init}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import cshiftlab
    from workloads import WORKLOADS

    if Path(cshiftlab.__file__).resolve() != init.resolve():
        raise SetupError(f"imported cshiftlab from {cshiftlab.__file__}")
    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(cshiftlab, np.random.default_rng(seed))
    return cshiftlab, wl, inputs, time.perf_counter() - t0


def environment(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {"blas_threads": blas_threads,
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "numpy_blas": blas(np),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy),
            "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_probe(workload: str, seed: int) -> float:
    """set-up time of a fresh interpreter, as it reports it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _run_op(cl, wl, inp):
    """One op: (result or None, wall s, cpu s, error text or None)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res, err = wl.op(cl, inp), None
    except Exception:  # an op that raises counts as failed; keep measuring
        res, err = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return res, time.perf_counter() - t0, time.process_time() - c0, err


def _check(wl, inp, res, err):
    from workloads import Check
    if err is not None:
        return Check(False, f"raised {err}")
    try:
        return wl.check(inp, res)
    except Exception:
        return Check(False, "check raised "
                     + traceback.format_exc(limit=3).strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    blas_threads = pin_blas_threads()
    cl, wl, inputs, own_setup = setup(name, seed)
    env = environment(blas_threads)
    print("env " + json.dumps(env), flush=True)
    setups = [own_setup]
    if not trace:
        setups += [_setup_probe(name, seed) for _ in range(SETUP_PROBES)]

    (wl.warmup or wl.op)(cl, inputs[0])
    tracer = None
    if trace:
        from tracer import Tracer, op_metrics
        tracer = Tracer(cl)
    walls, cpus, traced_walls, layer_rows, roots = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        traced = trace and i % 2 == 1
        if traced:
            first = len(tracer.spans)
            with tracer, tracer.root() as root:
                res, wall, cpu, err = _run_op(cl, wl, inp)
            roots.append(root.idx)
            layer_rows.append(op_metrics(tracer, first))
            traced_walls.append(root.wall)
        else:
            res, wall, cpu, err = _run_op(cl, wl, inp)
            walls.append(wall)
            cpus.append(cpu)
        chk = _check(wl, inp, res, err)
        failed += not chk.ok
        print(f"op {i} {'traced' if traced else 'plain'} wall {wall:.4f} s "
              f"cpu {cpu:.4f} s check {'PASS' if chk.ok else 'FAIL'}: "
              f"{chk.detail}", flush=True)
        i += 1
        # start another op only while a median op still fits in the run
        if (time.perf_counter() - start + statistics.median(walls + traced_walls)
                > seconds and (not trace or traced_walls)):
            break

    attempted = i
    if trace:
        from tracer import LAYER_METRICS
        # counts repeat exactly, so median_low keeps them whole
        metrics = {k: {"value": (statistics.median_low if u == "count" else
                                 statistics.median)(r[k] for r in layer_rows),
                       "unit": u} for k, u in LAYER_METRICS.items()}
        op_s, traced_s = statistics.median(walls), statistics.median(traced_walls)
        metrics["trace.untraced_op_s"] = {"value": op_s, "unit": "s"}
        metrics["trace.op_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced_s / op_s - 1.0,
                                          "unit": "frac"}
        samples = dict.fromkeys(LAYER_METRICS, len(layer_rows))
        samples.update({"trace.untraced_op_s": len(walls),
                        "trace.op_s": len(traced_walls)})
        _write_spans(name, seed, env, tracer, roots)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(walls), "unit": "s"},
            "op_cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        samples = {"setup_s": len(setups), "op_s": len(walls),
                   "op_cpu_s": len(walls)}
    for key, m in metrics.items():
        n = samples.get(key, 1)
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}"
              + (f" (median of {n})" if n > 1 else ""))
    # the highest percentile with at least ten samples beyond it
    for q in (99, 95, 90, 75):
        if len(walls) * (100 - q) / 100.0 >= 10:
            cut = statistics.quantiles(walls, n=100)[q - 1]
            print(f"{name} op_s p{q} = {cut:.6g} s ({len(walls)} samples)")
            break
    print(f"{name} fail_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)", flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _write_spans(name, seed, env, tracer, roots):
    """One file per workload, overwritten by each traced run: span names
    as indices into a table, times in integer ns from the first span."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    t0 = tracer.spans[0][1]
    names = {}
    rows = [[names.setdefault(s[0], len(names)), round((s[1] - t0) * 1e9),
             round((s[2] - t0) * 1e9), s[3]] for s in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": env,
                   "names": list(names),
                   "span_fields": ["name", "start_ns", "end_ns", "parent"],
                   "op_roots": roots, "spans": rows}, fh,
                  separators=(",", ":"))
    print(f"spans written to {path}", flush=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in ORDER:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print("\n" + f"{'':28s}" + "".join(f"{n:>18s}" for n in results))
    rows = {"attempted": {n: r["attempted"] for n, r in results.items()},
            "fail_frac": {n: r["failed"] / r["attempted"]
                          for n, r in results.items()}}
    for n, r in results.items():
        for key, m in r["metrics"].items():
            rows.setdefault(f"{key} [{m['unit']}]", {})[n] = m["value"]
    for key, vals in rows.items():
        print(f"{key:28s}" + "".join(f"{vals[n]:18.6g}" for n in results))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + ORDER)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            pin_blas_threads()
            *_, secs = setup(args.workload, args.seed)
            print(json.dumps({"setup_s": secs}))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
