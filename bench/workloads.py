"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every workload is a closed loop: one process runs one op after another.
An op is one complete call of the workload's entry point into cshiftlab;
its output check runs afterwards, outside the timed span.

All cshiftlab functions are looked up through their module at call time
(``cl.flow.theorem1_sweep``, never a name bound at import), so the tracer
in ``tracer.py`` sees every call once it has patched the modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: inputs built in set-up; ops cycle through them
POOL_SIZE = 8


@dataclass
class Check:
    """Outcome of one output check: pass flag and a one-line detail."""

    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (cshiftlab package, numpy Generator) -> list of op inputs
    make_inputs: Callable[[Any, np.random.Generator], list]
    #: (cshiftlab package, one input) -> op result
    op: Callable[[Any, Any], Any]
    #: (one input, op result) -> Check
    check: Callable[[Any, Any], Check]
    #: (cshiftlab package, one input) -> None, run once before timing so
    #: lazy imports and thread start-up are not charged to the first op;
    #: None runs the op itself
    warmup: Callable[[Any, Any], None] | None = None


# ---------------------------------------------------------------------------
# sweep_dense: the headline determinant-ratio sweep at large x

SWEEP_XS = (400.0, 800.0, 1600.0)
#: the constant symbol F is drawn from this range; every check passes on it
SWEEP_F_RANGE = (0.1, 0.3)


def _sweep_inputs(cl, rng):
    return [cl.flow.SweepConfig(x_list=SWEEP_XS, F_params=(float(F),))
            for F in rng.uniform(*SWEEP_F_RANGE, POOL_SIZE)]


def _sweep_op(cl, cfg):
    return cl.flow.theorem1_sweep(cfg)


def check_sweep(cfg, rep) -> Check:
    """SweepReport.passed(), loop-product consistency and the O(1/x) decay."""
    errs = [row.rel_error for row in rep.rows]
    ok = (len(rep.rows) == len(SWEEP_XS)
          and rep.passed()
          and rep.product_consistency < 1e-6
          and abs(rep.fitted_decay_exponent + 1.0) < 0.1)
    return Check(ok, f"rel_error {['%.2e' % e for e in errs]}, "
                     f"decay exponent {rep.fitted_decay_exponent:.4f}, "
                     f"product consistency {rep.product_consistency:.1e}")


def _sweep_warmup(cl, cfg):
    # the same entry point at small x: a full op would cost a run's share
    cl.flow.theorem1_sweep(cl.flow.SweepConfig(x_list=(50.0, 100.0),
                                               F_params=cfg.F_params))


# ---------------------------------------------------------------------------
# dtcheck: the three routes to d/dt ln det(I + V_t) at complex t0

DT_X = 100.0
DT_RE_T0 = 0.5
#: Im t0 is drawn from this range; the loop radius stays capped at 0.5
DT_IM_T0_RANGE = (0.02, 0.15)


@dataclass(frozen=True)
class DtInput:
    cfg: Any
    t0: complex


def _dt_inputs(cl, rng):
    cfg = cl.flow.SweepConfig(x_list=(DT_X,))
    return [DtInput(cfg, complex(DT_RE_T0, float(s)))
            for s in rng.uniform(*DT_IM_T0_RANGE, POOL_SIZE)]


def _dt_op(cl, inp):
    return cl.flow.dt_logdet_check(inp.cfg, inp.t0, x=DT_X)


def check_dt(inp, rep) -> Check:
    """|fd - trace| < 1e-6 (the CLI criterion); |fd - reduced| in budget."""
    ok = (rep.fd_vs_contour < 1e-6
          and rep.fd_vs_reduced < rep.reduced_budget)
    return Check(ok, f"|fd-trace| {rep.fd_vs_contour:.2e}, "
                     f"|fd-reduced| {rep.fd_vs_reduced:.2e} "
                     f"(budget {rep.reduced_budget:.1e})")


# ---------------------------------------------------------------------------
# smallnorm_probe: beta solves, O/P/Q, both parametrices, the pi residual

PROBE_X = 100.0
PROBE_BETA_NODES = 192
PROBE_XS = (50.0, 100.0, 200.0, 400.0)
PROBE_DISK_RADIUS = 0.2
PROBE_LENS_HEIGHT = 0.15
PROBE_F_RANGE = (0.1, 0.3)


@dataclass
class ProbeResult:
    """Endpoint residuals of both parametrices plus the small-norm report."""

    jump: dict      # endpoint -> worst lens-ray jump residual
    cut: dict       # endpoint -> cut continuity mismatch
    boundary: dict  # endpoint -> boundary residual
    pi: Any         # rhp.PiReport


def _probe_inputs(cl, rng):
    return [cl.symbols.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=PROBE_X,
                                    F=cl.symbols.constant_symbol(float(F)),
                                    p=cl.symbols.identity_phase())
            for F in rng.uniform(*PROBE_F_RANGE, POOL_SIZE)]


def _probe_op(cl, pd):
    grid = cl.quadgrid.laguerre_halfline(48, pd.c)
    srh = cl.symbols.ScalarRH(pd)
    rule = cl.quadgrid.gauss_interval(PROBE_BETA_NODES, pd.a, pd.b)
    betas = {k: cl.rhp.solve_beta(pd, rule, grid, k, srh) for k in (1, 2)}
    fac = cl.rhp.OperatorFactory(pd, grid, srh, betas[1], betas[2])
    res = ProbeResult({}, {}, {}, None)
    for ep in ("a", "b"):
        px = cl.parametrix.build_parametrix(ep, pd, fac, x=PROBE_X)
        res.jump[ep] = max(r for _, _, r in px.jump_residuals())
        res.cut[ep] = px.cut_continuity()
        res.boundary[ep] = px.boundary_residual()

    def builder(ep, x):
        return cl.parametrix.build_parametrix(ep, pd, fac, x=x,
                                              radius=PROBE_DISK_RADIUS)

    res.pi = cl.rhp.pi_residual(pd, fac, builder, xs=list(PROBE_XS),
                                disk_radius=PROBE_DISK_RADIUS,
                                lens_height=PROBE_LENS_HEIGHT)
    return res


def check_probe(pd, res) -> Check:
    """Jump and cut residuals < 1e-5, lens maxima decreasing in x, and the
    x = 200 vs 100 disk ratio within a factor 2 of 2^(eps - 1)."""
    rep = res.pi
    lens = [rep.lens_max[x] for x in PROBE_XS]
    target = 2.0 ** (rep.eps - 1.0)
    ratios = [rep.disk_max[(ep, 200.0)] / rep.disk_max[(ep, 100.0)]
              for ep in ("a", "b")]
    ok = (max(res.jump.values()) < 1e-5
          and max(res.cut.values()) < 1e-5
          and all(l1 > l2 for l1, l2 in zip(lens, lens[1:]))
          and all(0.5 * target < r < 2.0 * target for r in ratios))
    return Check(ok, f"jump {max(res.jump.values()):.1e}, "
                     f"cut {max(res.cut.values()):.1e}, "
                     f"lens {['%.1e' % v for v in lens]}, "
                     f"disk ratio/target {[round(r / target, 4) for r in ratios]}")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_dense",
        why="the headline ratio det(I+V)/det(I+V0) vs the loop product at "
            "x = 400, 800, 1600 (n = 772..3064): dense kernel assembly, LU "
            "and rule construction, all real data",
        make_inputs=_sweep_inputs, op=_sweep_op, check=check_sweep,
        warmup=_sweep_warmup),
    Workload(
        name="dtcheck",
        why="the t-derivative check at x = 100, complex t0: the chi build, "
            "the 352-node loop trace, per-node l2half loops and both beta "
            "solves, with Nystrom systems only at small n",
        make_inputs=_dt_inputs, op=_dt_op, check=check_dt),
    Workload(
        name="smallnorm_probe",
        why="the parametrix pipeline at x = 100: the only workload where "
            "chf, parametrix and the beta/O evaluations work, and cauchy "
            "runs point by point near the cut",
        make_inputs=_probe_inputs, op=_probe_op, check=check_probe),
)}
