"""Command line entry points: sweep, dtcheck, selftest."""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_sweep(args) -> int:
    from .flow import emit, load_config, theorem1_sweep

    cfg = load_config(args.config)
    if args.output:
        cfg.output = args.output
    report = theorem1_sweep(cfg)
    code = emit(report, cfg.output)
    with open(str(cfg.output) + ".summary.txt") as fh:
        sys.stdout.write(fh.read())
    return code


def _cmd_dtcheck(args) -> int:
    from .flow import dt_logdet_check, load_config

    cfg = load_config(args.config)
    report = dt_logdet_check(cfg, args.t0, x=args.x)
    print(f"d/dt ln det (finite difference): {report.d_fd}")
    print(f"d/dt ln det (loop trace):        {report.d_contour}")
    print(f"d/dt ln det (reduced densities): {report.d_reduced}")
    print(f"|fd - reduced| = {report.fd_vs_reduced:.3e}  "
          f"(O(x^(eps-1)) budget ~ {report.reduced_budget:.3e})")
    return _print_summary(report.checks())


def _cmd_selftest(_args) -> int:
    """The verify() streams of chi, beta_1, beta_2 and O/P/Q at x = 10, and
    a row for each invariant without a verify()."""
    from . import (ScalarRH, assemble, constant_symbol, determinant,
                   identity_phase, laguerre_halfline, make_problem)
    from .kernels import k_kt, u_kt
    from .parametrix import build_parametrix
    from .quadgrid import graded_interval
    from .rhp import (ChiSolution, DiagnosticRow, OperatorFactory,
                      factorization_residual, g_chi, solve_betas)

    pd = make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=10.0,
                      F=constant_symbol(0.2), p=identity_phase())
    grid = laguerre_halfline(48, pd.c)
    srh = ScalarRH(pd)
    loop = srh.loop
    betas = solve_betas(pd, srh.rule, grid, srh)
    fac = OperatorFactory(pd, grid, srh, betas[1], betas[2])
    rows = (ChiSolution(pd, grid=grid).verify() + betas[1].verify()
            + betas[2].verify() + fac.verify())

    resid = abs(loop.integrate(1.0 / loop.nodes) - 2j * np.pi)
    rows.append(DiagnosticRow("loop residue 2*pi*i", 0.0, 0.0, resid, 1e-10))
    rows.append(DiagnosticRow("det(G_chi)-1", 0.3, 0.0,
                              abs(np.linalg.det(g_chi(pd, grid, 0.3)) - 1),
                              1e-9))
    rows.append(DiagnosticRow("jump factorization", 0.0, 0.0,
                              factorization_residual(fac, 0.0),
                              1e-6))
    grule = graded_interval(pd.a, pd.b)
    for k in (1, 2):
        dK = determinant(assemble(k_kt(pd, k, srh), grule))
        dU = determinant(assemble(u_kt(pd, k, srh), loop))
        rows.append(DiagnosticRow("det(I+K_k)/det(I+U_k) - 1", k, 0.0,
                                  abs(dK - dU) / abs(dU), 1e-7))

    pdx = pd.with_(x=100.0)
    srhx = ScalarRH(pdx)
    bx = solve_betas(pdx, srhx.rule, grid, srhx)
    facx = OperatorFactory(pdx, grid, srhx, bx[1], bx[2])
    for ep in ("a", "b"):
        px = build_parametrix(ep, pdx, facx, x=100.0)
        rows += [DiagnosticRow(f"parametrix {ep} jump", px.center, 0.0, r,
                               1e-5) for _, _, r in px.jump_residuals()]
    return _print_summary(rows)


def _complex_arg(text: str) -> complex:
    """``re`` or ``re,im`` as a complex number: the argparse type of --t0."""
    try:
        return complex(*(float(v) for v in text.split(",")))
    except (TypeError, ValueError):  # TypeError: three or more parts
        raise argparse.ArgumentTypeError(
            f"expected re or re,im, got {text!r}") from None


def _print_summary(rows) -> int:
    """Print ``summarize(rows)``; the exit code is 0 iff every row passes."""
    from .rhp import summarize

    lines, ok = summarize(rows)
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cshiftlab",
        description="determinant-ratio sweeps and diagnostics for "
                    "c-shifted integrable kernels")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser("sweep", help="run the determinant-ratio sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dt = sub.add_parser("dtcheck", help="t-derivative identity check")
    p_dt.add_argument("--config", required=True)
    p_dt.add_argument("--t0", type=_complex_arg, default="0.5,0.0",
                      metavar="RE[,IM]", help="negative RE: --t0=-0.5,0.1")
    p_dt.add_argument("--x", type=float, default=None)
    p_dt.set_defaults(func=_cmd_dtcheck)

    p_self = sub.add_parser("selftest", help="run the invariant battery")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
