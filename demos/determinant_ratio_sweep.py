"""The headline computation: the determinant ratio against the loop product.

For the default symbol, det(I+V)/det(I+V0) is computed on x-scaled
Nystrom grids (n nodes, checked against a 1.15x finer rule: the gap
column is how far the log-ratio moved) and compared with the x-independent product
det(I+U+) det(I+U-) of loop determinants; the relative gap decays like
x^{eps-1}.  The t-derivative identity is checked on the side.
"""

from cshiftlab.flow import SweepConfig, dt_logdet_check, emit, theorem1_sweep
from cshiftlab.rhp import summarize

cfg = SweepConfig(x_list=(50.0, 100.0, 200.0), output="sweep.csv")
report = theorem1_sweep(cfg)

print("x        ratio            loop product     relative error  n     gap")
for row in report.rows:
    print(f"{row.x:<8.0f} {row.ratio.real:<16.12f} {row.product.real:<16.12f}"
          f" {row.rel_error:.4e}      {row.n:<5d} {row.gap:.1e}")
print("\nfitted decay exponent of the gap:", report.fitted_decay_exponent)
print("loop factors: det(I+U+) =", report.rows[-1].det_up,
      " det(I+U-) =", report.rows[-1].det_um)

code = emit(report, cfg.output)
print(f"\nwrote {cfg.output} and {cfg.output}.summary.txt (exit code {code}):")
print("\n".join(summarize(report.checks())[0]))

dt = dt_logdet_check(cfg, t0=0.5, x=100.0)
print("\nt-derivative of the log-determinant at t0 = 0.5, x = 100:")
print("  finite difference :", dt.d_fd)
print("  loop trace        :", dt.d_contour)
print("  reduced densities :", dt.d_reduced)
print("  |fd - reduced|    :", dt.fd_vs_reduced,
      " (O(x^(eps-1)) budget", dt.reduced_budget, ")")
print("\n".join(summarize(dt.checks())[0]))
