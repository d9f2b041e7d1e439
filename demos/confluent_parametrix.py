"""Tricomi functions on the universal cover and the endpoint parametrices.

The local solutions near the interval endpoints ride on confluent
hypergeometric scalars; their branch structure is what carries the
triangular jumps, and their large-argument behaviour gives the
x^{eps - 1} boundary decay probed by the small-norm diagnostics.
"""

from cshiftlab import (ScalarRH, constant_symbol, gauss_interval,
                       identity_phase, laguerre_halfline, make_problem)
from cshiftlab.chf import tricomi_psi
from cshiftlab.parametrix import build_parametrix
from cshiftlab.rhp import OperatorFactory, pi_residual, solve_betas

# -- the special function -----------------------------------------------------
te = tricomi_psi(1.0, 1.0)
print("Psi(1, 1; 1)    =", te.value, " (e E_1(1) = 0.596347362323194)")
print("route           =", te.route, "  ODE residual =", te.ode_residual())

up = tricomi_psi(0.3 + 0.2j, 2.0 + 1.0j, sheet=+1)
print("one sheet up    =", up.value, " (route:", up.route, ")")

# -- the endpoint parametrices ------------------------------------------------
pd = make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=100.0,
                  F=constant_symbol(0.2), p=identity_phase())
grid = laguerre_halfline(48, pd.c)
srh = ScalarRH(pd)
rule = gauss_interval(192, pd.a, pd.b)
betas = solve_betas(pd, rule, grid, srh)
fac = OperatorFactory(pd, grid, srh, betas[1], betas[2])

for ep in ("a", "b"):
    px = build_parametrix(ep, pd, fac, x=100.0)
    worst = max(r for _, _, r in px.jump_residuals())
    print(f"\nendpoint {ep}: disk radius {px.radius}")
    print(f"  worst lens-ray jump residual = {worst:.2e}")
    print(f"  cut continuity               = {px.cut_continuity():.2e}")
    print(f"  boundary residual            = {px.boundary_residual():.2e}")

# -- the small-norm probe over increasing oscillation -------------------------
def builder(ep, x):
    return build_parametrix(ep, pd, fac, x=x, radius=0.2)

rep = pi_residual(pd, fac, builder, xs=[50.0, 100.0, 200.0],
                  disk_radius=0.2, lens_height=0.15)
print("\ndeformed-jump residuals (eps =", rep.eps, "):")
for x in rep.xs:
    print(f"  x={x:6.0f}: lens {rep.lens_max[x]:.2e}   "
          f"disk a {rep.disk_max[('a', x)]:.2e}   "
          f"disk b {rep.disk_max[('b', x)]:.2e}")
print("fitted disk decay exponent:", rep.fitted_exponent,
      " (pattern eps - 1 =", rep.eps - 1.0, ")")
print(f"worst beta error |q - 1| over the probe points: {rep.beta_defect:.2e}")
