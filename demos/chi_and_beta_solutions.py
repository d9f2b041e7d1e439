"""The operator-valued solutions chi and beta_k with their diagnostics.

chi is the 2x2 block solution reconstructed from two linear integral
equations; beta_k are the scalar-problem solutions recovered from the
rho_k densities.  Both come with jump and determinant diagnostics,
printed as one summary line per object.
"""

import numpy as np

from cshiftlab import (ScalarRH, constant_symbol, gauss_interval,
                       identity_phase, laguerre_halfline, make_problem)
from cshiftlab.rhp import (ChiSolution, OperatorFactory,
                           factorization_residual, g_chi, solve_beta,
                           summarize)

pd = make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=10.0,
                  F=constant_symbol(0.2), p=identity_phase())
grid = laguerre_halfline(48, pd.c)
srh = ScalarRH(pd)

chi = ChiSolution(pd, grid=grid)
rows = chi.verify()
print(f"chi diagnostics ({len(rows)} rows):")
print("\n".join(summarize(rows)[0]))

print("\ndet G(0.3) - 1         =",
      abs(np.linalg.det(g_chi(pd, grid, 0.3)) - 1.0))

rule = gauss_interval(192, pd.a, pd.b)
betas = {k: solve_beta(pd, rule, grid, k, srh) for k in (1, 2)}
for k in (1, 2):
    lam = 2.0j
    print(f"\nbeta_{k}: det at 2i      =", betas[k].det_beta(lam))
    print(f"beta_{k}: alpha_{k}(2i)     =", complex(srh.alpha_k(k, lam)))

fac = OperatorFactory(pd, grid, srh, betas[1], betas[2])
fac_rows = fac.verify()
# the blocks' one-forms r_l = w o l_{3-l} / q rest on
# beta_2 = W^{-1} beta_1^{-T} W; the gap to kappa_l W beta_l^{-1} is beta's
print("\nbeta duality |r_l - kappa_l W beta_l^-1| =",
      max(r.residual for r in fac_rows if r.obj == "beta duality"))
print("jump factorization residual at 0        =",
      factorization_residual(fac, 0.0))

print("\nbeta_1, beta_2 and O/P/Q diagnostics:")
print("\n".join(summarize(betas[1].verify() + betas[2].verify()
                          + fac_rows)[0]))
