"""The operator-valued solutions chi and beta_k with their diagnostics.

chi is the 2x2 block solution reconstructed from two linear integral
equations; beta_k are the scalar-problem solutions recovered from the
rho_k densities.  Both come with jump and determinant diagnostics,
serialized as CSV rows.
"""

import numpy as np

from cshiftlab import (ScalarRH, constant_symbol, gauss_interval,
                       identity_phase, laguerre_halfline, make_problem)
from cshiftlab.rhp import (ChiSolution, OperatorFactory,
                           factorization_residual, g_chi, solve_betas,
                           summarize, write_diagnostics)

pd = make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=10.0,
                  F=constant_symbol(0.2), p=identity_phase())
grid = laguerre_halfline(48, pd.c)
srh = ScalarRH(pd)

chi = ChiSolution(pd, grid=grid)
rows = chi.verify()
write_diagnostics(rows, "chi_diagnostics.csv")
print(f"chi diagnostics ({len(rows)} rows, written to chi_diagnostics.csv):")
print("\n".join(summarize(rows)[0]))

print("\ndet G(0.3) - 1         =",
      abs(np.linalg.det(g_chi(pd, grid, 0.3)) - 1.0))

rule = gauss_interval(192, pd.a, pd.b)
betas = solve_betas(pd, rule, grid, srh)
for k in (1, 2):
    lam = 2.0j
    print(f"\nbeta_{k}: det at 2i      =", betas[k].det_beta(lam))
    print(f"beta_{k}: alpha_{k}(2i)     =", complex(srh.alpha_k(k, lam)))

fac = OperatorFactory(pd, grid, srh, betas[1], betas[2])
blk = fac.blocks(0.2 + 0.1j)
print("\nregular-block composition |O12 O21 - O11| =",
      np.max(np.abs(blk[1, 2] @ blk[2, 1] - blk[1, 1])))
print("jump factorization residual at 0          =",
      factorization_residual(fac, 0.0))

print("\nbeta_1, beta_2 and O/P/Q diagnostics:")
print("\n".join(summarize(betas[1].verify() + betas[2].verify()
                          + fac.verify())[0]))
