"""The kernel catalog and the interval-loop determinant identity.

The two-term shifted kernel V_t interpolates between the plain
oscillatory kernel (t = 0) and the kernel of interest (t = 1); its
companion K_{k;t} on the interval shares its Fredholm determinant with
the loop kernel U_{k;t}, which is the identity the deformation argument
rests on.
"""

import numpy as np

from cshiftlab import (ChiSolution, ScalarRH, constant_symbol, e_vectors,
                       gauss_interval, identity_phase, laguerre_halfline,
                       make_problem, v0, v_t)
from cshiftlab.flow import loop_routes
from cshiftlab.kernels import resolvent_kernel

pd = make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=10.0,
                  F=constant_symbol(0.2), p=identity_phase())
srh = ScalarRH(pd)
grid = laguerre_halfline(48, pd.c)

vk = v_t(pd)
print("V(0.3, -0.1)       =", complex(vk.eval(0.3, -0.1)))
print("V diagonal at 0.3  =", complex(vk.diag(0.3)),
      " (= F (2t + c x p')/(2 pi c))")

# the kernel is the paired product of the half-line vectors
ws2 = np.concatenate([grid.weights, grid.weights])
EL, _ = e_vectors(pd, grid, 0.3)
_, ER = e_vectors(pd, grid, -0.1)
print("paired form        =", (EL.ravel() * ws2) @ ER.ravel() / 0.4)

pd0 = pd.with_(t=0.0)
print("\nV_{t=0} vs the plain oscillatory kernel at (0.45, 0.1):",
      abs(complex(v_t(pd0).eval(0.45, 0.1)) - complex(v0(pd0).eval(0.45, 0.1))))

# interval <-> loop determinant identity: det(I+U) on ScalarRH's loop,
# det(I+K) from K's rank-r factors on the graded rule
routes = loop_routes(pd, srh)
print("\ninterval-loop determinant identity:")
for k, (dU, dK) in routes.items():
    print(f"  k={k}: det(I+K) = {dK:.12f}, det(I+U) = {dU:.12f}, "
          f"gap = {abs(dK - dU):.2e}")

# the limit operators U_+- are the t = 1 members k = 1, 2
dp, dm = routes[1][0], routes[2][0]
print(f"\nlimit loop factors: det(I+U+) = {dp:.12f}, det(I+U-) = {dm:.12f}")
print(f"product = {dp * dm:.12f}")

# resolvent as an integrable kernel: (F_L, F_R)/(lam - mu)
rule = gauss_interval(64, -1.0, 1.0)
rk = resolvent_kernel(ChiSolution(pd, rule, grid))
print("\nresolvent R(0.3, -0.4) =", complex(rk.eval(0.3, -0.4)))
print("resolvent diag at 0.3  =", complex(rk.diag(0.3)))
