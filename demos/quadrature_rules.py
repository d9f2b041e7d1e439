"""Tour of the three quadrature supports.

Every other capability sits on these rules: Gauss-Legendre on [a, b]
(plain, endpoint-graded, and transplanted by the sausage map for the
sweep), the stadium loop around the interval with complex weights, and
the rescaled Gauss-Laguerre rule on the half-line.
"""

import numpy as np

from cshiftlab import (gauss_interval, laguerre_halfline, stadium_contour,
                       transplanted_interval)
from cshiftlab.quadgrid import graded_interval

# -- interval ---------------------------------------------------------------
rule = gauss_interval(20, 0.0, 1.0)
print("20-point Gauss rule on [0, 1]")
print("  int x^5 dx       =", rule.integrate(rule.nodes ** 5), "(exact 1/6)")
print("  weights sum      =", rule.weights.sum(), "(exact 1)")

graded = graded_interval(-1.0, 1.0, n_panel=16, levels=8)
beta = 0.3
vals = np.exp(1j * beta * np.log(1.0 - graded.nodes))
exact = 2.0 ** (1.0 + 1j * beta) / (1.0 + 1j * beta)
print("\ngraded rule vs the endpoint-oscillatory integrand (1-x)^{0.3 i}")
print("  graded error     =", abs(graded.integrate(vals) - exact))
plain = gauss_interval(graded.n, -1.0, 1.0)
pvals = np.exp(1j * beta * np.log(1.0 - plain.nodes))
print("  plain rule error =", abs(plain.integrate(pvals) - exact),
      f" (same node count n={graded.n})")

# the sweep's rule: Gauss nodes pushed through the sausage map spread
# evenly, so its 216 nodes at x = 400 resolve the product e^{i x lam} of
# two kernel phases; the Gauss rule of the same size does not
freq, n = 400.0, 216
exact = 2.0 * np.sin(freq) / freq
print(f"\n{n}-point rules vs e^{{i {freq:g} x}} on [-1, 1]")
for name, r in (("Gauss", gauss_interval(n, -1.0, 1.0)),
                ("transplanted", transplanted_interval(n, -1.0, 1.0))):
    err = abs(r.integrate(np.exp(1j * freq * r.nodes)) - exact)
    gaps = np.diff(r.nodes)
    print(f"  {name:<12} error = {err:.1e}, node gaps "
          f"{gaps.min():.2e} .. {gaps.max():.2e}")

# -- loop around the interval -------------------------------------------------
loop = stadium_contour(-1.0, 1.0, 0.25)
print(f"\nstadium loop, radius 0.25, {loop.n} nodes")
print("  oint dz/z        =", loop.integrate(1.0 / loop.nodes),
      "(exact 2 pi i)")
print("  oint z dz        =", abs(loop.integrate(loop.nodes)), "(exact 0)")
print("  winding number   =", loop.winding_number(0.3))
d = loop.distance_to_segment()
print(f"  distance band    = [{d.min():.15f}, {d.max():.15f}]")

# -- half-line ----------------------------------------------------------------
half = laguerre_halfline(40, 2.0)
print("\n40-point half-line rule with decay scale c = 2")
print("  int e^{-2s} ds   =", half.integrate(np.exp(-2 * half.nodes)),
      "(exact 0.5)")
print("  int s e^{-2s} ds =",
      half.integrate(half.nodes * np.exp(-2 * half.nodes)), "(exact 0.25)")
