"""Cauchy transforms of densities sampled at Gauss-Legendre nodes.

For a density f known at the nodes of an :class:`~cshiftlab.quadgrid.IntervalRule`,
C[f](lam) = int_a^b f(mu) / (mu - lam) dmu is a weighted sum over the node
values.  Beyond the unit distance FAR from the interval the plain Gauss
weights w_j / (mu_j - lam) are spectrally accurate.  Nearer, the transform
of the degree n-1 interpolant of f is taken in closed form by singularity
subtraction (Wang, Huybrechs & Vandewalle, Math. Comp. 83, 2014).  In unit
coordinates xi, with nodes x_i, weights w_i, offsets d_i = xi - x_i and the
barycentric weights b_i = (-1)^i sqrt((1 - x_i^2) w_i) (Berrut & Trefethen,
SIAM Rev. 46, 2004):

    omega_j = (b_j R - w_j) / d_j,   R = (L + T) / S,
    S = sum_i b_i / d_i,   T = sum_i w_i / d_i,

with L = log(xi - 1) - log(xi + 1) = int dx / (x - xi).  Taking the two
principal logs separately gives real xi in (-1, 1) the +side (upper)
boundary value.  Within half a node gap of a node x_k the terms b_k/d_k and
w_k/d_k cancel in omega_k (0/0 on the node); there, with S', T' the sums
without i = k,

    R = (d_k (L + T') + w_k) / (b_k + d_k S'),
    omega_k = (b_k (L + T') - w_k S') / (b_k + d_k S').

Away from the cut S is exponentially small and b_k + d_k S' would cancel,
so the plain form is kept there.  The squared-pole weights follow by parts,
with D the Gauss differentiation matrix and l(+-1) the barycentric basis at
the endpoints: dweights(lam) = omega D - l(+1)/(b - lam) + l(-1)/(a - lam).

Off the interval S ~ rho^-n and L + T ~ rho^-2n (rho = |xi + sqrt(xi^2 - 1)|
the Bernstein-ellipse parameter of xi) sink below the rounding of their
sums, so the near weights carry an error ~ eps rho^n, while the plain
weights miss the interpolant's transform by ~ rho^-n.  The two meet where
rho^-2n is the rounding unit: at n = 160 and at n = 192, the default rule of
alpha and beta, both are within 1.6e-8 of max |omega| there (four points of
that ellipse, 30-digit references).  Beyond that, and beyond FAR, the plain
weights are used; without the switch S rounds to 0 at some points and the
near weights are NaN.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .quadgrid import IntervalRule

__all__ = ["CauchyKit"]

#: 2 n ln rho beyond which plain weights are used: rho^-2n below rounding
_PLAIN_EXPONENT = -np.log(np.finfo(float).eps)


class CauchyKit:
    """Cauchy-transform weights bound to one interval rule.

    ``weights(lam)`` returns the vector omega with
    C[f](lam) ~= omega @ f_nodes, and ``dweights`` the analogous vector for
    int f(mu)/(mu - lam)^2 dmu = d/dlam C[f](lam).
    """

    #: distance from [-1, 1] (unit coordinates) beyond which plain
    #: quadrature weights are used
    FAR = 0.35

    def __init__(self, rule: IntervalRule):
        self.rule = rule
        x = rule.to_unit(rule.nodes)
        w = rule.weights * (2.0 / (rule.b - rule.a))
        b = (-1.0) ** np.arange(rule.n) * np.sqrt((1.0 - x * x) * w)
        self._x, self._w, self._b = x, w, b
        gap = np.diff(x)
        self._half_gap = 0.5 * np.minimum(np.append(gap, np.inf),
                                          np.insert(gap, 0, np.inf))
        # barycentric basis at xi = -1 and +1
        ends = b / (np.array([[-1.0], [1.0]]) - x)
        self._l_ends = ends / ends.sum(axis=1, keepdims=True)

    @cached_property
    def _D(self) -> np.ndarray:
        """The differentiation matrix in lam, built for ``dweights``."""
        x, b, rule = self._x, self._b, self.rule
        dx = x[:, None] - x
        np.fill_diagonal(dx, 1.0)
        D = (b / b[:, None]) / dx
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        return D * (2.0 / (rule.b - rule.a))

    def _near(self, xi: np.ndarray) -> np.ndarray:
        """Weights of the interpolant's transform at unit points xi; (m, n)."""
        x, w, b = self._x, self._w, self._b
        d = xi[:, None] - x
        k = np.argmin(np.abs(d), axis=1)
        dk = d[np.arange(xi.size), k]
        on = np.flatnonzero(np.abs(dk) < self._half_gap[k])
        k, dk = k[on], dk[on]
        d[on, k] = np.inf  # leaves node k out of S and T
        S = (b / d).sum(axis=1)
        LT = np.log(xi - 1.0) - np.log(xi + 1.0) + (w / d).sum(axis=1)
        R = LT / S
        den = b[k] + dk * S[on]
        R[on] = (dk * LT[on] + w[k]) / den
        out = (b * R[:, None] - w) / d
        out[on, k] = (b[k] * LT[on] - w[k] * S[on]) / den
        return out

    def _weights(self, lam, power: int) -> np.ndarray:
        """Weights for int f(mu) / (mu - lam)^power dmu; shape (..., n)."""
        lam = np.asarray(lam, dtype=complex)
        pts = np.atleast_1d(lam)
        xi = self.rule.to_unit(pts)
        rho = np.abs(xi + np.sqrt(xi - 1.0) * np.sqrt(xi + 1.0))
        plain = (np.abs(xi - np.clip(xi.real, -1.0, 1.0)) > self.FAR) \
            | (2 * self.rule.n * np.log(rho) > _PLAIN_EXPONENT)
        out = np.empty(pts.shape + (self.rule.n,), dtype=complex)
        out[plain] = self.rule.weights \
            / (self.rule.nodes - pts[plain][:, None]) ** power
        if (~plain).any():
            near = self._near(xi[~plain])
            if power == 2:
                z = pts[~plain][:, None]
                l_minus, l_plus = self._l_ends
                near = near @ self._D \
                    - l_plus / (self.rule.b - z) + l_minus / (self.rule.a - z)
            out[~plain] = near
        return out[0] if lam.ndim == 0 else out

    def weights(self, lam) -> np.ndarray:
        """Cauchy weights at one or many points; shape (..., n)."""
        return self._weights(lam, 1)

    def dweights(self, lam) -> np.ndarray:
        """Weights for the squared-pole transform int f/(mu-lam)^2 dmu."""
        return self._weights(lam, 2)

    def value(self, f_nodes: np.ndarray, lam) -> complex:
        """C[f](lam) for node samples f_nodes."""
        return self.weights(lam) @ np.asarray(f_nodes, dtype=complex)
