"""Quadrature rules shared by every other module.

Three supports appear throughout: a real interval [a, b], a closed loop
around it in the complex plane, and the half-line (0, inf) carrying the
e^{-c s} decay of all half-line kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import roots_laguerre

from .errors import ContourSafetyError, ParameterDomainError

if TYPE_CHECKING:
    from .symbols import ProblemData

__all__ = [
    "IntervalRule",
    "Contour",
    "HalfLineRule",
    "gauss_interval",
    "oscillation_nodes",
    "safe_radius",
    "graded_interval",
    "stadium_contour",
    "laguerre_halfline",
]

#: nodes of the grid oscillation_nodes takes the local wavenumber on
_CHECK_NODES = 65
#: nodes oscillation_nodes adds to the resolution bound
_NODE_MARGIN = 64


@dataclass(frozen=True)
class IntervalRule:
    """Gauss-Legendre rule mapped to [a, b].

    Attributes
    ----------
    a, b : float
        Endpoints, a < b.
    nodes : ndarray
        Abscissae, strictly inside (a, b), ascending.
    weights : ndarray
        Positive weights; they sum to b - a.
    """

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray
    refiner: object = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate node values (last axis runs over nodes)."""
        return np.asarray(values) @ self.weights

    def refined(self, factor: int = 2) -> "IntervalRule":
        if self.refiner is not None:
            return self.refiner(factor)
        return gauss_interval(factor * self.n, self.a, self.b)

    def to_unit(self, lam):
        """Affine map of lam onto the reference interval [-1, 1]."""
        return (2.0 * lam - (self.a + self.b)) / (self.b - self.a)


def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] in O(n^2) operations.

    numpy's ``leggauss`` algorithm: eigenvalues of the Legendre companion
    matrix, one Newton step, weights 1/(P_{n-1} P_n') normalised to sum
    to 2, then symmetrization.  The companion matrix is the symmetric
    tridiagonal Golub-Welsch (Jacobi) matrix with off-diagonal
    k/sqrt(4k^2 - 1), so a tridiagonal eigensolver replaces numpy's dense
    O(n^3) one.
    """
    k = np.arange(1.0, n)
    x = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1.0 / (fm * df)
    w = 0.5 * (w + w[::-1])
    x = 0.5 * (x - x[::-1])
    w *= 2.0 / w.sum()
    return x, w


def gauss_interval(n: int, a: float, b: float) -> IntervalRule:
    """n-point Gauss-Legendre rule on [a, b].

    Exact for polynomials of degree <= 2n - 1.  Costs O(n^2).  Agrees
    with numpy's ``leggauss``, whose algorithm it keeps, to rounding:
    nodes to 1e-16 absolute, weights to a few 1e-9 relative at n in the
    thousands.  That is the conditioning of the endpoint weights, which in
    both rules are ~2e-8 off the exact values at n ~ 3000.
    """
    if n < 1:
        raise ParameterDomainError(f"need n >= 1, got n={n}")
    if not a < b:
        raise ParameterDomainError(f"need a < b, got a={a}, b={b}")
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return IntervalRule(a=float(a), b=float(b), nodes=0.5 * (a + b) + half * x,
                        weights=half * w)


def oscillation_nodes(pd: "ProblemData", frequency: float = 0.5) -> int:
    """Gauss nodes on [a, b] resolving the phases e^{+-i frequency x p(lam)}.

    n = ceil(frequency x max_j p'(lam_j) sqrt((lam_j - a)(b - lam_j))) + 64,
    the max over a 65-point Gauss check grid (odd, so its middle node is
    the midpoint of [a, b]).  The product is the local wavenumber
    frequency x p' against the arcsine density
    n / (pi sqrt((lam - a)(b - lam))) of n Gauss nodes.  The interval
    kernels carry e^{+-i x (p(lam) - p(mu))/2}: the default frequency 1/2.
    chi's near-cut Cauchy sums interpolate the products F_R (x) E_L, whose
    off-diagonal parts carry e^{+-i x p}: frequency 1 (``rhp.solve_chi``).
    Without the margin the rule has two nodes per local wavelength, where
    the determinant is still 1e-4 to 1e-2 off; the +64 margin takes it to
    rounding (at x = 3200 a 32-node margin leaves up to 2e-10, 64 nodes
    under 1e-12).  The basis for trusting a Nystrom determinant once the
    kernel is resolved is Bornemann, "On the numerical evaluation of
    Fredholm determinants", Math. Comp. 79 (2010).  For the identity phase
    n = ceil(frequency x (b - a)/2) + 64.

    The bound is sharp, not safe by a factor: ``flow.theorem1_sweep``
    checks every row a posteriori on a rule 1.15 times as large and grows
    n until the log-ratio moves by less than ``flow.RULE_TOL``.
    """
    a, b = pd.a, pd.b
    lam = gauss_interval(_CHECK_NODES, a, b).nodes
    dp = np.real(pd.p.deriv(lam.astype(complex)))
    k = np.max(dp * np.sqrt((lam - a) * (b - lam)))
    return int(np.ceil(frequency * pd.x * k)) + _NODE_MARGIN


def safe_radius(pd: "ProblemData") -> float:
    """Radius of every loop and endpoint disk the package builds itself.

    r = min(0.8 c/(4 |t|), (b - a)/4, 0.8 margin).  Two constraints of the
    t-deformed problem bound r |t|:
      * the half-line growth bound |Im(t lam)| < c/4 (r |t| < c/4 off the
        axis), under which the e^{-c s} decay of the half-line rule
        dominates the e^{+-i t lam s} factors of the half-line kernels;
      * the pole-free bound r < c/(2 |t|): V_t has poles at
        t(lam - mu) = -+ i c and U_{k;t} at t(mu - lam) = -i eps_k c, and
        two points of a loop at distance r from [a, b] are at most 2r
        apart across the interval.
    The first implies the second.  The factor 0.8 keeps the loop clear of
    the pole: a loop at 0.45 c/|t| brings t(mu - lam) within 0.1 c of it
    and leaves the loop determinants 3e-10 off at 48 nodes per unit
    length.  The other caps keep a disk off the far endpoint and every
    curve inside the declared analyticity margin.
    """
    return min(0.8 * pd.c / (4.0 * max(abs(pd.t), 1e-12)),
               0.25 * (pd.b - pd.a), 0.8 * pd.margin)


def graded_interval(a: float, b: float, n_panel: int = 16, levels: int = 6,
                    ratio: float = 0.15) -> IntervalRule:
    """Composite Gauss rule with panels graded geometrically into a and b.

    Integrands analytic on the open interval but with bounded oscillatory
    endpoint behaviour (the (b-lam)^{i beta} type of the +side boundary
    values) converge spectrally on this rule, where a single Gauss rule
    stalls at an algebraic rate.
    """
    if n_panel < 2 or levels < 1:
        raise ParameterDomainError("need n_panel >= 2 and levels >= 1")
    if not 0 < ratio < 1:
        raise ParameterDomainError(f"grading ratio must be in (0,1), got {ratio}")
    if not a < b:
        raise ParameterDomainError(f"need a < b, got a={a}, b={b}")
    half_len = 0.5 * (b - a)
    lefts = [a + half_len * ratio ** j for j in range(levels, 0, -1)]
    rights = [b - half_len * ratio ** j for j in range(1, levels + 1)]
    edges = np.concatenate(([a], lefts, rights, [b]))
    x, w = _leggauss(n_panel)
    nodes, weights = [], []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (e0 + e1) + 0.5 * (e1 - e0) * x)
        weights.append(0.5 * (e1 - e0) * w)
    return IntervalRule(
        a=float(a), b=float(b), nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        refiner=lambda f: graded_interval(a, b, f * n_panel, levels + 1, ratio))


@dataclass(frozen=True)
class Contour:
    """Closed counterclockwise loop around [a, b] with complex weights.

    The loop is a stadium: two horizontal segments at distance r from the
    interval, closed by semicircular caps of radius r around the endpoints.
    Every point of the ideal curve is at distance exactly r from [a, b]
    (shape constant kappa = 0); sampled points inherit this up to rounding.

    ``cweights`` approximate the contour integral:
    oint f(z) dz ~= sum_j f(samples[j]) * cweights[j].
    """

    a: float
    b: float
    r: float
    samples: np.ndarray
    cweights: np.ndarray

    @property
    def n(self) -> int:
        return self.samples.size

    def integrate(self, values: np.ndarray) -> complex:
        return np.asarray(values) @ self.cweights

    def winding_number(self, z0: complex) -> int:
        """Winding of the sample polygon around z0."""
        dz = self.samples - z0
        turns = np.angle(np.roll(dz, -1) / dz).sum() / (2.0 * np.pi)
        return int(np.rint(turns))

    def distance_to_segment(self) -> np.ndarray:
        """Distance of each sample from the segment [a, b]."""
        x = np.clip(self.samples.real, self.a, self.b)
        return np.abs(self.samples - x)

    def refined(self, factor: int = 2) -> "Contour":
        return stadium_contour(self.a, self.b, self.r,
                               n_per_unit=factor * self._density)

    @property
    def _density(self) -> float:
        return self.n / (2.0 * (self.b - self.a) + 2.0 * np.pi * self.r)


def _gauss_panels(t0: float, t1: float, n_panels: int, q: int):
    """Gauss-Legendre panels covering [t0, t1]; returns (nodes, weights)."""
    x, w = _leggauss(q)
    edges = np.linspace(t0, t1, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    return (mid + half * x[None, :]).ravel(), np.tile(half * w, n_panels)


def stadium_contour(a: float, b: float, r: float, n_per_unit: float = 48.0,
                    margin: float = np.inf) -> Contour:
    """Counterclockwise stadium around [a, b] at offset r.

    Parameters
    ----------
    a, b : float
        Interval endpoints, a < b.
    r : float
        Offset distance; must stay below the caller's analyticity margin.
    n_per_unit : float
        Target node density per unit arclength.
    margin : float
        Declared safety margin; r >= margin raises.

    Notes
    -----
    Every piece (two straights, two semicircular caps) is covered by
    16-point Gauss-Legendre panels, so integrands analytic near the curve
    are integrated to near machine precision; panel lengths are capped at
    1.5 r so that poles at distance r from the curve stay resolved.
    """
    if not a < b:
        raise ParameterDomainError(f"need a < b, got a={a}, b={b}")
    if r <= 0:
        raise ParameterDomainError(f"need r > 0, got r={r}")
    if r >= margin:
        raise ContourSafetyError(
            f"contour radius {r} exceeds the declared margin {margin}")

    q = 16
    len_straight = b - a
    len_cap = np.pi * r

    def panels_for(length):
        return max(1, int(np.ceil(length * n_per_unit / q)),
                   int(np.ceil(length / (1.5 * r))))

    zs, ws = [], []

    # bottom straight, left to right, at -ir
    t, w = _gauss_panels(a, b, panels_for(len_straight), q)
    zs.append(t - 1j * r)
    ws.append(w.astype(complex))
    # right cap around b, angle -pi/2 -> pi/2
    th, w = _gauss_panels(-0.5 * np.pi, 0.5 * np.pi, panels_for(len_cap), q)
    zs.append(b + r * np.exp(1j * th))
    ws.append(w * 1j * r * np.exp(1j * th))
    # top straight, right to left, at +ir
    t, w = _gauss_panels(a, b, panels_for(len_straight), q)
    zs.append((t + 1j * r)[::-1])
    ws.append(-w[::-1].astype(complex))
    # left cap around a, angle pi/2 -> 3 pi/2
    th, w = _gauss_panels(0.5 * np.pi, 1.5 * np.pi, panels_for(len_cap), q)
    zs.append(a + r * np.exp(1j * th))
    ws.append(w * 1j * r * np.exp(1j * th))

    return Contour(a=float(a), b=float(b), r=float(r),
                   samples=np.concatenate(zs), cweights=np.concatenate(ws))


@dataclass(frozen=True)
class HalfLineRule:
    """Rescaled Gauss-Laguerre rule for integrals over (0, inf).

    Built for integrands decaying like e^{-c s} times something smooth;
    callers keep slower-decaying exponential factors inside their kernel
    values rather than in the weights.

    sum_j sweights[j] * g(snodes[j]) ~= int_0^inf g(s) ds.
    """

    c: float
    snodes: np.ndarray
    sweights: np.ndarray

    @property
    def n(self) -> int:
        return self.snodes.size

    def integrate(self, values: np.ndarray) -> complex:
        return np.asarray(values) @ self.sweights

    def refined(self, factor: int = 2) -> "HalfLineRule":
        return laguerre_halfline(factor * self.n, self.c)


def laguerre_halfline(n: int, c: float) -> HalfLineRule:
    """n-point half-line rule with decay scale c (nodes s = u/c, u Laguerre).

    The e^{-u} Laguerre weight is folded back into the weights, so the rule
    integrates e^{-c s} * polynomial exactly.
    """
    if n < 1:
        raise ParameterDomainError(f"need n >= 1, got n={n}")
    if c <= 0:
        raise ParameterDomainError(f"need c > 0, got c={c}")
    if n > 160:
        # e^{u_max} overflows double precision beyond this
        raise ParameterDomainError(f"half-line rule capped at n=160, got {n}")
    u, w = roots_laguerre(n)
    return HalfLineRule(c=float(c), snodes=u / c, sweights=w * np.exp(u) / c)
