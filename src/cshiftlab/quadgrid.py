"""Quadrature rules shared by every other module.

Three supports appear throughout: a real interval [a, b], a closed loop
around it in the complex plane, and the half-line (0, inf) carrying the
e^{-c s} decay of all half-line kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import j1, jn_zeros, roots_laguerre

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
#: largest Gauss-Legendre rule built by Golub-Welsch; larger ones by Bogaert
_GOLUB_WELSCH_MAX = 100

# Bogaert's expansion coefficients (SIAM J. Sci. Comput. 36 (2014) A1008),
# highest power first for np.polyval.  The node and weight series are
# Chebyshev fits in theta^2 on [0, (pi/2)^2].
_NODE_SERIES = (
    (-1.29052996274280508473467968379e-12, 2.40724685864330121825976175184e-10,
     -3.13148654635992041468855740012e-8, 0.275573168962061235623801563453e-5,
     -0.148809523713909147898955880165e-3, 0.416666666665193394525296923981e-2,
     -0.416666666666662959639712457549e-1),
    (2.20639421781871003734786884322e-9, -7.53036771373769326811030753538e-8,
     0.161969259453836261731700382098e-5, -0.253300326008232025914059965302e-4,
     0.282116886057560434805998583817e-3, -0.209022248387852902722635654229e-2,
     0.815972221772932265640401128517e-2),
    (-2.97058225375526229899781956673e-8, 5.55845330223796209655886325712e-7,
     -0.567797841356833081642185432056e-5, 0.418498100329504574443885193835e-4,
     -0.251395293283965914823026348764e-3, 0.128654198542845137196151147483e-2,
     -0.416012165620204364833694266818e-2),
)
_WEIGHT_SERIES = (
    (-2.20902861044616638398573427475e-14, 2.30365726860377376873232578871e-12,
     -1.75257700735423807659851042318e-10, 1.03756066927916795821098009353e-8,
     -4.63968647553221331251529631098e-7, 0.149644593625028648361395938176e-4,
     -0.326278659594412170300449074873e-3, 0.436507936507598105249726413120e-2,
     -0.305555555555553028279487898503e-1, 0.833333333333333302184063103900e-1),
    (3.63117412152654783455929483029e-12, 7.67643545069893130779501844323e-11,
     -7.12912857233642220650643150625e-9, 2.11483880685947151466370130277e-7,
     -0.381817918680045468483009307090e-5, 0.465969530694968391417927388162e-4,
     -0.407297185611335764191683161117e-3, 0.268959435694729660779984493795e-2,
     -0.111111111111214923138249347172e-1),
    (2.01826791256703301806643264922e-9, -4.38647122520206649251063212545e-8,
     5.08898347288671653137451093208e-7, -0.397933316519135275712977531366e-5,
     0.200559326396458326778521795392e-4, -0.422888059282921161626339411388e-4,
     -0.105646050254076140548678457002e-3, -0.947969308958577323145923317955e-4,
     0.656966489926484797412985260842e-2),
)
#: McMahon's series: the k-th zero of J_0 is z + r P(r^2), z = pi (k - 1/4),
#: r = 1/z, for k > 20
_MCMAHON = (
    5.09225462402226769498681286758e7, -8.49353580299148769921876983660e5,
    18690.4765282320653831636345064, -567.644412135183381139802038240,
    25.3364147973439050099206349206, -1.82443876720610119047619047619,
    0.246028645833333333333333333333, -0.807291666666666666666666666667e-1,
    0.125)
#: J_1 squared at the k-th zero of J_0 is u P(u^2), u = 1/(k - 1/4), k > 21
_J1_SQUARED = (
    0.185395398206345628711318848386, -0.266837393702323757700998557826e-1,
    0.496101423268883102872271417616e-2, -0.123632349727175414724737657367e-2,
    0.433710719130746277915572905025e-3, -0.228969902772111653038747229723e-3,
    0.198924364245969295201137972743e-3, -0.303380429711290253026202643516e-3,
    0.0, 0.202642367284675542887112547208)


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


@cache
def _golub_welsch(n: int):
    """n <= 100 nodes and weights, built once per n as read-only arrays.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix with off-diagonal k/sqrt(4k^2 - 1).  Newton
    steps on the three-term recurrence polish them, and the weights are
    2/((1 - x^2) P_n'(x)^2), within 1.7e-13 relative of 40-digit values
    for every n <= 100 (numpy's ``leggauss``: 8e-12 at n = 90).
    """
    k = np.arange(1.0, n)
    x = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    for _ in range(3):  # the last step moves x by rounding only
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (p_prev - x * p) / (1.0 - x * x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@cache
def _bessel_table():
    """The first 20 zeros of J_0, and J_1^2 at the first 21; built once."""
    zeros = jn_zeros(0, 21)
    return zeros[:20], j1(zeros) ** 2


def _bogaert(n: int):
    """Angles theta_k (x_k = cos theta_k) and weights for k = 1..ceil(n/2).

    Bogaert's iteration-free expansion about the zeros nu_k of J_0, with
    w = 1/(n + 1/2), theta = w nu_k and W = w^2 nu_k / sin(theta):
        theta_k = w (nu_k + theta W (SF1 + W^2 (SF2 + W^2 SF3))),
        weight  = 2 w / (J_1(nu_k)^2 nu_k/sin(theta)
                         (1 + W^2 (WSF1 + W^2 (WSF2 + W^2 WSF3)))),
    the S-series taken at theta^2.
    """
    m = (n + 1) // 2
    k = np.arange(1.0, m + 1.0)
    zeros, j1_squared = _bessel_table()
    nu = np.empty(m)
    nu[:20] = zeros[:m]
    z = np.pi * (k[20:] - 0.25)
    nu[20:] = z + np.polyval(_MCMAHON, z ** -2) / z
    bsq = np.empty(m)
    bsq[:21] = j1_squared[:m]
    u = 1.0 / (k[21:] - 0.25)
    bsq[21:] = u * np.polyval(_J1_SQUARED, u * u)

    w = 1.0 / (n + 0.5)
    theta = w * nu
    t2 = theta * theta
    nu_sin = nu / np.sin(theta)
    W2 = (w * w * nu_sin) ** 2
    sf1, sf2, sf3 = (np.polyval(c, t2) for c in _NODE_SERIES)
    wsf1, wsf2, wsf3 = (np.polyval(c, t2) for c in _WEIGHT_SERIES)
    theta = w * (nu + theta * w * w * nu_sin * (sf1 + W2 * (sf2 + W2 * sf3)))
    weight = 2.0 * w / (bsq * nu_sin
                        * (1.0 + W2 * (wsf1 + W2 * (wsf2 + W2 * wsf3))))
    return theta, weight


def _leggauss(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Two routes, chosen by n alone:
      * n <= 100: Golub-Welsch (``_golub_welsch``), O(n^2), cached per n
        and returned as read-only arrays.  The package builds only a few
        such sizes (16, 24, 64, 65), and every one is a constant.
      * n > 100: Bogaert's iteration-free formulas (``_bogaert``), O(n),
        vectorized over the half theta <= pi/2 and mirrored.  Against
        40-digit Newton, nodes are within 4e-16 absolute and weights
        within 1e-15 relative for n up to 5000; the formulas lose
        accuracy below the cut (1.2e-15 at n = 64, 4e-11 at n = 16).
        A 4064-node rule takes under a millisecond.
    Nodes are exactly antisymmetric and weights exactly symmetric; the
    middle node of an odd rule is exactly 0.
    """
    if n <= _GOLUB_WELSCH_MAX:
        return _golub_welsch(n)
    theta, wt = _bogaert(n)
    m = theta.size
    half = np.cos(theta)
    x, w = np.empty(n), np.empty(n)
    x[:m], x[n - m:] = -half, half[::-1]
    w[:m], w[n - m:] = wt, wt[::-1]
    if n % 2:
        x[m - 1] = 0.0
    return x, w


def gauss_interval(n: int, a: float, b: float) -> IntervalRule:
    """n-point Gauss-Legendre rule on [a, b].

    Exact for polynomials of degree <= 2n - 1.  Up to 100 nodes the rule
    is Golub-Welsch, built once per n; weights within 1.7e-13 relative.
    Above, Bogaert's iteration-free formulas (SIAM J. Sci. Comput. 36
    (2014) A1008) build it in O(n); weights within 1e-15 relative for
    n <= 5000.  Nodes are within 4e-16 of the exact ones throughout
    (against 40-digit references).  The returned arrays are the caller's
    own.
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
