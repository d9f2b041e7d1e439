"""Quadrature rules shared by every other module.

Every rule is a ``Rule``: nodes and weights, with
sum_j weights[j] f(nodes[j]) approximating the integral of f.  Three
supports appear throughout, each a subclass that adds only its geometry:
a real interval [a, b] (``IntervalRule``), a closed loop around it in the
complex plane (``Contour``), and the half-line (0, inf) carrying the
e^{-c s} decay of all half-line kernels (``HalfLineRule``, which also
builds, once, its doubled rule on L2(R+) + L2(R+) and the inverse decay
pattern of the (2n, 2n) operators there).  Every composite rule is laid
by one routine, ``_panels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterDomainError

if TYPE_CHECKING:
    from .symbols import ProblemData

__all__ = [
    "Rule",
    "IntervalRule",
    "Contour",
    "HalfLineRule",
    "gauss_interval",
    "transplanted_interval",
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
#: Hale and Trefethen's degree-9 sausage map g(s) = sum_j c_j s^{2j+1}:
#: arcsin's Taylor coefficients c_j, j <= 4, normalised so that g(1) = 1
_SAUSAGE = np.array([1.0, 1.0 / 6.0, 3.0 / 40.0, 5.0 / 112.0, 35.0 / 1152.0])
_SAUSAGE /= _SAUSAGE.sum()

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
#: the first 20 zeros of J_0
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998,
    58.90698392608094, 62.048469190227166])
#: J_1 squared at the first 21 zeros of J_0
_J1_SQUARED_AT_ZEROS = np.array([
    0.269514123941917, 0.11578013858220378, 0.07368635113640826,
    0.054037573198116286, 0.04266142901724307, 0.03524210349099611,
    0.03002107010305466, 0.026147391495308092, 0.023159121824691403,
    0.020783829122267842, 0.018850450669317672, 0.017246157569665008,
    0.0158935181059236, 0.014737626096472192, 0.013738465145387117,
    0.01286618173761514, 0.012098051548626794, 0.011416471224491607,
    0.010807592791180208, 0.010260372926280771, 0.009765897139791058])
#: J_1 squared at the k-th zero of J_0 is u P(u^2), u = 1/(k - 1/4), k > 21
_J1_SQUARED = (
    0.185395398206345628711318848386, -0.266837393702323757700998557826e-1,
    0.496101423268883102872271417616e-2, -0.123632349727175414724737657367e-2,
    0.433710719130746277915572905025e-3, -0.228969902772111653038747229723e-3,
    0.198924364245969295201137972743e-3, -0.303380429711290253026202643516e-3,
    0.0, 0.202642367284675542887112547208)


@dataclass(frozen=True)
class Rule:
    """Quadrature rule: sum_j weights[j] f(nodes[j]) ~= the integral of f.

    All a Nystrom discretization reads of a rule.  Nodes and weights are
    real on an interval or the half-line, complex on a loop (the weights
    then carry dz).
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate node values (last axis runs over nodes)."""
        return np.asarray(values) @ self.weights


@dataclass(frozen=True)
class IntervalRule(Rule):
    """Quadrature rule on [a, b].

    Attributes
    ----------
    a, b : float
        Endpoints, a < b.
    refiner : callable
        Builds the next finer rule of the same family.

    The nodes lie strictly inside (a, b), ascending; the weights are
    positive and sum to b - a.
    """

    a: float
    b: float
    refiner: object = field(repr=False, compare=False)

    def refined(self) -> "IntervalRule":
        """The next finer rule of the same family."""
        return self.refiner()

    def to_unit(self, lam):
        """Affine map of lam onto the reference interval [-1, 1]."""
        return (2.0 * lam - (self.a + self.b)) / (self.b - self.a)


@cache
def _golub_welsch(n: int):
    """n <= 100 nodes and weights, built once per n as read-only arrays.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix with off-diagonal k/sqrt(4k^2 - 1), taken by
    ``np.linalg.eigvalsh`` on the dense matrix.  Newton steps on the
    three-term recurrence polish them, and the weights are
    2/((1 - x^2) P_n'(x)^2), within 1.7e-13 relative of 40-digit values
    for every n <= 100 (numpy's ``leggauss``: 8e-12 at n = 90).
    """
    k = np.arange(1.0, n)
    off = np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1)
    x = np.linalg.eigvalsh(off + off.T)
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
    nu = np.empty(m)
    nu[:20] = _J0_ZEROS[:m]
    z = np.pi * (k[20:] - 0.25)
    nu[20:] = z + np.polyval(_MCMAHON, z ** -2) / z
    bsq = np.empty(m)
    bsq[:21] = _J1_SQUARED_AT_ZEROS[:m]
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
                        weights=half * w,
                        refiner=lambda: gauss_interval(2 * n, a, b))


def _sausage(s: np.ndarray):
    """The sausage map g(s) and its derivative g'(s)."""
    u = s * s
    odd = np.arange(1, 2 * _SAUSAGE.size, 2)
    return (s * np.polyval(_SAUSAGE[::-1], u),
            np.polyval((odd * _SAUSAGE)[::-1], u))


def transplanted_interval(n: int, a: float, b: float) -> IntervalRule:
    """n Gauss-Legendre nodes of [-1, 1] carried to [a, b] by the sausage map.

    Hale and Trefethen, "New quadrature formulas from conformal maps",
    SIAM J. Numer. Anal. 46 (2008): nodes (a + b)/2 + (b - a) g(s_k)/2 and
    weights (b - a) w_k g'(s_k)/2, for the Gauss nodes s_k and weights w_k
    and the degree-9 odd polynomial g with g(1) = 1.  The map spreads the
    nodes nearly evenly over the middle of [a, b], where the Gauss rule's
    arcsine density crowds them toward the endpoints, so an oscillatory
    integrand is resolved from a factor g'(0) = 0.7595 of the Gauss nodes.
    The price is polynomial exactness: degree (2n - 9)/9, against the
    Gauss rule's 2n - 1.  ``refined`` keeps the map.
    """
    if not a < b:
        raise ParameterDomainError(f"need a < b, got a={a}, b={b}")
    ref = gauss_interval(n, -1.0, 1.0)
    g, dg = _sausage(ref.nodes)
    half = 0.5 * (b - a)
    return IntervalRule(
        a=float(a), b=float(b), nodes=0.5 * (a + b) + half * g,
        weights=half * ref.weights * dg,
        refiner=lambda: transplanted_interval(2 * n, a, b))


def oscillation_nodes(pd: "ProblemData", frequency: float = 0.5,
                      gauss: bool = False) -> int:
    """Nodes on [a, b] resolving the phases e^{+-i frequency x p(lam)}.

    Sized for ``transplanted_interval``, or for ``gauss_interval`` when
    ``gauss`` is set.  Both put n Gauss-Legendre nodes s of [-1, 1] at
    lam = (a + b)/2 + (b - a) g(s)/2, g the sausage map or the identity,
    where they lie pi D(s)/n apart, D(s) = (b - a)/2 sqrt(1 - s^2) g'(s).
    Two nodes per local wavelength 2 pi/(frequency x p'(lam)), plus a
    margin, take
        n = ceil(frequency x max_j p'(lam_j) D(s_j)) + 64,
    the max over a 65-point Gauss check grid s_j (odd, so its middle node
    maps to the midpoint of [a, b]).  For the Gauss rule D is
    sqrt((lam - a)(b - lam)), the arcsine density; the sausage map levels
    it to g'(0) (b - a)/2 = 0.7595 (b - a)/2 over the middle of [a, b].
    For the identity phase n = ceil(0.7595 frequency x (b - a)/2) + 64 on
    the transplanted rule and ceil(frequency x (b - a)/2) + 64 on the
    Gauss rule.  A phase whose slope p' grows toward the endpoints, where
    the map thins the nodes, saves less: p = lam + 0.3 lam^3 takes 919
    nodes against the Gauss rule's 915 at x = 1600.

    The interval kernels carry e^{+-i x (p(lam) - p(mu))/2}: the default
    frequency 1/2, on the sweep's transplanted rule.  chi's near-cut
    Cauchy sums interpolate the products F_R (x) E_L, whose off-diagonal
    parts carry e^{+-i x p}: frequency 1, on a Gauss rule (the default
    rule of ``rhp.ChiSolution``), since ``cauchy.CauchyKit`` takes its
    barycentric weights from the Gauss-Legendre formula.
    Without the margin the rule has two nodes per local wavelength, where
    the determinant is still 1e-4 to 1e-2 off; the +64 margin takes it to
    rounding (at x = 3200 a 32-node margin leaves up to 2e-10 on the Gauss
    rule, 64 nodes under 1e-12).  The basis for trusting a Nystrom
    determinant once the kernel is resolved is Bornemann, "On the
    numerical evaluation of Fredholm determinants", Math. Comp. 79 (2010).

    The bound is sharp, not safe by a factor: ``flow.theorem1_sweep``
    checks every row a posteriori on a rule 1.15 times as large and grows
    n until the log-ratio moves by less than ``flow.RULE_TOL``.
    """
    a, b = pd.a, pd.b
    s = gauss_interval(_CHECK_NODES, -1.0, 1.0).nodes
    g, dg = (s, 1.0) if gauss else _sausage(s)
    lam = 0.5 * (a + b) + 0.5 * (b - a) * g
    dp = np.real(pd.p.deriv(lam.astype(complex)))
    k = 0.5 * (b - a) * np.max(dp * np.sqrt(1.0 - s * s) * dg)
    return int(np.ceil(frequency * pd.x * k)) + _NODE_MARGIN


def safe_radius(pd: "ProblemData") -> float:
    """Radius of every loop and endpoint disk the package builds itself.

    r = min(0.8 c/(4 |t|), (b - a)/4).  Two constraints of the
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
    length.  The cap (b - a)/4 keeps a disk off the far endpoint.  F and
    p need only be holomorphic within r of [a, b]; every preset handle is
    entire.
    """
    return min(0.8 * pd.c / (4.0 * max(abs(pd.t), 1e-12)),
               0.25 * (pd.b - pd.a))


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
    nodes, weights = _panels(np.concatenate(([a], lefts, rights, [b])),
                             n_panel)
    return IntervalRule(
        a=float(a), b=float(b), nodes=nodes, weights=weights,
        refiner=lambda: graded_interval(a, b, 2 * n_panel, levels + 1, ratio))


@dataclass(frozen=True)
class Contour(Rule):
    """Closed counterclockwise loop around [a, b] with complex weights.

    The loop is a stadium: two horizontal segments at distance r from the
    interval, closed by semicircular caps of radius r around the endpoints.
    Every point of the ideal curve is at distance exactly r from [a, b]
    (shape constant kappa = 0); the nodes inherit this up to rounding.

    The nodes are points of the loop and the weights carry dz:
    oint f(z) dz ~= sum_j f(nodes[j]) * weights[j].
    """

    a: float
    b: float
    r: float

    def winding_number(self, z0: complex) -> int:
        """Winding of the polygon through the nodes around z0."""
        dz = self.nodes - z0
        turns = np.angle(np.roll(dz, -1) / dz).sum() / (2.0 * np.pi)
        return int(np.rint(turns))

    def distance_to_segment(self) -> np.ndarray:
        """Distance of each node from the segment [a, b]."""
        x = np.clip(self.nodes.real, self.a, self.b)
        return np.abs(self.nodes - x)

    def refined(self) -> "Contour":
        """The loop at twice the node density."""
        return stadium_contour(self.a, self.b, self.r,
                               n_per_unit=2 * self._density)

    @property
    def _density(self) -> float:
        return self.n / (2.0 * (self.b - self.a) + 2.0 * np.pi * self.r)


def _panels(edges: np.ndarray, q: int):
    """q-point Gauss-Legendre panels between consecutive edges.

    Returns (nodes, weights), panel by panel in the order of the edges;
    each panel integrates polynomials of degree <= 2q - 1 exactly.
    """
    x, w = _leggauss(q)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def stadium_contour(a: float, b: float, r: float,
                    n_per_unit: float = 48.0) -> Contour:
    """Counterclockwise stadium around [a, b] at offset r.

    Parameters
    ----------
    a, b : float
        Interval endpoints, a < b.
    r : float
        Offset distance, r > 0; the integrands must be holomorphic
        within r of [a, b].
    n_per_unit : float
        Target node density per unit arclength.

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

    q = 16
    len_straight = b - a
    len_cap = np.pi * r

    def cover(t0, t1, length):
        n_panels = max(1, int(np.ceil(length * n_per_unit / q)),
                       int(np.ceil(length / (1.5 * r))))
        return _panels(np.linspace(t0, t1, n_panels + 1), q)

    zs, ws = [], []

    # bottom straight, left to right, at -ir
    t, w = cover(a, b, len_straight)
    zs.append(t - 1j * r)
    ws.append(w.astype(complex))
    # right cap around b, angle -pi/2 -> pi/2
    th, w = cover(-0.5 * np.pi, 0.5 * np.pi, len_cap)
    zs.append(b + r * np.exp(1j * th))
    ws.append(w * 1j * r * np.exp(1j * th))
    # top straight, right to left, at +ir
    t, w = cover(a, b, len_straight)
    zs.append((t + 1j * r)[::-1])
    ws.append(-w[::-1].astype(complex))
    # left cap around a, angle pi/2 -> 3 pi/2
    th, w = cover(0.5 * np.pi, 1.5 * np.pi, len_cap)
    zs.append(a + r * np.exp(1j * th))
    ws.append(w * 1j * r * np.exp(1j * th))

    return Contour(a=float(a), b=float(b), r=float(r),
                   nodes=np.concatenate(zs), weights=np.concatenate(ws))


@dataclass(frozen=True)
class HalfLineRule(Rule):
    """Rescaled Gauss-Laguerre rule for integrals over (0, inf).

    Built for integrands decaying like e^{-c s} times something smooth;
    callers keep slower-decaying exponential factors inside their kernel
    values rather than in the weights.

    sum_j weights[j] * g(nodes[j]) ~= int_0^inf g(s) ds.
    """

    c: float

    def refined(self) -> "HalfLineRule":
        """The rule with twice the nodes."""
        return laguerre_halfline(2 * self.n, self.c)

    @cached_property
    def doubled(self) -> Rule:
        """The rule of L2(R+) + L2(R+): nodes and weights twice over,
        component 1 first, as ``l2half`` stacks its (2n,) value vectors.
        Built once per rule; its arrays are read-only."""
        nodes, weights = np.tile(self.nodes, 2), np.tile(self.weights, 2)
        nodes.flags.writeable = weights.flags.writeable = False
        return Rule(nodes=nodes, weights=weights)

    @cached_property
    def growth(self) -> np.ndarray:
        """e^{c s/4} at the nodes, the factor of the inverse decay pattern
        e^{c (s + s')/4} of the half-line operators on each variable
        (``l2half.factor_bound``).  Built once per rule; read-only."""
        out = np.exp(0.25 * self.c * self.nodes)
        out.flags.writeable = False
        return out


def _laguerre_scaled(n: int, u: np.ndarray):
    """L_n(u) e^{-u/2} and L_n'(u) e^{-u/2} by the three-term recurrence.

    The recurrence runs on d_k = L_k - L_{k-1},
    (k + 1) d_{k+1} = k d_k - u L_k, where u enters only as a factor: in
    the textbook form (2k + 1 - u) rounds small nodes to eps k absolute.
    |L_k(u)| <= e^{u/2} on u >= 0, so the scaled values stay below 1.
    """
    p, d = np.exp(-0.5 * u), np.zeros_like(u)
    for k in range(n):
        d = (k * d - u * p) / (k + 1)
        p = p + d
    return p, n * d / u


@cache
def _gauss_laguerre(n: int):
    """Laguerre nodes u and weights w e^u, built once per n as read-only arrays.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix with
    diagonal 2k + 1 and off-diagonal k; one Newton step on the recurrence
    polishes them.  The weights w e^u = 1/(u (L_n'(u) e^{-u/2})^2) come
    from the scaled recurrence, so neither factor overflows, and are
    normalised so that the w sum to int_0^inf e^{-u} du = 1.  Against
    40-digit Newton, nodes are
    within 7e-16 relative and w e^u within 7e-14 relative for n <= 160
    (scipy's ``roots_laguerre``: 1.4e-13 at n = 48, 1.1e-12 at n = 160).
    """
    k = np.arange(1.0, n)
    off = np.diag(k, 1)
    u = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + off + off.T)
    p, dp = _laguerre_scaled(n, u)
    u = u - p / dp
    _, dp = _laguerre_scaled(n, u)
    we = 1.0 / (u * dp * dp)
    we /= we @ np.exp(-u)
    u.flags.writeable = False
    we.flags.writeable = False
    return u, we


def laguerre_halfline(n: int, c: float) -> HalfLineRule:
    """n-point half-line rule with decay scale c (nodes s = u/c, u Laguerre).

    The e^{-u} Laguerre weight is folded back into the weights, so the rule
    integrates e^{-c s} * polynomial exactly.  The returned arrays are the
    caller's own.
    """
    if n < 1:
        raise ParameterDomainError(f"need n >= 1, got n={n}")
    if c <= 0:
        raise ParameterDomainError(f"need c > 0, got c={c}")
    if n > 160:
        # the largest node is 610 here; e^{-u} leaves the normal range at 708
        raise ParameterDomainError(f"half-line rule capped at n=160, got {n}")
    u, we = _gauss_laguerre(n)
    return HalfLineRule(c=float(c), nodes=u / c, weights=we / c)
