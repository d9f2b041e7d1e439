"""Analytic problem data and the scalar functions derived from it.

Holds the symbol F and phase p as holomorphic handles, validates the
standing hypotheses (p real-increasing on [a, b], |arg(1 + F)| < pi), and
provides nu, tau_k, the Cauchy-exponent function alpha with its powers
alpha_k, and one-sided boundary values by Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .cauchy import CauchyKit
from .errors import (
    AccuracyError,
    BoundaryLimitError,
    BranchError,
    ParameterDomainError,
    SymbolDomainError,
)
from .quadgrid import (Contour, IntervalRule, gauss_interval, safe_radius,
                       stadium_contour)

__all__ = [
    "HolomorphicHandle",
    "ProblemData",
    "ScalarRH",
    "constant_symbol",
    "poly_symbol",
    "scaled_exp_symbol",
    "identity_phase",
    "poly_phase",
    "make_problem",
    "make_handle",
    "nu",
    "tau",
    "EPS_K",
    "boundary_value",
    "DELTA_SCHEDULE",
]

#: sign epsilon_k attached to the two scalar problems (k = 1, 2)
EPS_K = {1: -1.0, 2: 1.0}
#: nodes of ScalarRH's default Gauss rule, the beta rule of every pipeline
RULE_NODES = 192
#: offsets lam0 +- i delta (times a length scale) of the one-sided limits
DELTA_SCHEDULE = np.array([1e-2, 1e-3, 1e-4, 1e-5])


@dataclass(frozen=True)
class HolomorphicHandle:
    """A holomorphic function with its derivative."""

    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]

    def __call__(self, z):
        return self.eval(np.asarray(z, dtype=complex))


def constant_symbol(gamma: complex) -> HolomorphicHandle:
    g = complex(gamma)
    return HolomorphicHandle(
        eval=lambda z: np.full_like(np.asarray(z, dtype=complex), g),
        deriv=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
    )


def _poly_pair(coeffs):
    """Evaluators of sum_k coeffs[k] z^k and of its derivative, by Horner's
    rule on the coefficients (``polyval``): no domain map per call."""
    poly = np.polynomial.polynomial
    c = np.asarray(coeffs, dtype=float)
    dc = poly.polyder(c)
    return (lambda z: poly.polyval(z, c)), (lambda z: poly.polyval(z, dc))


def poly_symbol(coeffs) -> HolomorphicHandle:
    """Polynomial sum_k coeffs[k] z^k with real coefficients."""
    p, dp = _poly_pair(coeffs)
    return HolomorphicHandle(eval=p, deriv=dp)


def scaled_exp_symbol(gamma: float, coeffs) -> HolomorphicHandle:
    """gamma * exp(polynomial) with real gamma and real coefficients."""
    p, dp = _poly_pair(coeffs)
    return HolomorphicHandle(eval=lambda z: gamma * np.exp(p(z)),
                             deriv=lambda z: gamma * dp(z) * np.exp(p(z)))


def poly_phase(coeffs) -> HolomorphicHandle:
    return poly_symbol(coeffs)


def identity_phase() -> HolomorphicHandle:
    return poly_phase([0.0, 1.0])


#: kind -> (factory, fewest params, most params)
_PRESETS = {
    "constant": (lambda params: constant_symbol(params[0]), 1, 1),
    "poly": (poly_symbol, 1, np.inf),
    "scaled_exp": (lambda params: scaled_exp_symbol(params[0], params[1:]),
                   2, np.inf),
    "identity": (lambda params: identity_phase(), 0, 0),
}


def make_handle(kind: str, params=()) -> HolomorphicHandle:
    """Build a handle from the closed preset family exposed to configs."""
    try:
        factory, lo, hi = _PRESETS[kind]
    except KeyError:
        raise ParameterDomainError(
            f"unknown symbol kind {kind!r}; choose from {sorted(_PRESETS)}")
    params = list(params)
    if not lo <= len(params) <= hi:
        want = lo if lo == hi else f"at least {lo}"
        raise ParameterDomainError(f"symbol kind {kind!r} takes {want} "
                                   f"parameter(s), got {len(params)}")
    return factory(params)


@dataclass(frozen=True)
class ProblemData:
    """Validated analytic inputs of one determinant problem."""

    a: float
    b: float
    c: float
    t: complex
    x: float
    F: HolomorphicHandle
    p: HolomorphicHandle

    def with_(self, **kw) -> "ProblemData":
        d = dict(a=self.a, b=self.b, c=self.c, t=self.t, x=self.x,
                 F=self.F, p=self.p)
        d.update(kw)
        return make_problem(**d)


def make_problem(a: float, b: float, c: float, t: complex, x: float,
                 F: HolomorphicHandle, p: HolomorphicHandle) -> ProblemData:
    """Validate the inputs and return a ProblemData.

    The hypotheses are checked numerically on a 64-node Gauss rule: p is
    real with p' > 0 at its nodes, and |arg(1 + F)| < pi there and on
    the stadium at ``safe_radius``, the loop the package builds; between
    neighbouring samples 1 + F must not cross its cut.
    """
    if not a < b:
        raise ParameterDomainError(f"need a < b, got a={a}, b={b}")
    if c <= 0:
        raise ParameterDomainError(f"need c > 0, got c={c}")
    if x <= 0:
        raise ParameterDomainError(f"need x > 0, got x={x}")
    t = complex(t)

    rule = gauss_interval(64, a, b)
    pvals = p(rule.nodes)
    if np.max(np.abs(pvals.imag)) > 1e-10 * max(1.0, np.max(np.abs(pvals))):
        j = int(np.argmax(np.abs(pvals.imag)))
        raise SymbolDomainError(
            f"p is not real on [a, b]: p({rule.nodes[j]}) = {pvals[j]}",
            node=rule.nodes[j])
    dp = p.deriv(rule.nodes)
    if np.min(dp.real) <= 0:
        j = int(np.argmin(dp.real))
        raise SymbolDomainError(
            f"p' must be positive on [a, b]: p'({rule.nodes[j]}) = {dp[j]}",
            node=rule.nodes[j])

    pd = ProblemData(a=float(a), b=float(b), c=float(c), t=t, x=float(x),
                     F=F, p=p)
    loop = stadium_contour(a, b, safe_radius(pd)).nodes
    for where, pts in (("interval", rule.nodes.astype(complex)),
                       ("contour", np.append(loop, loop[0]))):
        one_plus = 1.0 + F(pts)
        arg = np.angle(one_plus)
        bad = (np.abs(arg) >= np.pi * (1.0 - 1e-12)) | (one_plus == 0)
        # 1 + F crossing the cut between two neighbouring samples
        bad[1:] |= np.abs(np.diff(arg)) > np.pi
        if bad.any():
            j = int(np.argmax(bad))
            raise SymbolDomainError(
                f"|arg(1+F)| < pi fails at {where} node {pts[j]}: "
                f"1+F = {one_plus[j]}", node=pts[j])
    return pd


def nu(pd: ProblemData, lam) -> np.ndarray:
    """nu(lam) = -log(1 + F(lam)) / (2 i pi), principal branch."""
    one_plus = 1.0 + pd.F(lam)
    if np.any(one_plus == 0):
        raise BranchError("1 + F vanishes; nu has a branch point there")
    return -np.log(one_plus) / (2j * np.pi)


def tau(k: int, pd: ProblemData, lam) -> np.ndarray:
    """tau_1 = -F/(1+F), tau_2 = F; (1+tau_1)(1+tau_2) = 1 pointwise."""
    Fv = pd.F(lam)
    if k == 1:
        one_plus = 1.0 + Fv
        if np.any(one_plus == 0):
            raise BranchError("tau_1 has a pole where 1 + F = 0")
        return -Fv / one_plus
    if k == 2:
        return Fv
    raise ParameterDomainError(f"k must be 1 or 2, got {k}")


def _neville(deltas: np.ndarray, vals: list):
    """Extrapolate the samples vals[i] = f(deltas[i]) to delta = 0.

    Works entrywise for array-valued samples.  Returns (limit, estimate),
    the estimate being the gap between the two deepest table columns.
    """
    tbl = [np.asarray(v) for v in vals]
    prev_last = tbl[-1]
    for k in range(1, len(vals)):
        tbl = [
            (deltas[i] * tbl[i + 1] - deltas[i + k] * tbl[i])
            / (deltas[i] - deltas[i + k])
            for i in range(len(tbl) - 1)
        ]
        if len(tbl) == 1:
            est = np.max(np.abs(tbl[0] - prev_last))
        prev_last = tbl[-1]
    return tbl[0], float(est)


def boundary_value(f: Callable, lam0: float, side: int, scale: float = 1.0):
    """One-sided limit f(lam0 + i side 0) by Richardson extrapolation.

    Evaluates f on the geometric schedule lam0 + i*side*delta,
    delta in DELTA_SCHEDULE * scale, and extrapolates to delta = 0 with
    a Neville table.  Returns (value, error_estimate); a schedule whose
    successive differences grow raises BoundaryLimitError.
    """
    if side not in (+1, -1):
        raise ParameterDomainError("side must be +1 or -1")
    deltas = DELTA_SCHEDULE * scale
    vals = [np.asarray(f(lam0 + 1j * side * d)) for d in deltas]
    # successive differences must shrink along a convergent schedule
    diffs = [float(np.max(np.abs(v2 - v1))) for v1, v2 in zip(vals, vals[1:])]
    scale = float(np.max(np.abs(vals[0]))) + 1e-300
    if diffs[-1] > diffs[0] * (1.0 + 1e-9) and diffs[-1] > 1e-9 * scale:
        raise BoundaryLimitError(
            f"boundary limit at {lam0} (side {side:+d}) diverges along the "
            f"delta schedule (growing differences {diffs[0]:.2e} -> "
            f"{diffs[-1]:.2e})")
    limit, est = _neville(deltas, vals)
    return (limit if limit.ndim else complex(limit)), est


class ScalarRH:
    """The scalar Riemann-Hilbert data nu, alpha on one interval rule.

    alpha(lam) = exp C[nu](lam) with C the Cauchy transform over [a, b];
    alpha_1 = 1/alpha and alpha_2 = alpha.  Evaluation is uniformly
    accurate up to the cut; points on (a, b) get the +side value.

    ``rule`` defaults to beta's, ``gauss_interval(RULE_NODES, a, b)``: both
    are x-independent Cauchy transforms over [a, b].  The rule's ``kit``,
    the stadium ``loop`` at ``safe_radius`` and ln alpha at the nodes (+side)
    and on the loop are computed once, on first use, for every user.
    """

    def __init__(self, pd: ProblemData, rule: IntervalRule | None = None):
        self.pd = pd
        self.rule = gauss_interval(RULE_NODES, pd.a, pd.b) \
            if rule is None else rule
        self.nu_nodes = nu(pd, self.rule.nodes.astype(complex))

    @cached_property
    def kit(self) -> CauchyKit:
        return CauchyKit(self.rule)

    @cached_property
    def loop(self) -> Contour:
        return stadium_contour(self.pd.a, self.pd.b, safe_radius(self.pd))

    @cached_property
    def node_exponent(self) -> np.ndarray:
        return self.exponent(self.rule.nodes + 0j)

    @cached_property
    def loop_exponent(self) -> np.ndarray:
        return self.exponent(self.loop.nodes)

    def exponent(self, lam, weights=None):
        """int_a^b nu(mu)/(mu - lam) dmu, at one point or an array of them.

        ``weights`` are the rule's Cauchy weights at lam
        (``kit.weights(lam)``) when the caller has them already.
        Uniformly accurate up to (and on) the cut; only the immediate
        vicinity of the endpoints loses digits to the log evaluations.
        """
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        span = self.pd.b - self.pd.a
        close = np.minimum(np.abs(lam_arr - self.pd.a),
                           np.abs(lam_arr - self.pd.b)) / span
        if np.any(close < 1e-12):
            d = float(close.min())
            raise AccuracyError(
                "alpha evaluated within rounding distance of an endpoint",
                estimate=2e-16 / max(d, 1e-300))
        w = self.kit.weights(lam) if weights is None else weights
        return w @ self.nu_nodes

    def alpha(self, lam):
        return np.exp(self.exponent(lam))

    def alpha_k(self, k: int, lam):
        """alpha_k = alpha^{eps_k}, eps_1 = -1, eps_2 = +1."""
        return np.exp(EPS_K[k] * self.exponent(lam))

    def alpha_k_plus(self, k: int, lam0: float):
        val, _ = boundary_value(lambda z: self.alpha_k(k, z), lam0, +1,
                                scale=self.pd.b - self.pd.a)
        return val
