"""The scalar integral kernels: V_t, V0, U_{k;t}, K_{k;t}, resolvent.

V_t - V0, the c-shift, also comes as exact low-rank Nystrom factors
(``shift_factors``), and so does K_{k;t} on an interval rule
(``k_factors``): each carries a Cauchy factor in lam - mu whose pole sits
c/|t| off [a, b], interpolated in mu at Chebyshev points
(``_cauchy_basis``), so I + K_{k;t} W is the identity plus rank r.  V0 is
integrable, (lam - mu) V0(lam, mu) a sum of two products f(lam) g(mu),
so on any rule I + V0 W is Cauchy-like of displacement rank 2:
``v0_generators`` gives its generators and diagonal, the package's one
definition of I + V0 W on a rule.  The sweep eliminates it from them
(``fredholm.cauchy_like_logdets``) without forming the matrix;
``rhp.ChiSolution`` forms it from them (``fredholm.cauchy_like_matrix``)
and solves on it updated by the c-shift's factors.  So no pipeline
assembles V0, V_t or K_{k;t}: ``v_t``, ``v0`` and ``k_kt`` are the
continuum evaluators.  ``v_t`` interpolates the chi densities off the
nodes (``ChiSolution.FR_at``/``FL_at``), and all three are the tests'
dense reference, ``v_t`` and ``v0`` with every entry from theta taken
directly.  U_{k;t} on the stadium loop is assembled dense: the loop is
not an interval.  The resolvent kernel reads the densities of a
ChiSolution; this module solves no system.

Every kernel is a KernelHandle, one vectorized evaluator that is exact
on the diagonal too: V_t and V0 take the divided-difference limit there,
U_{k;t} and K_{k;t} are regular (and vanish at t = 0), and the resolvent
takes a Richardson-extrapolated central difference of its vanishing
numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PoleError
from .quadgrid import IntervalRule
from .symbols import EPS_K, ProblemData, ScalarRH, tau

__all__ = ["KernelHandle", "v_t", "v0", "v0_generators", "shift_factors",
           "k_factors", "u_kt", "k_kt", "resolvent_kernel"]


@dataclass
class KernelHandle:
    """A scalar kernel and its name.

    ``eval(lam, mu)`` returns the broadcast shape of its arguments, the
    diagonal lam = mu included; a scalar gives a 0-d result.
    """

    eval: Callable
    name: str = ""

    def __call__(self, lam, mu, **kw):
        return self.eval(lam, mu, **kw)

    def diag(self, lam):
        """The diagonal K(lam, lam), in the shape of lam."""
        return self.eval(lam, lam)


def _real_values(*vals):
    """The real parts of vals when every entry has zero imaginary part.

    Returns None when any value is non-real.
    """
    vals = [np.asarray(v) for v in vals]
    if any(np.iscomplexobj(v) and np.any(v.imag) for v in vals):
        return None
    return [v.real for v in vals]


def _interval_entries(pd: ProblemData, t: complex, lam, mu):
    """Entries of V_t on [a, b]; t = 0 gives the sine kernel V0.

    F and p are evaluated on the lam and mu arrays only; the result has
    their broadcast shape, float64 when t and all of these values are
    real and complex128 otherwise.  With d = lam - mu, every entry is
        (c F/pi) (t cos theta + c sin(theta)/d) / (t^2 d^2 + c^2),
    F sin(theta)/(pi d) at t = 0, with theta = x d dd/2 taken directly
    from dd, the divided difference of p (p' at the midpoint where
    |d| < 1e-9 (b - a)).  Forming theta from p(lam) - p(mu) keeps it
    accurate relative to its size for close pairs, and no entry takes
    angle addition, so ``v0`` is a reference independent of
    ``v0_generators``.
    """
    lam, mu = np.asarray(lam), np.asarray(mu)
    F_lam, p_lam, p_mu = pd.F(lam), pd.p(lam), pd.p(mu)
    real = _real_values(t, lam, mu, F_lam, p_lam, p_mu)
    if real is not None:
        t, lam, mu, F_lam, p_lam, p_mu = real
        t = float(t)
    else:
        td = t * (lam - mu)
        if np.any(np.minimum(np.abs(td - 1j * pd.c), np.abs(td + 1j * pd.c))
                  < 1e-8 * pd.c):
            raise PoleError("V_t evaluated too close to t(lam-mu) = -+ i c")
    d = lam - mu
    tiny = np.abs(d) < 1e-9 * (pd.b - pd.a)
    dd = np.asarray((p_lam - p_mu) / np.where(tiny, 1.0, d))
    if tiny.any():
        dp = pd.p.deriv(0.5 * (np.broadcast_to(lam, tiny.shape)[tiny]
                               + np.broadcast_to(mu, tiny.shape)[tiny]))
        dd[tiny] = dp if np.iscomplexobj(dd) else dp.real
    theta = 0.5 * pd.x * d * dd
    sin_over_d = 0.5 * pd.x * dd * np.sinc(theta / np.pi)
    if t == 0:
        return sin_over_d * (F_lam / np.pi)
    c = pd.c
    return (t * np.cos(theta) + c * sin_over_d) * (c * F_lam / np.pi) \
        / ((t * d) ** 2 + c ** 2)


def v_t(pd: ProblemData) -> KernelHandle:
    """The c-shifted two-term kernel of the t-deformed operator on [a, b].

    V_t(lam, mu) = i c F(lam) / (2 i pi (lam-mu)) *
        { e^{+i x [p(lam)-p(mu)]/2} / (t (lam-mu) + i c)
        + e^{-i x [p(lam)-p(mu)]/2} / (t (lam-mu) - i c) },
    evaluated in the combined form that is regular on the diagonal, where
    it is F(lam) (t + c x p'(lam)/2) / (pi c).
    At t = 1 this is the undeformed kernel; at t = 0 it collapses to the
    generalized sine kernel v0.  Values are float64 for real data and
    complex128 otherwise.
    """
    return KernelHandle(lambda lam, mu: _interval_entries(pd, pd.t, lam, mu),
                        name="V_t")


def v0(pd: ProblemData) -> KernelHandle:
    """Generalized sine kernel F(lam) sin(x [p(lam)-p(mu)]/2) / (pi (lam-mu)).

    V_t at t = 0, whatever pd.t is.
    """
    return KernelHandle(lambda lam, mu: _interval_entries(pd, 0.0, lam, mu),
                        name="V0")


def v0_generators(pd: ProblemData, rule: IntervalRule):
    """Generators g, h (n, 2) and diagonal of I + V0 W on an interval rule.

    Off the diagonal (I + V0 W)_ij = g_i . h_j / (lam_i - lam_j) with
        g_i = F(lam_i)/pi (sin a_i, -cos a_i),  h_j = w_j (cos a_j, sin a_j),
    a = x p/2, so that g_i . h_j = F(lam_i) w_j sin(a_i - a_j)/pi by angle
    addition; the diagonal is the exact limit 1 + w F x p'/(2 pi).  p is
    real on [a, b] (``make_problem`` checks it), so h is real; g and the
    diagonal are float64 for real F and complex128 otherwise.
    """
    lam, w = rule.nodes, rule.weights
    F_lam = pd.F(lam)
    if _real_values(F_lam) is not None:
        F_lam = F_lam.real
    a = 0.5 * pd.x * pd.p(lam).real
    s, c = np.sin(a), np.cos(a)
    g = np.stack([s, -c], axis=1) * (F_lam / np.pi)[:, None]
    h = np.stack([c, s], axis=1) * w[:, None]
    diag = 1.0 + w * (F_lam / np.pi) * (0.5 * pd.x * pd.p.deriv(lam).real)
    return g, h, diag


def _chebyshev_basis(a: float, b: float, r: int, mu: np.ndarray):
    """r Chebyshev points of [a, b] (second kind) and the Lagrange basis at mu.

    The basis is the barycentric formula (Berrut & Trefethen, SIAM Rev. 46,
    2004), shape (mu.size, r); a mu on a point takes its unit row.
    """
    xi = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * np.arange(r) / (r - 1))
    beta = (-1.0) ** np.arange(r)
    beta[[0, -1]] *= 0.5
    diff = mu[:, None] - xi[None, :]
    hit = diff == 0.0
    L = beta / np.where(hit, 1.0, diff)
    L /= L.sum(axis=1, keepdims=True)
    on_point = hit.any(axis=1)
    L[on_point] = hit[on_point]
    return xi, L


def _cauchy_basis(rule: IntervalRule, poles: np.ndarray, name: str):
    """r Chebyshev points of [a, b] and their Lagrange basis at the nodes.

    Enough points to interpolate in mu any Cauchy factor 1/(mu - z), z
    among ``poles``, to rounding: r = ceil(ln(1e16)/ln rho) + 4, rho the
    smallest Bernstein-ellipse parameter of the poles, as the interpolant's
    error falls like rho^-r.  A pole on [a, b] raises PoleError naming
    the kernel ``name``.
    """
    u = (2.0 * poles - rule.a - rule.b) / (rule.b - rule.a)
    rho = np.min(np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0)))
    if rho < 1.0 + 1e-8:
        raise PoleError(f"{name} has a pole on [a, b]")
    r = int(np.ceil(np.log(1e16) / np.log(rho))) + 4
    return _chebyshev_basis(rule.a, rule.b, r, rule.nodes)


def shift_factors(pd: ProblemData, rule: IntervalRule):
    """U, R with U R^T = (V_t - V0)(lam_i, lam_j) w_j on the rule, to rounding.

    The c-shift is exactly separable:
        V_t - V0 = F(lam) t/(2 pi) [e^{i theta}/(c - i t (lam - mu))
                                    + e^{-i theta}/(c + i t (lam - mu))],
    theta = x [p(lam) - p(mu)]/2.  The oscillation sits in the diagonal
    phases e^{+-i x p/2}; the two Cauchy factors do not depend on x and
    are analytic in mu off their poles lam +- i c/t.  Each is interpolated
    in mu at r Chebyshev points xi_k of [a, b] (``_cauchy_basis``), so that
        U = [F t/(2 pi) e^{+-i x p(lam_i)/2} / (c -+ i t (lam_i - xi_k))],
        R = [l_k(lam_j) w_j e^{-+i x p(lam_j)/2}],
    l_k the Lagrange basis; r = 46 at c = |t| = 1 on [-1, 1], whatever x
    is.  For real t, F and p the two terms are complex conjugates and the
    factors are the real (n, 2r) pair U = 2 [Re P, -Im P],
    R = [Re Q, Im Q] of the first term P Q^T; otherwise they are complex
    (n, 2r).  At t = 0 they have no columns.
    """
    lam, w = rule.nodes, rule.weights
    t = pd.t
    if t == 0:
        return np.zeros((lam.size, 0)), np.zeros((lam.size, 0))
    shift = 1j * pd.c / t
    xi, L = _cauchy_basis(rule, np.concatenate([lam + shift, lam - shift]),
                          "V_t")

    F_lam, p_lam = pd.F(lam), pd.p(lam)
    phase = np.exp(0.5j * pd.x * p_lam)
    scale = F_lam * t / (2.0 * np.pi)
    d = lam[:, None] - xi[None, :]
    P = (scale * phase)[:, None] / (pd.c - 1j * t * d)
    Q = L * (w / phase)[:, None]
    if _real_values(t, F_lam, p_lam) is not None:
        return np.concatenate([2.0 * P.real, -2.0 * P.imag], axis=1), \
            np.concatenate([Q.real, Q.imag], axis=1)
    P_minus = (scale / phase)[:, None] / (pd.c + 1j * t * d)
    Q_minus = L * (w * phase)[:, None]
    return np.concatenate([P, P_minus], axis=1), \
        np.concatenate([Q, Q_minus], axis=1)


def k_factors(pd: ProblemData, k: int, srh: ScalarRH, rule: IntervalRule,
              left=None):
    """P, Q with P Q^T = K_{k;t}(lam_i, lam_j) w_j on the rule, to rounding.

    K_{k;t}'s mu-side factors alpha_k^{-1}(mu + i eps_k c/t) tau_k(mu) go
    into Q as they are; its Cauchy factor 1/(t (mu - lam) + i eps_k c),
    analytic in mu off its pole lam - i eps_k c/t (c/|t| off [a, b] for
    real t), is interpolated in mu at r Chebyshev points xi_l of [a, b]
    like the c-shift's (``_cauchy_basis``):
        P = [-t alpha_{k;+}(lam_i) / (2 i pi (t (xi_l - lam_i) + i eps_k c))],
        Q = [l_l(lam_j) w_j alpha_k^{-1}(lam_j + i eps_k c/t) tau_k(lam_j)],
    complex (n, r), r = 46 at c = |t| = 1 on [-1, 1].  ``left`` is
    alpha_{k;+} at the nodes when the caller has it.  At t = 0 they have
    no columns: K_{k;0} vanishes.
    """
    lam = rule.nodes
    if pd.t == 0:
        empty = np.zeros((lam.size, 0), complex)
        return empty, empty
    e = EPS_K[k]
    shift = 1j * e * pd.c / pd.t
    xi, L = _cauchy_basis(rule, lam - shift, f"K_{k};t")
    if left is None:
        left = np.exp(e * srh.exponent(lam + 0j))
    P = (-pd.t / (2j * np.pi) * left)[:, None] \
        / (pd.t * (xi[None, :] - lam[:, None]) + 1j * e * pd.c)
    right = np.exp(-e * srh.exponent(lam + shift)) * tau(k, pd, lam + 0j)
    return P, L * (rule.weights * right)[:, None]


def _loop_kernel(pd: ProblemData, k: int, srh: ScalarRH, name: str,
                 weighted: bool) -> KernelHandle:
    """K_{k;t} if ``weighted`` (w = tau_k), else U_{k;t} (w = 1); eval takes
    alpha_k(lam), on the real axis its +side value, as ``left`` if given.
    At t = 0 both vanish (the factor -t; the shift i eps_k c/t is infinite).
    """
    e = EPS_K[k]
    if pd.t == 0:
        return KernelHandle(lambda lam, mu, left=None: np.zeros(
            np.broadcast_shapes(np.shape(lam), np.shape(mu)), dtype=complex),
            name=name)
    shift = 1j * e * pd.c / pd.t

    def eval_(lam, mu, left=None):
        lam = np.asarray(lam, dtype=complex)
        mu = np.asarray(mu, dtype=complex)
        denom = pd.t * (mu - lam) + 1j * e * pd.c
        if np.any(np.abs(denom) < 1e-8 * pd.c):
            raise PoleError(f"{name} evaluated at its pole "
                            "t(mu-lam) = -i eps_k c")
        if left is None:
            left = np.exp(e * srh.exponent(lam))
        # alpha factors live on one axis each; broadcasting does the rest
        num = left * np.exp(-e * srh.exponent(mu + shift))
        if weighted:
            num = num * tau(k, pd, mu)
        return -pd.t * num / (2j * np.pi * denom)

    return KernelHandle(eval_, name=name)


def u_kt(pd: ProblemData, k: int, srh: ScalarRH) -> KernelHandle:
    """Contour kernel U_{k;t} of the loop operator equivalent to K_{k;t}.

    U_{k;t}(lam, mu) = -t alpha_k(lam) alpha_k^{-1}(mu + i eps_k c/t)
                        / (2 i pi [t (mu - lam) + i eps_k c]).
    Safe for loops of radius r < c / (2 |t|), which keeps the pole
    mu = lam - i eps_k c / t off Gamma x Gamma; ``quadgrid.safe_radius``
    is the package's loop radius.  At t = 1, k = 1 and 2
    are U_+ and U_-: det(I+V)/det(I+V0) tends to det(I+U_+) det(I+U_-).
    """
    return _loop_kernel(pd, k, srh, f"U_{k};t", weighted=False)


def k_kt(pd: ProblemData, k: int, srh: ScalarRH) -> KernelHandle:
    """Interval kernel K_{k;t}; det(I + K_{k;t}) equals det(I + U_{k;t}).

    K_{k;t}(lam, mu) = -t alpha_{k;+}(lam) alpha_k^{-1}(mu + i eps_k c/t)
                        tau_k(mu) / (2 i pi [t (mu - lam) + i eps_k c])
    with alpha_{k;+} the +side boundary value on (a, b).
    """
    return _loop_kernel(pd, k, srh, f"K_{k};t", weighted=True)


def resolvent_kernel(chi) -> KernelHandle:
    """Resolvent kernel R_t(lam, mu) = (F_L(lam), F_R(mu)) / (lam - mu).

    ``chi`` is a solved ``rhp.ChiSolution``: off-node arguments use the
    Nystrom natural interpolation of its densities (``FL_at``/``FR_at``),
    so building and evaluating the kernel solves nothing.  On the diagonal
    eval takes the derivative limit of the vanishing numerator.
    """
    pd = chi.pd
    ws2 = chi.grid.doubled.weights

    def numerator(lam, mu):
        return chi.FL_at(lam) @ (ws2 * chi.FR_at(mu))

    def _eval_scalar(lam, mu):
        if abs(lam - mu) >= 1e-9 * (pd.b - pd.a):
            return numerator(lam, mu) / (lam - mu)
        h = 1e-5 * (pd.b - pd.a)
        d1 = -(numerator(lam, lam + h) - numerator(lam, lam - h)) / (2 * h)
        d2 = -(numerator(lam, lam + h / 2) - numerator(lam, lam - h / 2)) / h
        return (4.0 * d2 - d1) / 3.0

    # elementwise over any shape; a scalar argument gives a 0-d result
    return KernelHandle(np.vectorize(_eval_scalar, otypes=[complex]),
                        name="R_t")
