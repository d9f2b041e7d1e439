"""The scalar integral kernels: V_t, V0, U_{k;t}, U_+-, K_{k;t}, resolvent.

Every kernel is wrapped in a KernelHandle carrying a vectorized evaluator,
the removable-singularity diagonal, and its support tag.  The diagonals
are closed forms, except the resolvent's: there it is a Richardson-
extrapolated central difference of the vanishing numerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NearSingularityError, ParameterDomainError, PoleError
from .l2half import e_vectors
from .quadgrid import HalfLineRule, IntervalRule
from .symbols import EPS_K, ProblemData, ScalarRH, tau

__all__ = ["KernelHandle", "v_t", "v0", "u_kt", "u_pm", "k_kt",
           "resolvent_kernel"]


@dataclass
class KernelHandle:
    """A scalar kernel with explicit diagonal and support tag.

    ``eval(lam, mu)`` returns the broadcast shape of its arguments and
    ``diag(lam)`` the shape of its argument; a scalar gives a 0-d result.
    """

    eval: Callable
    diag: Callable
    support: str  # "interval" or "contour"
    name: str = ""
    #: pole locations to keep contours away from, as a description
    safety: str = ""

    def __call__(self, lam, mu):
        return self.eval(lam, mu)


def _real_values(*vals):
    """The real parts of vals when every entry has zero imaginary part.

    Returns None when any value is non-real.
    """
    vals = [np.asarray(v) for v in vals]
    if any(np.iscomplexobj(v) and np.any(v.imag) for v in vals):
        return None
    return [v.real for v in vals]


def _combine(pd: ProblemData, t, F_lam, d, sin_over_d, cos):
    """(c F/pi) (t cos theta + c sin(theta)/d) / (t^2 d^2 + c^2).

    At t = 0 this is F sin(theta)/(pi d) and cos is not used.
    """
    if t == 0:
        return sin_over_d * (F_lam / np.pi)
    c = pd.c
    return (t * cos + c * sin_over_d) * (c * F_lam / np.pi) \
        / ((t * d) ** 2 + c ** 2)


def _direct_entries(pd: ProblemData, t, lam, mu, p_lam, p_mu, F_lam):
    """V_t entries with theta = x d dd / 2, dd the divided difference of p.

    Forming theta from p(lam) - p(mu) keeps it accurate relative to its
    size for close pairs.  Where |d| = |lam - mu| < 1e-9 (b - a) the
    divided difference is p' at the midpoint.
    """
    d = lam - mu
    tiny = np.abs(d) < 1e-9 * (pd.b - pd.a)
    dd = np.asarray((p_lam - p_mu) / np.where(tiny, 1.0, d))
    if tiny.any():
        dp = pd.p.deriv(0.5 * (np.broadcast_to(lam, tiny.shape)[tiny]
                               + np.broadcast_to(mu, tiny.shape)[tiny]))
        dd[tiny] = dp if np.iscomplexobj(dd) else dp.real
    theta = 0.5 * pd.x * d * dd
    return _combine(pd, t, F_lam, d, 0.5 * pd.x * dd * np.sinc(theta / np.pi),
                    np.cos(theta))


def _interval_entries(pd: ProblemData, t: complex, lam, mu):
    """Off-diagonal entries of V_t on [a, b]; t = 0 gives the sine kernel V0.

    F and p are evaluated on the lam and mu arrays only; the result has
    their broadcast shape.  When t and all of these values are real the
    result is float64 and sin theta, cos theta, theta = x [p(lam)-p(mu)]/2,
    come from per-node sines and cosines of a = x p/2 by angle addition.
    That is exact for real arguments up to an absolute error of about
    eps |a|, so entries with |theta| < 1, where this error would be
    divided by a small lam - mu, take the direct theta instead.
    Otherwise the result is complex128 and every entry takes the direct
    theta: angle addition cancels once |Im a| is large.
    """
    lam, mu = np.asarray(lam), np.asarray(mu)
    F_lam, p_lam, p_mu = pd.F(lam), pd.p(lam), pd.p(mu)
    real = _real_values(t, lam, mu, F_lam, p_lam, p_mu)
    if real is None:
        td = t * (lam - mu)
        if np.any(np.minimum(np.abs(td - 1j * pd.c), np.abs(td + 1j * pd.c))
                  < 1e-8 * pd.c):
            raise PoleError("V_t evaluated too close to t(lam-mu) = -+ i c")
        return _direct_entries(pd, t, lam, mu, p_lam, p_mu, F_lam)

    t, lam, mu, F_lam, p_lam, p_mu = real
    t = float(t)
    a_lam, a_mu = 0.5 * pd.x * p_lam, 0.5 * pd.x * p_mu
    s_lam, c_lam = np.sin(a_lam), np.cos(a_lam)
    s_mu, c_mu = np.sin(a_mu), np.cos(a_mu)
    near = np.abs(a_lam - a_mu) < 1.0
    d = lam - mu
    out = np.asarray(_combine(
        pd, t, F_lam, d,
        (s_lam * c_mu - c_lam * s_mu) / np.where(near, 1.0, d),
        c_lam * c_mu + s_lam * s_mu if t else None))
    if near.any():
        out[near] = _direct_entries(
            pd, t, *(np.broadcast_to(z, near.shape)[near]
                     for z in (lam, mu, p_lam, p_mu, F_lam)))
    return out


def _interval_diag(pd: ProblemData, t: complex, lam):
    """Diagonal of V_t, F (t + c x p'/2) / (pi c), real for real data."""
    lam = np.asarray(lam)
    vals = [t, lam, pd.F(lam), pd.p.deriv(lam)]
    real = _real_values(*vals)
    t, lam, F_lam, dp = real if real is not None else vals
    return F_lam * (t + 0.5 * pd.c * pd.x * dp) / (np.pi * pd.c)


def v_t(pd: ProblemData) -> KernelHandle:
    """The c-shifted two-term kernel of the t-deformed operator on [a, b].

    V_t(lam, mu) = i c F(lam) / (2 i pi (lam-mu)) *
        { e^{+i x [p(lam)-p(mu)]/2} / (t (lam-mu) + i c)
        + e^{-i x [p(lam)-p(mu)]/2} / (t (lam-mu) - i c) },
    evaluated in the combined form that is regular on the diagonal.
    At t = 1 this is the undeformed kernel; at t = 0 it collapses to the
    generalized sine kernel v0.  Values are float64 for real data and
    complex128 otherwise.
    """
    return KernelHandle(lambda lam, mu: _interval_entries(pd, pd.t, lam, mu),
                        lambda lam: _interval_diag(pd, pd.t, lam), "interval",
                        name="V_t", safety="poles at t(lam-mu) = -+ i c")


def v0(pd: ProblemData) -> KernelHandle:
    """Generalized sine kernel F(lam) sin(x [p(lam)-p(mu)]/2) / (pi (lam-mu)).

    V_t at t = 0, whatever pd.t is.
    """
    return KernelHandle(lambda lam, mu: _interval_entries(pd, 0.0, lam, mu),
                        lambda lam: _interval_diag(pd, 0.0, lam), "interval",
                        name="V0")


def u_kt(pd: ProblemData, k: int, srh: ScalarRH) -> KernelHandle:
    """Contour kernel U_{k;t} of the loop operator equivalent to K_{k;t}.

    U_{k;t}(lam, mu) = -t alpha_k(lam) alpha_k^{-1}(mu + i eps_k c/t)
                        / (2 i pi [t (mu - lam) + i eps_k c]).
    Safe for loops of radius r < c / (2 |t|), which keeps the pole
    mu = lam - i eps_k c / t off Gamma x Gamma.
    """
    e = EPS_K[k]
    shift = 1j * e * pd.c / pd.t

    def eval_(lam, mu):
        lam = np.asarray(lam, dtype=complex)
        mu = np.asarray(mu, dtype=complex)
        denom = pd.t * (mu - lam) + 1j * e * pd.c
        if np.any(np.abs(denom) < 1e-8 * pd.c):
            raise PoleError(f"U_{k};t evaluated at its pole "
                            "t(mu-lam) = -i eps_k c")
        # alpha factors live on one axis each; broadcasting does the rest
        num = np.exp(e * srh.exponent(lam)) * np.exp(-e * srh.exponent(mu + shift))
        return -pd.t * num / (2j * np.pi * denom)

    return KernelHandle(eval_, lambda lam: eval_(lam, lam), "contour",
                        name=f"U_{k};t",
                        safety=f"pole at t(mu-lam) = -i eps_{k} c; "
                               "needs r < c/(2|t|)")


def u_pm(pd: ProblemData, sign: int, srh: ScalarRH) -> KernelHandle:
    """Contour kernels of the limit operators in the determinant ratio.

    U_+-(lam, mu) = alpha^{-+1}(lam) alpha^{+-1}(mu -+ i c)
                     / (2 i pi (lam - mu +- i c)),
    i.e. the t = 1 members of the deformed loop family (U_+ pairs with
    the k = 1 exponent sign, U_- with k = 2).  The determinant ratio of
    the interval kernels converges to det(I+U_+) det(I+U_-); the alpha
    powers here are the ones that product identity verifies.
    """
    if sign not in (+1, -1):
        raise ParameterDomainError("sign must be +1 or -1")

    def eval_(lam, mu):
        lam = np.asarray(lam, dtype=complex)
        mu = np.asarray(mu, dtype=complex)
        denom = lam - mu + 1j * sign * pd.c
        if np.any(np.abs(denom) < 1e-8 * pd.c):
            raise PoleError("U_+- evaluated at its pole")
        num = np.exp(-sign * srh.exponent(lam)) \
            * np.exp(sign * srh.exponent(mu - 1j * sign * pd.c))
        return num / (2j * np.pi * denom)

    tag = "+" if sign > 0 else "-"
    return KernelHandle(eval_, lambda lam: eval_(lam, lam), "contour",
                        name=f"U_{tag}", safety="pole at lam - mu = -+ i c")


def k_kt(pd: ProblemData, k: int, srh: ScalarRH) -> KernelHandle:
    """Interval kernel K_{k;t}; det(I + K_{k;t}) equals det(I + U_{k;t}).

    K_{k;t}(lam, mu) = -t alpha_{k;+}(lam) alpha_k^{-1}(mu + i eps_k c/t)
                        tau_k(mu) / (2 i pi [t (mu - lam) + i eps_k c])
    with alpha_{k;+} the +side boundary value on (a, b).
    """
    e = EPS_K[k]
    shift = 1j * e * pd.c / pd.t

    def eval_(lam, mu):
        lam = np.asarray(lam, dtype=complex)
        mu = np.asarray(mu, dtype=complex)
        denom = pd.t * (mu - lam) + 1j * e * pd.c
        num = srh.alpha_k_plus_many(k, lam) \
            * np.exp(-e * srh.exponent(mu + shift)) * tau(k, pd, mu)
        return -pd.t * num / (2j * np.pi * denom)

    return KernelHandle(eval_, lambda lam: eval_(lam, lam), "interval",
                        name=f"K_{k};t")


@dataclass
class _ChiDensities:
    """Solved densities of the two linear integral equations on one rule."""

    rule: IntervalRule
    grid: HalfLineRule
    FR: np.ndarray  # (n, 2, Ns)
    FL: np.ndarray  # (n, 2, Ns)
    Vmat: np.ndarray  # V_t(lam_i, mu_j)
    kernel: KernelHandle


def solve_densities(pd: ProblemData, rule: IntervalRule, grid: HalfLineRule,
                    det_floor: float = 1e-12) -> _ChiDensities:
    """Solve the right/left linear integral equations for F_R and F_L.

    F_R uses the transposed kernel, exactly as the equations are stated:
    F_R(lam) + int V_t(mu, lam) F_R(mu) dmu = E_R(lam).
    """
    vk = v_t(pd)
    n = rule.n
    Vmat = vk.eval(rule.nodes[:, None], rule.nodes[None, :])
    np.fill_diagonal(Vmat, vk.diag(rule.nodes))
    w = rule.weights

    EL = np.empty((n, 2, grid.n), dtype=complex)
    ER = np.empty((n, 2, grid.n), dtype=complex)
    for i, mu in enumerate(rule.nodes):
        EL[i], ER[i] = e_vectors(pd, grid, complex(mu))

    A_right = np.eye(n) + Vmat.T * w[None, :]
    A_left = np.eye(n) + Vmat * w[None, :]
    sign, logabs = np.linalg.slogdet(A_right)
    if not np.isfinite(logabs) or abs(sign) * np.exp(logabs) < det_floor:
        raise NearSingularityError(
            "det(I + V_t) is numerically zero; the excluded case", cond=None)
    FR = np.linalg.solve(A_right, ER.reshape(n, -1)).reshape(n, 2, grid.n)
    FL = np.linalg.solve(A_left, EL.reshape(n, -1)).reshape(n, 2, grid.n)
    return _ChiDensities(rule=rule, grid=grid, FR=FR, FL=FL, Vmat=Vmat,
                         kernel=vk)


def resolvent_kernel(pd: ProblemData, rule: IntervalRule, grid: HalfLineRule,
                     densities: Optional[_ChiDensities] = None) -> KernelHandle:
    """Resolvent kernel R_t(lam, mu) = (F_L(lam), F_R(mu)) / (lam - mu).

    Off-node arguments use Nystrom natural interpolation of the solved
    densities; the diagonal is the derivative limit of the vanishing
    numerator.
    """
    dens = densities if densities is not None else solve_densities(pd, rule, grid)
    vk = dens.kernel
    w = rule.weights
    ws2 = np.concatenate([grid.sweights, grid.sweights])
    FRflat = dens.FR.reshape(rule.n, -1)
    FLflat = dens.FL.reshape(rule.n, -1)

    def FR_at(mu):
        _, ER = e_vectors(pd, grid, complex(mu))
        kv = vk.eval(rule.nodes.astype(complex), complex(mu))
        return ER.ravel() - (w * kv) @ FRflat

    def FL_at(lam):
        EL, _ = e_vectors(pd, grid, complex(lam))
        kv = vk.eval(complex(lam), rule.nodes.astype(complex))
        return EL.ravel() - (w * kv) @ FLflat

    def numerator(lam, mu):
        return FL_at(lam) @ (ws2 * FR_at(mu))

    def _diag_scalar(lam):
        h = 1e-5 * (pd.b - pd.a)
        d1 = -(numerator(lam, lam + h) - numerator(lam, lam - h)) / (2 * h)
        d2 = -(numerator(lam, lam + h / 2) - numerator(lam, lam - h / 2)) / h
        return (4.0 * d2 - d1) / 3.0

    def _eval_scalar(lam, mu):
        if abs(lam - mu) < 1e-9 * (pd.b - pd.a):
            return _diag_scalar(lam)
        return numerator(lam, mu) / (lam - mu)

    # elementwise over any shape; a scalar argument gives a 0-d result
    eval_ = np.vectorize(_eval_scalar, otypes=[complex])
    diag_ = np.vectorize(_diag_scalar, otypes=[complex])

    return KernelHandle(eval_, diag_, "interval", name="R_t")
