"""Tricomi confluent hypergeometric function Psi(a, 1; z) on the universal cover.

Three principal-sheet routes, each with an error monitor:

* the logarithmic (digamma) series for the c = 1 case, used for |z| <= 20;
  its cancellation level is tracked, since the terms grow like e^|z|;
* a rotated-ray Laplace integral, used instead of the series for
  Re a >= 0.35 and 8 <= |z| <= 20 where the series cancellation is worst;
* the asymptotic expansion in z^{-a-n}, truncated at the least term,
  used for |z| > 20.

Nonpositive integer a terminates the asymptotic sum, which is then the
exact polynomial value.  Off-principal sheets are reached by applying the
monodromy connection formulas recursively; first and second derivatives
propagate through every route, so the defining ODE can be residual-checked
independently of how a value was produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gamma

from .errors import AccuracyError, BranchError, ParameterDomainError
from .quadgrid import _leggauss

__all__ = ["TricomiEval", "tricomi_psi"]

SWITCH_RADIUS = 20.0
LAPLACE_MIN_RADIUS = 8.0
LAPLACE_MIN_RE_A = 0.35
OVERLAP = (15.0, 25.0)
OVERLAP_TOL = 1e-8

#: the factorials m! of the Laplace route's endpoint stub, m < 7
_STUB_FACT = gamma(np.arange(7) + 1.0)


@dataclass(frozen=True)
class TricomiEval:
    """One evaluation of Psi(a, 1; .) with derivatives and error monitor."""

    a: complex
    z: complex
    sheet: int
    value: complex
    dvalue: complex
    d2value: complex
    err: float
    route: str

    def ode_residual(self) -> float:
        """Relative residual of z y'' + (1 - z) y' - a y = 0."""
        r = self.z * self.d2value + (1.0 - self.z) * self.dvalue - self.a * self.value
        scale = max(abs(self.z * self.d2value), abs((1.0 - self.z) * self.dvalue),
                    abs(self.a * self.value), 1e-300)
        return abs(r) / scale


def _is_nonpos_int(a: complex) -> bool:
    return abs(a.imag) == 0.0 and a.real <= 0 and a.real == int(a.real)


def _series(a: complex, z: complex, nmax: int = 600):
    """Logarithmic series of the second c = 1 solution, with derivatives.

    Sum over k of (a)_k z^k / (k!)^2 * (ln z + psi(a+k) - 2 psi(k+1)),
    times -1/Gamma(a); term-by-term derivatives of the same sum.
    """
    lnz = np.log(z)
    coef = 1.0 + 0j  # (a)_k / (k!)^2 * z^k
    s = s1 = s2 = 0.0 + 0j
    peak = 0.0
    k = 0
    while k < nmax:
        d = digamma(a + k) - 2.0 * digamma(k + 1.0)
        term = coef * (lnz + d)
        s += term
        # d/dz [z^k (ln z + d)] = z^{k-1} (k ln z + k d + 1)
        s1 += coef / z * (k * (lnz + d) + 1.0)
        s2 += coef / z ** 2 * (k * (k - 1) * (lnz + d) + 2.0 * k - 1.0)
        peak = max(peak, abs(term))
        if abs(term) < 1e-18 * max(abs(s), 1.0) and k > 4:
            break
        coef *= (a + k) * z / (k + 1.0) ** 2
        k += 1
    pref = -1.0 / gamma(a)
    err = peak / max(abs(s), 1e-300) * 2.5e-16 * max(np.sqrt(k), 1.0)
    return pref * s, pref * s1, pref * s2, float(err)


def _laplace(a: complex, z: complex):
    """Rotated-ray Laplace integral for Re a > 0; no cancellation.

    Gamma(a) Psi = int_0^inf e^{-z t} t^{a-1} (1+t)^{-a} dt, taken along
    the ray t = e^{-i theta} tau with theta clipped inside (-pi, pi) so
    the ray avoids the branch point at t = -1 and e^{-z t} decays.  The
    endpoint power t^{a-1} is handled by an analytic stub on [0, tau0]
    and geometrically graded Gauss panels beyond it.
    """
    theta = float(np.clip(np.angle(z), -(np.pi - 0.3), np.pi - 0.3))
    ph = np.exp(-1j * theta)
    zeff = (z * ph).real
    T = 45.0 / max(zeff, 1e-12)
    tau0 = 1e-4 * min(1.0, T)

    # stub: expand (1+t)^{-a} e^{-zt} = sum g_m t^m to order 6 and
    # integrate t^{a-1+m+shift} exactly
    M = len(_STUB_FACT)
    binom = np.ones(M, dtype=complex)
    for m in range(1, M):
        binom[m] = binom[m - 1] * (-a - (m - 1)) / m
    expc = np.array([(-z) ** m / _STUB_FACT[m] for m in range(M)])
    gm = np.array([np.sum(binom[: m + 1] * expc[: m + 1][::-1])
                   for m in range(M)])
    logt0 = np.log(tau0) - 1j * theta
    ms = np.arange(M)

    def stub(shift):
        return np.sum(gm * np.exp((a + ms + shift) * logt0) / (a + ms + shift))

    # graded panels from tau0 out to T
    edges = [tau0]
    while edges[-1] < T:
        edges.append(min(3.0 * edges[-1], T))
    xg, wg = _leggauss(24)
    taus, ws = [], []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        taus.append(0.5 * (e0 + e1) + 0.5 * (e1 - e0) * xg)
        ws.append(0.5 * (e1 - e0) * wg)
    tau = np.concatenate(taus)
    ww = np.concatenate(ws) * ph
    t = ph * tau
    base = np.exp(-z * t + (a - 1.0) * np.log(t) - a * np.log(1.0 + t))
    g = gamma(a)
    v0 = (np.sum(ww * base) + stub(0)) / g
    v1 = -(np.sum(ww * base * t) + stub(1)) / g
    v2 = (np.sum(ww * base * t ** 2) + stub(2)) / g
    return v0, v1, v2, 3e-11


def _asymptotic(a: complex, z: complex, total_arg: float):
    """Optimally truncated expansion sum_n (-1)^n (a)_n^2 / n! z^{-a-n}.

    z^{-a} uses the supplied total argument, so the expansion remains the
    analytic continuation across |arg z| > pi (valid up to 3 pi / 2).
    Terminates exactly when a is a nonpositive integer.
    """
    logz = np.log(abs(z)) + 1j * total_arg
    term = np.exp(-a * logz)  # (-1)^n (a)_n^2 / n! z^{-a-n}, updated in place
    s = s1 = s2 = 0.0 + 0j
    last = np.inf
    n = 0
    nmax = 1 + int(2 * abs(z)) + 40
    while n < nmax:
        if abs(term) > last and not _is_nonpos_int(a):
            break  # past the least term: stop and charge it to the error
        s += term
        e = -a - n
        s1 += term * e / z
        s2 += term * e * (e - 1.0) / z ** 2
        last = abs(term)
        term *= -(a + n) ** 2 / ((n + 1.0) * z)
        if _is_nonpos_int(a) and a.real + n >= 0:
            last = 0.0
            break
        n += 1
        if abs(term) < 1e-17 * abs(s):
            last = abs(term)  # converged; the next term bounds the error
            break
    err = last / max(abs(s), 1e-300) if np.isfinite(last) else 0.0
    if _is_nonpos_int(a):
        err = 2e-16 * max(n, 1)
    return s, s1, s2, float(err)


def _principal(a: complex, z: complex, total_arg: float):
    """Principal-sheet dispatch (|total_arg| expected <= pi + slack)."""
    r = abs(z)
    if _is_nonpos_int(a):
        vals = _asymptotic(a, z, total_arg)
        return (*vals, "polynomial")
    if r > SWITCH_RADIUS:
        vals = _asymptotic(a, z, total_arg)
        # near the switch radius the expansion may not yet have a small
        # least term; the Laplace route covers the gap when Re a allows
        if vals[3] > 1e-9 and a.real >= LAPLACE_MIN_RE_A and abs(total_arg) <= np.pi:
            vals = _laplace(a, z)
            return (*vals, "laplace")
        return (*vals, "asymptotic")
    if a.real >= LAPLACE_MIN_RE_A and r >= LAPLACE_MIN_RADIUS:
        vals = _laplace(a, z)
        return (*vals, "laplace")
    vals = _series(a, z)
    return (*vals, "series")


def _psi_cover(a: complex, r: float, theta: float):
    """Value and two derivatives at modulus r, total argument theta."""
    if abs(theta) <= np.pi:
        z = r * np.exp(1j * theta)
        return _principal(a, z, theta)
    z = r * np.exp(1j * theta)  # the underlying complex number
    # 1/Gamma(a)^2 vanishes at nonpositive integer a (entire reciprocal)
    inv_ga2 = 0.0 if _is_nonpos_int(a) else 1.0 / gamma(a) ** 2
    if theta > np.pi:
        v, v1, v2, e_in, _ = _psi_cover(a, r, theta - 2.0 * np.pi)
        w, w1, w2, e_w, _ = _psi_cover(1.0 - a, r, theta - np.pi)
        # Psi(a,1; z e^{2 i pi}) = e^{-2 i pi a} Psi(a,1;z)
        #                          + (2 pi i e^{-i pi a} / Gamma(a)^2) e^z Psi(1-a,1; e^{i pi} z)
        kap = 2j * np.pi * np.exp(-1j * np.pi * a) * inv_ga2
        rot = np.exp(-2j * np.pi * a)
    else:
        v, v1, v2, e_in, _ = _psi_cover(a, r, theta + 2.0 * np.pi)
        w, w1, w2, e_w, _ = _psi_cover(1.0 - a, r, theta + np.pi)
        kap = -2j * np.pi * np.exp(1j * np.pi * a) * inv_ga2
        rot = np.exp(2j * np.pi * a)
    ez = np.exp(z)
    val = rot * v + kap * ez * w
    d1 = rot * v1 + kap * ez * (w - w1)
    d2 = rot * v2 + kap * ez * (w - 2.0 * w1 + w2)
    err = abs(rot) * e_in + abs(kap * ez) * e_w * 3.0
    return val, d1, d2, err, "monodromy"


def tricomi_psi(a: complex, z: complex, sheet: int = 0,
                a_cap: float = 5.0, strict: bool = True) -> TricomiEval:
    """Psi(a, 1; z) on sheet ``sheet`` of the cover of C - {0}.

    ``sheet`` counts full turns added to the principal argument of z.
    ``strict`` enforces the error budget in the series/asymptotic overlap
    annulus (raises AccuracyError above 1e-8 there).
    """
    a = complex(a)
    z = complex(z)
    if z == 0:
        raise BranchError("Psi(a, 1; z) has a branch point at z = 0")
    if abs(a) > a_cap:
        raise ParameterDomainError(
            f"|a| = {abs(a):.3g} exceeds the configured cap {a_cap}")
    theta = np.angle(z) + 2.0 * np.pi * sheet
    val, d1, d2, err, route = _psi_cover(a, abs(z), theta)
    rel_err = err if route != "monodromy" else err / max(abs(val), 1e-300)
    if strict and OVERLAP[0] <= abs(z) <= OVERLAP[1] and rel_err > OVERLAP_TOL:
        raise AccuracyError(
            f"Psi error monitor {rel_err:.2e} above {OVERLAP_TOL} in the "
            f"overlap annulus (a={a}, z={z}, route={route})", estimate=rel_err)
    return TricomiEval(a=a, z=z, sheet=sheet, value=val, dvalue=d1,
                       d2value=d2, err=float(rel_err), route=route)
