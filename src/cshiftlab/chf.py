"""Tricomi confluent hypergeometric function Psi(a, 1; z) on the universal cover.

Three principal-sheet routes, each with an error monitor:

* the logarithmic (digamma) series for the c = 1 case, used for |z| <= 20;
  its cancellation level is tracked, since the terms grow like e^|z|;
* a rotated-ray Laplace integral, used instead of the series for
  Re a >= 0.35 and 8 <= |z| <= 20 where the series cancellation is worst;
* the asymptotic expansion in z^{-a-n}, truncated at the least term,
  used for |z| > 20 (1 - 1e-9): the margin sends a point whose modulus
  rounds to 20 one way or the other down one route.

Nonpositive integer a terminates the asymptotic sum, which is then the
exact polynomial value.  Off-principal sheets are reached by applying the
monodromy connection formulas recursively; first and second derivatives
propagate through every route, so the defining ODE can be residual-checked
independently of how a value was produced.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, BranchError, ParameterDomainError
from .quadgrid import _leggauss

__all__ = ["TricomiEval", "tricomi_psi"]

SWITCH_RADIUS = 20.0
#: |a| above this is refused: the range on which ``_gamma`` is validated
A_CAP = 5.0
LAPLACE_MIN_RADIUS = 8.0
LAPLACE_MIN_RE_A = 0.35
OVERLAP = (15.0, 25.0)
OVERLAP_TOL = 1e-8

#: the factorials m! of the Laplace route's endpoint stub, m < 7
_STUB_FACT = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0)
#: Lanczos coefficients for g = 607/128 (Godfrey), constant term first
_LANCZOS = (
    0.999999999999997092, 57.1562356658629235, -59.5979603554754912,
    14.1360979747417471, -0.491913816097620199, 0.339946499848118887e-4,
    0.465236289270485756e-4, -0.983744753048795646e-4,
    0.158088703224912494e-3, -0.210264441724104883e-3,
    0.217439618115212643e-3, -0.164318106536763890e-3,
    0.844182239838527433e-4, -0.261908384015814087e-4,
    0.368991826595316234e-5)
#: B_2k / (2k), k = 1..8, of the digamma asymptotic series
_DIGAMMA_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                   1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
                   -3617.0 / 8160.0)
#: Euler's constant, -psi(1)
_EULER = 0.57721566490153286061
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def _gamma(a: complex) -> complex:
    """Gamma(a) for complex a, within 5e-15 relative for |a| <= 5.

    Lanczos (g = 607/128) on Re a >= 1/2; below, the reflection
    Gamma(a) Gamma(1 - a) = pi / sin(pi a), with sin(pi a) taken after
    removing the nearest integer so that it keeps its digits near a pole.
    """
    a = complex(a)
    if _is_nonpos_int(a):
        raise ParameterDomainError(f"Gamma has a pole at a = {a}")
    if a.real < 0.5:
        n = round(a.real)
        sin_pi = (-1) ** n * cmath.sin(math.pi * (a - n))
        return math.pi / (sin_pi * _gamma(1.0 - a))
    ser = _LANCZOS[0]
    for j in range(1, len(_LANCZOS)):
        ser += _LANCZOS[j] / (a + j)
    t = a + 5.2421875  # g + 1/2
    return _SQRT_2PI * ser / a * cmath.exp((a + 0.5) * cmath.log(t) - t)


def _digamma(a: complex) -> complex:
    """psi(a) = Gamma'(a)/Gamma(a) for complex a.

    Reflection psi(a) = psi(1 - a) - pi cot(pi a) below Re a = 1/2, the
    recurrence psi(a) = psi(a + 1) - 1/a up to |a| >= 10, then the
    asymptotic series ln a - 1/(2a) - sum B_2k / (2k a^2k) through k = 8.
    For |a| <= 5 the error is below 1e-15 max(1, |psi(a)|); near the real
    zeros of psi that leaves 2e-14 relative (a = 1.479, psi = 0.017).
    """
    a = complex(a)
    if _is_nonpos_int(a):
        raise ParameterDomainError(f"digamma has a pole at a = {a}")
    if a.real < 0.5:
        cot_pi = 1.0 / cmath.tan(math.pi * (a - round(a.real)))
        return _digamma(1.0 - a) - math.pi * cot_pi
    shift = 0j
    while abs(a) < 10.0:
        shift -= 1.0 / a
        a += 1.0
    inv2 = 1.0 / (a * a)
    tail = 0j
    for c in reversed(_DIGAMMA_SERIES):
        tail = (tail + c) * inv2
    return shift + cmath.log(a) - 0.5 / a - tail


def _series(a: complex, z: complex):
    """Logarithmic series of the second c = 1 solution, with derivatives.

    Sum over k of (a)_k z^k / (k!)^2 * (ln z + psi(a+k) - 2 psi(k+1)),
    times -1/Gamma(a); term-by-term derivatives of the same sum.

    d_k = psi(a+k) - 2 psi(k+1) advances by the compensated recurrence
    d_{k+1} = d_k + 1/(a+k) - 2/(k+1).  A rounding error in d_k recurs in
    every later term and is multiplied by the cancelling sum, so d is
    taken afresh where the step 1/(a+k) is large (|a+k| < 1): psi(a+k+1)
    from ``_digamma``, psi(k+2) as a harmonic sum.
    """
    lnz = cmath.log(z)
    coef = 1.0 + 0j  # (a)_k / (k!)^2 * z^k
    s = s1 = s2 = 0j
    d = _digamma(a) + 2.0 * _EULER
    comp = 0j  # Kahan compensation of d
    peak = 0.0
    k = 0
    while k < 600:
        term = coef * (lnz + d)
        s += term
        # d/dz [z^k (ln z + d)] = z^{k-1} (k ln z + k d + 1)
        s1 += coef / z * (k * (lnz + d) + 1.0)
        s2 += coef / z ** 2 * (k * (k - 1) * (lnz + d) + 2.0 * k - 1.0)
        peak = max(peak, abs(term))
        if abs(term) < 1e-18 * max(abs(s), 1.0) and k > 4:
            break
        coef *= (a + k) * z / (k + 1.0) ** 2
        if abs(a + k) < 1.0:
            # psi(k + 2) = -gamma + H_{k+1}; fsum rounds the sum once
            psi_k2 = math.fsum([-_EULER] + [1.0 / j for j in range(1, k + 2)])
            d, comp = _digamma(a + k + 1.0) - 2.0 * psi_k2, 0j
        else:
            step = 1.0 / (a + k) - 2.0 / (k + 1.0) - comp
            total = d + step
            comp = (total - d) - step
            d = total
        k += 1
    pref = -1.0 / _gamma(a)
    err = peak / max(abs(s), 1e-300) * 2.5e-16 * max(math.sqrt(k), 1.0)
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
    g = _gamma(a)
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
    logz = math.log(abs(z)) + 1j * total_arg
    term = cmath.exp(-a * logz)  # (-1)^n (a)_n^2 / n! z^{-a-n}, updated in place
    s = s1 = s2 = 0.0 + 0j
    last = math.inf
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
    err = last / max(abs(s), 1e-300) if math.isfinite(last) else 0.0
    if _is_nonpos_int(a):
        err = 2e-16 * max(n, 1)
    return s, s1, s2, float(err)


def _principal(a: complex, z: complex, total_arg: float):
    """Principal-sheet dispatch (|total_arg| expected <= pi + slack)."""
    r = abs(z)
    if _is_nonpos_int(a):
        vals = _asymptotic(a, z, total_arg)
        return (*vals, "polynomial")
    if r > SWITCH_RADIUS * (1.0 - 1e-9):
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
    z = complex(r * np.exp(1j * theta))
    if abs(theta) <= math.pi:
        return _principal(a, z, theta)
    # 1/Gamma(a)^2 vanishes at nonpositive integer a (entire reciprocal)
    inv_ga2 = 0.0 if _is_nonpos_int(a) else 1.0 / _gamma(a) ** 2
    if theta > math.pi:
        v, v1, v2, e_in, _ = _psi_cover(a, r, theta - 2.0 * math.pi)
        w, w1, w2, e_w, _ = _psi_cover(1.0 - a, r, theta - math.pi)
        # Psi(a,1; z e^{2 i pi}) = e^{-2 i pi a} Psi(a,1;z)
        #                          + (2 pi i e^{-i pi a} / Gamma(a)^2) e^z Psi(1-a,1; e^{i pi} z)
        kap = 2j * math.pi * cmath.exp(-1j * math.pi * a) * inv_ga2
        rot = cmath.exp(-2j * math.pi * a)
    else:
        v, v1, v2, e_in, _ = _psi_cover(a, r, theta + 2.0 * math.pi)
        w, w1, w2, e_w, _ = _psi_cover(1.0 - a, r, theta + math.pi)
        kap = -2j * math.pi * cmath.exp(1j * math.pi * a) * inv_ga2
        rot = cmath.exp(2j * math.pi * a)
    ez = cmath.exp(z)
    val = rot * v + kap * ez * w
    d1 = rot * v1 + kap * ez * (w - w1)
    d2 = rot * v2 + kap * ez * (w - 2.0 * w1 + w2)
    err = abs(rot) * e_in + abs(kap * ez) * e_w * 3.0
    return val, d1, d2, err, "monodromy"


def tricomi_psi(a: complex, z: complex, sheet: int = 0,
                strict: bool = True) -> TricomiEval:
    """Psi(a, 1; z) on sheet ``sheet`` of the cover of C - {0}, |a| <= A_CAP.

    ``sheet`` counts full turns added to the principal argument of z.
    ``strict`` enforces the error budget in the series/asymptotic overlap
    annulus (raises AccuracyError above 1e-8 there).
    """
    a = complex(a)
    z = complex(z)
    if z == 0:
        raise BranchError("Psi(a, 1; z) has a branch point at z = 0")
    if abs(a) > A_CAP:
        raise ParameterDomainError(
            f"|a| = {abs(a):.3g} exceeds the cap {A_CAP}")
    theta = float(np.angle(z)) + 2.0 * math.pi * sheet
    val, d1, d2, err, route = _psi_cover(a, abs(z), theta)
    rel_err = err if route != "monodromy" else err / max(abs(val), 1e-300)
    if strict and OVERLAP[0] <= abs(z) <= OVERLAP[1] and rel_err > OVERLAP_TOL:
        raise AccuracyError(
            f"Psi error monitor {rel_err:.2e} above {OVERLAP_TOL} in the "
            f"overlap annulus (a={a}, z={z}, route={route})", estimate=rel_err)
    return TricomiEval(a=a, z=z, sheet=sheet, value=val, dvalue=d1,
                       d2value=d2, err=float(rel_err), route=route)
