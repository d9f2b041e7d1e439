"""Tricomi confluent hypergeometric function Psi(a, 1; z) on the universal cover.

Two principal-sheet routes, each with error monitors of the value and of
its slope:

* the rotated-ray Laplace integral (DLMF 13.4.4) at every |z| up to the
  switch radius 20, and beyond it wherever the expansion's least term is
  not small; below Re a = -1/2 it is carried down by the contiguous
  relation in a.  Its monitor is the cancellation of its terms;
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
from .quadgrid import _panels

__all__ = ["TricomiEval", "tricomi_psi"]

SWITCH_RADIUS = 20.0
#: |a| above this is refused: the range on which ``_gamma`` is validated
A_CAP = 5.0
OVERLAP = (15.0, 25.0)
OVERLAP_TOL = 1e-8
#: largest |angle| of the Laplace ray: pi/4 clear of the branch point t = -1
_RAY_CLIP = 0.75 * math.pi

#: powers t^m of the Laplace route's endpoint stub, m < 7
_STUB_M = np.arange(7.0)
#: the z-derivative orders 0, 1, 2 as a column, and their signs (-1)^k
_SHIFTS = np.arange(3.0)[:, None]
_SIGNS = np.array([1.0, -1.0, 1.0])
#: relative error of ``_gamma`` on |a| <= A_CAP, and the rounding charged
#: per unit of sum |terms| / |sum terms| of a Laplace value
_GAMMA_ERR = 5e-15
_ROUND = 2.0 ** -53

#: Lanczos coefficients for g = 607/128 (Godfrey), constant term first
_LANCZOS = (
    0.999999999999997092, 57.1562356658629235, -59.5979603554754912,
    14.1360979747417471, -0.491913816097620199, 0.339946499848118887e-4,
    0.465236289270485756e-4, -0.983744753048795646e-4,
    0.158088703224912494e-3, -0.210264441724104883e-3,
    0.217439618115212643e-3, -0.164318106536763890e-3,
    0.844182239838527433e-4, -0.261908384015814087e-4,
    0.368991826595316234e-5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TricomiEval:
    """One evaluation of Psi(a, 1; .) with derivatives and error monitors.

    ``err`` and ``derr`` are relative monitors of ``value`` and ``dvalue``.
    """

    a: complex
    z: complex
    sheet: int
    value: complex
    dvalue: complex
    d2value: complex
    err: float
    derr: float
    route: str

    def ode_residual(self) -> float:
        """Relative residual of z y'' + (1 - z) y' - a y = 0."""
        r = self.z * self.d2value + (1.0 - self.z) * self.dvalue - self.a * self.value
        scale = max(abs(self.z * self.d2value), abs((1.0 - self.z) * self.dvalue),
                    abs(self.a * self.value), 1e-300)
        return abs(r) / scale

    def _lowering(self) -> tuple[complex, float]:
        up = (self.a - 1.0 + self.z) * self.value
        dn = self.z * self.dvalue
        val = up - dn
        err = (abs(up) * (self.err + _ROUND)
               + abs(dn) * (self.derr + _ROUND)) / max(abs(val), 1e-300)
        return val, err

    def lowered_err(self) -> float:
        """Relative error monitor of the index relation in ``lowered``:
        the monitors of its two terms, and their rounding, over
        |Psi(a - 1)|.  Where the terms cancel it grows with their ratio to
        the result."""
        return self._lowering()[1]

    def lowered(self) -> complex:
        """Psi(a - 1, 1; z) on the same sheet, from this value and slope.

        z Psi'(a) = a^2 Psi(a+1) - a Psi(a) turns the contiguous relation
        Psi(a-1) = (2a - 1 + z) Psi(a) - a^2 Psi(a+1) (DLMF 13.3.7) into
        Psi(a-1) = (a - 1 + z) Psi(a) - z Psi'(a).  Both hold on every
        sheet, there is no division, and the step runs downward in a, the
        stable direction of the recurrence ``_laplace`` already uses.

        The budget of ``tricomi_psi`` holds for the relation too: where
        ``lowered_err`` is over it, Psi(a - 1) is evaluated directly, so
        the value is refused (AccuracyError) exactly where the direct
        evaluation's own monitor is over budget.
        """
        val, err = self._lowering()
        if _over_budget(self.z, err):
            return tricomi_psi(self.a - 1.0, self.z, self.sheet).value
        return val


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


def _laplace_ray(a: complex, z: complex):
    """(Psi, Psi', Psi'') by one Laplace integral, Re a >= -1/2.

    Also returns the relative error monitors of the value and the slope:
    the error of ``_gamma`` plus the rounding of the quadrature and stub
    terms, each charged in proportion to its exponent's parts, over
    |sum of terms|.  They grow where the sum cancels: toward Re a = -1/2,
    where the stub and the panels grow like tau0^{Re a}, and at large
    |Im a|.
    """
    theta = min(max(cmath.phase(z), -_RAY_CLIP), _RAY_CLIP)
    ph = cmath.exp(-1j * theta)
    T = 45.0 / (z * ph).real   # |e^{-z t}| = e^{-45} at the far end
    tau0 = 1e-4 * min(1.0, T)
    logt0 = math.log(tau0) - 1j * theta

    # stub on [0, tau0]: (1+t)^{-a} e^{-zt} = sum g_m t^m, each power of
    # t^{a-1+m+k} integrated exactly; (a+m+k)^{-1} continues it in a
    m = _STUB_M[1:]
    binom = np.cumprod(np.concatenate(([1.0], (1.0 - a - m) / m)))
    expc = np.cumprod(np.concatenate(([1.0], -z / m)))
    gm = np.convolve(binom, expc)[:_STUB_M.size]
    pw = a + _STUB_M + _SHIFTS   # (3, M): the powers for k = 0, 1, 2
    stub = gm * np.exp(pw * logt0) / pw

    # 24-point Gauss panels graded by 3 from tau0 out to T
    edges = tau0 * 3.0 ** np.arange(math.ceil(math.log(T / tau0, 3.0)) + 1)
    edges[-1] = T
    tau, wt = _panels(edges, 24)
    t = ph * tau
    logt = np.log(tau) - 1j * theta
    log1pt = np.log1p(t)
    base = (ph * wt) * np.exp(-z * t + (a - 1.0) * logt - a * log1pt)
    bt = base * t
    sums = np.array([base.sum(), bt.sum(), bt @ t]) + stub.sum(axis=1)

    # a term's exponent is rounded relative to the sizes of its parts
    cond = 1.0 + abs(z) * tau + abs(a - 1.0) * np.abs(logt) \
        + abs(a) * np.abs(log1pt)
    stub_cond = 1.0 + np.abs(pw[:2] * logt0)
    size = np.abs(base)
    sizes = (size @ cond + np.abs(stub[0]) @ stub_cond[0],
             (size * tau) @ cond + np.abs(stub[1]) @ stub_cond[1])
    err = [_GAMMA_ERR + _ROUND * sz / max(abs(sm), 1e-300)
           for sz, sm in zip(sizes, sums)]
    return _SIGNS * sums / _gamma(a), err


def _laplace(a: complex, z: complex):
    """Gamma(a) Psi = int_0^inf e^{-z t} t^{a-1} (1+t)^{-a} dt (DLMF 13.4.4).

    Taken along the ray t = e^{-i theta} tau, theta = arg z clipped to
    |theta| <= 3 pi/4, so that e^{-z t} decays and the ray stays pi/4
    clear of the branch point t = -1.  The endpoint power t^{a-1} is
    handled by an analytic stub on [0, tau0] and geometrically graded
    Gauss panels beyond it; derivatives bring down -t and t^2.

    Below Re a = -1/2 the stub cancels the panels by tau0^{Re a}, so
    Psi(b) and Psi(b+1) are taken at b = a + k, Re b in [-1/2, 1/2), and
    the contiguous relation Psi(b-1) = (2b-1+z) Psi(b) - b^2 Psi(b+1)
    (DLMF 13.3.7) with its z-derivatives carries them down to a.  U is
    the minimal solution as a grows, so the downward recurrence is stable;
    its terms' cancellation is added to the monitors at each step.
    """
    if a.real >= -0.5:
        vals, err = _laplace_ray(a, z)
        return (*vals, *err)
    k = math.ceil(-0.5 - a.real)
    b = a + k
    up, e_up = _laplace_ray(b + 1.0, z)
    cur, e_cur = _laplace_ray(b, z)
    e_up, e_cur = e_up * np.abs(up[:2]), e_cur * np.abs(cur[:2])  # absolute
    for _ in range(k):
        c, b2 = 2.0 * b - 1.0 + z, b * b
        new = c * cur - b2 * up
        new[1] += cur[0]
        new[2] += 2.0 * cur[1]
        # value and slope; the slope also takes the value's Psi(b) term
        e_new = abs(c) * e_cur + abs(b2) * e_up \
            + _ROUND * (np.abs(c * cur[:2]) + np.abs(b2 * up[:2]))
        e_new[1] += e_cur[0] + _ROUND * abs(cur[0])
        up, cur, e_up, e_cur = cur, new, e_cur, e_new
        b -= 1.0
    return (*cur, *(e_cur / np.maximum(np.abs(cur[:2]), 1e-300)))


def _asymptotic(a: complex, z: complex, total_arg: float):
    """Optimally truncated expansion sum_n (-1)^n (a)_n^2 / n! z^{-a-n}.

    z^{-a} uses the supplied total argument, so the expansion remains the
    analytic continuation across |arg z| > pi (valid up to 3 pi / 2).
    Terminates exactly when a is a nonpositive integer.  The monitors are
    the least term over the sum, for the value and for the slope.
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
    # the slope's first omitted term is the value's times (a + n) / z
    derr = last * abs(a + n) / (abs(z) * max(abs(s1), 1e-300)) \
        if math.isfinite(last) else 0.0
    if _is_nonpos_int(a):
        err = derr = 2e-16 * max(n, 1)
    return s, s1, s2, float(err), float(derr)


def _principal(a: complex, z: complex, total_arg: float):
    """Principal-sheet dispatch, |total_arg| <= pi.

    A nonpositive integer a takes the terminating expansion.  Beyond the
    switch radius the expansion serves wherever its least term is small;
    every other point takes the Laplace integral.
    """
    if _is_nonpos_int(a):
        return (*_asymptotic(a, z, total_arg), "polynomial")
    if abs(z) > SWITCH_RADIUS * (1.0 - 1e-9):
        vals = _asymptotic(a, z, total_arg)
        if vals[3] <= 1e-9:
            return (*vals, "asymptotic")
    return (*_laplace(a, z), "laplace")


def _psi_cover(a: complex, r: float, theta: float):
    """Value and two derivatives at modulus r, total argument theta, with
    the value's monitor (relative on the principal sheet) and the slope's
    relative monitor.

    An a within 1e-300 of a nonpositive integer is taken at the integer:
    U is entire in a, and that close 1 / Gamma(a)^2 and the Laplace
    stub's 1 / a overflow.
    """
    n = round(a.real)
    if n <= 0 and abs(a - n) < 1e-300:
        a = complex(n)
    z = complex(r * np.exp(1j * theta))
    if abs(theta) <= math.pi:
        return _principal(a, z, theta)
    # 1/Gamma(a)^2 vanishes at nonpositive integer a (entire reciprocal);
    # squared after inverting, so that it underflows near a pole rather
    # than overflowing
    inv_ga2 = 0.0 if _is_nonpos_int(a) else (1.0 / _gamma(a)) ** 2
    if theta > math.pi:
        v, v1, v2, e_in, d_in, _ = _psi_cover(a, r, theta - 2.0 * math.pi)
        w, w1, w2, e_w, d_w, _ = _psi_cover(1.0 - a, r, theta - math.pi)
        # Psi(a,1; z e^{2 i pi}) = e^{-2 i pi a} Psi(a,1;z)
        #                          + (2 pi i e^{-i pi a} / Gamma(a)^2) e^z Psi(1-a,1; e^{i pi} z)
        kap = 2j * math.pi * cmath.exp(-1j * math.pi * a) * inv_ga2
        rot = cmath.exp(-2j * math.pi * a)
    else:
        v, v1, v2, e_in, d_in, _ = _psi_cover(a, r, theta + 2.0 * math.pi)
        w, w1, w2, e_w, d_w, _ = _psi_cover(1.0 - a, r, theta + math.pi)
        kap = -2j * math.pi * cmath.exp(1j * math.pi * a) * inv_ga2
        rot = cmath.exp(2j * math.pi * a)
    ez = cmath.exp(z)
    val = rot * v + kap * ez * w
    d1 = rot * v1 + kap * ez * (w - w1)
    d2 = rot * v2 + kap * ez * (w - 2.0 * w1 + w2)
    err = abs(rot) * e_in + abs(kap * ez) * e_w * 3.0
    derr = (abs(rot * v1) * d_in
            + abs(kap * ez) * (abs(w) * e_w + abs(w1) * d_w) * 3.0) \
        / max(abs(d1), 1e-300)
    return val, d1, d2, err, derr, "monodromy"


def tricomi_psi(a: complex, z: complex, sheet: int = 0) -> TricomiEval:
    """Psi(a, 1; z) on sheet ``sheet`` of the cover of C - {0}, |a| <= A_CAP.

    ``sheet`` counts full turns added to the principal argument of z.
    The error budget OVERLAP_TOL holds in the annulus OVERLAP around the
    switch radius: a monitor above it there raises AccuracyError.
    Sampled principal-sheet values stay within it; what it guards is the
    monodromy connection, whose e^z-weighted terms can cancel there.
    """
    a = complex(a)
    z = complex(z)
    if z == 0:
        raise BranchError("Psi(a, 1; z) has a branch point at z = 0")
    if abs(a) > A_CAP:
        raise ParameterDomainError(
            f"|a| = {abs(a):.3g} exceeds the cap {A_CAP}")
    theta = float(np.angle(z)) + 2.0 * math.pi * sheet
    val, d1, d2, err, derr, route = _psi_cover(a, abs(z), theta)
    rel_err = err if route != "monodromy" else err / max(abs(val), 1e-300)
    if _over_budget(z, rel_err):
        raise AccuracyError(
            f"Psi error monitor {rel_err:.2e} above {OVERLAP_TOL} in the "
            f"overlap annulus (a={a}, z={z}, route={route})", estimate=rel_err)
    return TricomiEval(a=a, z=z, sheet=sheet, value=val, dvalue=d1,
                       d2value=d2, err=float(rel_err), derr=float(derr),
                       route=route)


def _over_budget(z: complex, rel_err: float) -> bool:
    """A relative monitor above OVERLAP_TOL in the annulus OVERLAP around
    the switch radius, where ``tricomi_psi`` refuses a value."""
    return OVERLAP[0] <= abs(z) <= OVERLAP[1] and rel_err > OVERLAP_TOL
