"""Tricomi confluent hypergeometric function Psi(a, 1; z) on the universal cover.

Every evaluation runs on arrays of points: ``tricomi_psi_array`` takes
arrays of a, z and sheets, and ``tricomi_psi`` is its one-point case.
Two principal-sheet routes, each with error monitors of the value and of
its slope:

* the rotated-ray Laplace integral (DLMF 13.4.4) at every |z| up to the
  switch radius 20, and beyond it wherever the expansion's least term is
  not small; below Re a = -1/2 it is carried down by the contiguous
  relation in a.  Its monitor is the cancellation of its terms.  All of
  a call's Laplace points are summed in one padded (points x nodes) pass,
  each point on its own ray, panels and stub, with its own monitors;
* the asymptotic expansion in z^{-a-n}, truncated at the least term,
  used for |z| > 20 (1 - 1e-9): the margin sends a point whose modulus
  rounds to 20 one way or the other down one route.

Nonpositive integer a terminates the asymptotic sum, which is then the
exact polynomial value.  Off-principal sheets are reached by applying the
monodromy connection formulas recursively; first and second derivatives
propagate through every route, so the defining ODE can be residual-checked
independently of how a value was produced.  The routes, the contiguous
recurrence and the monodromy connection are dispatched by masks over the
points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, BranchError, ParameterDomainError
from .quadgrid import _panels

__all__ = ["TricomiEval", "tricomi_psi", "tricomi_psi_array"]

SWITCH_RADIUS = 20.0
#: |a| above this is refused: the range on which ``_gamma`` is validated
A_CAP = 5.0
OVERLAP = (15.0, 25.0)
OVERLAP_TOL = 1e-8
#: largest |angle| of the Laplace ray: pi/4 clear of the branch point t = -1
_RAY_CLIP = 0.75 * math.pi

#: powers t^m of the Laplace route's endpoint stub, m < 7
_STUB_M = np.arange(7.0)
#: the z-derivative orders 0, 1, 2 and their signs (-1)^k, as columns
_SHIFTS = np.arange(3.0)[:, None]
_SIGNS = np.array([[1.0], [-1.0], [1.0]])
#: the stub's series over m: ratios of successive terms of (1+t)^{-a},
#: (1 - a - m)/m = _BINOM_RATIO + a _STUB_STEP, and of e^{-zt}, -z/m =
#: _EXP_RATIO + z _STUB_STEP, with a leading 1 (m = 0); its powers
#: a + m + k, (k, m), are a + _STUB_POWERS
_STUB_STEP = np.concatenate(([0.0], -1.0 / _STUB_M[1:]))
_BINOM_RATIO = np.concatenate(([1.0], (1.0 - _STUB_M[1:]) / _STUB_M[1:]))
_EXP_RATIO = (_STUB_M == 0).astype(float)
_STUB_POWERS = _STUB_M + _SHIFTS
#: the product series g_j = sum_l binom_l expc_{j-l}, truncated at M terms:
#: (expc[_CONV] * _CONV_MASK)[j, l] is expc_{j-l}
_CONV = (_STUB_M[:, None] - _STUB_M[None, :]).astype(int) % _STUB_M.size
_CONV_MASK = np.tril(np.ones((_STUB_M.size, _STUB_M.size)))
#: dtype of the route names
_ROUTE_DTYPE = "<U10"
#: relative error of ``_gamma`` on |a| <= A_CAP, and the rounding charged
#: per unit of sum |terms| / |sum terms| of a Laplace value
_GAMMA_ERR = 5e-15
_ROUND = 2.0 ** -53

#: Lanczos coefficients for g = 607/128 (Godfrey), constant term first, and
#: the shifts j of the terms c_j / (a + j)
_LANCZOS = np.array((
    0.999999999999997092, 57.1562356658629235, -59.5979603554754912,
    14.1360979747417471, -0.491913816097620199, 0.339946499848118887e-4,
    0.465236289270485756e-4, -0.983744753048795646e-4,
    0.158088703224912494e-3, -0.210264441724104883e-3,
    0.217439618115212643e-3, -0.164318106536763890e-3,
    0.844182239838527433e-4, -0.261908384015814087e-4,
    0.368991826595316234e-5))
_LANCZOS_J = np.arange(1.0, _LANCZOS.size)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TricomiEval:
    """Evaluations of Psi(a, 1; .) with derivatives and error monitors.

    One point from ``tricomi_psi``; from ``tricomi_psi_array`` every field
    is an array over the points.  ``err`` and ``derr`` are relative
    monitors of ``value`` and ``dvalue``.
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

    def ode_residual(self):
        """Relative residual of z y'' + (1 - z) y' - a y = 0."""
        terms = (self.z * self.d2value, (1.0 - self.z) * self.dvalue,
                 -self.a * self.value)
        scale = np.maximum.reduce([np.abs(t) for t in terms])
        return np.abs(sum(terms)) / np.maximum(scale, 1e-300)

    def _lowering(self):
        up = (self.a - 1.0 + self.z) * self.value
        dn = self.z * self.dvalue
        val = up - dn
        err = (np.abs(up) * (self.err + _ROUND) + np.abs(dn)
               * (self.derr + _ROUND)) / np.maximum(np.abs(val), 1e-300)
        return val, err

    def lowered_err(self):
        """Relative error monitor of the index relation in ``lowered``:
        the monitors of its two terms, and their rounding, over
        |Psi(a - 1)|.  Where the terms cancel it grows with their ratio to
        the result."""
        return self._lowering()[1]

    def lowered(self):
        """Psi(a - 1, 1; z) on the same sheet, from this value and slope.

        z Psi'(a) = a^2 Psi(a+1) - a Psi(a) turns the contiguous relation
        Psi(a-1) = (2a - 1 + z) Psi(a) - a^2 Psi(a+1) (DLMF 13.3.7) into
        Psi(a-1) = (a - 1 + z) Psi(a) - z Psi'(a).  Both hold on every
        sheet, there is no division, and the step runs downward in a, the
        stable direction of the recurrence ``_laplace`` already uses.

        The budget of ``tricomi_psi`` holds for the relation too: at the
        points where ``lowered_err`` is over it, Psi(a - 1) is evaluated
        directly (one ``tricomi_psi_array`` call), so a value is refused
        (AccuracyError) exactly where the direct evaluation's own monitor
        is over budget.
        """
        val, err = self._lowering()
        over = _over_budget(self.z, err)
        if not np.any(over):
            return val
        val = np.array(val)
        val[over] = tricomi_psi_array(np.asarray(self.a)[over] - 1.0,
                                      np.asarray(self.z)[over],
                                      np.asarray(self.sheet)[over]).value
        return val[()]


def _is_nonpos_int(a):
    """Whether a is a nonpositive integer; elementwise on an array."""
    re = np.real(a)
    return (re <= 0) & (a == np.round(re))


def _gamma(a):
    """Gamma(a) for complex a, within 5e-15 relative for |a| <= 5.

    Lanczos (g = 607/128) on Re a >= 1/2; below, the reflection
    Gamma(a) Gamma(1 - a) = pi / sin(pi a), with sin(pi a) taken after
    removing the nearest integer so that it keeps its digits near a pole.
    Elementwise on an array of a.
    """
    a = np.asarray(a, dtype=complex)
    if _is_nonpos_int(a).any():
        raise ParameterDomainError(f"Gamma has a pole at a = {a}")
    refl = a.real < 0.5
    b = np.where(refl, 1.0 - a, a)
    ser = _LANCZOS[0] + (_LANCZOS[1:] / (b[..., None] + _LANCZOS_J)).sum(-1)
    t = b + 5.2421875  # g + 1/2
    g = _SQRT_2PI * ser / b * np.exp((b + 0.5) * np.log(t) - t)
    if not refl.any():
        return g[()]
    n = np.round(a.real)
    sin_pi = (-1.0) ** n * np.sin(np.pi * (a - n))
    return np.where(refl, np.pi / (np.where(refl, sin_pi, 1.0) * g), g)[()]


def _laplace_ray(a: np.ndarray, z: np.ndarray):
    """(Psi, Psi', Psi'') by one Laplace integral per point, Re a >= -1/2.

    ``a`` and ``z`` are 1-D arrays of the N points.  Returns the values,
    a (3, N) array, and the relative error monitors of the value and the
    slope, (2, N): the error of ``_gamma`` plus the rounding of the
    quadrature and stub terms, each charged in proportion to its
    exponent's parts, over |sum of terms|.  They grow where the sum
    cancels: toward Re a = -1/2, where the stub and the panels grow like
    tau0^{Re a}, and at large |Im a|.

    Every point has its own ray, stub and panels; the panels are padded to
    the largest count among the points by zero-width panels at the
    point's far end T, whose weights are 0.  The sums run panel by panel,
    the panels' sums then in order, so the padding adds exact zeros: a
    point's values and monitors are those of its one-point call.
    """
    theta = np.minimum(np.maximum(np.angle(z), -_RAY_CLIP), _RAY_CLIP)
    ph = np.exp(-1j * theta)
    T = 45.0 / (z * ph).real   # |e^{-z t}| = e^{-45} at the far end
    tau0 = 1e-4 * np.minimum(1.0, T)
    logt0 = np.log(tau0) - 1j * theta

    # every array runs over the points first, and each sum over the last,
    # contiguous axis, so that a point's sums do not depend on the others
    ac, zc, phc, thc = a[:, None], z[:, None], ph[:, None], theta[:, None]

    # stub on [0, tau0]: (1+t)^{-a} e^{-zt} = sum g_m t^m, each power of
    # t^{a-1+m+k} integrated exactly; (a+m+k)^{-1} continues it in a
    binom = np.cumprod(_BINOM_RATIO + ac * _STUB_STEP, axis=1)
    expc = np.cumprod(_EXP_RATIO + zc * _STUB_STEP, axis=1)
    gm = (binom[:, None, :] * expc[:, _CONV] * _CONV_MASK).sum(axis=2)
    pw = ac[:, :, None] + _STUB_POWERS   # (N, 3, M): k = 0, 1, 2
    logt0 = logt0[:, None, None]
    stub = gm[:, None, :] * np.exp(pw * logt0) / pw

    # 24-point Gauss panels graded by 3 from tau0 out to T
    count = np.array([math.ceil(math.log(hi / lo, 3.0))
                      for hi, lo in zip(T, tau0)])[:, None]
    k = np.arange(count.max() + 1)
    tau, wt = _panels(np.where(k < count, tau0[:, None] * 3.0 ** k,
                               T[:, None]), 24)
    t = phc * tau
    logt = np.log(tau) - 1j * thc
    log1pt = np.log1p(t)
    base = (phc * wt) * np.exp((ac - 1.0) * logt - zc * t - ac * log1pt)
    bt = base * t
    # a term's exponent is rounded relative to the sizes of its parts
    size = np.abs(base) * (1.0 + np.abs(zc) * tau + np.abs(ac - 1.0)
                           * np.abs(logt) + np.abs(ac) * np.abs(log1pt))
    terms = np.array([base, bt, bt * t, size, size * tau])
    panel_sums = terms.reshape(5, a.size, -1, 24).sum(axis=3)
    ray = np.cumsum(panel_sums, axis=2)[:, :, -1]
    sums = ray[:3] + stub.sum(axis=2).T
    sizes = ray[3:].real + (np.abs(stub[:, :2]) * (
        1.0 + np.abs(pw[:, :2] * logt0))).sum(axis=2).T
    err = _GAMMA_ERR + _ROUND * sizes / np.maximum(np.abs(sums[:2]), 1e-300)
    return _SIGNS * sums / _gamma(a), err


def _laplace(a, z):
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

    Elementwise over a and z: returns the values (Psi, Psi', Psi''), a
    (3, ...) array, and the relative monitors of value and slope, (2,
    ...), over the points' broadcast shape.  One ``_laplace_ray`` pass
    serves every point; the points below Re a = -1/2 step down together,
    each for its own k steps.
    """
    a, z = np.broadcast_arrays(np.asarray(a, dtype=complex),
                               np.asarray(z, dtype=complex))
    shape, n = a.shape, a.size
    a, z = a.ravel(), z.ravel()
    # b = a + k, k = 0 on the direct points, and b + 1 where k > 0
    k = np.maximum(np.ceil(-0.5 - a.real), 0.0)
    rec = np.flatnonzero(k)
    b = a + k
    vals, err = _laplace_ray(np.concatenate([b, b[rec] + 1.0]),
                             np.concatenate([z, z[rec]]))
    if rec.size:
        vals[:, rec], err[:, rec] = _recur(b[rec], z[rec], k[rec],
                                           vals[:, n:], err[:, n:],
                                           vals[:, rec], err[:, rec])
    return vals[:, :n].reshape((3,) + shape), err[:, :n].reshape((2,) + shape)


def _recur(b, z, steps, up, e_up, cur, e_cur):
    """Psi(b - steps) from Psi(b + 1) and Psi(b) (values ``up``, ``cur``
    with their relative monitors), each point down its own number of steps
    of the contiguous relation; values (3, N) and monitors (2, N)."""
    e_up, e_cur = e_up * np.abs(up[:2]), e_cur * np.abs(cur[:2])  # absolute
    for step in range(int(steps.max())):
        act = step < steps
        c, b2 = 2.0 * b - 1.0 + z, b * b
        new = c * cur - b2 * up
        new[1] += cur[0]
        new[2] += 2.0 * cur[1]
        # value and slope; the slope also takes the value's Psi(b) term
        e_new = np.abs(c) * e_cur + np.abs(b2) * e_up \
            + _ROUND * (np.abs(c * cur[:2]) + np.abs(b2 * up[:2]))
        e_new[1] += e_cur[0] + _ROUND * np.abs(cur[0])
        up, cur = np.where(act, cur, up), np.where(act, new, cur)
        e_up, e_cur = np.where(act, e_cur, e_up), np.where(act, e_new, e_cur)
        b = np.where(act, b - 1.0, b)
    return cur, e_cur / np.maximum(np.abs(cur[:2]), 1e-300)


def _asymptotic(a: complex, z: complex, total_arg: float):
    """Optimally truncated expansion sum_n (-1)^n (a)_n^2 / n! z^{-a-n}.

    z^{-a} uses the supplied total argument, so the expansion remains the
    analytic continuation across |arg z| > pi (valid up to 3 pi / 2).
    Terminates exactly when a is a nonpositive integer.  The monitors are
    the least term over the sum, for the value and for the slope.  One
    point per call.
    """
    poly = a.imag == 0.0 and a.real <= 0 and a.real == int(a.real)
    logz = math.log(abs(z)) + 1j * total_arg
    term = cmath.exp(-a * logz)  # (-1)^n (a)_n^2 / n! z^{-a-n}, updated in place
    iz = 1.0 / z
    s = s1 = s2 = 0.0 + 0j
    last = math.inf
    n = 0
    nmax = 1 + int(2 * abs(z)) + 40
    while n < nmax:
        size = abs(term)
        if size > last and not poly:
            break  # past the least term: stop and charge it to the error
        s += term
        e = -a - n
        slope = term * e * iz
        s1 += slope
        s2 += slope * (e - 1.0) * iz
        last = size
        term *= (a + n) * (a + n) * iz / (-1.0 - n)
        if poly and a.real + n >= 0:
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
    if poly:
        err = derr = 2e-16 * max(n, 1)
    return s, s1, s2, float(err), float(derr)


def _principal(a: np.ndarray, z: np.ndarray, total_arg: np.ndarray):
    """Principal-sheet dispatch over 1-D arrays of points, |total_arg| <= pi.

    A nonpositive integer a takes the terminating expansion.  Beyond the
    switch radius the expansion serves wherever its least term is small;
    every other point takes the Laplace integral, all of them in one pass.
    Returns the values (3, N), the monitors (2, N) and the routes (N,).
    """
    poly = _is_nonpos_int(a)
    route = np.full(a.size, "laplace", dtype=_ROUTE_DTYPE)
    tried = np.flatnonzero(poly | (np.abs(z) > SWITCH_RADIUS * (1.0 - 1e-9)))
    if tried.size == 0:
        return (*_laplace(a, z), route)
    vals = np.empty((3, a.size), dtype=complex)
    errs = np.empty((2, a.size))
    for i in tried:
        out = _asymptotic(complex(a[i]), complex(z[i]), float(total_arg[i]))
        if poly[i] or out[3] <= 1e-9:
            vals[:, i], errs[:, i] = out[:3], out[3:]
            route[i] = "polynomial" if poly[i] else "asymptotic"
    lap = route == "laplace"
    if lap.any():
        vals[:, lap], errs[:, lap] = _laplace(a[lap], z[lap])
    return vals, errs, route


def _psi_cover(a: np.ndarray, r: np.ndarray, theta: np.ndarray):
    """Values and two derivatives at moduli r, total arguments theta (1-D
    arrays), with the value's monitor (relative on the principal sheet)
    and the slope's relative monitor, and the routes.

    An a within 1e-300 of a nonpositive integer is taken at the integer:
    U is entire in a, and that close 1 / Gamma(a)^2 and the Laplace
    stub's 1 / a overflow.  The principal points and both terms of every
    off-sheet point's connection formula take one recursive call, so one
    principal pass serves every point on the first two sheets.
    """
    n = np.round(a.real)
    a = np.where((n <= 0) & (np.abs(a - n) < 1e-300), n + 0j, a)
    z = r * np.exp(1j * theta)
    off = np.abs(theta) > math.pi
    if not off.any():
        return _principal(a, z, theta)
    # Psi(a,1; z e^{2 i pi}) = e^{-2 i pi a} Psi(a,1;z)
    #                          + (2 pi i e^{-i pi a} / Gamma(a)^2) e^z Psi(1-a,1; e^{i pi} z)
    # and its inverse one turn down: sg = +1 above the principal sheet
    on = ~off
    ao, ro, tho = a[off], r[off], theta[off]
    sg = np.sign(tho)
    m = on.sum()
    vals, errs, routes = _psi_cover(
        np.concatenate([a[on], ao, 1.0 - ao]), np.concatenate([r[on], ro, ro]),
        np.concatenate([theta[on], tho - 2.0 * math.pi * sg,
                        tho - math.pi * sg]))
    (v_on, v, w), ((e_in, d_in), (e_w, d_w)) = \
        np.split(vals, [m, m + ao.size], axis=1), \
        np.split(errs[:, m:], 2, axis=1)
    # 1/Gamma(a)^2 vanishes at nonpositive integer a (entire reciprocal);
    # squared after inverting, so that it underflows near a pole rather
    # than overflowing
    pole = _is_nonpos_int(ao)
    inv_ga2 = np.zeros(ao.size, dtype=complex)
    inv_ga2[~pole] = (1.0 / _gamma(ao[~pole])) ** 2
    kap = sg * 2j * math.pi * np.exp(-1j * math.pi * ao * sg) * inv_ga2
    rot = np.exp(-2j * math.pi * ao * sg)
    kez = kap * np.exp(z[off])
    out_v = np.empty((3, a.size), dtype=complex)
    out_e = np.empty((2, a.size))
    out_r = np.full(a.size, "monodromy", dtype=_ROUTE_DTYPE)
    out_v[:, on], out_e[:, on], out_r[on] = v_on, errs[:, :m], routes[:m]
    out_v[0, off] = rot * v[0] + kez * w[0]
    d1 = out_v[1, off] = rot * v[1] + kez * (w[0] - w[1])
    out_v[2, off] = rot * v[2] + kez * (w[0] - 2.0 * w[1] + w[2])
    out_e[0, off] = np.abs(rot) * e_in + np.abs(kez) * e_w * 3.0
    out_e[1, off] = (np.abs(rot * v[1]) * d_in
                     + np.abs(kez) * (np.abs(w[0]) * e_w + np.abs(w[1]) * d_w)
                     * 3.0) / np.maximum(np.abs(d1), 1e-300)
    return out_v, out_e, out_r


def tricomi_psi_array(a, z, sheet=0) -> TricomiEval:
    """Psi(a, 1; z) on sheet ``sheet`` of the cover of C - {0}, |a| <= A_CAP,
    at every point of the broadcast arrays a, z and sheet.

    ``sheet`` counts full turns added to the principal argument of z.
    The error budget OVERLAP_TOL holds in the annulus OVERLAP around the
    switch radius: a monitor above it there, at any one point, raises
    AccuracyError.  Sampled principal-sheet values stay within it; what
    it guards is the monodromy connection, whose e^z-weighted terms can
    cancel there.  Returns one TricomiEval whose fields have the points'
    shape (numpy scalars for scalar arguments).
    """
    a, z, sheet = (np.asarray(a, dtype=complex), np.asarray(z, dtype=complex),
                   np.asarray(sheet, dtype=int))
    if not a.shape == z.shape == sheet.shape:
        a, z, sheet = np.broadcast_arrays(a, z, sheet)
    shape = a.shape
    a, z, sheet = a.ravel(), z.ravel(), sheet.ravel()
    if (z == 0).any():
        raise BranchError("Psi(a, 1; z) has a branch point at z = 0")
    if (np.abs(a) > A_CAP).any():
        raise ParameterDomainError(
            f"|a| = {np.abs(a).max():.3g} exceeds the cap {A_CAP}")
    theta = np.angle(z) + 2.0 * math.pi * sheet
    vals, errs, route = _psi_cover(a, np.abs(z), theta)
    rel_err = errs[0]
    if (route == "monodromy").any():
        rel_err = np.where(route == "monodromy",
                           rel_err / np.maximum(np.abs(vals[0]), 1e-300),
                           rel_err)
    over = _over_budget(z, rel_err)
    if over.any():
        i = int(np.argmax(over))
        raise AccuracyError(
            f"Psi error monitor {rel_err[i]:.2e} above {OVERLAP_TOL} in the "
            f"overlap annulus (a={a[i]}, z={z[i]}, route={route[i]})",
            estimate=float(rel_err[i]))

    def out(v):
        return v.reshape(shape)[()]

    return TricomiEval(a=out(a), z=out(z), sheet=out(sheet),
                       value=out(vals[0]), dvalue=out(vals[1]),
                       d2value=out(vals[2]), err=out(rel_err),
                       derr=out(errs[1]), route=out(route))


def tricomi_psi(a: complex, z: complex, sheet: int = 0) -> TricomiEval:
    """Psi(a, 1; z) at one point: the one-point case of
    ``tricomi_psi_array``, with its budget.  Every field is a scalar.

    Array callers use ``tricomi_psi_array``: this name keeps scalar
    fields (the benchmark tracer reads ``err`` as one float).
    """
    return tricomi_psi_array(complex(a), complex(z), int(sheet))


def _over_budget(z, rel_err):
    """Whether a relative monitor is above OVERLAP_TOL in the annulus
    OVERLAP around the switch radius, where ``tricomi_psi`` refuses a
    value; elementwise on arrays."""
    r = np.abs(z)
    return (OVERLAP[0] <= r) & (r <= OVERLAP[1]) & (rel_err > OVERLAP_TOL)
