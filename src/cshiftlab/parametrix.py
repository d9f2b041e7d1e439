"""Local endpoint parametrices built from Tricomi functions.

Each parametrix is an exact local solution of the deformed jump problem
inside a disk around an endpoint: a 2x2 matrix of confluent-hypergeometric
scalars riding on the regular operator blocks O_jk, times a power of the
rescaled local variable zeta, times a piecewise constant matrix L that
switches on the lens rays arg(p(lam) - p(endpoint)) = +- pi/2.

The confluent-hypergeometric entries are evaluated on the principal branch
of their arguments e^{-+ i pi/2} zeta; their branch jumps across the lens
rays combine with the L switches to reproduce the triangular jump factors
exactly, which is what the jump-residual diagnostics verify.

The two endpoints are one construction: the second is the first with the
exponent nu negated.  With the endpoint sign s = +1 at a and -1 at b and
m = -s nu, the entries are Psi(m), Psi(1 - m), Psi(1 + m), Psi(-m) at
argument rotations -1, +1, -1, +1.  Each column is a pair (Psi(a),
Psi(a + 1)) at one argument, (m, 1 + m) at e^{-i pi/2} zeta and
(-m, 1 - m) at e^{+i pi/2} zeta, so a point takes two Tricomi
evaluations, of Psi(1 +- m) with their slopes, and a set of points takes
both for all of its points in one ``tricomi_psi_array`` call; the index
relation
Psi(a) = (a + z) Psi(a+1) - z Psi'(a+1) (DLMF 13.3.7 with
z Psi'(a) = a^2 Psi(a+1) - a Psi(a); ``TricomiEval.lowered``) gives
Psi(+-m) with no division, in the downward direction in a that is
stable for U.  The relation carries its own error monitor under the
budget of ``tricomi_psi``; where it is over budget, Psi(+-m) is
evaluated directly, so a point is refused exactly where the direct
evaluation would be.  The zeta diagonal is
[zeta^m, zeta^-m] e^{-i pi m/2}, and L = J^{-s} in sectors 2 and 3, J
the triangular jump factor of the lens ray bounding the sector
(``OperatorFactory.jump_factor``: M_up on the ray +pi/2, M_down^{-1} on
-pi/2); L is the identity in sector 1.
The off-diagonal coefficients carry S = e^{i x p(endpoint)} zeta^{2m} /
A^2, which must be analytic across the cut of zeta.  That fixes A^2, the
one factor that differs between the endpoints: zeta_a cuts outward, so
A^2 = alpha0^2 e^{2 i pi m} with alpha continued across the interval;
zeta_b cuts along the interval, where alpha^2 jumps together with
zeta^{2m}, so A^2 = alpha^2.

Every O block, and the lens factors' P and Q, is rank one on the same
four factors: O_jl = alpha^{2(l-j)} l_j (x) r_l with l_k = beta_k m_k
and r_l = kappa_l W beta_l^{-1}.  The two scalar problems are W-adjoint
inverses of each other (kappa_1 = m_2, kappa_2 = m_1 and <m_2, m_1>_W = 1
make J_2 = W^{-1} J_1^{-T} W, so beta_2 = W^{-1} beta_1^{-T} W by
uniqueness), hence r_l = w o l_{3-l} up to the normalization
<l_1, l_2>_W = 1: the factory takes all four from two beta matvecs
(``rhp.Blocks``).  So the parametrix is I plus a 2x2 coefficient array
on l_j (x) r_l, and L acts on that array alone.  Every block of the
value less I is then rank one, so its decay-pattern bound is exact from
the factors in O(n) (``Parametrix.decay_bound``); the dense (2n, 2n)
value (``l2half.dense``) is formed only when asked for.

``coefficients`` and ``decay_bound`` take a 1-D array of points as well as
one point, and the diagnostics (jump residuals, cut continuity, the
boundary residual) evaluate each of their point sets in one call: one
``factory.blocks`` call and one Tricomi call for all of its points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chf import TricomiEval, _gamma, tricomi_psi, tricomi_psi_array
from .errors import BranchError, ParameterDomainError
from .l2half import dense, factor_bound
from .quadgrid import safe_radius
from .rhp import Blocks, OperatorFactory, _disk_probe_angles
from .symbols import ProblemData, nu

__all__ = ["zeta", "alpha0", "l_sector", "Parametrix", "build_parametrix"]

#: fractions of the bracket at which each lens-ray bisection step probes
_RAY_SPLIT = np.linspace(0.0, 1.0, 65)
#: angular offset of the one-sided probes beside a lens ray or the cut
_SIDE_OFFSET = 1e-7


def zeta(endpoint: str, pd: ProblemData, lam, x: float | None = None):
    """Rescaled local variable x (p(lam) - p(endpoint)), arg in (-pi, pi),
    at one point or at each of an array of them.

    The branch cut is where p(lam) < p(endpoint): outward from a, along the
    interval from b.  Evaluation on the cut itself is refused.
    """
    x = pd.x if x is None else x
    center = {"a": pd.a, "b": pd.b}[endpoint]
    z = x * (pd.p(np.asarray(lam, dtype=complex)) - pd.p(center))
    if np.any((z.imag == 0.0) & (z.real < 0.0)):
        raise BranchError(
            f"zeta_{endpoint} evaluated on its branch cut (lam = {lam})")
    return z[()]


def alpha0(pd: ProblemData, srh, lam, exponent=None):
    """alpha continued across the interval: alpha above, alpha e^{2 i pi nu} below.

    Holomorphic near an endpoint except on the outward ray, where both its
    pieces and the zeta powers jump compatibly.  ``exponent`` is
    ``srh.exponent(lam)`` when the caller has it already.  Elementwise on
    an array of lam.
    """
    lam = np.asarray(lam, dtype=complex)
    val = np.exp(srh.exponent(lam) if exponent is None else exponent)
    return np.where(lam.imag < 0.0, val * np.exp(2j * np.pi * nu(pd, lam)),
                    val)[()]


def l_sector(phi):
    """Sector index of the piecewise constant matrix from arg(p - p(endpoint)).

    1 on |phi| <= pi/2, 2 on (pi/2, pi), 3 on (-pi, -pi/2); elementwise on
    an array.
    """
    phi = np.asarray(phi)
    return np.where(np.abs(phi) <= 0.5 * np.pi, 1, np.where(phi > 0, 2, 3))[()]


def _psi_cont(a, zt, rot) -> TricomiEval:
    """Psi(a, 1; e^{rot i pi/2} zeta) with the argument tracked continuously:
    ``tricomi_psi`` at one point, one ``tricomi_psi_array`` call for arrays
    of points (``rot`` may be one of them).

    The total argument arg(zeta) + rot pi/2 ranges over (-3 pi/2, 3 pi/2);
    beyond the principal interval the evaluation moves off-sheet, so the
    entries are single-valued on the cut disk and all parametrix jumps
    are carried by the piecewise constant matrix alone.
    """
    z = (1j * rot) * np.asarray(zt)
    total = np.angle(zt) + rot * np.pi / 2.0
    sheet = np.rint((total - np.angle(z)) / (2.0 * np.pi)).astype(int)
    return (tricomi_psi if z.ndim == 0 else tricomi_psi_array)(a, z, sheet)


@dataclass
class Parametrix:
    """Evaluator for one endpoint parametrix at a fixed oscillation x.

    ``coefficients`` and ``decay_bound`` take one point or a 1-D array of
    points; an array costs one ``factory.blocks`` call and one Tricomi
    call for all of its points.  The diagnostics evaluate each
    of their point sets so.
    """

    endpoint: str
    center: float
    radius: float
    x: float
    pd: ProblemData
    factory: OperatorFactory

    #: argument rotation of each column's confluent pair: e^{-i pi/2} zeta
    #: for (Psi(m), Psi(1 + m)), e^{+i pi/2} zeta for (Psi(1 - m), Psi(-m))
    _ROTATIONS = (-1, +1)

    def _confluent(self, m, z) -> np.ndarray:
        """The confluent entries [[Psi(m), Psi(1 - m)], [Psi(1 + m), Psi(-m)]],
        (..., 2, 2) over the points of m and z.

        One evaluation per column, at parameter 1 +- m, both columns of
        every point in one Tricomi call; the column's other entry is its
        ``TricomiEval.lowered`` value, evaluated directly where the
        relation's monitor is over budget.
        """
        ev = _psi_cont(np.append(1.0 + m, 1.0 - m), np.append(z, z),
                       np.repeat(self._ROTATIONS, np.size(m)))
        (up1, up2), (low1, low2) = (np.split(v, 2)
                                    for v in (ev.value, ev.lowered()))
        return np.stack([np.stack([low1, up2], axis=-1),
                         np.stack([up1, low2], axis=-1)],
                        axis=-2).reshape(np.shape(m) + (2, 2))

    def coefficients(self, lam, sector=None, blocks: Blocks | None = None
                     ) -> tuple[np.ndarray, Blocks]:
        """(C, blk): the parametrix at lam is I + sum_jk C_jk l_j (x) r_k.

        lam is one point, C then (2, 2), or a 1-D array of N points, C
        (N, 2, 2).  ``sector`` defaults to each point's own.  ``blk`` is
        ``factory.blocks(lam)``, or ``blocks`` when the caller has it
        already (the blocks do not depend on x).  C holds the confluent
        entries, b12 and b21, the zeta powers and alpha^{+-2}, less the
        identity's share of O_11 and O_22 on the diagonal.
        """
        pd, fac = self.pd, self.factory
        s = 1 if self.endpoint == "a" else -1
        lam = np.asarray(lam, dtype=complex)
        m = -s * nu(pd, lam)
        z = zeta(self.endpoint, pd, lam, self.x)
        if sector is None:
            sector = l_sector(np.angle(z))
        blk = fac.blocks(lam) if blocks is None else blocks
        l, r = blk.l, blk.r

        logz = np.log(z)
        # b12 b21 = -m^2; both vanish with m
        on = m != 0
        S = np.exp(1j * self.x * pd.p(self.center)) \
            * np.exp(2.0 * m * logz) / self._a_squared(lam, m, blk.exponent)
        spm = np.where(on, np.sin(np.pi * m), 1.0)
        g1, g2 = _gamma(np.where(on, [1.0 - m, -m], 0.5))
        b12 = np.where(on, 1j * spm * g1 ** 2 * S / np.pi, 0.0)
        b21 = np.where(on, 1j * np.pi / (spm * g2 ** 2 * S), 0.0)

        # the zeta diagonal by column: zeta^{+-m} e^{-i pi m/2}
        zf = np.exp(-1j * np.pi * m / 2.0)
        zcol = np.stack([np.exp(m * logz) * zf, np.exp(-m * logz) * zf],
                        axis=-1)
        e2 = np.exp(2.0 * blk.exponent)
        one = np.ones(np.shape(m))
        off = np.stack([np.stack([one, 1j * b12 * e2], axis=-1),
                        np.stack([-1j * b21 / e2, one], axis=-1)], axis=-2)
        coef = self._confluent(m, z) * zcol[..., None, :] * off
        # right-multiply by L = J^{-s} off sector 1; J is unipotent, so
        # J^{-1} is J with its off-diagonal block negated.  That block is
        # e^{i ray x p} F/(1+F) l_src (x) r_other (src = 1 on the ray
        # +pi/2, 2 on -pi/2), so L adds column src, times the pairing
        # r_src . l_src, to the other column of C.
        sector = np.asarray(sector)
        if np.any(sector != 1):
            ray = np.where(sector == 2, 1, -1)
            g = -s * np.exp(1j * ray * self.x * pd.p(lam)) * blk.ratio
            rl = np.einsum("...kn,...kn->...k", r, l)
            coef[..., :, 1] += np.where(sector == 2, g * rl[..., 0],
                                        0.0)[..., None] * coef[..., :, 0]
            coef[..., :, 0] += np.where(sector == 3, g * rl[..., 1],
                                        0.0)[..., None] * coef[..., :, 1]
        return coef - np.eye(2), blk

    def decay_bound(self, lam, blocks: Blocks | None = None):
        """``smoothing_bound`` of the parametrix at lam, from the factors
        of its ``coefficients`` in O(n) (``l2half.factor_bound``); a float
        at one point, an array over a 1-D array of points."""
        coef, blk = self.coefficients(lam, blocks=blocks)
        return factor_bound(coef, blk.l, blk.r, self.factory.grid)

    def _a_squared(self, lam, m, e):
        """A^2 of the coefficients, chosen so that zeta^{2m} / A^2 is
        analytic across the cut of zeta (see the module docstring); e is
        the exponent ln alpha(lam) the factory blocks carry."""
        if self.endpoint == "a":
            return alpha0(self.pd, self.factory.srh, lam, e) ** 2 \
                * np.exp(2j * np.pi * m)
        return np.exp(2.0 * e)

    # -- diagnostics -------------------------------------------------------

    def _ray_angle(self, ray, frac):
        """Geometric angle theta with arg(p(lam(theta)) - p(endpoint)) = ray pi/2.

        Bisection over ray pi/2 +- 0.6 to a bracket of 1e-13, cutting it
        into 64 at each step so that the phase is evaluated on an array
        (eight steps).  ``ray`` and ``frac`` may be arrays: their rays are
        bisected together, each to its own bracket.  A ray that does not
        cross that window raises ParameterDomainError.
        """
        ray, frac = np.broadcast_arrays(np.asarray(ray, dtype=float),
                                        np.asarray(frac, dtype=float))
        target = ray * np.pi / 2.0
        p_center = self.pd.p(self.center)

        def below(th):
            lam = self.center + frac[..., None] * self.radius * np.exp(1j * th)
            return np.angle(self.pd.p(lam) - p_center) < target[..., None]

        lo, hi = target - 0.6, target + 0.6
        side = below(np.stack([lo, hi], axis=-1))
        if np.any(side[..., 0] == side[..., 1]):
            raise ParameterDomainError(
                f"lens ray {ray} not bracketed at radius fraction {frac}")
        while np.any(act := hi - lo > 1e-13):
            grid = lo[..., None] + (hi - lo)[..., None] * _RAY_SPLIT
            grid[..., -1] = hi
            j = np.argmax(below(grid[..., 1:]) != side[..., :1], axis=-1)
            step = np.take_along_axis(grid, np.stack([j, j + 1], axis=-1),
                                      axis=-1)
            lo = np.where(act, step[..., 0], lo)
            hi = np.where(act, step[..., 1], hi)
        return (0.5 * (lo + hi))[()]

    def jump_residuals(self):
        """Residuals of the prescribed jumps across the two lens rays.

        Probes sit at 0.35, 0.6 and 0.85 of the disk radius straddling the
        rays arg(p - p(endpoint)) = +- pi/2 by +- _SIDE_OFFSET radians; the
        one-sided values are continuous up to the ray.  The six ray angles
        are found together, then both sides of every ray take one
        ``coefficients`` call and the points on the rays one
        ``factory.blocks`` call for their jump factors.
        """
        fracs = np.repeat([0.35, 0.6, 0.85], 2)
        rays = np.tile([1, -1], 3)
        phi = self._ray_angle(rays, fracs)
        lam_w = self.center + fracs * self.radius * np.exp(
            1j * (phi + _SIDE_OFFSET))
        lam_e = self.center + fracs * self.radius * np.exp(
            1j * (phi - _SIDE_OFFSET))
        lam0 = self.center + fracs * self.radius * np.exp(1j * phi)
        # sector-2/3 side vs sector-1 side of each ray
        lam_out = np.where(rays > 0, lam_w, lam_e)
        lam_in = np.where(rays > 0, lam_e, lam_w)
        coef, blk = self.coefficients(np.concatenate([lam_out, lam_in]))
        jblk = self.factory.blocks(lam0)
        jcoef = np.exp(1j * rays * self.x * self.pd.p(lam0))[:, None, None] \
            * jblk.jump_coefficients(rays)
        out = []
        for i, (ray, frac) in enumerate(zip(rays, fracs)):
            P_out = dense(coef[i], blk.l[i], blk.r[i])
            P_in = dense(coef[i + 6], blk.l[i + 6], blk.r[i + 6])
            M = dense(jcoef[i], jblk.l[i], jblk.r[i])
            if self.endpoint == "a":
                resid = np.max(np.abs(P_out @ M - P_in))
            else:
                resid = np.max(np.abs(P_in @ M - P_out))
            out.append((int(ray), float(frac), float(resid)))
        return out

    def cut_continuity(self) -> float:
        """Mismatch across the outward cut, at 0.4 and 0.7 of the disk radius
        and +- _SIDE_OFFSET off it; the parametrix is continuous there.
        All four points take one ``coefficients`` call."""
        sgn = -1.0 if self.endpoint == "a" else 1.0
        lam = self.center + sgn * np.array([0.4, 0.7]) * self.radius
        coef, blk = self.coefficients(np.concatenate(
            [lam + 1j * _SIDE_OFFSET, lam - 1j * _SIDE_OFFSET]))
        return max(float(np.max(np.abs(
            dense(coef[i], blk.l[i], blk.r[i])
            - dense(coef[i + 2], blk.l[i + 2], blk.r[i + 2]))))
            for i in range(2))

    def boundary_residual(self) -> float:
        """max weighted distance to the identity over the disk boundary,
        from one ``decay_bound`` call on all of its probes."""
        lam = self.center + self.radius * np.exp(1j * _disk_probe_angles())
        return float(np.max(self.decay_bound(lam)))


def build_parametrix(endpoint: str, pd: ProblemData, factory: OperatorFactory,
                     x: float | None = None,
                     radius: float | None = None) -> Parametrix:
    """Assemble the local parametrix around one endpoint.

    ``factory`` supplies the regular operator blocks; ``radius`` is the
    disk radius, positive (``safe_radius(pd)`` when omitted).
    """
    if endpoint not in ("a", "b"):
        raise ParameterDomainError("endpoint must be 'a' or 'b'")
    x = pd.x if x is None else float(x)
    if x <= 0:
        raise ParameterDomainError("x must be positive")
    if radius is None:
        radius = safe_radius(pd)
    if radius <= 0:
        raise ParameterDomainError(f"need disk radius > 0, got {radius}")
    center = pd.a if endpoint == "a" else pd.b
    return Parametrix(endpoint=endpoint, center=center, radius=radius, x=x,
                      pd=pd, factory=factory)
