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
evaluations, of Psi(1 +- m) with their slopes; the index relation
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
value is formed only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chf import TricomiEval, _gamma, tricomi_psi
from .errors import BranchError, ParameterDomainError
from .l2half import factor_bound
from .quadgrid import safe_radius
from .rhp import Blocks, OperatorFactory, _disk_probe_angles
from .symbols import ProblemData, nu

__all__ = ["zeta", "alpha0", "l_sector", "Parametrix", "build_parametrix"]

#: fractions of the bracket at which each lens-ray bisection step probes
_RAY_SPLIT = np.linspace(0.0, 1.0, 65)
#: angular offset of the one-sided probes beside a lens ray or the cut
_SIDE_OFFSET = 1e-7


def zeta(endpoint: str, pd: ProblemData, lam: complex,
         x: float | None = None) -> complex:
    """Rescaled local variable x (p(lam) - p(endpoint)), arg in (-pi, pi).

    The branch cut is where p(lam) < p(endpoint): outward from a, along the
    interval from b.  Evaluation on the cut itself is refused.
    """
    x = pd.x if x is None else x
    center = {"a": pd.a, "b": pd.b}[endpoint]
    z = x * complex(pd.p(lam) - pd.p(center))
    if z == 0:
        return 0.0 + 0.0j
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchError(
            f"zeta_{endpoint} evaluated on its branch cut (lam = {lam})")
    return z


def alpha0(pd: ProblemData, srh, lam: complex,
           exponent: complex | None = None) -> complex:
    """alpha continued across the interval: alpha above, alpha e^{2 i pi nu} below.

    Holomorphic near an endpoint except on the outward ray, where both its
    pieces and the zeta powers jump compatibly.  ``exponent`` is
    ``srh.exponent(lam)`` when the caller has it already.
    """
    lam = complex(lam)
    val = np.exp(srh.exponent(lam) if exponent is None else exponent)
    if lam.imag < 0.0:
        val = val * np.exp(2j * np.pi * complex(nu(pd, lam)))
    return val


def l_sector(phi: float) -> int:
    """Sector index of the piecewise constant matrix from arg(p - p(endpoint)).

    1 on |phi| <= pi/2, 2 on (pi/2, pi), 3 on (-pi, -pi/2).
    """
    if abs(phi) <= 0.5 * np.pi:
        return 1
    return 2 if phi > 0 else 3


def _psi_cont(a: complex, zt: complex, rot: int) -> TricomiEval:
    """Psi(a, 1; e^{rot i pi/2} zeta) with the argument tracked continuously.

    The total argument arg(zeta) + rot pi/2 ranges over (-3 pi/2, 3 pi/2);
    beyond the principal interval the evaluation moves off-sheet, so the
    entries are single-valued on the cut disk and all parametrix jumps
    are carried by the piecewise constant matrix alone.
    """
    z = (1j * rot) * zt
    total = np.angle(zt) + rot * np.pi / 2.0
    sheet = int(np.rint((total - np.angle(z)) / (2.0 * np.pi)))
    return tricomi_psi(a, z, sheet=sheet)


@dataclass
class Parametrix:
    """Evaluator for one endpoint parametrix at a fixed oscillation x."""

    endpoint: str
    center: float
    radius: float
    x: float
    pd: ProblemData
    factory: OperatorFactory

    #: argument rotation of each column's confluent pair: e^{-i pi/2} zeta
    #: for (Psi(m), Psi(1 + m)), e^{+i pi/2} zeta for (Psi(1 - m), Psi(-m))
    _ROTATIONS = (-1, +1)

    def _confluent(self, m: complex, z: complex) -> np.ndarray:
        """The confluent entries [[Psi(m), Psi(1 - m)], [Psi(1 + m), Psi(-m)]].

        One evaluation per column, at parameter 1 +- m; the column's other
        entry is its ``TricomiEval.lowered`` value, evaluated directly
        where the relation's monitor is over budget.
        """
        r1, r2 = self._ROTATIONS
        col1 = _psi_cont(1.0 + m, z, r1)
        col2 = _psi_cont(1.0 - m, z, r2)
        return np.array([[col1.lowered(), col2.value],
                         [col1.value, col2.lowered()]])

    def coefficients(self, lam: complex, sector: int | None = None,
                     blocks: Blocks | None = None
                     ) -> tuple[np.ndarray, Blocks]:
        """(C, blk): the parametrix at lam is I + sum_jk C_jk l_j (x) r_k.

        ``blk`` is ``factory.blocks(lam)``, or ``blocks`` when the caller
        has it already (the blocks do not depend on x).  C holds the
        confluent entries, b12 and b21, the zeta powers and alpha^{+-2},
        less the identity's share of O_11 and O_22 on the diagonal.
        """
        pd, fac = self.pd, self.factory
        s = 1 if self.endpoint == "a" else -1
        m = -s * complex(nu(pd, lam))
        z = zeta(self.endpoint, pd, lam, self.x)
        if sector is None:
            sector = l_sector(float(np.angle(z)))
        blk = fac.blocks(lam) if blocks is None else blocks
        l, r = blk.l, blk.r

        logz = np.log(z)
        # b12 b21 = -m^2
        if m == 0:
            b12 = 0.0
            b21 = 0.0
        else:
            S = np.exp(1j * self.x * pd.p(self.center)) \
                * np.exp(2.0 * m * logz) / self._a_squared(lam, m,
                                                           blk.exponent)
            spm = np.sin(np.pi * m)
            b12 = 1j * spm * _gamma(1.0 - m) ** 2 * S / np.pi
            b21 = 1j * np.pi / (spm * _gamma(-m) ** 2 * S)

        # the zeta diagonal by column: zeta^{+-m} e^{-i pi m/2}
        zf = np.exp(-1j * np.pi * m / 2.0)
        zcol = np.array([np.exp(m * logz) * zf, np.exp(-m * logz) * zf])
        e2 = np.exp(2.0 * blk.exponent)
        coef = self._confluent(m, z) * zcol \
            * np.array([[1.0, 1j * b12 * e2], [-1j * b21 / e2, 1.0]])
        if sector != 1:
            # right-multiply by L = J^{-s}; J is unipotent, so J^{-1} is J
            # with its off-diagonal block negated.  That block is
            # e^{i ray x p} F/(1+F) l_src (x) r_other (src = 1 on the ray
            # +pi/2, 2 on -pi/2), so L adds column src, times the pairing
            # r_src . l_src, to the other column of C.
            ray = 1 if sector == 2 else -1
            g = -s * np.exp(1j * ray * self.x * pd.p(lam)) * blk.ratio
            src = 0 if ray > 0 else 1
            coef[:, 1 - src] += g * (r[src] @ l[src]) * coef[:, src]
        return coef - np.eye(2), blk

    def __call__(self, lam: complex, sector: int | None = None,
                 blocks: Blocks | None = None) -> np.ndarray:
        """The parametrix at lam, a (2n, 2n) array: I plus four outer
        products of the ``coefficients``."""
        coef, blk = self.coefficients(lam, sector, blocks)
        n = self.factory.grid.n
        out = np.empty((2 * n, 2 * n), dtype=complex)
        for j in (0, 1):
            for k in (0, 1):
                np.outer(coef[j, k] * blk.l[j], blk.r[k],
                         out=out[j * n:(j + 1) * n, k * n:(k + 1) * n])
        out.flat[::2 * n + 1] += 1.0
        return out

    def decay_bound(self, lam: complex, blocks: Blocks | None = None) -> float:
        """``smoothing_bound`` of the parametrix at lam, from the factors
        of its ``coefficients`` in O(n) (``l2half.factor_bound``)."""
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

    def _ray_angle(self, ray: int, frac: float) -> float:
        """Geometric angle theta with arg(p(lam(theta)) - p(endpoint)) = ray pi/2.

        Bisection over ray pi/2 +- 0.6 to a bracket of 1e-13, cutting it
        into 64 at each step so that the phase is evaluated on an array
        (eight steps).  A ray that does not cross that window raises
        ParameterDomainError.
        """
        target = ray * np.pi / 2.0
        p_center = self.pd.p(self.center)

        def below(th):
            lam = self.center + frac * self.radius * np.exp(1j * th)
            return np.angle(self.pd.p(lam) - p_center) < target

        lo, hi = target - 0.6, target + 0.6
        side = below(np.array([lo, hi]))
        if side[0] == side[1]:
            raise ParameterDomainError(
                f"lens ray {ray} not bracketed at radius fraction {frac}")
        while hi - lo > 1e-13:
            grid = lo + (hi - lo) * _RAY_SPLIT
            grid[-1] = hi
            j = np.argmax(below(grid[1:]) != side[0])
            lo, hi = grid[j], grid[j + 1]
        return float(0.5 * (lo + hi))

    def jump_residuals(self):
        """Residuals of the prescribed jumps across the two lens rays.

        Probes sit at 0.35, 0.6 and 0.85 of the disk radius straddling the
        rays arg(p - p(endpoint)) = +- pi/2 by +- _SIDE_OFFSET radians; the
        one-sided values are continuous up to the ray.
        """
        fac = self.factory
        out = []
        for frac in (0.35, 0.6, 0.85):
            for ray in (+1, -1):
                phi = self._ray_angle(ray, frac)
                lam_w = self.center + frac * self.radius * np.exp(
                    1j * (phi + _SIDE_OFFSET))
                lam_e = self.center + frac * self.radius * np.exp(
                    1j * (phi - _SIDE_OFFSET))
                # sector-2/3 side vs sector-1 side of the ray
                P_out = self(lam_w) if ray > 0 else self(lam_e)
                P_in = self(lam_e) if ray > 0 else self(lam_w)
                lam0 = self.center + frac * self.radius * np.exp(1j * phi)
                M = fac.jump_factor(lam0, ray, self.x)
                if self.endpoint == "a":
                    resid = np.max(np.abs(P_out @ M - P_in))
                else:
                    resid = np.max(np.abs(P_in @ M - P_out))
                out.append((ray, frac, float(resid)))
        return out

    def cut_continuity(self) -> float:
        """Mismatch across the outward cut, at 0.4 and 0.7 of the disk radius
        and +- _SIDE_OFFSET off it; the parametrix is continuous there."""
        sgn = -1.0 if self.endpoint == "a" else 1.0
        worst = 0.0
        for frac in (0.4, 0.7):
            lam = self.center + sgn * frac * self.radius
            up = self(lam + 1j * _SIDE_OFFSET)
            dn = self(lam - 1j * _SIDE_OFFSET)
            worst = max(worst, float(np.max(np.abs(up - dn))))
        return worst

    def boundary_residual(self) -> float:
        """max weighted distance to the identity over the disk boundary."""
        worst = 0.0
        for th in _disk_probe_angles():
            lam = self.center + self.radius * np.exp(1j * th)
            worst = max(worst, self.decay_bound(lam))
        return worst


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
