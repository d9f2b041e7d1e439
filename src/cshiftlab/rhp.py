"""Operator-valued Riemann-Hilbert objects and their verification.

Solves the two linear integral equations of chi and builds the 2x2 block
solution chi (with its inverse) from their densities, the scalar-problem
solutions beta_k from the rho_k densities, the regular block operator O,
the triangular factors P, Q entering the jump factorization, and the
residual diagnostics used by the acceptance suite, including the
small-norm probe along the deformed contour system.  Every operator
value is a plain (2n, 2n) array on the half-line grid (``l2half``),
except the blocks of O, P and Q at a point: those are rank one, and
``Blocks`` keeps them as their factors, at one point or at each of an
array of points.  beta and alpha share one rule (``ScalarRH``'s): a probe
point takes one Cauchy-weight vector for both beta matvecs and ln alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cauchy import CauchyKit
from .errors import (ExcludedCaseError, GridMismatchError,
                     NearSingularityError, ParameterDomainError)
from .fredholm import (NystromSystem, cauchy_like_matrix, low_rank_system,
                       solve)
from .kernels import k_factors, shift_factors, v0_generators, v_t
from .l2half import (dense, e_vectors, factor_bound, kappa_form, m_vec,
                     rank_one)
from .quadgrid import (HalfLineRule, IntervalRule, gauss_interval,
                       laguerre_halfline, oscillation_nodes, safe_radius)
from .symbols import EPS_K, ProblemData, ScalarRH, boundary_value, nu, tau

__all__ = [
    "DiagnosticRow",
    "summarize",
    "default_probes",
    "ChiSolution",
    "g_chi",
    "BetaSolution",
    "solve_beta",
    "Blocks",
    "OperatorFactory",
    "factorization_residual",
    "PiReport",
    "pi_residual",
]

@dataclass
class DiagnosticRow:
    obj: str
    lam_re: float
    lam_im: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def summarize(rows) -> tuple[list, bool]:
    """Printed lines and the verdict of a list of DiagnosticRow.

    One line per distinct ``obj``, in order of first appearance:
    ``obj: worst <residual> < <tolerance> over <count> row(s): PASS|FAIL``,
    showing the row with the largest residual/tolerance.  The last line is
    the overall verdict, ``ok = all(row.passed)``; no rows pass.
    """
    groups = {}
    for r in rows:
        groups.setdefault(r.obj, []).append(r)
    lines = [] if groups else ["no rows"]
    for obj, group in groups.items():
        # a failing row first, so a NaN residual is never hidden
        worst = max(group, key=lambda r: (not r.passed,
                                          r.residual / r.tolerance))
        lines.append(f"{obj}: worst {worst.residual:.3e} < "
                     f"{worst.tolerance:.3g} over {len(group)} row(s): "
                     f"{'PASS' if worst.passed else 'FAIL'}")
    ok = all(r.passed for r in rows)
    return lines + ["PASS" if ok else "FAIL"], ok


def default_probes(pd: ProblemData):
    """Reproducible probe points: five interior Chebyshev points, two
    exterior anchors at a +- i(b-a)/2, and three annulus points (seed 0)."""
    a, b = pd.a, pd.b
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    interior = mid + half * np.cos((2 * np.arange(1, 6) - 1) * np.pi / 10.0)
    rng = np.random.default_rng(0)
    ang = rng.uniform(0.3, np.pi - 0.3, 3) * rng.choice([-1, 1], 3)
    rad = rng.uniform(0.3, 0.8, 3) * (b - a)
    annulus = mid + rad * np.exp(1j * ang)
    exterior = np.concatenate([[a + 0.5j * (b - a), a - 0.5j * (b - a)],
                               annulus])
    return interior, exterior


def _one_sided(f: Callable, pd: ProblemData, lam0: float, side: int):
    """f(lam0 + i side 0) by ``boundary_value`` at the scale min(b - a, 40/x),
    so that the Neville table resolves e^{+-i x lam}."""
    scale = min(pd.b - pd.a, 40.0 / pd.x)
    return boundary_value(f, lam0, side, scale=scale)[0]


# ---------------------------------------------------------------------------
# chi


class ChiSolution:
    """chi and chi^{-1} as weighted Cauchy sums of the solved densities.

    The densities solve the left and right linear integral equations,
    F_L(lam) + int V_t(lam, mu) F_L(mu) dmu = E_L(lam) and
    F_R(lam) + int V_t(mu, lam) F_R(mu) dmu = E_R(lam); the right one
    takes the transposed kernel, exactly as stated.  No system is
    assembled: ``sys0``, the I + V0 W system on the rule, is formed from
    its rank-2 generators (``kernels.v0_generators``,
    ``fredholm.cauchy_like_matrix``).  On the rule, I + V_t W is sys0
    updated by the c-shift's factors (``kernels.shift_factors``), so both
    solves run on Woodbury views of sys0 and share its one inverse
    (``NystromSystem.updated`` and its ``transposed`` view), which
    ``flow.dt_logdet_check`` applies again.  The solves take the
    condition number and the residual of I + V_t itself.  In the
    excluded case det(I + V_t) = 0, and when I + V0 is exactly singular
    (the ratio det(I+V)/det(I+V0) is undefined), they raise
    NearSingularityError.

    ``rule``, a Gauss-Legendre rule (``CauchyKit`` needs one), defaults to
    the oscillation budget of the phase e^{i x p} (``oscillation_nodes`` at
    frequency 1): the near-cut Cauchy sums interpolate F_R (x) E_L, whose
    off-diagonal parts carry e^{+-i x p}.
    ``grid`` defaults to 48 Laguerre nodes.  ``FL`` and ``FR`` are the
    densities at the rule's nodes, (n, 2 Ns) arrays.
    """

    def __init__(self, pd: ProblemData, rule: IntervalRule | None = None,
                 grid: HalfLineRule | None = None):
        if rule is None:
            rule = gauss_interval(
                oscillation_nodes(pd, frequency=1.0, gauss=True), pd.a, pd.b)
        if grid is None:
            grid = laguerre_halfline(48, pd.c)
        self.pd, self.rule, self.grid = pd, rule, grid
        self.kernel = v_t(pd)
        self.kit = CauchyKit(rule)
        self.sys0 = NystromSystem(support=rule, kernel=None,
                                  matrix=cauchy_like_matrix(
                                      rule.nodes, *v0_generators(pd, rule)))
        left = self.sys0.updated(*shift_factors(pd, rule))
        EL, ER = (v.reshape(rule.n, -1) for v in e_vectors(pd, grid, rule.nodes))
        self.FL = solve(left, EL)
        self.FR = solve(left.transposed(), ER)
        ws2 = grid.doubled.weights
        # (2 Ns, n) value arrays; E_L rows enter with the pairing weights
        self.FR_T = self.FR.T
        self.FL_W = self.FL * ws2
        self.EL_W = EL * ws2
        self.ER_T = ER.T

    def FR_at(self, mu) -> np.ndarray:
        """Nystrom interpolation of F_R at a scalar mu; shape (2 Ns,)."""
        kv = self.kernel.eval(self.rule.nodes.astype(complex), complex(mu))
        _, ER = e_vectors(self.pd, self.grid, complex(mu))
        return ER.ravel() - (self.rule.weights * kv) @ self.FR

    def FL_at(self, lam) -> np.ndarray:
        """Nystrom interpolation of F_L at a scalar lam; shape (2 Ns,)."""
        kv = self.kernel.eval(complex(lam), self.rule.nodes.astype(complex))
        EL, _ = e_vectors(self.pd, self.grid, complex(lam))
        return EL.ravel() - (self.rule.weights * kv) @ self.FL

    def chi(self, lam) -> np.ndarray:
        w = self.kit.weights(lam)
        return np.eye(2 * self.grid.n, dtype=complex) \
            - self.FR_T @ (w[:, None] * self.EL_W)

    def chi_inv(self, lam) -> np.ndarray:
        w = self.kit.weights(lam)
        return np.eye(2 * self.grid.n, dtype=complex) \
            + self.ER_T @ (w[:, None] * self.FL_W)

    def dchi(self, lam) -> np.ndarray:
        """d/dlam of the smoothing part (a plain matrix, no identity)."""
        dw = self.kit.dweights(lam)
        return -self.FR_T @ (dw[:, None] * self.EL_W)

    def loop_trace(self, lam) -> np.ndarray:
        """tr(dchi(lam) S chi^{-1}(lam)), S = diag(s, -s), at many points.

        With chi = I - F_R^T D(w) E_L and chi^{-1} = I + E_R^T D(w) F_L the
        trace is low rank in the Cauchy weights w and w' = dw/dlam:

            tr = -w' . diag(A) - w'^T (B o C^T) w,
            A = E_L S F_R^T,  B = E_L S E_R^T,  C = F_L F_R^T,

        so the n x n forms are built once and every point costs O(n^2).
        """
        s3s = np.concatenate([self.grid.nodes, -self.grid.nodes])
        EL_S = self.EL_W * s3s[None, :]
        diag_A = np.einsum("is,si->i", EL_S, self.FR_T)
        M = (EL_S @ self.ER_T) * (self.FL_W @ self.FR_T).T
        w = self.kit.weights(lam)
        dw = self.kit.dweights(lam)
        return -dw @ diag_A - np.einsum("...i,...i->...", dw @ M, w)

    def verify(self):
        """Residual rows for the construction invariants; the one-sided
        limits go through ``_one_sided``."""
        pd, grid = self.pd, self.grid
        interior, exterior = default_probes(pd)
        rows = []
        for lam in exterior:
            ch = self.chi(lam)
            resid = np.max(np.abs(ch @ self.chi_inv(lam) - np.eye(2 * grid.n)))
            rows.append(DiagnosticRow("chi*chi_inv-id", lam.real, lam.imag,
                                      float(resid), 1e-8))
            rows.append(DiagnosticRow("det(chi)-1", lam.real, lam.imag,
                                      float(abs(np.linalg.det(ch) - 1.0)), 1e-7))
        for lam0 in interior:
            chi_p = _one_sided(self.chi, pd, lam0, +1)
            chi_m = _one_sided(self.chi, pd, lam0, -1)
            G = g_chi(pd, grid, lam0)
            resid = np.max(np.abs(chi_p @ G - chi_m))
            rows.append(DiagnosticRow("chi jump", lam0, 0.0, float(resid), 1e-6))
            # the +- difference is the rank-structured density itself
            FR = self.FR_at(lam0)
            EL, ER = (v.ravel() for v in e_vectors(pd, grid, lam0))
            target = -2j * np.pi * np.outer(FR, EL * grid.doubled.weights)
            resid2 = np.max(np.abs((chi_p - chi_m) - target))
            rows.append(DiagnosticRow("chi_p-chi_m rank form", lam0, 0.0,
                                      float(resid2), 1e-6))
            # reconstruction: chi(mu) E_R(mu) = F_R(mu), +- independent
            resid3 = np.max(np.abs(chi_p @ ER - FR))
            rows.append(DiagnosticRow("F_R reconstruction", lam0, 0.0,
                                      float(resid3), 1e-8))
        return rows


def g_chi(pd: ProblemData, grid: HalfLineRule, lam) -> np.ndarray:
    """The block jump matrix on (a, b), I + 2 i pi E_R (x) W E_L at lam from
    the pairing that defines V_t (``e_vectors``); its determinant is 1."""
    EL, ER = e_vectors(pd, grid, complex(lam))
    return dense(np.full((2, 2), 2j * np.pi), ER, EL * grid.weights)


# ---------------------------------------------------------------------------
# beta_k


class BetaSolution:
    """Solution of the scalar operator problem for one k, on ``srh.rule``.

    ln alpha at the rule's nodes (the +side values) and on ``srh.loop``
    come from ``srh``, which computes them once for k = 1 and 2;
    alpha_{k;+} at the nodes serves both the kernel and the right-hand
    side, and beta's Cauchy sums run on ``srh.kit``.  No n x n kernel is
    assembled: on the rule I + K_{k;t} W is the identity plus the rank-r
    product P Q^T of ``kernels.k_factors`` (r = 46 at c = |t| = 1), whose
    system (``fredholm.low_rank_system``) is inverted by Woodbury with an
    r x r solve.  A singular I + K_{k;t}, or one over ``solve``'s
    condition cap, raises ExcludedCaseError: beta_k does not exist.
    """

    def __init__(self, pd: ProblemData, grid: HalfLineRule, k: int,
                 srh: ScalarRH):
        rule, loop = srh.rule, srh.loop
        self.pd, self.rule, self.grid, self.k, self.srh = pd, rule, grid, k, srh
        e = EPS_K[k]
        nodes = rule.nodes.astype(complex)
        z = loop.nodes
        alpha_plus = np.exp(e * srh.node_exponent)

        # right-hand side: alpha_{k;+}(lam) times the loop integral of
        # sqrt(c) e^{-c s/2 - i eps_k t s mu} / (alpha_k(mu) (mu - lam))
        s = grid.nodes
        A = np.sqrt(pd.c) * np.exp(-0.5 * pd.c * s[None, :]
                                   - 1j * e * pd.t * s[None, :] * z[:, None])
        B = (loop.weights / np.exp(e * srh.loop_exponent)
             / (2j * np.pi))[None, :] / (z[None, :] - nodes[:, None])
        w_rhs = alpha_plus[:, None] * (B @ A)  # (n, Ns)

        try:
            self.rho = solve(low_rank_system(
                rule, *k_factors(pd, k, srh, rule, left=alpha_plus)),
                w_rhs)  # (n, Ns)
        except NearSingularityError as exc:
            raise ExcludedCaseError(
                f"det(I + K_{k};t) vanishes; beta_{k} does not exist") from exc
        self.w_rhs = w_rhs
        self.tau_nodes = tau(k, pd, nodes)
        self.kappa_nodes = kappa_form(k, pd, grid, rule.nodes)
        self._kappa_W = self.kappa_nodes * grid.weights[None, :]

    def beta(self, lam) -> np.ndarray:
        """beta_k(lam) = id - (1/2 i pi) C[tau_k rho_k (x) kappa_k](lam),
        as ``matvec`` of the identity."""
        return self.matvec(np.eye(self.grid.n),
                           self.srh.kit.weights(lam)).T

    def matvec(self, v, w) -> np.ndarray:
        """beta_k(lam) v without forming beta_k(lam): the Cauchy sum of the
        rho_k density, v - rho_k^T ((w tau_k / 2 i pi) o (kappa_k W v)),
        with w = ``srh.kit.weights(lam)`` the rule's Cauchy weights at lam.
        v (..., Ns) and w (..., n) may carry a leading axis of points."""
        return v - ((w * self.tau_nodes) * (v @ self._kappa_W.T)) @ self.rho \
            / (2j * np.pi)

    def det_beta(self, lam) -> complex:
        return np.linalg.det(self.beta(lam))

    def verify(self):
        pd, grid, k = self.pd, self.grid, self.k
        interior, exterior = default_probes(pd)
        rows = []
        for lam in exterior:
            resid = abs(self.det_beta(lam) - self.srh.alpha_k(k, lam))
            rows.append(DiagnosticRow(f"det(beta_{k})-alpha_{k}",
                                      lam.real, lam.imag, float(resid), 1e-7))
        for lam0 in interior:
            bp = _one_sided(self.beta, pd, lam0, +1)
            bm = _one_sided(self.beta, pd, lam0, -1)
            tk = complex(tau(k, pd, lam0))
            jump = np.eye(grid.n) + tk * rank_one(
                m_vec(k, pd, grid, lam0), kappa_form(k, pd, grid, lam0), grid)
            resid = np.max(np.abs(bp @ jump - bm))
            rows.append(DiagnosticRow(f"beta_{k} jump", lam0, 0.0,
                                      float(resid), 1e-6))
            # inverse relation between the two one-sided inverses
            inv_rel = (np.eye(grid.n) - tk / (1.0 + tk) * rank_one(
                m_vec(k, pd, grid, lam0), kappa_form(k, pd, grid, lam0), grid)) \
                @ np.linalg.inv(bp)
            resid2 = np.max(np.abs(np.linalg.inv(bm) - inv_rel))
            rows.append(DiagnosticRow(f"beta_{k} inverse relation", lam0, 0.0,
                                      float(resid2), 1e-6))
        return rows


def _on_rule(srh: ScalarRH, rule: IntervalRule) -> None:
    if not (np.array_equal(srh.rule.nodes, rule.nodes)
            and np.array_equal(srh.rule.weights, rule.weights)):
        raise GridMismatchError("ScalarRH must be built on beta's rule: "
                                "ScalarRH(pd, rule)")


def solve_beta(pd: ProblemData, rule: IntervalRule, grid: HalfLineRule,
               k: int, srh: ScalarRH | None = None) -> BetaSolution:
    """beta_k with srh's kit, loop and ln alpha; ``srh`` defaults to
    ``ScalarRH(pd, rule)``, one on another rule raises GridMismatchError."""
    if srh is None:
        srh = ScalarRH(pd, rule)
    _on_rule(srh, rule)
    return BetaSolution(pd, grid, k, srh)


# ---------------------------------------------------------------------------
# the regular operator O, the triangular factors and the jump factorization


@dataclass(frozen=True)
class Blocks:
    """O, P and Q at one point, or at each of an array of points, kept as
    the rank-one factors they share.

    Every block is l_j (x) r_l, j, l = 1, 2, on the half-line grid:
    O_jl carries alpha^{2 (l - j)}, P = F/(1+F) l_1 (x) r_2 and
    Q = -F/(1+F) l_2 (x) r_1 (``jump_coefficients``).  At one point,
    ``blk[j, l]`` forms O_jl as a dense (Ns, Ns) block.

    ``l`` holds l_k = beta_k m_k in row k - 1, ``r`` holds the one-forms
    r_1 = w o l_2 / q and r_2 = w o l_1 / q (w the grid weights), so that
    r_k . l_k = 1 to rounding.  ``q`` = <l_1, l_2>_W is 1 in the
    continuum; q - 1 is the beta discretization error at the point.
    ``exponent`` is ln alpha(lam) and ``ratio`` is F/(1+F).  For an array
    of N points ``l`` and ``r`` are (N, 2, Ns) and the scalars (N,).
    """

    l: np.ndarray
    r: np.ndarray
    q: complex
    exponent: complex
    ratio: complex

    def jump_coefficients(self, side) -> np.ndarray:
        """The phase-free triangular jump factor less I as a 2x2 array on
        l_j (x) r_l: F/(1+F) on l_1 (x) r_2 for side +1 (P), on l_2 (x) r_1
        for side -1 (-Q).  ``side`` may vary over the points; (..., 2, 2)."""
        side = np.asarray(side)
        coef = np.zeros(np.broadcast(side, self.ratio).shape + (2, 2),
                        dtype=complex)
        coef[..., 0, 1] = np.where(side > 0, self.ratio, 0.0)
        coef[..., 1, 0] = np.where(side < 0, self.ratio, 0.0)
        return coef

    def __getitem__(self, key) -> np.ndarray:
        j, k = key
        return np.exp(2.0 * (k - j) * self.exponent) \
            * np.outer(self.l[j - 1], self.r[k - 1])


class OperatorFactory:
    """Evaluators for O, P, Q and the triangular jump factors.

    Bound to one ProblemData with both beta solutions; everything here is
    independent of x except the explicit e^{+- i x p} phases.

    Every block is the rank-one (beta_j m_j) (x) (kappa_l W beta_l^{-1}),
    and no inverse is needed for the one-forms: the two scalar problems
    are W-adjoint inverses of each other.  kappa_1 = m_2, kappa_2 = m_1
    and <m_2, m_1>_W = 1 give J_2 = W^{-1} J_1^{-T} W for their jumps,
    and W^{-1} beta_1^{-T} W has J_2's jump and normalization, so by
    uniqueness beta_2 = W^{-1} beta_1^{-T} W (det beta_2 = 1/det beta_1 =
    alpha, as it must).  Hence kappa_l W beta_l^{-1} = w o (beta_{3-l}
    m_{3-l}): two beta matvecs per point give every block (``Blocks``).
    On the discretized betas the identity holds to their quadrature error,
    which falls like n^-2 in the beta rule.

    Both betas and ``srh`` must be on one interval rule (GridMismatchError
    otherwise): a point's two matvecs and ln alpha share its Cauchy
    weights.
    """

    def __init__(self, pd: ProblemData, grid: HalfLineRule, srh: ScalarRH,
                 beta1: BetaSolution, beta2: BetaSolution):
        for bs in (beta1, beta2):
            _on_rule(srh, bs.rule)
        self.pd, self.grid, self.srh = pd, grid, srh
        self.betas = {1: beta1, 2: beta2}
        self.kit = srh.kit

    def blocks(self, lam) -> Blocks:
        """The factors of O_jl, P and Q at lam, one point or a 1-D array of
        them (see ``Blocks``): one set of Cauchy weights per point serves
        both beta matvecs and ln alpha = weights . nu, with no (Ns, Ns)
        matrix formed."""
        lam = np.asarray(lam, dtype=complex)
        pd, w = self.pd, self.grid.weights
        cw = self.kit.weights(lam)
        l = np.stack([self.betas[k].matvec(m_vec(k, pd, self.grid, lam), cw)
                      for k in (1, 2)], axis=-2)
        q = (l[..., 0, :] * l[..., 1, :]) @ w
        Fv = pd.F(lam)
        r = l[..., ::-1, :] * (w / q[..., None])[..., None, :]
        return Blocks(l=l, r=r, q=q,
                      exponent=self.srh.exponent(lam, weights=cw),
                      ratio=(Fv / (1.0 + Fv))[()])

    def O(self, lam) -> np.ndarray:
        blk = self.blocks(lam)
        return np.block([[blk[1, 1], blk[1, 2]], [blk[2, 1], blk[2, 2]]])

    def jump_factor(self, lam, side: int,
                    x: float | None = None) -> np.ndarray:
        """The triangular jump factor at lam.

        side +1 gives M_up = [[id, P e^{i x p}], [0, id]], side -1 gives
        M_down^{-1} = [[id, 0], [-Q e^{-i x p}, id]].  x defaults to the
        problem's; x = 0 gives the phase-free factor.  The factor is
        unipotent: its inverse is itself with the off-diagonal block
        negated.  It is ``dense`` of the phased ``jump_coefficients``.
        """
        x = self.pd.x if x is None else x
        lam = complex(lam)
        blk = self.blocks(lam)
        return dense(np.exp(1j * side * x * self.pd.p(lam))
                     * blk.jump_coefficients(side), blk.l, blk.r)

    def near_probes(self):
        """Off-axis probes at heights up to 0.875 ``safe_radius``, kept to
        the half-line growth bound |Im(t lam)| < c/4."""
        pd = self.pd
        mid = 0.5 * (pd.a + pd.b)
        h = 0.875 * safe_radius(pd)
        cands = [mid + 1j * h, pd.b + 0.25 * (pd.b - pd.a) + 0.5j * h,
                 pd.a - 0.2 * (pd.b - pd.a) - 0.6j * h]
        return [z for z in cands if abs((pd.t * z).imag) < 0.9 * pd.c / 4.0]

    def verify(self):
        """O's continuity across the interval, and the blocks' duality
        r_l = kappa_l W beta_l^{-1} (beta_2 = W^{-1} beta_1^{-T} W)."""
        pd, grid = self.pd, self.grid
        interior, _ = default_probes(pd)
        exterior = self.near_probes()
        rows = []
        mid = interior[2]
        # O is continuous across the interval: its two one-sided limits agree
        o_p = _one_sided(self.O, pd, mid, +1)
        o_m = _one_sided(self.O, pd, mid, -1)
        rows.append(DiagnosticRow("O continuity", mid, 0.0,
                                  float(np.max(np.abs(o_p - o_m))), 1e-6))
        for lam in exterior[:3]:
            blk = self.blocks(lam)
            gap = max(np.max(np.abs(blk.r[l - 1] - np.linalg.solve(
                self.betas[l].beta(lam).T,
                kappa_form(l, pd, grid, lam) * grid.weights)))
                for l in (1, 2))
            rows.append(DiagnosticRow("beta duality", lam.real, lam.imag,
                                      float(gap), 1e-6))
        return rows


def factorization_residual(factory: OperatorFactory, lam0: float) -> float:
    """Residual of the jump factorization at an interior point.

    G_chi(lam0) against
    diag(beta_{1;+}, beta_{2;+})^{-1} M_up(+) M_down(-) diag(beta_{1;-}, beta_{2;-}),
    the product taken at lam0 +- i delta and extrapolated by ``_one_sided``.
    Each point takes beta_k at lam0 + i delta and lam0 - i delta and one
    inversion of each beta_{k;+}; M_down is the inverse of the side -1
    factor.
    """
    n = factory.grid.n

    def diag(b1, b2):
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, :n], out[n:, n:] = b1, b2
        return out

    def product(lam):
        up = [np.linalg.inv(factory.betas[k].beta(lam)) for k in (1, 2)]
        dn = [factory.betas[k].beta(lam.conjugate()) for k in (1, 2)]
        upper = factory.jump_factor(lam, +1)
        lower = factory.jump_factor(lam.conjugate(), -1)
        lower[n:, :n] *= -1.0
        return (diag(*up) @ upper) @ (lower @ diag(*dn))

    rhs = _one_sided(product, factory.pd, lam0, +1)
    G = g_chi(factory.pd, factory.grid, lam0)
    return float(np.max(np.abs(G - rhs)))


# ---------------------------------------------------------------------------
# the small-norm probe


@dataclass
class PiReport:
    """Weighted jump-to-identity residuals along the deformed contours."""

    xs: list
    lens_rows: list = field(default_factory=list)   # DiagnosticRow per probe
    disk_rows: list = field(default_factory=list)
    disk_max: dict = field(default_factory=dict)    # (endpoint, x) -> max
    lens_max: dict = field(default_factory=dict)    # x -> max
    eps: float = 0.0
    fitted_exponent: float = 0.0
    #: worst |q - 1| over the probe points (``Blocks.q``): the beta error
    beta_defect: float = 0.0

    def rows(self):
        return self.lens_rows + self.disk_rows


def _disk_probe_angles() -> np.ndarray:
    """Angles of the probes on a disk boundary around an endpoint.

    Twelve equispaced angles, less those within 0.25 of the real axis,
    where the disk meets the interval and the cut, and of the lens rays
    at +- pi/2.
    """
    th = np.linspace(-np.pi, np.pi, 12, endpoint=False)
    far = np.minimum.reduce([np.abs(th), np.abs(np.abs(th) - np.pi / 2),
                             np.abs(np.abs(th) - np.pi)])
    return th[far > 0.25]


def _disk_eps(pd: ProblemData, r: float) -> float:
    """eps = 2 max |Re nu| over the boundaries of the endpoint disks.

    32 equispaced points on each circle of radius r around a and b;
    x^{eps - 1} is the small-norm rate of the disk jumps.
    """
    ring = r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False))
    bd = np.concatenate([pd.a + ring, pd.b + ring])
    return float(2.0 * np.max(np.abs(nu(pd, bd).real)))


def pi_residual(pd: ProblemData, factory: OperatorFactory,
                parametrix_builder: Callable, xs,
                disk_radius: float | None = None,
                lens_height: float | None = None) -> PiReport:
    """Probe the deformed-problem jumps for closeness to the identity.

    On the lens pieces away from the endpoints the jump is the triangular
    factor with its e^{+- i x p} phase, which decays in x; on the disk
    boundaries it is the local parametrix itself, whose distance to the
    identity follows the x^{eps - 1} pattern with
    eps = 2 sup_{delta D} |Re nu|.

    The factory blocks do not depend on x, so the lens points take one
    ``factory.blocks`` call and each disk's points another, shared by
    every x: a lens row is
    |e^{+- i x p}| times the bound of the phase-free factor, whose kernel
    part the phase only scales, and each x's parametrix receives the
    blocks through its ``blocks`` argument.  Every bound comes from the
    rank-one factors (``l2half.factor_bound``) of the phase-free factor
    (``Blocks.jump_coefficients``) or of the parametrix
    (``Parametrix.decay_bound``), with no (2n, 2n) array formed.
    ``beta_defect`` is the worst |q - 1| of the blocks over all probe
    points.  ``disk_radius`` defaults to ``safe_radius(pd)``, the
    parametrices' own default, and ``lens_height`` to 0.75
    ``safe_radius(pd)``, inside the growth bound |Im(t lam)| < c/4 (0.15
    at c = |t| = 1).
    """
    a, b = pd.a, pd.b
    if disk_radius is None:
        disk_radius = safe_radius(pd)
    if lens_height is None:
        lens_height = 0.75 * safe_radius(pd)
    for name, size in (("disk_radius", disk_radius),
                       ("lens_height", lens_height)):
        if size <= 0:
            raise ParameterDomainError(f"need {name} > 0, got {size}")
    report = PiReport(xs=list(xs), eps=_disk_eps(pd, disk_radius))
    xs = report.xs

    def blocks(lam):
        blk = factory.blocks(lam)
        report.beta_defect = max(report.beta_defect,
                                 float(np.max(np.abs(blk.q - 1.0))))
        return blk

    # the lens probes above and below the interval, in one blocks call
    span = np.linspace(a + 1.5 * disk_radius, b - 1.5 * disk_radius, 7)
    above, below = span + 1j * lens_height, span - 1j * lens_height
    sides = np.repeat([1, -1], span.size)
    blk = blocks(np.concatenate([above, below]))
    up, dn = np.split(factor_bound(blk.jump_coefficients(sides), blk.l, blk.r,
                                   factory.grid), 2)
    lens = [[] for _ in xs]
    report.lens_max = {x: 0.0 for x in xs}
    for rows, x in zip(lens, xs):
        up_x = np.abs(np.exp(1j * x * pd.p(above))) * up
        dn_x = np.abs(np.exp(-1j * x * pd.p(below))) * dn
        for lam, u, d in zip(span, up_x, dn_x):
            rows.append(DiagnosticRow(
                f"lens up x={x}", lam, lens_height, float(u), 1.0))
            rows.append(DiagnosticRow(
                f"lens down x={x}", lam, -lens_height, float(d), 1.0))
        report.lens_max[x] = max(report.lens_max[x], float(up_x.max()),
                                 float(dn_x.max()))

    ends = {"a": a, "b": b}
    pxs = [{ep: parametrix_builder(ep, x) for ep in ends} for x in xs]
    disk = [{ep: [] for ep in ends} for _ in xs]
    report.disk_max = {(ep, x): 0.0 for x in xs for ep in ends}
    for endpoint, center in ends.items():
        lam = center + disk_radius * np.exp(1j * _disk_probe_angles())
        blk = blocks(lam)
        for px, rows, x in zip(pxs, disk, xs):
            resid = px[endpoint].decay_bound(lam, blocks=blk)
            rows[endpoint] += [
                DiagnosticRow(f"disk {endpoint} x={x}", z.real, z.imag,
                              float(r), 1.0) for z, r in zip(lam, resid)]
            report.disk_max[endpoint, x] = max(report.disk_max[endpoint, x],
                                               float(resid.max()))

    report.lens_rows = [r for rows in lens for r in rows]
    report.disk_rows = [r for rows in disk for ep in ends for r in rows[ep]]

    if len(xs) >= 2:
        lx = np.log(np.asarray(xs, dtype=float))
        ly = np.log([max(report.disk_max[("a", x)], report.disk_max[("b", x)])
                     for x in xs])
        report.fitted_exponent = float(np.polyfit(lx, ly, 1)[0])
    return report
