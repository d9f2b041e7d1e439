"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to stream them); the
assertions carry the same tolerances, so the pytest verdict is the
acceptance verdict.
"""

import numpy as np
import pytest

import cshiftlab as cl
from cshiftlab.chf import _asymptotic, _laplace, tricomi_psi
from cshiftlab.flow import SweepConfig, dt_logdet_check, theorem1_sweep
from cshiftlab.kernels import k_kt, u_kt
from cshiftlab.parametrix import build_parametrix
from cshiftlab.quadgrid import graded_interval
from cshiftlab.rhp import ChiSolution, OperatorFactory, g_chi, solve_beta

RESULTS = []


def report(criterion, detail, value, tol, passed):
    line = (f"ACCEPTANCE {criterion}: {detail}: {value:.3e} "
            f"(tol {tol:.0e}) {'PASS' if passed else 'FAIL'}")
    RESULTS.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def machinery(pd_default, grid48, srh_default, betas_default):
    factory = OperatorFactory(pd_default, grid48, srh_default,
                              betas_default[1], betas_default[2])
    return pd_default, grid48, srh_default, factory


class TestCriterion1Theorem:
    def test_ratio_converges_to_loop_product(self):
        cfg = SweepConfig(x_list=(50.0, 100.0, 200.0))
        rep = theorem1_sweep(cfg)
        errs = [row.rel_error for row in rep.rows]
        decreasing = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        report(1, "relative error at x=200", errs[-1], 5e-2,
               errs[-1] < 0.05 and decreasing)


class TestCriterion2DetIdentity:
    @pytest.mark.parametrize("gam,t", [(0.2, 1.0), (0.5, 0.7),
                                       (0.1, 0.3 + 0.05j)])
    def test_interval_vs_loop(self, gam, t):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=t, x=10.0,
                             F=cl.constant_symbol(gam), p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        loop = cl.stadium_contour(-1, 1, 0.25)
        grule = graded_interval(pd.a, pd.b)
        worst = 0.0
        for k in (1, 2):
            dU = cl.determinant(cl.assemble(u_kt(pd, k, srh), loop))
            dK = cl.determinant(cl.assemble(k_kt(pd, k, srh), grule))
            worst = max(worst, abs(dU - dK) / abs(dU))
        report(2, f"interval-loop det gap (gamma={gam}, t={t})", worst, 1e-7,
               worst < 1e-7)


class TestCriterion3OperatorSolvability:
    def test_chi_invariants(self, machinery):
        pd, grid, _, _ = machinery
        chi = ChiSolution(pd, grid=grid)
        rows = chi.verify()
        det_gap = max(r.residual for r in rows if r.obj == "det(chi)-1")
        jump = max(r.residual for r in rows if r.obj == "chi jump")
        report(3, "det(chi) - 1 at 5 probes", det_gap, 1e-7, det_gap < 1e-7)
        report(3, "chi jump residual", jump, 1e-6, jump < 1e-6)

    def test_beta_jumps(self, betas_default):
        worst = 0.0
        for k in (1, 2):
            worst = max(worst, max(
                r.residual for r in betas_default[k].verify()
                if r.obj.startswith(f"beta_{k} jump")))
        report(3, "beta jump residual", worst, 1e-6, worst < 1e-6)

    def test_g_chi_determinant(self, machinery):
        pd, grid, _, _ = machinery
        worst = max(abs(np.linalg.det(g_chi(pd, grid, lam)) - 1.0)
                    for lam in (-0.3, 0.0, 0.52, 0.9))
        report(3, "det(G) - 1 on the interval", worst, 1e-9, worst < 1e-9)


class TestCriterion4TDerivative:
    def test_fd_matches_loop_trace(self):
        cfg = SweepConfig(x_list=(100.0,))
        rep = dt_logdet_check(cfg, 0.5, x=100.0)
        report(4, "finite difference vs loop trace at t0=0.5, x=100",
               rep.fd_vs_contour, 1e-6, rep.fd_vs_contour < 1e-6)


class TestCriterion5Chf:
    def test_monodromy_residuals(self):
        from scipy.special import gamma as gfun
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(a) > 1:
                a *= rng.uniform(0.1, 1.0) / abs(a)
            z = rng.uniform(1.0, 10.0) * np.exp(
                1j * rng.uniform(-np.pi, np.pi))
            base = tricomi_psi(a, z).value
            up = tricomi_psi(a, z, sheet=+1).value
            dn = tricomi_psi(a, z, sheet=-1).value
            cross_up = tricomi_psi(1.0 - a, -z,
                                   sheet=(1 if np.angle(z) > 0 else 0)).value
            cross_dn = tricomi_psi(1.0 - a, -z,
                                   sheet=(-1 if np.angle(z) < 0 else 0)).value
            g2 = gfun(a) ** 2
            r1 = abs(up - (np.exp(-2j * np.pi * a) * base
                           + 2j * np.pi * np.exp(-1j * np.pi * a + z) / g2
                           * cross_up))
            r2 = abs(dn - (np.exp(2j * np.pi * a) * base
                           - 2j * np.pi * np.exp(1j * np.pi * a + z) / g2
                           * cross_dn))
            scale = max(abs(up), abs(dn), 1.0)
            worst = max(worst, r1 / scale, r2 / scale)
        report(5, "monodromy residuals over 20 random (a, z)", worst, 1e-9,
               worst < 1e-9)

    def test_ode_residual(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(30):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = rng.uniform(0.5, 50.0) * np.exp(
                1j * rng.uniform(-np.pi, np.pi))
            worst = max(worst, tricomi_psi(a, z).ode_residual())
        report(5, "ODE residual", worst, 1e-6, worst < 1e-6)

    def test_overlap_agreement(self):
        nu = 1j * np.log(1.2) / (2 * np.pi)
        worst = 0.0
        for a in (nu, -nu, 1 + nu, 1 - nu, 0.12 + 0.05j):
            for r in (20.0, 20.5, 22.0, 25.0):
                for th in (-np.pi / 2, np.pi / 2, 1.2):
                    z = r * np.exp(1j * th)
                    vi = _laplace(complex(a), z)[0][0]
                    va = _asymptotic(complex(a), z, th)[0]
                    worst = max(worst, abs(vi - va) / abs(vi))
        report(5, "Laplace/asymptotic overlap agreement", worst, 1e-7,
               worst < 1e-7)

    def test_exponential_integral_value(self):
        from scipy.special import exp1
        gap = abs(tricomi_psi(1.0, 1.0).value - np.e * exp1(1.0))
        report(5, "Psi(1,1;1) vs exponential-integral oracle", gap, 1e-10,
               gap < 1e-10)


class TestCriterion6Parametrix:
    def test_jump_residuals_at_x100(self, machinery):
        pd, _, _, factory = machinery
        worst = 0.0
        for ep in ("a", "b"):
            px = build_parametrix(ep, pd, factory, x=100.0)
            worst = max(worst, max(r for _, _, r in px.jump_residuals()))
        report(6, "parametrix jump residuals at x=100", worst, 1e-5,
               worst < 1e-5)

    def test_boundary_ratio_follows_power_law(self, machinery):
        pd, _, _, factory = machinery
        ang = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        eps = float(2 * np.max(np.abs(
            cl.nu(pd, np.concatenate([pd.a + 0.2 * np.exp(1j * ang),
                                      pd.b + 0.2 * np.exp(1j * ang)])).real)))
        target = 2.0 ** (eps - 1.0)
        worst_gap = 0.0
        for ep in ("a", "b"):
            r100 = build_parametrix(ep, pd, factory, x=100.0)
            r200 = build_parametrix(ep, pd, factory, x=200.0)
            ratio = r200.boundary_residual() / r100.boundary_residual()
            ok = 0.5 * target < ratio < 2.0 * target
            worst_gap = max(worst_gap, abs(ratio / target - 1.0))
            assert ok, f"boundary ratio {ratio} outside factor 2 of {target}"
        report(6, "boundary-residual ratio vs 2^(eps-1)", worst_gap, 1.0,
               worst_gap < 1.0)


class TestCriterion7Engine:
    def test_rank_one_determinant(self):
        rule = cl.gauss_interval(24, 0.0, 1.0)
        e = lambda l: np.exp(l)
        f = lambda m: np.cos(3.0 * m)
        sys = cl.assemble(lambda l, m: e(l) * f(m) + 0.0 * (l + m), rule)
        exact = 1.0 + (np.e * (np.cos(3) + 3 * np.sin(3)) - 1.0) / 10.0
        gap = abs(cl.determinant(sys) - exact)
        report(7, "rank-one determinant closed form", gap, 1e-12, gap < 1e-12)

    def test_refinement_halves_error_estimates(self, pd_default,
                                               refinement_error):
        # an under-resolved oscillatory kernel: doubling the rule more
        # than halves the refinement-based error estimate
        pd = pd_default.with_(x=40.0)
        ests = []
        for n in (24, 48):
            sys = cl.assemble(cl.v0(pd), cl.gauss_interval(n, -1, 1))
            ests.append(refinement_error(sys))
        ok = ests[1] < 0.5 * ests[0]
        report(7, "refinement halves the error estimate",
               ests[1] / ests[0], 5e-1, ok)

    def test_contour_radius_invariance(self, pd_default, srh_default):
        worst = 0.0
        for k in (1, 2):
            dets = [cl.determinant(cl.assemble(u_kt(pd_default, k, srh_default),
                                               cl.stadium_contour(-1, 1, r)))
                    for r in (0.25, 0.125)]
            worst = max(worst, abs(dets[0] - dets[1]))
        report(7, "contour-radius invariance of loop determinants", worst,
               1e-8, worst < 1e-8)


def test_zzz_summary():
    print("\n==== acceptance summary ====")
    for line in RESULTS:
        print(line)
    assert all("PASS" in line for line in RESULTS)
