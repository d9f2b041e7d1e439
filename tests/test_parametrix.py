import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import brentq

import cshiftlab as cl
from cshiftlab import parametrix
from cshiftlab.errors import BranchError, ParameterDomainError
from cshiftlab.chf import _gamma
from cshiftlab.l2half import factor_bound, smoothing_bound
from cshiftlab.parametrix import (Parametrix, _psi_cont, alpha0,
                                  build_parametrix, l_sector, zeta)
from cshiftlab.rhp import OperatorFactory, solve_beta


@pytest.fixture(scope="module")
def factory_x100(pd_default, grid48, srh_default, betas_default):
    return OperatorFactory(pd_default, grid48, srh_default,
                           betas_default[1], betas_default[2])


@pytest.fixture(scope="module")
def pa(pd_default, factory_x100):
    return build_parametrix("a", pd_default, factory_x100, x=100.0)


@pytest.fixture(scope="module")
def pb(pd_default, factory_x100):
    return build_parametrix("b", pd_default, factory_x100, x=100.0)


class TestZeta:
    def test_vanishes_at_endpoint(self, pd_default):
        assert zeta("a", pd_default, pd_default.a) == 0.0

    def test_linear_phase(self, pd_default):
        assert zeta("a", pd_default, -1.0 + 0.01, x=100.0) \
            == pytest.approx(1.0, abs=1e-12)

    def test_branch_straddle(self, pd_default):
        up = zeta("a", pd_default, -1.01 + 1e-6j, x=100.0)
        dn = zeta("a", pd_default, -1.01 - 1e-6j, x=100.0)
        assert np.angle(up) == pytest.approx(np.pi, abs=1e-3)
        assert np.angle(dn) == pytest.approx(-np.pi, abs=1e-3)

    def test_cut_raises(self, pd_default):
        with pytest.raises(BranchError):
            zeta("a", pd_default, -1.1)

    def test_sector_selector(self):
        assert l_sector(0.0) == 1
        assert l_sector(0.5 * np.pi) == 1      # boundary folded inward
        assert l_sector(-0.5 * np.pi) == 1
        assert l_sector(0.5 * np.pi + 1e-12) == 2
        assert l_sector(-0.5 * np.pi - 1e-12) == 3
        assert l_sector(3.0) == 2
        assert l_sector(-3.0) == 3


class TestAlpha0:
    def test_continuous_across_interval(self, pd_default, srh_default):
        lam0 = -0.85  # inside (a, b), near the left endpoint
        up = alpha0(pd_default, srh_default, lam0 + 1e-8j)
        dn = alpha0(pd_default, srh_default, lam0 - 1e-8j)
        assert up == pytest.approx(dn, abs=1e-6)

    def test_jumps_across_outward_ray(self, pd_default, srh_default):
        lam0 = -1.1
        up = alpha0(pd_default, srh_default, lam0 + 1e-8j)
        dn = alpha0(pd_default, srh_default, lam0 - 1e-8j)
        nuv = complex(cl.nu(pd_default, lam0))
        assert dn / up == pytest.approx(np.exp(2j * np.pi * nuv), abs=1e-6)


class TestParametrixInvariants:
    def test_jump_residuals(self, pa, pb):
        for px in (pa, pb):
            for _, _, resid in px.jump_residuals():
                assert resid < 1e-5

    def test_cut_continuity(self, pa, pb):
        assert pa.cut_continuity() < 1e-5
        assert pb.cut_continuity() < 1e-5

    def test_boundary_decay_ratio(self, pd_default, factory_x100, pa):
        p200 = build_parametrix("a", pd_default, factory_x100, x=200.0)
        ratio = p200.boundary_residual() / pa.boundary_residual()
        # eps = 0 for the purely oscillatory exponent of the real constant
        # symbol, so the residual halves from x=100 to x=200
        assert 0.25 < ratio < 1.0

    def test_beta_evaluated_once_per_point(self, pa, pb, monkeypatch):
        # one matvec with each beta_k per call, in every sector, and no
        # beta matrix or inverse: the O blocks and P/Q share the two
        # vectors; the coefficient A^2 reuses the blocks' exponent ln alpha
        calls = {"beta": 0, "matvec": 0, "inv": 0, "exponent": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cl.BetaSolution, "beta",
                            spy("beta", cl.BetaSolution.beta))
        monkeypatch.setattr(cl.BetaSolution, "matvec",
                            spy("matvec", cl.BetaSolution.matvec))
        monkeypatch.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
        monkeypatch.setattr(cl.ScalarRH, "exponent",
                            spy("exponent", cl.ScalarRH.exponent))
        for px in (pa, pb):
            lam = px.center + 0.5 * px.radius * np.exp(0.7j)
            for sector in (1, 2, 3):
                calls.update(beta=0, matvec=0, inv=0, exponent=0)
                px(lam, sector=sector)
                assert calls == {"beta": 0, "matvec": 2, "inv": 0,
                                 "exponent": 1}

    @pytest.mark.parametrize("sector", [1, 2, 3])
    def test_factored_assembly_matches_the_dense_one(self, pa, pb, sector):
        # the coefficient array on l_j (x) r_l against dense block
        # products; each sector at points in all three sectors
        for px in (pa, pb):
            for th in (0.3, 2.2, -2.2):
                lam = px.center + 0.5 * px.radius * np.exp(1j * th)
                want = _dense_parametrix(px, lam, sector)
                got = px(lam, sector=sector)
                assert np.max(np.abs(got - want)) \
                    < 1e-13 * np.max(np.abs(want))

    def test_one_tricomi_evaluation_per_column(self, pa, pb, monkeypatch):
        # Psi(1 + m) and Psi(1 - m) are evaluated; Psi(m) and Psi(-m)
        # follow from them by the index relation
        params = []
        psi = parametrix.tricomi_psi

        def spy(a, z, sheet=0):
            params.append(a)
            return psi(a, z, sheet)

        monkeypatch.setattr(parametrix, "tricomi_psi", spy)
        for px in (pa, pb):
            s = 1 if px.endpoint == "a" else -1
            for th in (0.3, 2.2, -2.2):
                lam = px.center + 0.5 * px.radius * np.exp(1j * th)
                m = -s * complex(cl.nu(px.pd, lam))
                for sector in (1, 2, 3):
                    params.clear()
                    px(lam, sector=sector)
                    assert params == [1.0 + m, 1.0 - m]

    @pytest.mark.parametrize("sector", [1, 2, 3])
    def test_factor_bound_matches_the_dense_one(self, pa, pb, sector):
        # each block of value - I is rank one, so the bound from the
        # coefficients is the dense smoothing_bound of the value
        for px in (pa, pb):
            grid = px.factory.grid
            for th in (0.3, 2.2, -2.2):
                lam = px.center + 0.5 * px.radius * np.exp(1j * th)
                coef, blk = px.coefficients(lam, sector)
                want = smoothing_bound(px(lam, sector=sector), grid)
                assert factor_bound(coef, blk.l, blk.r, grid) \
                    == pytest.approx(want, rel=1e-13)
                if sector == l_sector(float(np.angle(
                        zeta(px.endpoint, px.pd, lam, px.x)))):
                    assert px.decay_bound(lam) \
                        == pytest.approx(want, rel=1e-13)

    def test_boundary_residual_forms_no_dense_operator(self, pa, pb,
                                                       monkeypatch):
        def refuse(name):
            def wrapped(*args, **kwargs):
                raise AssertionError(f"boundary_residual called {name}")
            return wrapped

        want = [px.boundary_residual() for px in (pa, pb)]
        for mod in (cl.l2half, cl.rhp, cl.parametrix):
            monkeypatch.setattr(mod, "smoothing_bound",
                                refuse("smoothing_bound"), raising=False)
        monkeypatch.setattr(np, "outer", refuse("np.outer"))
        assert [px.boundary_residual() for px in (pa, pb)] == want

    def test_identity_for_zero_symbol(self, pd_zero, grid48):
        srh = cl.ScalarRH(pd_zero)
        rule = cl.gauss_interval(64, -1, 1)
        betas = {k: solve_beta(pd_zero, rule, grid48, k, srh) for k in (1, 2)}
        fac = OperatorFactory(pd_zero, grid48, srh, betas[1], betas[2])
        px = build_parametrix("a", pd_zero, fac, x=100.0)
        rng = np.random.default_rng(9)
        f = rng.normal(size=2 * grid48.n) + 1j * rng.normal(size=2 * grid48.n)
        lam = px.center + 0.1 * px.radius * np.exp(0.4j)
        assert np.max(np.abs(px(lam) @ f - f)) < 1e-8


def _dense_parametrix(px, lam, sector):
    """The parametrix assembled from dense O blocks: the 2x2 block array
    of confluent entries times the zeta diagonal, right-multiplied by the
    dense L = J^{-s} in sectors 2 and 3, plus the complement I - O_kk."""
    pd, fac = px.pd, px.factory
    s = 1 if px.endpoint == "a" else -1
    m = -s * complex(cl.nu(pd, lam))
    z = zeta(px.endpoint, pd, lam, px.x)
    blk = fac.blocks(lam)
    O11, O12, O21, O22 = blk[1, 1], blk[1, 2], blk[2, 1], blk[2, 2]
    r1, r2 = px._ROTATIONS
    logz = np.log(z)
    S = np.exp(1j * px.x * pd.p(px.center)) * np.exp(2.0 * m * logz) \
        / px._a_squared(lam, m, blk.exponent)
    spm = np.sin(np.pi * m)
    b12 = 1j * spm * _gamma(1.0 - m) ** 2 * S / np.pi
    b21 = 1j * np.pi / (spm * _gamma(-m) ** 2 * S)
    # four direct evaluations: a cross-check of the parametrix's two
    psi11, psi12 = _psi_cont(m, z, r1).value, _psi_cont(1.0 - m, z, r2).value
    psi21, psi22 = _psi_cont(1.0 + m, z, r1).value, _psi_cont(-m, z, r2).value
    psi_mat = np.block(
        [[psi11 * O11, 1j * b12 * psi12 * O12],
         [-1j * b21 * psi21 * O21, psi22 * O22]])
    zf = np.exp(-1j * np.pi * m / 2.0)
    n = fac.grid.n
    zdiag = np.concatenate([np.full(n, np.exp(m * logz) * zf),
                            np.full(n, np.exp(-m * logz) * zf)])
    core = psi_mat * zdiag[None, :]
    if sector != 1:
        ray = 1 if sector == 2 else -1
        J = fac.jump_factor(lam, ray, px.x)
        if ray > 0:
            core[:, n:] += core[:, :n] @ (-s * J[:n, n:])
        else:
            core[:, :n] += core[:, n:] @ (-s * J[n:, :n])
    return core + block_diag(np.eye(n) - O11, np.eye(n) - O22)


class _Psi22RotatedDown(Parametrix):
    """(2,2) confluent argument rotated by e^{-i pi/2} instead of e^{+i pi/2}."""

    def _confluent(self, m, z):
        psi = super()._confluent(m, z)
        psi[1, 1] = _psi_cont(-m, z, -1).value
        return psi


class _Alpha0Coefficients(Parametrix):
    """Coefficients built on the continued alpha0 at both endpoints."""

    def _a_squared(self, lam, m, e):
        return alpha0(self.pd, self.factory.srh, lam) ** 2 \
            * np.exp(2j * np.pi * m)


class _ExtraRightPower(Parametrix):
    """An extra trailing zeta^{m sigma_3} on the part beyond the complement
    I - O_11 (+) I - O_22: a column scaling of the coefficients plus I."""

    def coefficients(self, lam, sector=None, blocks=None):
        coef, blk = super().coefficients(lam, sector, blocks)
        s = 1 if self.endpoint == "a" else -1
        zm = np.exp(-s * complex(cl.nu(self.pd, lam))
                    * np.log(zeta(self.endpoint, self.pd, lam, self.x)))
        eye = np.eye(2)
        return (coef + eye) * np.array([zm, 1.0 / zm]) - eye, blk


class TestConventionPinned:
    """Alternative readings of the second-endpoint display fail at least
    one requirement; the shipped convention is the numerically selected one.
    Each reading is planted through a test-local subclass of Parametrix."""

    def test_wrong_psi22_rotation_breaks_boundary_decay(self, pb):
        alt = _Psi22RotatedDown(**vars(pb))
        assert alt.boundary_residual() > 10.0 * pb.boundary_residual()

    def test_extra_right_power_breaks_jumps(self, pb):
        alt = _ExtraRightPower(**vars(pb))
        worst_alt = max(r for _, _, r in alt.jump_residuals())
        worst = max(r for _, _, r in pb.jump_residuals())
        assert worst_alt > 100.0 * worst
        assert alt.boundary_residual() > 10.0 * pb.boundary_residual()

    def test_alpha0_coefficients_break_cut_continuity(self, pb):
        alt = _Alpha0Coefficients(**vars(pb))
        assert alt.cut_continuity() > 100.0 * pb.cut_continuity()


class TestNonSymmetricProblem:
    def test_curved_phase_and_varying_symbol(self):
        pd = cl.make_problem(a=0.0, b=1.5, c=1.3, t=0.9, x=80.0,
                             F=cl.poly_symbol([0.15, 0.1, 0.05]),
                             p=cl.poly_symbol([0.0, 1.0, 0.12]))
        grid = cl.laguerre_halfline(48, pd.c)
        srh = cl.ScalarRH(pd)
        rule = cl.gauss_interval(192, pd.a, pd.b)
        betas = {k: solve_beta(pd, rule, grid, k, srh) for k in (1, 2)}
        fac = OperatorFactory(pd, grid, srh, betas[1], betas[2])
        for ep in ("a", "b"):
            px = build_parametrix(ep, pd, fac, x=80.0)
            assert max(r for _, _, r in px.jump_residuals()) < 1e-5
            assert px.cut_continuity() < 1e-5


class TestRayAngle:
    @pytest.mark.parametrize("p", [cl.identity_phase(),
                                   cl.poly_phase([0.0, 1.0, 0.3])])
    def test_matches_brentq(self, p):
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=100.0,
                             F=cl.constant_symbol(0.2), p=p)
        for ep in ("a", "b"):
            px = build_parametrix(ep, pd, None)
            for ray in (+1, -1):
                for frac in (0.35, 0.6, 0.85):
                    def gap(th):
                        lam = px.center + frac * px.radius * np.exp(1j * th)
                        return float(np.angle(zeta(ep, pd, lam, px.x))
                                     - ray * np.pi / 2.0)

                    ref = brentq(gap, ray * np.pi / 2.0 - 0.6,
                                 ray * np.pi / 2.0 + 0.6, xtol=1e-13)
                    assert abs(px._ray_angle(ray, frac) - ref) < 1e-13

    def test_unbracketed_ray_raises(self, pd_default):
        # a phase turned by 0.7 rad (make_problem refuses a phase that is
        # not real on [a, b]) keeps arg(p - p(a)) off +-pi/2 in the window
        turned = cl.HolomorphicHandle(eval=lambda z: np.exp(0.7j) * z,
                                      deriv=lambda z: np.exp(0.7j) + 0 * z)
        pd = dataclasses.replace(pd_default, p=turned)
        px = build_parametrix("a", pd, None, x=100.0)
        for ray in (+1, -1):
            with pytest.raises(ParameterDomainError):
                px._ray_angle(ray, 0.6)


class TestBuildErrors:
    def test_bad_endpoint(self, pd_default, factory_x100):
        with pytest.raises(ParameterDomainError):
            build_parametrix("c", pd_default, factory_x100)

    @pytest.mark.parametrize("radius", [0.0, -0.2])
    def test_nonpositive_radius_rejected(self, pd_default, factory_x100,
                                         radius):
        # refused at build time, not later as an unbracketed lens ray
        with pytest.raises(ParameterDomainError, match="radius"):
            build_parametrix("a", pd_default, factory_x100, radius=radius)
