import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cshiftlab as cl
from cshiftlab.errors import (BoundaryLimitError, ExcludedCaseError,
                              GridMismatchError, NearSingularityError,
                              ParameterDomainError)
from cshiftlab.l2half import factor_bound, kappa_form, m_vec, smoothing_bound
from cshiftlab.rhp import (DiagnosticRow, OperatorFactory, _disk_probe_angles,
                           default_probes, factorization_residual, g_chi,
                           pi_residual, solve_beta, solve_betas, summarize,
                           write_diagnostics)


class TestChi:
    def test_construction_invariants(self, chi_default):
        rows = chi_default.verify()
        failed = [r for r in rows if not r.passed]
        assert failed == []

    def test_verify_evaluates_chi_once_per_point(self, chi_default,
                                                 monkeypatch):
        # five exterior probes, and four deltas on each side of five
        # interior ones: the F_R reconstruction reuses chi_+
        calls = []
        chi = cl.ChiSolution.chi

        def spy(self, lam):
            calls.append(complex(lam))
            return chi(self, lam)

        monkeypatch.setattr(cl.ChiSolution, "chi", spy)
        chi_default.verify()
        assert len(calls) == len(set(calls)) == 45

    def test_zero_symbol_is_identity(self, pd_zero, grid48):
        chi = cl.ChiSolution(pd_zero, grid=grid48)
        ch = chi.chi(0.3 + 0.6j)
        assert np.max(np.abs(ch - np.eye(2 * grid48.n))) == 0.0

    def test_transposed_kernel_in_right_equation(self, grid48):
        # the right density solves the equation with V_t(mu, lam); using
        # the unswapped kernel must visibly change the solution (the
        # kernel is only symmetric when the symbol is constant)
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=10.0,
                             F=cl.poly_symbol([0.2, 0.15]),
                             p=cl.identity_phase())
        rule = cl.gauss_interval(48, -1, 1)
        FR = cl.ChiSolution(pd, rule, grid48).FR
        Vmat = (cl.assemble(cl.v_t(pd), rule).matrix - np.eye(rule.n)) \
            / rule.weights[None, :]
        A_wrong = np.eye(rule.n) + Vmat * rule.weights[None, :]
        ER = FR + (Vmat.T * rule.weights[None, :]) @ FR
        FR_wrong = np.linalg.solve(A_wrong, ER)
        assert np.max(np.abs(FR_wrong - FR)) > 1e-6

    @given(F=st.floats(-0.6, 0.6), x=st.floats(10.0, 200.0))
    # det(I + V_t) = e^{-44.35} at F = -0.5, x = 200, yet the system is
    # well conditioned: not the excluded case
    @example(F=-0.5, x=200.0)
    @settings(max_examples=10, deadline=None)
    def test_unit_determinant_and_inverse_at_exterior_probes(self, grid48,
                                                             F, x):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=x,
                             F=cl.constant_symbol(F), p=cl.identity_phase())
        chi = cl.ChiSolution(pd, grid=grid48)
        for lam in default_probes(pd)[1]:
            ch = chi.chi(lam)
            assert abs(np.linalg.det(ch) - 1.0) < 1e-7
            assert np.max(np.abs(ch @ chi.chi_inv(lam)
                                 - np.eye(2 * grid48.n))) < 1e-8

    def test_default_rule_follows_the_oscillation_budget(self, grid48):
        # ChiSolution sizes its default rule by the sweep's node-count rule
        for x in (10.0, 100.0):
            pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=x,
                                 F=cl.constant_symbol(0.2),
                                 p=cl.identity_phase())
            chi = cl.ChiSolution(pd, grid=grid48)
            assert chi.rule.n == cl.quadgrid.oscillation_nodes(
                pd, frequency=1.0, gauss=True)

    @pytest.mark.parametrize("x", [100.0, 200.0, 400.0])
    def test_default_rule_resolves_the_jump_at_large_x(self, grid48, x):
        # chi's near-cut sums interpolate F_R (x) E_L, which carry
        # e^{+-i x p}: the default rule (ceil(x) + 64) passes every
        # invariant, the kernels' frequency-1/2 rule misses the jump by
        # 3e-4 at x = 100 and ~1e-1 from x = 200.  The Richardson deltas
        # shrink with 1/x so that the one-sided limits of e^{+-i x lam}
        # stay resolved.
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=x,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        rows = cl.ChiSolution(pd, grid=grid48).verify()
        assert [r for r in rows if not r.passed] == []
        coarse = cl.gauss_interval(
            cl.quadgrid.oscillation_nodes(pd, gauss=True), -1, 1)
        rows = cl.ChiSolution(pd, coarse, grid48).verify()
        miss = 1e-4 if x < 200.0 else 1e-3
        assert max(r.residual for r in rows if r.obj == "chi jump") > miss

    @pytest.mark.parametrize("t, F, p", [
        (0.5 + 0.1j, cl.constant_symbol(0.2), cl.identity_phase()),
        (1.0, cl.constant_symbol(-0.5), cl.identity_phase()),
        (1.0, cl.poly_symbol([0.2, 0.15]), cl.poly_phase([0.0, 1.0, 0.2])),
    ], ids=["complex-t", "negative-F", "poly-phase"])
    def test_loop_trace_matches_the_per_point_product(self, grid48, t, F, p):
        # the low-rank trace against tr(dchi S chi^{-1}) formed point by
        # point, on loop points near the cut (r = 0.25) and far (r = 0.5)
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=t, x=20.0, F=F, p=p)
        chi = cl.ChiSolution(pd, grid=grid48)
        loops = [cl.stadium_contour(-1, 1, r).nodes for r in (0.25, 0.5)]
        z = np.concatenate([zs[:: zs.size // 4][:4] for zs in loops])
        s3s = np.concatenate([grid48.nodes, -grid48.nodes])
        want = np.array([np.trace((chi.dchi(zk) * s3s) @ chi.chi_inv(zk))
                         for zk in z])
        got = chi.loop_trace(z)
        assert got.shape == z.shape
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        assert chi.loop_trace(z[0]) == pytest.approx(want[0], rel=1e-12)

    def test_diagnostics_csv(self, chi_default, tmp_path):
        rows = chi_default.verify()
        path = tmp_path / "diag.csv"
        write_diagnostics(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "object,lambda_re,lambda_im,residual,tolerance,pass"
        assert len(lines) == len(rows) + 1
        assert all(line.endswith("True") for line in lines[1:])


@pytest.fixture
def tiny_cond_cap(monkeypatch):
    """Every Nystrom solve refuses a condition number above 1."""
    monkeypatch.setattr(cl.fredholm, "COND_CAP", 1.0)


class TestExcludedCase:
    def test_chi_raises_near_singularity(self, pd_default, grid48,
                                         tiny_cond_cap):
        with pytest.raises(NearSingularityError):
            cl.ChiSolution(pd_default, grid=grid48)

    def test_chi_raises_on_singular_v0(self, pd_default, grid48,
                                       monkeypatch):
        # chi's densities come from (I + V0)^-1: where it does not exist,
        # the ratio det(I+V)/det(I+V0) is undefined too.  Zero generators
        # and a zero diagonal make I + V0 the zero matrix.
        def v0_generators(pd, rule):
            return tuple(np.zeros_like(v) for v in cl.v0_generators(pd, rule))

        monkeypatch.setattr(cl.rhp, "v0_generators", v0_generators)
        rule = cl.gauss_interval(48, pd_default.a, pd_default.b)
        with pytest.raises(NearSingularityError):
            cl.ChiSolution(pd_default, rule, grid48)

    def test_beta_raises_excluded_case(self, pd_default, grid48,
                                       tiny_cond_cap):
        rule = cl.gauss_interval(64, pd_default.a, pd_default.b)
        with pytest.raises(ExcludedCaseError) as info:
            solve_beta(pd_default, rule, grid48, 1)
        assert isinstance(info.value.__cause__, NearSingularityError)


    def test_beta_raises_on_singular_factors(self, pd_default, grid48,
                                             monkeypatch):
        # K_{1;t}'s factors replaced by P = e_1, Q = -e_1: I_r + Q^T P = 0
        # exactly, and beta_1 does not exist
        def k_factors(pd, k, srh, rule, left=None):
            e1 = np.eye(rule.n)[:, :1] + 0j
            return e1, -e1

        monkeypatch.setattr(cl.rhp, "k_factors", k_factors)
        rule = cl.gauss_interval(64, pd_default.a, pd_default.b)
        with pytest.raises(ExcludedCaseError) as info:
            solve_beta(pd_default, rule, grid48, 1)
        assert isinstance(info.value.__cause__, NearSingularityError)


class TestGChi:
    def test_unit_determinant(self, pd_default, grid48):
        for lam0 in (-0.3, 0.52, 0.9):
            G = g_chi(pd_default, grid48, lam0)
            assert abs(np.linalg.det(G) - 1.0) < 1e-9

    def test_zero_symbol_identity(self, pd_zero, grid48):
        G = g_chi(pd_zero, grid48, 0.1)
        assert np.max(np.abs(G - np.eye(2 * grid48.n))) == 0.0


class TestBeta:
    def test_pair_evaluates_each_alpha_factor_once(self, pd_default, grid48,
                                                   monkeypatch):
        # ln alpha at the nodes and on the loop serve both k; each kernel
        # adds its shifted nodes mu + i eps_k c/t, and no diagonal
        points = []
        exponent = cl.ScalarRH.exponent

        def spy(self, lam, weights=None):
            points.append(np.size(lam))
            return exponent(self, lam, weights)

        monkeypatch.setattr(cl.ScalarRH, "exponent", spy)
        rule = cl.gauss_interval(64, -1.0, 1.0)
        srh = cl.ScalarRH(pd_default, rule)
        pair = cl.solve_betas(pd_default, rule, grid48, srh)
        assert sum(points) == 3 * rule.n + srh.loop.nodes.size
        monkeypatch.undo()
        for k in (1, 2):
            single = solve_beta(pd_default, rule, grid48, k)
            assert np.max(np.abs(pair[k].rho - single.rho)) \
                < 1e-14 * np.max(np.abs(single.rho))

    def test_construction_invariants(self, betas_default):
        for k in (1, 2):
            failed = [r for r in betas_default[k].verify() if not r.passed]
            assert failed == []

    @pytest.mark.parametrize("t", [1.0, 0.5 + 0.1j, 0.5 + 0.02j])
    @pytest.mark.parametrize("F", [0.2, -0.5])
    def test_rho_matches_the_dense_solve(self, grid48, t, F):
        # the rank-r system against the assembled K_{k;t}: the factored
        # matrix is within a few eps of the dense one entrywise, so rho
        # moves by at most about cond_1 times that
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=t, x=100.0,
                             F=cl.constant_symbol(F), p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        for k, bs in solve_betas(pd, srh.rule, grid48, srh).items():
            left = np.exp(cl.EPS_K[k] * srh.node_exponent)
            dense = cl.assemble(cl.k_kt(pd, k, srh), srh.rule, left=left)
            want = cl.solve(dense, bs.w_rhs)
            miss = np.max(np.abs(bs.rho - want)) / np.max(np.abs(want))
            assert miss < 16 * np.finfo(float).eps * dense.cond

    def test_zero_symbol(self, pd_zero, grid48):
        rule = cl.gauss_interval(64, -1, 1)
        bs = solve_beta(pd_zero, rule, grid48, 1, cl.ScalarRH(pd_zero, rule))
        assert np.max(np.abs(bs.rho - bs.w_rhs)) == 0.0
        assert np.max(np.abs(bs.beta(0.5 + 0.3j) - np.eye(grid48.n))) == 0.0
        # the loop residue reproduces m_k when the symbol vanishes
        m = cl.m_vec(1, pd_zero, grid48, bs.rule.nodes[10])
        assert np.max(np.abs(bs.rho[10] - m)) < 1e-12

    def test_determinant_matches_scalar_solution(self, betas_default,
                                                 srh_default):
        for k in (1, 2):
            for lam in (2.0j, -1.5 + 0.8j):
                got = betas_default[k].det_beta(lam)
                want = srh_default.alpha_k(k, lam)
                assert abs(got - want) < 1e-7

    def test_jump_scales_linearly_in_delta(self, pd_default, grid48,
                                           betas_default):
        # raw one-sided mismatch shrinks linearly along the schedule
        bs = betas_default[2]
        lam0 = 0.31
        tk = complex(cl.tau(2, pd_default, lam0))
        jump = np.eye(grid48.n) + tk * cl.rank_one(
            cl.m_vec(2, pd_default, grid48, lam0),
            cl.kappa_form(2, pd_default, grid48, lam0), grid48)
        gaps = []
        for d in (1e-3, 1e-4):
            bp = bs.beta(lam0 + 1j * d)
            bm = bs.beta(lam0 - 1j * d)
            gaps.append(np.max(np.abs(bp @ jump - bm)))
        assert 5.0 < gaps[0] / gaps[1] < 20.0

    def test_converges_at_the_disk_probes(self, grid48):
        # the small-norm probe's beta_1: 192 nodes against 640 at the disk
        # probes around b.  Near weights there are rounding noise once
        # rho^-2n < eps; without the plain-weight switch 192 nodes miss by
        # up to 2.4e-7, and 320 nodes do no better.
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=100.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        probes = pd.b + 0.2 * np.exp(1j * _disk_probe_angles())

        def beta_1(n):
            rule = cl.gauss_interval(n, pd.a, pd.b)
            bs = solve_beta(pd, rule, grid48, 1, cl.ScalarRH(pd, rule))
            return np.array([bs.beta(lam) for lam in probes])

        assert np.max(np.abs(beta_1(192) - beta_1(640))) < 1e-7

    def test_default_loop_at_safe_radius(self, monkeypatch, pd_default,
                                         grid48):
        seen = []

        def spy(a, b, r, **kw):
            seen.append((r, kw))
            return cl.stadium_contour(a, b, r, **kw)

        # the loop is ScalarRH's, built on first use
        monkeypatch.setattr(cl.symbols, "stadium_contour", spy)
        solve_beta(pd_default, cl.gauss_interval(64, -1.0, 1.0), grid48, 1)
        assert seen == [(pytest.approx(0.2, rel=1e-15), {})]

    def test_divergent_limit_raises(self, pd_default, betas_default):
        # beta with a simple pole at an interior probe has no one-sided
        # limit there: verify() refuses it instead of extrapolating
        bs = copy.copy(betas_default[1])
        lam0 = default_probes(pd_default)[0][2]
        beta = bs.beta
        bs.beta = lambda lam: beta(lam) + np.eye(bs.grid.n) / (lam - lam0)
        with pytest.raises(BoundaryLimitError):
            bs.verify()


def _disk_probes(pd):
    """The small-norm probe's disk points around both endpoints."""
    ring = cl.safe_radius(pd) * np.exp(1j * _disk_probe_angles())
    return np.concatenate([pd.a + ring, pd.b + ring])


class TestBetaDuality:
    """beta_2 = W^{-1} beta_1^{-T} W, the identity the factory blocks
    stand on: it holds to beta's n^-2 quadrature error in every regime."""

    @staticmethod
    def gap(pd, n, weighted=True):
        grid = cl.laguerre_halfline(48, pd.c)
        betas = solve_betas(pd, cl.gauss_interval(n, pd.a, pd.b), grid)
        scale = grid.weights[None, :] / grid.weights[:, None] \
            if weighted else 1.0
        worst = 0.0
        for lam in _disk_probes(pd):
            b2 = betas[2].beta(lam)
            dual = np.linalg.inv(betas[1].beta(lam)).T * scale
            worst = max(worst, np.max(np.abs(b2 - dual)) / np.max(np.abs(b2)))
        return worst

    @given(t=st.sampled_from([1.0, 0.7 - 0.05j]),
           F=st.sampled_from([cl.constant_symbol(0.2),
                              cl.poly_symbol([0.2, 0.1, -0.05]),
                              cl.constant_symbol(0.2 + 0.3j)]),
           p=st.sampled_from([cl.identity_phase(),
                              cl.poly_phase([0.0, 1.0, 0.2])]),
           b=st.sampled_from([1.0, 2.0]), c=st.sampled_from([0.7, 1.0]))
    @settings(max_examples=8, deadline=None)
    def test_gap_falls_like_the_beta_error(self, t, F, p, b, c):
        # 0.8e-7 to 5.6e-7 at 192 nodes, about 4x less at 384
        pd = cl.make_problem(a=-1.0, b=b, c=c, t=t, x=100.0, F=F, p=p)
        coarse, fine = self.gap(pd, 192), self.gap(pd, 384)
        assert coarse < 1e-6
        assert coarse > 3.0 * fine
        # negative control: without the weights the gap is O(1e-2)
        assert self.gap(pd, 192, weighted=False) > 1e-2


def _inverse_route(fac, lam):
    """The blocks from the beta matrices and their inverses, as
    (beta_j m_j) (x) (kappa_l W beta_l^{-1}) with the alpha^{+-2} and
    +-F/(1+F) prefactors: the route the factors replace."""
    pd, grid = fac.pd, fac.grid
    beta = {k: fac.betas[k].beta(lam) for k in (1, 2)}
    left = {k: beta[k] @ m_vec(k, pd, grid, lam) for k in (1, 2)}
    right = {k: (kappa_form(k, pd, grid, lam) * grid.weights)
             @ np.linalg.inv(beta[k]) for k in (1, 2)}
    core = {(j, l): np.outer(left[j], right[l]) for j in (1, 2)
            for l in (1, 2)}
    e = fac.srh.exponent(lam)
    Fv = complex(pd.F(lam))
    return {(1, 1): core[1, 1], (2, 2): core[2, 2],
            (1, 2): np.exp(2.0 * e) * core[1, 2],
            (2, 1): np.exp(-2.0 * e) * core[2, 1],
            "P": Fv / (1.0 + Fv) * core[1, 2],
            "Q": -Fv / (1.0 + Fv) * core[2, 1]}


class TestRegimes:
    """The verify() streams of chi, beta_1, beta_2 and O/P/Q and the jump
    factorization away from the default problem, at x = 30."""

    @pytest.mark.parametrize("t, p", [
        (0.5 + 0.1j, cl.identity_phase()),
        (1.0, cl.poly_phase([0.0, 1.0, 0.2])),
        (0.7 - 0.05j, cl.poly_phase([0.0, 1.0, 0.2])),
    ], ids=["complex-t", "poly-phase", "complex-t-poly-phase"])
    def test_invariants(self, grid48, t, p):
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=t, x=30.0,
                             F=cl.constant_symbol(0.2), p=p)
        srh = cl.ScalarRH(pd)
        rule = cl.gauss_interval(192, pd.a, pd.b)
        betas = {k: solve_beta(pd, rule, grid48, k, srh) for k in (1, 2)}
        fac = OperatorFactory(pd, grid48, srh, betas[1], betas[2])
        rows = (cl.ChiSolution(pd, grid=grid48).verify() + betas[1].verify()
                + betas[2].verify() + fac.verify())
        assert [r for r in rows if not r.passed] == []
        assert factorization_residual(fac, 0.3) < 1e-6


class TestOperatorFactory:
    def test_invariants(self, factory_default):
        failed = [r for r in factory_default.verify() if not r.passed]
        assert failed == []

    @pytest.mark.parametrize("F", [0.2, -0.5, 0.2 + 0.3j])
    def test_blocks_match_the_inverse_route(self, grid48, F):
        # the dual one-forms differ from kappa W beta^{-1} by beta's own
        # error, which q - 1 measures at the point: within 2.5 |q - 1|
        # at 192 nodes on these probes
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=100.0,
                             F=cl.constant_symbol(F), p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        betas = solve_betas(pd, cl.gauss_interval(192, pd.a, pd.b), grid48,
                            srh)
        fac = OperatorFactory(pd, grid48, srh, betas[1], betas[2])
        for lam in list(_disk_probes(pd)) + fac.near_probes():
            blk, want = fac.blocks(lam), _inverse_route(fac, lam)
            assert 0.0 < abs(blk.q - 1.0) < 1e-5
            for key, ref in want.items():
                gap = np.max(np.abs(blk[key] - ref)) / np.max(np.abs(ref))
                assert gap < 10.0 * abs(blk.q - 1.0), key

    def test_blocks_form_no_beta_matrix_or_inverse(self, factory_default,
                                                   monkeypatch):
        def refuse(name):
            def wrapped(*args, **kwargs):
                raise AssertionError(f"blocks called {name}")
            return wrapped

        monkeypatch.setattr(np.linalg, "inv", refuse("inv"))
        monkeypatch.setattr(np.linalg, "solve", refuse("solve"))
        monkeypatch.setattr(cl.BetaSolution, "beta", refuse("beta"))
        blk = factory_default.blocks(0.2 + 0.1j)
        assert blk.l.shape == blk.r.shape == (2, factory_default.grid.n)
        # r_k . l_k = 1 by construction, so O_12 O_21 = O_11 to rounding
        assert np.allclose(np.einsum("ks,ks->k", blk.r, blk.l), 1.0,
                           rtol=0.0, atol=1e-14)

    def test_blocks_take_the_cauchy_weights_once(self, factory_default,
                                                 monkeypatch):
        # both beta matvecs of a point and ln alpha run on one set of
        # Cauchy weights: the ScalarRH rule is beta's
        calls = []
        weights = cl.cauchy.CauchyKit.weights

        def spy(self, lam):
            calls.append(lam)
            return weights(self, lam)

        monkeypatch.setattr(cl.cauchy.CauchyKit, "weights", spy)
        for lam in (0.2 + 0.1j, -0.95 + 0.05j, 0.3 - 1e-3j):
            calls.clear()
            factory_default.blocks(lam)
            assert calls == [lam]

    def test_blocks_of_an_array_are_the_blocks_of_its_points(
            self, factory_default):
        lam = np.array([0.2 + 0.1j, -0.95 + 0.05j, 0.3 - 1e-3j, 1.2 - 0.15j])
        blk = factory_default.blocks(lam)
        assert blk.l.shape == blk.r.shape == (lam.size, 2,
                                              factory_default.grid.n)
        for i, z in enumerate(lam):
            one = factory_default.blocks(z)
            for f in ("l", "r", "q", "exponent", "ratio"):
                want = getattr(one, f)
                assert np.max(np.abs(getattr(blk, f)[i] - want)) \
                    <= 1e-13 * np.max(np.abs(want)), f
        # ln alpha is the ScalarRH exponent on the same rule
        assert np.allclose(blk.exponent, factory_default.srh.exponent(lam),
                           rtol=1e-14, atol=0.0)

    def test_scalar_rh_on_another_rule_is_refused(self, pd_default, grid48,
                                                  srh_default):
        # srh's kit, loop and ln alpha are beta's: its rule must be beta's
        rule = cl.gauss_interval(64, -1.0, 1.0)
        with pytest.raises(GridMismatchError):
            solve_beta(pd_default, rule, grid48, 1, srh_default)
        with pytest.raises(GridMismatchError):
            solve_betas(pd_default, rule, grid48, srh_default)
        # the same rule built anew is accepted
        same = cl.gauss_interval(192, -1.0, 1.0)
        assert solve_beta(pd_default, same, grid48, 1, srh_default).srh \
            is srh_default

    def test_betas_on_different_rules_are_refused(self, pd_default, grid48,
                                                  srh_default):
        betas = [solve_beta(pd_default, cl.gauss_interval(n, -1.0, 1.0),
                            grid48, k) for n, k in ((64, 1), (96, 2))]
        with pytest.raises(GridMismatchError):
            OperatorFactory(pd_default, grid48, srh_default, *betas)
        # each beta with its own ScalarRH: the pair still disagrees
        with pytest.raises(GridMismatchError):
            OperatorFactory(pd_default, grid48, betas[0].srh, *betas)

    @pytest.mark.parametrize("side", [+1, -1])
    def test_jump_coefficients_give_the_dense_bound(self, factory_default,
                                                    side):
        # the phase-free factor less I is one rank-one block; its factor
        # bound is the dense smoothing_bound of jump_factor
        fac = factory_default
        for lam in (-0.7 + 0.15j * side, 0.1 + 0.15j * side,
                    0.6 + 0.05j * side):
            blk = fac.blocks(lam)
            want = smoothing_bound(fac.jump_factor(lam, side, x=0.0), fac.grid)
            got = factor_bound(blk.jump_coefficients(side), blk.l, blk.r,
                               fac.grid)
            assert got == pytest.approx(want, rel=1e-13)

    def test_composition_law(self, factory_default):
        blk = factory_default.blocks(0.2 + 0.1j)
        for j, l, k in [(1, 2, 1), (2, 1, 2), (1, 1, 1)]:
            assert np.max(np.abs(blk[j, l] @ blk[l, k] - blk[j, k])) < 1e-8

    def test_zero_symbol_collapse(self, pd_zero, grid48):
        rule = cl.gauss_interval(64, -1, 1)
        srh = cl.ScalarRH(pd_zero, rule)
        betas = {k: solve_beta(pd_zero, rule, grid48, k, srh) for k in (1, 2)}
        fac = OperatorFactory(pd_zero, grid48, srh, betas[1], betas[2])
        blk = fac.blocks(0.1 + 0.05j)
        assert np.trace(blk[1, 1]) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(blk["P"])) == 0.0
        assert np.max(np.abs(blk["Q"])) == 0.0

    def test_factorization(self, factory_default):
        for lam0 in (0.0, 0.588):
            assert factorization_residual(factory_default, lam0) < 1e-6

    def test_factorization_at_large_x(self, grid48):
        # the Richardson deltas shrink with 1/x: with deltas fixed at
        # DELTA_SCHEDULE * (b - a) the residual was 3.5e-6 at x = 400
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=400.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        rule = cl.gauss_interval(192, -1.0, 1.0)
        betas = {k: solve_beta(pd, rule, grid48, k, srh) for k in (1, 2)}
        fac = OperatorFactory(pd, grid48, srh, betas[1], betas[2])
        for lam0 in (0.0, 0.3):
            assert factorization_residual(fac, lam0) < 1e-6

    def test_factorization_evaluates_beta_once_per_point(
            self, pd_default, grid48, factory_default, monkeypatch):
        # each one-sided point lam0 +- i delta takes one evaluation of each
        # beta_k for the diagonal factors, and each beta_{k;+} one
        # inversion; M_up/M_down take their factors from beta matvecs
        calls = {"beta": 0, "inv": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cl.BetaSolution, "beta",
                            spy("beta", cl.BetaSolution.beta))
        monkeypatch.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
        factorization_residual(factory_default, 0.3)
        points = 2 * len(cl.symbols.DELTA_SCHEDULE)
        assert calls == {"beta": 2 * points, "inv": points}

    def test_verify_evaluates_blocks_once_per_point(self, factory_default,
                                                    monkeypatch):
        # O's one-sided limits take one call per delta on each side; each
        # exterior probe serves the composition law and both dual routes
        # from one call
        calls = []
        blocks = OperatorFactory.blocks

        def spy(self, lam):
            calls.append(lam)
            return blocks(self, lam)

        monkeypatch.setattr(OperatorFactory, "blocks", spy)
        factory_default.verify()
        assert len(calls) == 2 * len(cl.symbols.DELTA_SCHEDULE) \
            + len(factory_default.near_probes()[:3])


class TestPiResidual:
    @pytest.fixture(scope="class")
    def report(self, pd_default, factory_default):
        from cshiftlab.parametrix import build_parametrix

        def builder(ep, x):
            return build_parametrix(ep, pd_default, factory_default, x=x,
                                    radius=0.2)

        return pi_residual(pd_default, factory_default, builder,
                           xs=[50.0, 100.0, 200.0], disk_radius=0.2,
                           lens_height=0.15)

    def test_lens_residual_decays_monotonically(self, report):
        vals = [report.lens_max[x] for x in report.xs]
        assert vals[0] > vals[1] > vals[2]

    def test_disk_ratio_follows_power_law(self, report):
        target = 2.0 ** (report.eps - 1.0)
        for ep in ("a", "b"):
            ratio = report.disk_max[(ep, 200.0)] / report.disk_max[(ep, 100.0)]
            assert 0.5 * target < ratio < 2.0 * target

    def test_fitted_exponent_near_eps_minus_one(self, report):
        assert abs(report.fitted_exponent - (report.eps - 1.0)) < 0.25

    def test_rows_serializable(self, report, tmp_path):
        write_diagnostics(report.rows(), tmp_path / "pi.csv")
        assert (tmp_path / "pi.csv").exists()

    def test_rows_match_the_per_x_jumps(self, report, pd_default,
                                        factory_default):
        # each row is the jump at its own x, built as if no other x were
        # probed: the triangular factor with its phase on the lens, a
        # freshly built parametrix on the disk
        from cshiftlab.parametrix import build_parametrix

        fac = factory_default
        for r in report.lens_rows:
            x = float(r.obj.split("x=")[1])
            lam = complex(r.lam_re, r.lam_im)
            side = 1 if r.obj.startswith("lens up") else -1
            want = smoothing_bound(fac.jump_factor(lam, side, x=x), fac.grid)
            assert r.residual == pytest.approx(want, rel=1e-13)
        for r in report.disk_rows:
            ep, x = r.obj.split()[1], float(r.obj.split("x=")[1])
            px = build_parametrix(ep, pd_default, fac, x=x, radius=0.2)
            want = smoothing_bound(px(complex(r.lam_re, r.lam_im)), fac.grid)
            assert r.residual == pytest.approx(want, rel=1e-13)
        assert {float(r.obj.split("x=")[1]) for r in report.rows()} \
            == set(report.xs)

    @pytest.mark.parametrize("xs", [[100.0], [50.0, 100.0, 200.0]])
    def test_blocks_evaluated_once_per_probe_point(
            self, pd_default, factory_default, monkeypatch, xs):
        # the factory blocks do not depend on x: the 7 lens abscissae
        # above and below the interval and the disk probes around both
        # endpoints are evaluated once each, however many xs are probed,
        # in one call for the lens points and one per disk
        from cshiftlab.parametrix import build_parametrix

        calls = []
        blocks = OperatorFactory.blocks

        def spy(self, lam):
            calls.append(lam)
            return blocks(self, lam)

        def builder(ep, x):
            return build_parametrix(ep, pd_default, factory_default, x=x,
                                    radius=0.2)

        monkeypatch.setattr(OperatorFactory, "blocks", spy)
        pi_residual(pd_default, factory_default, builder, xs=xs,
                    disk_radius=0.2, lens_height=0.15)
        assert [np.size(lam) for lam in calls] \
            == [2 * 7] + [len(_disk_probe_angles())] * 2 == [14, 8, 8]

    def test_beta_defect_is_the_worst_q_over_the_probes(
            self, pd_default, factory_default, monkeypatch):
        from cshiftlab.parametrix import build_parametrix

        defects = []
        blocks = OperatorFactory.blocks

        def spy(self, lam):
            blk = blocks(self, lam)
            defects.extend(np.abs(blk.q - 1.0))
            return blk

        monkeypatch.setattr(OperatorFactory, "blocks", spy)

        def builder(ep, x):
            return build_parametrix(ep, pd_default, factory_default, x=x,
                                    radius=0.2)

        rep = pi_residual(pd_default, factory_default, builder, xs=[100.0],
                          disk_radius=0.2, lens_height=0.15)
        assert len(defects) == 30
        assert rep.beta_defect == max(defects)
        assert 0.0 < rep.beta_defect < 1e-5

    def test_forms_no_dense_operator(self, pd_default, factory_default,
                                     monkeypatch):
        # every lens and disk row comes from the rank-one factors: no
        # (2n, 2n) value, dense bound or outer product is formed
        from cshiftlab.parametrix import build_parametrix

        def refuse(name):
            def wrapped(*args, **kwargs):
                raise AssertionError(f"pi_residual called {name}")
            return wrapped

        for mod in (cl.l2half, cl.rhp, cl.parametrix):
            monkeypatch.setattr(mod, "smoothing_bound",
                                refuse("smoothing_bound"), raising=False)
        monkeypatch.setattr(np, "outer", refuse("np.outer"))

        def builder(ep, x):
            return build_parametrix(ep, pd_default, factory_default, x=x,
                                    radius=0.2)

        rep = pi_residual(pd_default, factory_default, builder,
                          xs=[50.0, 100.0], disk_radius=0.2, lens_height=0.15)
        assert len(rep.rows()) == 2 * (2 * 7 + 2 * len(_disk_probe_angles()))

    @pytest.mark.parametrize("c, t", [(1.0, 2.0), (0.5, 1.0)])
    def test_default_lens_follows_the_growth_bound(self, c, t):
        # a lens at the old fixed height 0.15 has |Im(t lam)| = 0.15 |t| >= c/4
        # on both problems; the default, 0.75 safe_radius, stays inside
        from cshiftlab.parametrix import build_parametrix

        pd = cl.make_problem(a=-1.0, b=1.0, c=c, t=t, x=10.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        grid = cl.laguerre_halfline(48, pd.c)
        rule = cl.gauss_interval(96, pd.a, pd.b)
        srh = cl.ScalarRH(pd, rule)
        fac = OperatorFactory(pd, grid, srh, *[
            solve_beta(pd, rule, grid, k, srh) for k in (1, 2)])
        report = pi_residual(
            pd, fac, lambda ep, x: build_parametrix(ep, pd, fac, x=x),
            xs=[50.0, 100.0])
        height = 0.75 * cl.safe_radius(pd)
        assert abs(t) * height < c / 4
        assert {r.lam_im for r in report.lens_rows} == {height, -height}
        assert report.lens_max[50.0] > report.lens_max[100.0] > 0.0

    @pytest.mark.parametrize("kw", [{"disk_radius": 0.0},
                                    {"disk_radius": -0.2},
                                    {"lens_height": 0.0},
                                    {"lens_height": -0.15}],
                             ids=["disk0", "disk-", "lens0", "lens-"])
    def test_nonpositive_sizes_rejected(self, pd_default, factory_default,
                                        kw):
        def builder(ep, x):
            raise AssertionError("no parametrix is built for a bad size")

        with pytest.raises(ParameterDomainError, match=next(iter(kw))):
            pi_residual(pd_default, factory_default, builder, xs=[100.0],
                        **kw)


class TestProbes:
    def test_default_probe_layout(self, pd_default):
        interior, exterior = default_probes(pd_default)
        assert interior == pytest.approx(np.cos((2 * np.arange(1, 6) - 1)
                                                * np.pi / 10.0))
        assert exterior[0] == pytest.approx(-1.0 + 1.0j)
        assert exterior[1] == pytest.approx(-1.0 - 1.0j)
        i2, e2 = default_probes(pd_default)
        assert np.array_equal(exterior, e2)

    def test_row_pass_logic(self):
        assert DiagnosticRow("x", 0, 0, 1e-9, 1e-6).passed
        assert not DiagnosticRow("x", 0, 0, 1e-3, 1e-6).passed

    def test_summarize(self):
        rows = [DiagnosticRow("a", 0, 0, 1e-9, 1e-6),
                DiagnosticRow("b", 0, 0, 3e-3, 1e-2),
                DiagnosticRow("a", 1, 0, 5e-7, 1e-6),
                DiagnosticRow("b", 1, 0, 1e-4, 1e-3)]
        lines, ok = summarize(rows)
        assert ok
        assert lines == ["a: worst 5.000e-07 < 1e-06 over 2 row(s): PASS",
                         "b: worst 3.000e-03 < 0.01 over 2 row(s): PASS",
                         "PASS"]
        # one failing row fails its object and the whole; NaN fails too
        for bad in (2e-3, np.nan):
            lines, ok = summarize(rows + [DiagnosticRow("b", 2, 0, bad, 1e-3)])
            assert not ok
            assert lines[1].endswith("over 3 row(s): FAIL")
            assert lines[-1] == "FAIL"
        assert summarize([]) == (["no rows", "PASS"], True)
