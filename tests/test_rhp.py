import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cshiftlab as cl
from cshiftlab.errors import (BoundaryLimitError, ExcludedCaseError,
                              NearSingularityError, ParameterDomainError)
from cshiftlab.l2half import smoothing_bound
from cshiftlab.rhp import (DiagnosticRow, OperatorFactory, _disk_probe_angles,
                           default_probes, factorization_residual, g_chi,
                           pi_residual, solve_beta, summarize,
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
        loops = [cl.stadium_contour(-1, 1, r).samples for r in (0.25, 0.5)]
        z = np.concatenate([zs[:: zs.size // 4][:4] for zs in loops])
        s3s = np.concatenate([grid48.snodes, -grid48.snodes])
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

    def test_chi_raises_on_singular_v0(self, pd_default, grid48):
        # chi's densities come from (I + V0)^-1: where it does not exist,
        # the ratio det(I+V)/det(I+V0) is undefined too
        rule = cl.gauss_interval(48, pd_default.a, pd_default.b)
        sys0 = cl.assemble(cl.v0(pd_default), rule)
        sys0.matrix[:, 0] = 0.0
        with pytest.raises(NearSingularityError):
            cl.ChiSolution(pd_default, rule, grid48, sys0)

    def test_beta_raises_excluded_case(self, pd_default, grid48, srh_default,
                                       loop_default, tiny_cond_cap):
        rule = cl.gauss_interval(64, pd_default.a, pd_default.b)
        with pytest.raises(ExcludedCaseError) as info:
            solve_beta(pd_default, rule, grid48, 1, srh_default, loop_default)
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
                                                   srh_default, loop_default,
                                                   monkeypatch):
        # ln alpha at the nodes and on the loop serve both k; each kernel
        # adds its shifted nodes mu + i eps_k c/t, and no diagonal
        points = []
        exponent = cl.ScalarRH.exponent

        def spy(self, lam):
            points.append(np.size(lam))
            return exponent(self, lam)

        monkeypatch.setattr(cl.ScalarRH, "exponent", spy)
        rule = cl.gauss_interval(64, -1.0, 1.0)
        pair = cl.solve_betas(pd_default, rule, grid48, srh_default,
                              loop_default)
        assert sum(points) == 3 * rule.n + loop_default.samples.size
        monkeypatch.undo()
        for k in (1, 2):
            single = solve_beta(pd_default, rule, grid48, k, srh_default,
                                loop_default)
            assert np.max(np.abs(pair[k].rho - single.rho)) \
                < 1e-14 * np.max(np.abs(single.rho))

    def test_construction_invariants(self, betas_default):
        for k in (1, 2):
            failed = [r for r in betas_default[k].verify() if not r.passed]
            assert failed == []

    def test_zero_symbol(self, pd_zero, grid48):
        srh = cl.ScalarRH(pd_zero)
        bs = solve_beta(pd_zero, cl.gauss_interval(64, -1, 1), grid48, 1, srh)
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
        srh = cl.ScalarRH(pd)
        probes = pd.b + 0.2 * np.exp(1j * _disk_probe_angles())

        def beta_1(n):
            bs = solve_beta(pd, cl.gauss_interval(n, pd.a, pd.b), grid48, 1,
                            srh)
            return np.array([bs.beta(lam) for lam in probes])

        assert np.max(np.abs(beta_1(192) - beta_1(640))) < 1e-7

    def test_default_loop_at_safe_radius(self, monkeypatch, pd_default,
                                         grid48):
        seen = []

        def spy(a, b, r, **kw):
            seen.append((r, kw))
            return cl.stadium_contour(a, b, r, **kw)

        monkeypatch.setattr(cl.rhp, "stadium_contour", spy)
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

    def test_composition_law(self, factory_default):
        blk = factory_default.blocks(0.2 + 0.1j)
        for j, l, k in [(1, 2, 1), (2, 1, 2), (1, 1, 1)]:
            assert np.max(np.abs(blk[j, l] @ blk[l, k] - blk[j, k])) < 1e-8

    def test_zero_symbol_collapse(self, pd_zero, grid48):
        srh = cl.ScalarRH(pd_zero)
        rule = cl.gauss_interval(64, -1, 1)
        betas = {k: solve_beta(pd_zero, rule, grid48, k, srh) for k in (1, 2)}
        fac = OperatorFactory(pd_zero, grid48, srh, betas[1], betas[2])
        blk = fac.blocks(0.1 + 0.05j)
        assert np.trace(blk[1, 1]) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(blk["P"])) == 0.0
        assert np.max(np.abs(blk["Q"])) == 0.0

    def test_factorization(self, factory_default):
        for lam0 in (0.0, 0.588):
            assert factorization_residual(factory_default, lam0) < 1e-6

    def test_factorization_at_large_x(self, grid48, loop_default):
        # the Richardson deltas shrink with 1/x: with deltas fixed at
        # DELTA_SCHEDULE * (b - a) the residual was 3.5e-6 at x = 400
        pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=400.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        rule = cl.gauss_interval(192, -1.0, 1.0)
        betas = {k: solve_beta(pd, rule, grid48, k, srh, loop_default)
                 for k in (1, 2)}
        fac = OperatorFactory(pd, grid48, srh, betas[1], betas[2])
        for lam0 in (0.0, 0.3):
            assert factorization_residual(fac, lam0) < 1e-6

    def test_factorization_evaluates_beta_once_per_point(
            self, pd_default, grid48, factory_default, monkeypatch):
        # each one-sided point lam0 +- i delta takes one evaluation and one
        # inversion of each beta_k; the diagonal factors and M_up/M_down
        # share them through the factory blocks
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
        assert calls == {"beta": 2 * points, "inv": 2 * points}

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
        # endpoints take one call each, however many xs are probed
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
        assert len(calls) == 2 * 7 + 2 * len(_disk_probe_angles()) == 30

    @pytest.mark.parametrize("c, t", [(1.0, 2.0), (0.5, 1.0)])
    def test_default_lens_follows_the_growth_bound(self, c, t):
        # a lens at the old fixed height 0.15 has |Im(t lam)| = 0.15 |t| >= c/4
        # on both problems; the default, 0.75 safe_radius, stays inside
        from cshiftlab.parametrix import build_parametrix

        pd = cl.make_problem(a=-1.0, b=1.0, c=c, t=t, x=10.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        grid = cl.laguerre_halfline(48, pd.c)
        srh = cl.ScalarRH(pd)
        rule = cl.gauss_interval(96, pd.a, pd.b)
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
