import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cshiftlab as cl
from cshiftlab.cli import main
from cshiftlab.errors import (ExcludedCaseError, ParameterDomainError,
                              ResolutionError)
from cshiftlab.flow import (SweepConfig, dt_logdet_check, emit, load_config,
                            oscillation_nodes, theorem1_sweep)


def _problem(x, F=0.2, p=(0.0, 1.0), a=-1.0, b=1.0, t=1.0):
    return cl.make_problem(a=a, b=b, c=1.0, t=t, x=x,
                           F=cl.constant_symbol(F), p=cl.poly_phase(p))


#: g'(0) of the sausage map: the transplanted rule's density term at the
#: midpoint, 1/(sum of arcsin's first five Taylor coefficients)
SAUSAGE_SLOPE = 1.0 / (1.0 + 1.0 / 6.0 + 3.0 / 40.0 + 5.0 / 112.0
                       + 35.0 / 1152.0)


def _log_ratio(x, n, F=0.2, p=(0.0, 1.0), build=cl.gauss_interval):
    """ln det(I+V) - ln det(I+V0) on the n-point rule (Gauss by default)."""
    rule = build(n, -1.0, 1.0)
    return (cl.logdet(cl.assemble(cl.v_t(_problem(x, F, p)), rule))
            - cl.logdet(cl.assemble(cl.v0(_problem(x, F, p, t=0.0)), rule)))


def _circle_derivative(cfg, t0, x, n_pts=12, rho=0.03):
    """d/dt ln det(I + V_t) at t0 by the trapezoidal Cauchy integral on the
    circle |t - t0| = rho (Lyness & Moler, SIAM J. Numer. Anal. 4, 1967;
    Bornemann, Found. Comput. Math. 11, 2011), on dt_logdet_check's rule:
    f'(t0) ~ (1/(N rho)) sum_k [f(t0 + rho e^{i th_k}) - f(t0)] e^{-i th_k}.
    """
    n = oscillation_nodes(cfg.problem(x=x), frequency=1.0, gauss=True)
    rule = cl.gauss_interval(n, cfg.a, cfg.b)

    def ld(t):
        return cl.logdet(cl.assemble(cl.v_t(cfg.problem(x=x, t=t)), rule))

    ld0 = ld(t0)
    th = 2.0 * np.pi * np.arange(n_pts) / n_pts
    diff = np.array([ld(t0 + rho * np.exp(1j * a)) - ld0 for a in th])
    diff.imag = np.angle(np.exp(1j * diff.imag))   # one branch of the log
    return np.sum(diff * np.exp(-1j * th)) / (n_pts * rho)


class TestIntervalRule:
    @pytest.mark.parametrize("x", [1.0, 10.0, 400.0, 801.0, 1600.0, 8000.0])
    def test_identity_phase_closed_form(self, x):
        # ceil(g'(0) frequency x (b - a)/2) + 64 on the transplanted rule,
        # frequency 1/2 by default; ceil(frequency x (b - a)/2) + 64 on
        # chi's Gauss rule
        assert oscillation_nodes(_problem(x)) \
            == int(np.ceil(SAUSAGE_SLOPE * x / 2)) + 64
        assert oscillation_nodes(_problem(x, a=-1.0, b=3.0)) \
            == int(np.ceil(SAUSAGE_SLOPE * x)) + 64
        assert oscillation_nodes(_problem(x), frequency=1.0, gauss=True) \
            == int(np.ceil(x)) + 64

    @pytest.mark.parametrize("p", [(0.0, 1.0), (0.0, 1.0, 0.3),
                                   (0.0, 1.0, 0.0, 0.3)],
                             ids=["identity", "poly", "cubic"])
    @pytest.mark.parametrize("F", [0.2, -0.5])
    def test_rule_resolves_the_log_ratio(self, F, p):
        # the oscillation_nodes rule resolves the log ratio on its own, so
        # the sweep keeps it unrefined; the dense difference of two O(x)
        # log-determinants on it, and the sweep's row, are checked against
        # the lemma on a Gauss rule of 1.5 times the Gauss count.  The
        # dense difference is up to 6.9e-13 off here.  The cubic phase
        # is the one the sausage map sizes tightest: its row is 2.3e-13
        # off at F = -0.5 (8.9e-13 at x = 3000)
        x = 1600.0
        pd = _problem(x, F, p)
        n = oscillation_nodes(pd)
        rule = cl.gauss_interval(
            int(np.ceil(1.5 * oscillation_nodes(pd, gauss=True))), -1.0, 1.0)
        _, lemma = cl.cauchy_like_logdets(rule.nodes,
                                          *cl.v0_generators(pd, rule),
                                          *cl.shift_factors(pd, rule))
        dense = _log_ratio(x, n, F, p, build=cl.transplanted_interval)
        assert abs(cl.flow._principal(dense - lemma)) < 1e-11
        cfg = SweepConfig(x_list=(x,), F_params=(F,), p_kind="poly",
                          p_params=p)
        row = theorem1_sweep(cfg).rows[0]
        assert row.n == n
        ln_ratio = np.log(complex(row.ratio))
        assert abs(cl.flow._principal(ln_ratio - lemma)) \
            < cl.flow.RULE_TOL * max(1.0, abs(ln_ratio))

    def test_check_grows_an_underresolved_rule(self, monkeypatch):
        # negative control: the bare resolution bound, without its margin,
        # is 1e-4 to 1e-2 off; the refinement check must grow it
        x = 1600.0
        bare = int(np.ceil(SAUSAGE_SLOPE * x / 2))
        ref = _log_ratio(x, int(np.ceil(
            1.5 * oscillation_nodes(_problem(x), gauss=True))))
        assert abs(_log_ratio(x, bare, build=cl.transplanted_interval)
                   - ref) > 1e-6
        monkeypatch.setattr(cl.flow, "oscillation_nodes",
                            lambda pd, frequency=0.5, gauss=False: bare)
        row = theorem1_sweep(SweepConfig(x_list=(x,))).rows[0]
        assert row.n > bare
        assert row.gap < cl.flow.RULE_TOL
        assert abs(np.log(row.ratio) - ref) < 1e-11

    @pytest.mark.parametrize("budget", [500, 700])
    def test_over_budget_raises(self, budget):
        # 500 < n = 672; 700 admits n but not its check rule ceil(1.15 n)
        with pytest.raises(ResolutionError):
            theorem1_sweep(SweepConfig(x_list=(1600.0,), n_budget=budget))

    def test_dtcheck_over_budget_raises(self):
        # dt_logdet_check sizes its rule for chi: ceil(x) + 64 = 164 > 150
        with pytest.raises(ResolutionError):
            dt_logdet_check(SweepConfig(x_list=(100.0,), n_budget=150),
                            0.5 + 0.1j)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            SweepConfig(x_list=(50.0, 50.0))

    def test_empty_x_list_rejected(self, tmp_path):
        # a sweep over no x would report "no rows" and pass
        with pytest.raises(ParameterDomainError):
            SweepConfig(x_list=())
        path = tmp_path / "cfg.txt"
        path.write_text("x_list =\n")
        with pytest.raises(ParameterDomainError):
            load_config(str(path))

    def test_t_other_than_one_rejected(self, tmp_path):
        # theorem1_sweep runs at t = 1; a t in the file would be dropped
        path = tmp_path / "cfg.txt"
        path.write_text("t_re = 0.5\n")
        with pytest.raises(ParameterDomainError):
            load_config(str(path))

    @pytest.mark.parametrize("which, kind, params", [
        ("p", "identity", (5.0,)),
        ("F", "constant", (0.2, 0.7)),
        ("F", "constant", ()),
        ("F", "poly", ()),
        ("F", "scaled_exp", (0.2,)),
    ], ids=["identity-extra", "constant-extra", "constant-empty",
            "poly-empty", "scaled_exp-gamma-only"])
    def test_wrong_parameter_count_rejected(self, which, kind, params):
        # an extra parameter must not be dropped silently, nor a missing one
        # surface as an IndexError or numpy's "Coefficient array is empty"
        cfg = SweepConfig(**{f"{which}_kind": kind, f"{which}_params": params})
        with pytest.raises(ParameterDomainError, match=repr(kind)):
            cfg.problem(50.0)


class TestTheoremSweep:
    def test_zero_symbol_everything_is_one(self):
        cfg = SweepConfig(x_list=(20.0, 40.0), F_params=(0.0,))
        rep = theorem1_sweep(cfg)
        for row in rep.rows:
            assert row.det_v == pytest.approx(1.0, abs=1e-12)
            assert row.det_v0 == pytest.approx(1.0, abs=1e-12)
            assert row.product == pytest.approx(1.0, abs=1e-9)
            assert row.rel_error < 1e-8

    def test_default_sweep_converges(self):
        cfg = SweepConfig(x_list=(25.0, 50.0, 100.0))
        rep = theorem1_sweep(cfg)
        assert rep.tail_nonincreasing()
        assert rep.rows[-1].rel_error < 1e-3
        assert rep.product_consistency < 1e-6
        # o(1) error follows the x^{eps-1} = 1/x pattern for the real
        # constant symbol
        assert rep.fitted_decay_exponent == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("F", [0.2, -0.5, 0.6])
    def test_loop_product_has_an_independent_check(self, F):
        # det(I+K_{1;1}) det(I+K_{2;1}) on the graded interval rule against
        # the loop product: a second route agrees to rounding, not exactly
        rep = theorem1_sweep(SweepConfig(x_list=(20.0,), F_params=(F,)))
        assert 0.0 < rep.product_consistency < 1e-6

    @pytest.mark.parametrize("F", [0.2, -0.5])
    def test_extrapolated_limit_vanishes(self, F):
        # ratio/product - 1 ~ K + C/x + D/x^2 with K = 0: both |K| and the
        # fit residual sit far below the error at the largest x
        rep = theorem1_sweep(SweepConfig(x_list=(200.0, 400.0, 800.0, 1600.0),
                                         F_params=(F,)))
        scale = 0.01 * rep.rows[-1].rel_error
        assert rep.extrapolated_limit < scale
        assert rep.fit_residual < scale
        short = theorem1_sweep(SweepConfig(x_list=(200.0, 400.0, 800.0),
                                           F_params=(F,)))
        assert np.isnan(short.extrapolated_limit)
        assert np.isnan(short.fit_residual)

    def test_vanishing_determinant_is_the_excluded_case(self, monkeypatch):
        # a vanishing det(I+V): the lemma's border determinant gives -inf
        def logdets(*args):
            return cl.fredholm.cauchy_like_logdets(*args)[0], complex(-np.inf)

        monkeypatch.setattr(cl.flow, "cauchy_like_logdets", logdets)
        with pytest.raises(ExcludedCaseError, match=r"det\(I\+V\) vanishes"):
            theorem1_sweep(SweepConfig(x_list=(20.0,)))

    def test_singular_v0_is_the_excluded_case(self, monkeypatch):
        # zero generators and a zero diagonal: I + V0 is the zero matrix,
        # and its first pivot block is exactly singular
        def v0_generators(pd, rule):
            return tuple(np.zeros_like(v) for v in cl.v0_generators(pd, rule))

        monkeypatch.setattr(cl.flow, "v0_generators", v0_generators)
        with pytest.raises(ExcludedCaseError, match=r"det\(I\+V0\) vanishes"):
            theorem1_sweep(SweepConfig(x_list=(20.0,)))

    @staticmethod
    def _structured_against_dense(pd, rule):
        """The elimination's ln det(I+V0) and ln ratio less the dense
        references (slogdet of I + V0, and the lemma with its inverse),
        and those references."""
        U, R = cl.shift_factors(pd, rule)
        ld_v0, ln_ratio = cl.cauchy_like_logdets(
            rule.nodes, *cl.v0_generators(pd, rule), U, R)
        sys0 = cl.assemble(cl.v0(pd), rule)
        lemma = cl.logdet_update(sys0, U, R)
        dense_v0 = cl.logdet(sys0)
        return (cl.flow._principal(ld_v0 - dense_v0),
                cl.flow._principal(ln_ratio - lemma), dense_v0, lemma)

    @given(F=st.floats(-0.9, 2.0), x=st.floats(20.0, 800.0),
           q=st.floats(0.0, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_lemma_matches_the_dense_log_ratio(self, F, x, q):
        # the elimination's ln det(I+V0) and ln ratio against the dense
        # references on one rule, and the dense lemma against the
        # difference of two dense log-determinants, curved phases included
        p = (0.0, 1.0, q)
        pd = _problem(x, F, p)
        n = oscillation_nodes(pd)
        rule = cl.transplanted_interval(n, -1.0, 1.0)
        d_v0, d_ratio, ld_v0, lemma = self._structured_against_dense(pd, rule)
        assert abs(d_v0) < 1e-13 * max(1.0, abs(ld_v0))
        assert abs(d_ratio) < 1e-13 * max(1.0, abs(lemma))
        diff = lemma - _log_ratio(x, n, F, p,
                                  build=cl.transplanted_interval)
        diff = complex(diff.real, np.angle(np.exp(1j * diff.imag)))
        assert abs(diff) < 1e-11 * max(1.0, abs(lemma))

    @pytest.mark.parametrize("F", [
        cl.poly_symbol([0.2, 0.1, -0.05]), cl.constant_symbol(1j),
        cl.constant_symbol(-0.5 + 0.5j)], ids=["poly", "i", "complex"])
    def test_structured_matches_the_dense_reference(self, F):
        # x = 500; for complex F the imaginary part of ln det(I+V0) is
        # compared modulo 2 pi
        pd = _problem(500.0, 0.2).with_(F=F)
        rule = cl.transplanted_interval(oscillation_nodes(pd), -1.0, 1.0)
        d_v0, d_ratio, ld_v0, lemma = self._structured_against_dense(pd, rule)
        assert abs(d_v0) < 1e-13 * max(1.0, abs(ld_v0))
        assert abs(d_ratio) < 1e-13 * max(1.0, abs(lemma))

    def test_forms_no_matrix_on_the_sweep_rules(self, monkeypatch):
        # only the x-independent loop product assembles and takes a slogdet
        # of its order; the graded K-route takes the r x r slogdet of its
        # factors, and every row's rule is eliminated from its generators,
        # in blocks of BLOCK pivots
        rules, supports, orders = [], [], []

        def transplanted(*args):
            rules.append(cl.transplanted_interval(*args))
            return rules[-1]

        def assemble(kernel, support, left=None):
            supports.append(support)
            return cl.fredholm.assemble(kernel, support, left)

        # ln alpha: once on the loop and once on the graded rule for both
        # k, and at each kernel's shifted nodes
        exponents = []
        exponent = cl.ScalarRH.exponent

        def exponent_spy(self, lam, weights=None):
            exponents.append(np.shape(lam))
            return exponent(self, lam, weights)


        slogdet = np.linalg.slogdet

        def spy(a):
            orders.append(np.shape(a)[-1])
            return slogdet(a)

        monkeypatch.setattr(cl.flow, "transplanted_interval", transplanted)
        monkeypatch.setattr(cl.flow, "assemble", assemble)
        monkeypatch.setattr(np.linalg, "slogdet", spy)
        monkeypatch.setattr(cl.ScalarRH, "exponent", exponent_spy)
        theorem1_sweep(SweepConfig(x_list=(1600.0,)))
        assert len(exponents) == 6
        assert [r.n for r in rules] == [672, 773]
        assert len(supports) == 2
        assert not any(s is r for s in supports for r in rules)
        assert max(o for o in orders if o > cl.fredholm.BLOCK) \
            == max(s.n for s in supports) < 672

    def test_loops_sit_at_safe_radius(self, monkeypatch):
        # the sweep's loop and the t-derivative check's loop are both at
        # safe_radius: 0.8 c/(4 |t|) = 0.2 at c = |t| = 1.  Each pipeline
        # has one, its ScalarRH's, which every loop integral shares
        seen = []

        class Spy(cl.ScalarRH):
            @property
            def loop(self):
                loop = cl.ScalarRH.loop.__get__(self)
                if not any(s is loop for s in seen):
                    seen.append(loop)
                return loop

        monkeypatch.setattr(cl.flow, "ScalarRH", Spy)
        cfg = SweepConfig(x_list=(20.0,))
        theorem1_sweep(cfg)
        dt_logdet_check(cfg, t0=1.0, x=20.0)
        assert [s.r for s in seen] == [pytest.approx(0.2, rel=1e-15)] * 2

    @pytest.mark.parametrize("F", [-0.5, 0.2, 0.6])
    def test_loop_product_is_converged(self, F):
        # the sweep's loop product against its loop at twice the density;
        # a loop at r = 0.45, where t(mu - lam) comes within 0.1 c of the
        # U-kernel pole, misses by 3e-10 at the same 48 nodes per unit
        cfg = SweepConfig(x_list=(20.0,), F_params=(F,))
        pd = cfg.problem(x=20.0)
        srh = cl.ScalarRH(pd)

        def product(r, density):
            loop = cl.stadium_contour(pd.a, pd.b, r, n_per_unit=density)
            return np.prod([cl.determinant(cl.assemble(cl.u_kt(pd, k, srh),
                                                       loop)) for k in (1, 2)])

        ref = product(cl.safe_radius(pd), 96.0)
        assert abs(theorem1_sweep(cfg).rows[0].product / ref - 1.0) < 1e-13
        assert abs(product(0.45, 48.0) / ref - 1.0) > 1e-10


def _report(rel_errors, consistency=1e-10, gaps=None):
    from cshiftlab.flow import SweepReport, SweepRow
    rep = SweepReport(product_consistency=consistency)
    gaps = gaps or [None] * len(rel_errors)
    for x, e, g in zip((50.0, 100.0, 200.0, 400.0), rel_errors, gaps):
        rep.rows.append(SweepRow(x=x, det_v=1.0, det_v0=1.0, ratio=1.0,
                                 det_up=1.0, det_um=1.0, product=1.0,
                                 rel_error=e, runtime=0.0, gap=g))
    return rep


class TestChecks:
    @pytest.mark.parametrize("errs,ok", [
        ((1e-3, 1.4e-3), True), ((1e-3, 1.6e-3), False),
        ((0.0, 0.0), True), ((0.0, 1e-9), False), ((1e-3,), True)])
    def test_tail_growth(self, errs, ok):
        # e_{i+1} <= 1.5 e_i, with a vanishing error allowed to stay zero
        rep = _report(errs)
        assert rep.tail_nonincreasing() is ok
        assert rep.passed() is ok

    def test_passed_reads_every_row(self):
        assert _report((1e-3, 5e-4), gaps=[1e-13, 1e-13]).passed()
        assert not _report((1e-3, 5e-4), consistency=1e-3).passed()
        assert not _report((1e-3, 5e-4), consistency=np.nan).passed()
        assert not _report((1e-3, 5e-4), gaps=[1e-13, 1e-9]).passed()
        assert not _report((0.05, 0.06)).passed()
        assert _report(()).checks() == [] and _report(()).passed()

    def test_emit_exit_code_follows_the_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        assert emit(_report((1e-3, 5e-4), consistency=1e-3), str(path)) == 1
        summary = (tmp_path / "bad.csv.summary.txt").read_text().splitlines()
        assert summary[-1] == "FAIL"
        assert [line for line in summary if line.endswith("FAIL")] == [
            "loop-product consistency: worst 1.000e-03 < 1e-06 over 1 "
            "row(s): FAIL", "FAIL"]


class TestDtCheck:
    def test_zero_symbol_all_routes_vanish(self):
        cfg = SweepConfig(F_params=(0.0,), x_list=(20.0,))
        rep = dt_logdet_check(cfg, 0.5, x=20.0)
        assert abs(rep.d_fd) < 1e-12
        assert abs(rep.d_contour) < 1e-12
        assert abs(rep.d_reduced) < 1e-12

    def test_perturbative_symbol_matches_kernel_trace(self):
        # for F = gamma small, d/dt ln det = tr dV_t/dt + O(gamma^2);
        # the trace of the diagonal derivative is gamma (b-a) / (pi c)
        gam = 1e-3
        cfg = SweepConfig(F_params=(gam,), x_list=(20.0,))
        rep = dt_logdet_check(cfg, 0.5, x=20.0)
        want = gam * 2.0 / np.pi
        assert rep.d_fd == pytest.approx(want, abs=5 * gam ** 2)

    def test_identity_routes_agree(self):
        cfg = SweepConfig(x_list=(50.0,))
        rep = dt_logdet_check(cfg, 0.5, x=50.0)
        assert rep.fd_vs_contour < 1e-6
        assert rep.fd_vs_reduced < rep.reduced_budget

    @pytest.mark.parametrize("t0", [0.5 + 0.02j, 0.5 + 0.1j])
    def test_loop_trace_matches_the_circle_reference(self, t0):
        # the finite difference wanders by 1e-12..1e-10 with h; the circle
        # rule is exact to rounding (the trace read <= 8e-14 off it)
        cfg = SweepConfig(x_list=(100.0,))
        rep = dt_logdet_check(cfg, t0, x=100.0)
        assert abs(_circle_derivative(cfg, t0, x=100.0) - rep.d_contour) \
            < 1e-12

    def test_t_zero(self):
        # K_{k;t} vanishes at t = 0, so each beta system is the identity;
        # the routes still agree and the trace meets the circle reference
        cfg = SweepConfig(x_list=(50.0,))
        rep = dt_logdet_check(cfg, 0.0, x=50.0)
        assert all(row.passed for row in rep.checks())
        assert rep.fd_vs_reduced < rep.reduced_budget
        assert abs(_circle_derivative(cfg, 0.0, x=50.0) - rep.d_contour) \
            < 1e-12

    def test_assembles_no_system(self, monkeypatch):
        # I + V0, which serves the finite difference and chi, comes from
        # its generators, the beta systems from K_{k;t}'s rank-r factors,
        # and no V_t is formed
        names = []
        original = cl.fredholm.assemble

        def assemble(kernel, support, **kw):
            names.append(kernel.name)
            return original(kernel, support, **kw)

        for mod in (cl.fredholm, cl.flow):
            monkeypatch.setattr(mod, "assemble", assemble)
        assert not hasattr(cl.rhp, "assemble")
        dt_logdet_check(SweepConfig(x_list=(20.0,)), 0.5 + 0.1j, x=20.0)
        assert names == []

    def test_negative_symbol_large_x_is_not_excluded(self):
        # det(I + V_t) is tiny (about e^{-44} at t = 1) but well conditioned
        cfg = SweepConfig(F_params=(-0.5,), x_list=(200.0,))
        rep = dt_logdet_check(cfg, 0.5 + 0.05j, x=200.0)
        assert rep.fd_vs_contour < 1e-6


class TestEmit:
    def test_empty_sweep(self, tmp_path):
        from cshiftlab.flow import SweepReport
        path = tmp_path / "empty.csv"
        code = emit(SweepReport(), str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("x,det(I+V),det(I+V0),ratio")
        assert "no rows" in (tmp_path / "empty.csv.summary.txt").read_text()

    def test_headline_sweep_csv(self, tmp_path):
        cfg = SweepConfig(x_list=(20.0, 40.0, 80.0),
                          output=str(tmp_path / "sweep.csv"))
        rep = theorem1_sweep(cfg)
        code = emit(rep, cfg.output)
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:9] == ["x", "det(I+V)", "det(I+V0)", "ratio",
                              "det(I+U+)", "det(I+U-)", "product",
                              "relative error", "fitted decay exponent"]
        # 17 significant digits survive the round trip
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(rep.rows[0].det_v.real,
                                                rel=1e-16)
        assert "PASS" in (tmp_path / "sweep.csv.summary.txt").read_text()

    def test_rows_record_node_count(self, tmp_path):
        cfg = SweepConfig(x_list=(20.0, 40.0))
        rep = theorem1_sweep(cfg)
        want = [oscillation_nodes(cfg.problem(x=x)) for x in cfg.x_list]
        assert [row.n for row in rep.rows] == want
        assert all(row.gap < cl.flow.RULE_TOL for row in rep.rows)
        emit(rep, str(tmp_path / "sweep.csv"))
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[-3:] == ["runtime_s", "n", "gap"]
        assert [int(line.split(",")[-2]) for line in lines[1:]] == want
        assert [float(line.split(",")[-1]) for line in lines[1:]] \
            == [row.gap for row in rep.rows]
        summary = (tmp_path / "sweep.csv.summary.txt").read_text()
        assert "refinement gap" in summary
        assert "x-extrapolated limit" in summary

    def test_unwritable_path_raises(self):
        from cshiftlab.flow import SweepReport
        with pytest.raises(OSError):
            emit(SweepReport(), "/nonexistent-dir/out.csv")


CONFIG_TEXT = """
# headline configuration
a = -1.0
b = 1.0
c = 1.0
x_list = 20, 40
F.kind = constant
F.params = 0.2
p.kind = identity
output = OUT
"""


class TestConfigAndCli:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv")))
        cfg = load_config(str(path))
        assert cfg.x_list == (20.0, 40.0)
        assert cfg.F_params == (0.2,)

    @pytest.mark.parametrize("line", ["nonsense = 3", "probe_seed = 0",
                                      "n_halfline = 48", "n_interval = 200",
                                      "margin = 1e9"],
                             ids=["nonsense", "probe_seed", "n_halfline",
                                  "n_interval", "margin"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(ParameterDomainError):
            load_config(str(path))

    @pytest.mark.parametrize("key, value, shown", [
        ("n_budget", "6e3", "6e3"), ("x_list", "50, 1oo", "1oo"),
        ("x_list", "50, , 100", "50, , 100"), ("a", "-1,0", "-1,0"),
        ("F.params", "0.2,", "0.2,")])
    def test_malformed_value_rejected(self, tmp_path, key, value, shown):
        # the error names the key and the value; before, a bare ValueError
        # named neither, and an empty list item was dropped
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ParameterDomainError) as exc:
            load_config(str(path))
        assert repr(key) in str(exc.value) and repr(shown) in str(exc.value)

    def test_empty_params_is_the_empty_list(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv"))
                        + "p.params =\n")
        assert load_config(str(path)).p_params == ()

    def test_repeated_key_rejected(self, tmp_path):
        # the first value would be ignored: the file is rejected instead
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT + "F.params = 0.3\n")
        with pytest.raises(ParameterDomainError, match="F.params"):
            load_config(str(path))

    def test_cli_sweep(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        out = tmp_path / "o.csv"
        path.write_text(CONFIG_TEXT.replace("OUT", str(out)))
        code = main(["sweep", "--config", str(path)])
        assert code == 0
        assert out.exists()
        assert "PASS" in capsys.readouterr().out

    def test_cli_dtcheck(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv")))
        code = main(["dtcheck", "--config", str(path), "--t0", "0.5,0.0",
                     "--x", "20"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_dtcheck_real_t0(self, tmp_path, capsys):
        # --t0 takes re or re,im: a real value is t0 with Im t0 = 0
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv")))
        outs = []
        for t0 in ("0.5", "0.5,0"):
            assert main(["dtcheck", "--config", str(path), "--t0", t0,
                         "--x", "20"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[-1] == "PASS"

    def test_cli_dtcheck_negative_re_t0(self, tmp_path, capsys):
        # argparse takes "-0.5,0.1" for an option: the help names the
        # --t0=RE,IM form, which passes a negative Re t0
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv")))
        with pytest.raises(SystemExit) as info:
            main(["dtcheck", "--help"])
        assert info.value.code == 0
        assert "--t0=-0.5,0.1" in capsys.readouterr().out
        assert main(["dtcheck", "--config", str(path), "--t0=-0.5,0.1",
                     "--x", "20"]) == 0
        out = capsys.readouterr().out.splitlines()
        rep = dt_logdet_check(load_config(str(path)), -0.5 + 0.1j, x=20.0)
        assert out[:3] == [
            f"d/dt ln det (finite difference): {rep.d_fd}",
            f"d/dt ln det (loop trace):        {rep.d_contour}",
            f"d/dt ln det (reduced densities): {rep.d_reduced}"]

    @pytest.mark.parametrize("t0", ["0.5,0.1,2", "abc", "0.5,", ""])
    def test_cli_dtcheck_bad_t0_is_a_usage_error(self, tmp_path, capsys, t0):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv")))
        with pytest.raises(SystemExit) as info:
            main(["dtcheck", "--config", str(path), "--t0", t0])
        assert info.value.code == 2
        assert "--t0" in capsys.readouterr().err

    def test_cli_selftest(self, capsys):
        # every summary object with its row count: the verify() streams of
        # chi, beta_1, beta_2 and O/P/Q, then the rows without a verify()
        want = [("chi*chi_inv-id", 5), ("det(chi)-1", 5), ("chi jump", 5),
                ("chi_p-chi_m rank form", 5), ("F_R reconstruction", 5),
                ("det(beta_1)-alpha_1", 5), ("beta_1 jump", 5),
                ("beta_1 inverse relation", 5), ("det(beta_2)-alpha_2", 5),
                ("beta_2 jump", 5), ("beta_2 inverse relation", 5),
                ("O continuity", 1), ("O_12 O_21 - O_11", 3),
                ("P dual route", 3), ("Q dual route", 3),
                ("loop residue 2*pi*i", 1), ("det(G_chi)-1", 1),
                ("jump factorization", 1), ("det(I+K_k)/det(I+U_k) - 1", 2),
                ("parametrix a jump", 6), ("parametrix b jump", 6)]
        assert main(["selftest"]) == 0
        *lines, verdict = capsys.readouterr().out.splitlines()
        assert verdict == "PASS"
        got = [re.fullmatch(r"(.+): worst \S+ < \S+ over (\d+) row\(s\): PASS",
                            line).groups() for line in lines]
        assert [(obj, int(count)) for obj, count in got] == want
