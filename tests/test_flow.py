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
        # the sweep keeps it unrefined; both are checked against a Gauss
        # rule of 1.5 times the Gauss count.  The dense difference of two
        # O(x) log-determinants is up to 7.4e-13 off here, so the sweep's
        # row is checked against the lemma on that rule.  The cubic phase
        # is the one the sausage map sizes tightest: its row is 2.3e-13
        # off at F = -0.5 (8.9e-13 at x = 3000)
        x = 1600.0
        pd = _problem(x, F, p)
        n = oscillation_nodes(pd)
        n_ref = int(np.ceil(1.5 * oscillation_nodes(pd, gauss=True)))
        ref = _log_ratio(x, n_ref, F, p)
        assert abs(_log_ratio(x, n, F, p, build=cl.transplanted_interval)
                   - ref) < 1e-11
        cfg = SweepConfig(x_list=(x,), F_params=(F,), p_kind="poly",
                          p_params=p)
        row = theorem1_sweep(cfg).rows[0]
        assert row.n == n
        rule = cl.gauss_interval(n_ref, -1.0, 1.0)
        lemma = cl.logdet_update(cl.assemble(cl.v0(pd), rule),
                                 *cl.shift_factors(pd, rule))
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
        monkeypatch.setattr(cl.flow, "logdet", lambda sys_: complex(-np.inf))
        with pytest.raises(ExcludedCaseError):
            theorem1_sweep(SweepConfig(x_list=(20.0,)))

    def test_singular_v0_is_the_excluded_case(self, monkeypatch):
        # an exactly singular I + V0 stops the lemma's solve
        def assemble(kernel, support):
            sys_ = cl.assemble(kernel, support)
            if kernel.name == "V0":
                sys_.matrix[:] = 0.0
            return sys_

        monkeypatch.setattr(cl.flow, "assemble", assemble)
        with pytest.raises(ExcludedCaseError):
            theorem1_sweep(SweepConfig(x_list=(20.0,)))

    @given(F=st.floats(-0.9, 2.0), x=st.floats(20.0, 800.0),
           q=st.floats(0.0, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_lemma_matches_the_dense_log_ratio(self, F, x, q):
        # ln det(I_2r + R^T (I+V0)^{-1} U) against the difference of the
        # two dense log-determinants on one rule, curved phases included
        p = (0.0, 1.0, q)
        n = oscillation_nodes(_problem(x, F, p))
        rule = cl.transplanted_interval(n, -1.0, 1.0)
        sys0 = cl.assemble(cl.v0(_problem(x, F, p, t=0.0)), rule)
        lemma = cl.logdet_update(sys0, *cl.shift_factors(_problem(x, F, p),
                                                         rule))
        diff = lemma - _log_ratio(x, n, F, p,
                                  build=cl.transplanted_interval)
        diff = complex(diff.real, np.angle(np.exp(1j * diff.imag)))
        assert abs(diff) < 1e-11 * max(1.0, abs(lemma))

    def test_loops_sit_at_safe_radius(self, monkeypatch):
        # the sweep's loop and the t-derivative check's loop are both at
        # safe_radius: 0.8 c/(4 |t|) = 0.2 at c = |t| = 1
        seen = []

        def spy(a, b, r, **kw):
            seen.append(r)
            return cl.stadium_contour(a, b, r, **kw)

        monkeypatch.setattr(cl.flow, "stadium_contour", spy)
        cfg = SweepConfig(x_list=(20.0,))
        theorem1_sweep(cfg)
        dt_logdet_check(cfg, t0=1.0, x=20.0)
        assert seen == [pytest.approx(0.2, rel=1e-15)] * 2

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

    def test_assembles_three_systems(self, monkeypatch):
        # I + V0 once for the finite difference and chi, and the two beta
        # systems; no V_t
        names = []
        original = cl.fredholm.assemble

        def assemble(kernel, support, **kw):
            names.append(kernel.name)
            return original(kernel, support, **kw)

        for mod in (cl.fredholm, cl.flow, cl.rhp):
            monkeypatch.setattr(mod, "assemble", assemble)
        dt_logdet_check(SweepConfig(x_list=(20.0,)), 0.5 + 0.1j, x=20.0)
        assert sorted(names) == ["K_1;t", "K_2;t", "V0"]

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
