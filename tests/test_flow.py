import numpy as np
import pytest

import cshiftlab as cl
from cshiftlab.cli import main
from cshiftlab.errors import ExcludedCaseError, ParameterDomainError
from cshiftlab.flow import (SweepConfig, dt_logdet_check, emit, load_config,
                            oscillation_nodes, theorem1_sweep)


class TestSweepConfig:
    def test_node_budget_rule(self):
        assert oscillation_nodes(200.0, 2.0) == int(np.ceil(8 + 6 * 200 * 2
                                                            / (2 * np.pi)))
        assert oscillation_nodes(1.0, 2.0) == 16

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            SweepConfig(x_list=(50.0, 50.0))
        with pytest.raises(ParameterDomainError):
            SweepConfig(n_interval=8)
        with pytest.raises(ParameterDomainError):
            SweepConfig(n_halfline=16)


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

    def test_vanishing_determinant_is_the_excluded_case(self, monkeypatch):
        monkeypatch.setattr(cl.flow, "logdet", lambda sys_: complex(-np.inf))
        with pytest.raises(ExcludedCaseError):
            theorem1_sweep(SweepConfig(x_list=(20.0,)))

    def test_contour_radius_robustness(self):
        reps = [theorem1_sweep(SweepConfig(x_list=(30.0,), contour_radius=r))
                for r in (0.25, 0.125)]
        assert abs(reps[0].rows[0].product
                   - reps[1].rows[0].product) < 1e-8


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
        rep = dt_logdet_check(cfg, 0.5, h=1e-4, x=50.0)
        assert rep.fd_vs_contour < 1e-6
        assert rep.fd_vs_reduced < rep.reduced_budget


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
        p_range = cfg.problem(x=20.0).p_range()
        want = [oscillation_nodes(x, p_range) for x in cfg.x_list]
        assert [row.n for row in rep.rows] == want
        emit(rep, str(tmp_path / "sweep.csv"))
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[-2:] == ["runtime_s", "n"]
        assert [int(line.split(",")[-1]) for line in lines[1:]] == want

    def test_unwritable_path_raises(self):
        from cshiftlab.flow import SweepReport
        with pytest.raises(OSError):
            emit(SweepReport(), "/nonexistent-dir/out.csv")


CONFIG_TEXT = """
# headline configuration
a = -1.0
b = 1.0
c = 1.0
t_re = 1.0
t_im = 0.0
x_list = 20, 40
F.kind = constant
F.params = 0.2
p.kind = identity
margin = 1e9
n_halfline = 48
probe_seed = 0
output = OUT
"""


class TestConfigAndCli:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.replace("OUT", str(tmp_path / "o.csv")))
        cfg = load_config(str(path))
        assert cfg.x_list == (20.0, 40.0)
        assert cfg.t == 1.0
        assert cfg.F_params == (0.2,)
        assert cfg.margin == 1e9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nonsense = 3\n")
        with pytest.raises(ParameterDomainError):
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
