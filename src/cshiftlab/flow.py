"""The determinant-ratio pipeline, the t-derivative identity, and reports.

theorem1_sweep drives the headline check: the ratio of the interval
determinants det(I+V)/det(I+V0) against the x-independent product of the
two loop determinants, swept over increasing oscillation x.
dt_logdet_check compares a finite difference of ln det(I+V_t) in t with
the loop trace formula evaluated through the chi solution and with the
reduced expression through the rho densities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ExcludedCaseError, ParameterDomainError, ResolutionError
from .fredholm import assemble, determinant, logdet
from .kernels import u_kt, u_pm, v0, v_t
from .quadgrid import gauss_interval, laguerre_halfline, stadium_contour
from .rhp import ChiSolution, solve_beta
from .symbols import EPS_K, ProblemData, ScalarRH, make_handle, make_problem, nu, tau

__all__ = ["SweepConfig", "SweepRow", "SweepReport", "theorem1_sweep",
           "DtReport", "dt_logdet_check", "emit", "load_config",
           "oscillation_nodes"]


@dataclass
class SweepConfig:
    """Inputs of one x-sweep; mirrors the flat config-file keys."""

    a: float = -1.0
    b: float = 1.0
    c: float = 1.0
    t: complex = 1.0
    x_list: tuple = (50.0, 100.0, 200.0)
    F_kind: str = "constant"
    F_params: tuple = (0.2,)
    p_kind: str = "identity"
    p_params: tuple = ()
    margin: float = np.inf
    n_interval: int | None = None     # None: scale with the oscillation
    n_halfline: int = 48
    contour_radius: float | None = None
    contour_density: float = 48.0
    n_alpha: int = 160
    n_budget: int = 4000
    probe_seed: int = 0
    output: str = "sweep.csv"

    def __post_init__(self):
        xs = tuple(float(x) for x in self.x_list)
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ParameterDomainError("x_list must be strictly increasing")
        if self.n_interval is not None and self.n_interval < 16:
            raise ParameterDomainError("n_interval must be >= 16")
        if self.n_halfline < 24:
            raise ParameterDomainError("n_halfline must be >= 24")
        self.x_list = xs
        self.t = complex(self.t)

    def problem(self, x: float, t: complex | None = None) -> ProblemData:
        return make_problem(
            a=self.a, b=self.b, c=self.c,
            t=self.t if t is None else t, x=x,
            F=make_handle(self.F_kind, self.F_params),
            p=make_handle(self.p_kind, self.p_params),
            margin=self.margin)

    def radius(self, t: complex) -> float:
        if self.contour_radius is not None:
            return self.contour_radius
        r = 0.45 * self.c / max(abs(t), 1e-12)
        r = min(r, 0.25 * (self.b - self.a))
        if np.isfinite(self.margin):
            r = min(r, 0.8 * self.margin)
        return r


def oscillation_nodes(x: float, p_range: float, n_min: int = 16) -> int:
    """Node budget resolving e^{i x p}: at least ~6 points per period."""
    return max(n_min, int(np.ceil(8.0 + 6.0 * x * p_range / (2.0 * np.pi))))


@dataclass
class SweepRow:
    x: float
    det_v: complex
    det_v0: complex
    ratio: complex
    det_up: complex
    det_um: complex
    product: complex
    rel_error: float
    runtime: float
    #: nodes of the interval rule; None for rows not built by theorem1_sweep
    n: int | None = None


@dataclass
class SweepReport:
    rows: list = field(default_factory=list)
    fitted_decay_exponent: float = float("nan")
    det_u11: complex = complex("nan")
    det_u21: complex = complex("nan")
    product_consistency: float = float("nan")
    diagnostics: list = field(default_factory=list)

    def tail_nonincreasing(self, slack: float = 1.5) -> bool:
        errs = [r.rel_error for r in self.rows]
        return all(e2 <= slack * e1 for e1, e2 in zip(errs, errs[1:]))

    def passed(self, final_tol: float = 0.05) -> bool:
        if not self.rows:
            return True
        return self.rows[-1].rel_error < final_tol and self.tail_nonincreasing()


def theorem1_sweep(cfg: SweepConfig) -> SweepReport:
    """Ratio of interval determinants against the product of loop determinants.

    The deformation endpoints are fixed: the numerator kernel sits at
    t = 1 and the denominator is the plain oscillatory kernel (t = 0);
    the loop side does not depend on x and is computed once.
    """
    report = SweepReport()
    pd1 = cfg.problem(x=cfg.x_list[0] if cfg.x_list else 50.0, t=1.0)
    srh = ScalarRH(pd1, gauss_interval(cfg.n_alpha, cfg.a, cfg.b))
    r = cfg.radius(t=1.0)
    loop = stadium_contour(cfg.a, cfg.b, r, n_per_unit=cfg.contour_density)

    det_up = determinant(assemble(u_pm(pd1, +1, srh), loop))
    det_um = determinant(assemble(u_pm(pd1, -1, srh), loop))
    product = det_up * det_um
    report.det_u11 = determinant(assemble(u_kt(pd1, 1, srh), loop))
    report.det_u21 = determinant(assemble(u_kt(pd1, 2, srh), loop))
    report.product_consistency = abs(report.det_u11 * report.det_u21 - product)

    p_range = pd1.p_range()
    for x in cfg.x_list:
        t_start = time.perf_counter()
        n = cfg.n_interval or oscillation_nodes(x, p_range)
        if n > cfg.n_budget:
            raise ResolutionError(
                f"x={x} needs {n} nodes, over the budget {cfg.n_budget}")
        rule = gauss_interval(n, cfg.a, cfg.b)
        pdx1 = cfg.problem(x=x, t=1.0)
        pdx0 = cfg.problem(x=x, t=0.0)
        ld_v = logdet(assemble(v_t(pdx1), rule))
        ld_v0 = logdet(assemble(v0(pdx0), rule))
        if not (np.isfinite(ld_v) and np.isfinite(ld_v0)):
            raise ExcludedCaseError(
                f"a determinant vanishes at x={x}; the ratio is undefined")
        ratio = np.exp(ld_v - ld_v0)
        rel = abs(ratio / product - 1.0)
        report.rows.append(SweepRow(
            x=x, det_v=np.exp(ld_v), det_v0=np.exp(ld_v0), ratio=ratio,
            det_up=det_up, det_um=det_um, product=product, rel_error=rel,
            runtime=time.perf_counter() - t_start, n=n))

    if len(report.rows) >= 2:
        lx = np.log([row.x for row in report.rows])
        le = np.log([max(row.rel_error, 1e-300) for row in report.rows])
        report.fitted_decay_exponent = float(np.polyfit(lx, le, 1)[0])
    return report


@dataclass
class DtReport:
    t0: complex
    x: float
    d_fd: complex
    d_contour: complex
    d_reduced: complex
    eps: float

    @property
    def fd_vs_contour(self) -> float:
        return abs(self.d_fd - self.d_contour)

    @property
    def fd_vs_reduced(self) -> float:
        return abs(self.d_fd - self.d_reduced)

    @property
    def reduced_budget(self) -> float:
        """The O(x^{eps-1}) scale the reduced route is allowed to miss by."""
        return float(self.x ** (self.eps - 1.0))


def dt_logdet_check(cfg: SweepConfig, t0: complex, h: float = 1e-4,
                    x: float | None = None) -> DtReport:
    """Three routes to d/dt ln det(I + V_t) at t0.

    (i) Richardson finite difference of the Nystrom log-determinant;
    (ii) the loop trace formula through chi: oint z tr[d_z chi sigma3 s chi^{-1}] dz / (2 pi);
    (iii) the reduced density form sum_k eps_k int tau_k kappa_k[s rho_k] / (2 pi),
    exact up to O(x^{eps-1}).
    """
    t0 = complex(t0)
    x = float(x if x is not None else (cfg.x_list[-1] if cfg.x_list else 100.0))
    n = cfg.n_interval or oscillation_nodes(x, cfg.problem(x=x).p_range())
    rule = gauss_interval(n, cfg.a, cfg.b)
    grid = laguerre_halfline(cfg.n_halfline, cfg.c)

    def ld(t):
        return logdet(assemble(v_t(cfg.problem(x=x, t=t)), rule))

    def central(step):
        return (ld(t0 + step) - ld(t0 - step)) / (2.0 * step)

    d_fd = (4.0 * central(h / 2.0) - central(h)) / 3.0

    pd = cfg.problem(x=x, t=t0)
    chi = ChiSolution(pd, rule, grid)
    loop = stadium_contour(cfg.a, cfg.b, cfg.radius(t0),
                           n_per_unit=cfg.contour_density)
    s3s = np.concatenate([grid.snodes, -grid.snodes])
    total = 0.0 + 0.0j
    for z, w in zip(loop.samples, loop.cweights):
        tr = np.trace((chi.dchi(z) * s3s[None, :]) @ chi.chi_inv(z).mat)
        total += w * z * tr
    d_contour = total / (2.0 * np.pi)

    srh = ScalarRH(pd, gauss_interval(cfg.n_alpha, cfg.a, cfg.b))
    beta_rule = gauss_interval(192, cfg.a, cfg.b)
    d_reduced = 0.0 + 0.0j
    for k in (1, 2):
        bs = solve_beta(pd, beta_rule, grid, k, srh, loop)
        kappa_s = bs.kappa_nodes * (grid.snodes * grid.sweights)[None, :]
        integrand = bs.tau_nodes * np.einsum("ns,ns->n", kappa_s, bs.rho)
        d_reduced += EPS_K[k] * (integrand @ beta_rule.weights) / (2.0 * np.pi)

    ang = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    bd = np.concatenate([cfg.a + 0.2 * np.exp(1j * ang),
                         cfg.b + 0.2 * np.exp(1j * ang)])
    eps = float(2.0 * np.max(np.abs(nu(pd, bd).real)))
    return DtReport(t0=t0, x=x, d_fd=d_fd, d_contour=d_contour,
                    d_reduced=d_reduced, eps=eps)


# ---------------------------------------------------------------------------
# reports on disk

CSV_COLUMNS = ["x", "det(I+V)", "det(I+V0)", "ratio", "det(I+U+)",
               "det(I+U-)", "product", "relative error",
               "fitted decay exponent", "runtime_s", "n"]


def _fmt(v) -> str:
    if isinstance(v, complex) or isinstance(v, np.complexfloating):
        v = complex(v)
        if v.imag == 0.0:
            return f"{v.real:.17g}"
        return f"({v.real:.17g}{v.imag:+.17g}j)"
    return f"{float(v):.17g}"


def emit(report: SweepReport, path: str, final_tol: float = 0.05) -> int:
    """Write the sweep CSV and a pass/fail summary; return the exit code."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for row in report.rows:
            w.writerow([_fmt(row.x), _fmt(row.det_v), _fmt(row.det_v0),
                        _fmt(row.ratio), _fmt(row.det_up), _fmt(row.det_um),
                        _fmt(row.product), _fmt(row.rel_error),
                        _fmt(report.fitted_decay_exponent),
                        _fmt(row.runtime), row.n])

    lines = []
    ok = True
    if not report.rows:
        lines.append("no rows")
    else:
        final = report.rows[-1].rel_error
        conv = report.tail_nonincreasing()
        lines.append(f"final relative error {final:.3e} < {final_tol}: "
                     f"{'PASS' if final < final_tol else 'FAIL'}")
        lines.append(f"relative error nonincreasing along the tail: "
                     f"{'PASS' if conv else 'FAIL'}")
        cons = report.product_consistency
        lines.append(f"loop-product consistency |U1*U2 - U+*U-| = {cons:.3e}"
                     f" < 1e-06: {'PASS' if cons < 1e-6 else 'FAIL'}")
        ok = final < final_tol and conv and cons < 1e-6
        lines.append(f"per-factor values: det(I+U_1)={_fmt(report.det_u11)}, "
                     f"det(I+U_2)={_fmt(report.det_u21)}, "
                     f"det(I+U+)={_fmt(report.rows[-1].det_up)}, "
                     f"det(I+U-)={_fmt(report.rows[-1].det_um)}")
    lines.append("PASS" if ok else "FAIL")
    with open(str(path) + ".summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def load_config(path: str) -> SweepConfig:
    """Flat key = value file; '#' starts a comment; lists are comma separated."""
    raw = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterDomainError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            raw[key] = val

    def floats(s):
        return tuple(float(v) for v in s.split(",") if v.strip())

    kw = {}
    simple = {"a": float, "b": float, "c": float, "margin": float,
              "n_interval": int, "n_halfline": int, "n_alpha": int,
              "n_budget": int, "probe_seed": int, "contour_density": float,
              "contour_radius": float, "output": str}
    for key, val in raw.items():
        if key in ("t_re", "t_im"):
            continue
        if key == "x_list":
            kw["x_list"] = floats(val)
        elif key == "F.kind":
            kw["F_kind"] = val
        elif key == "F.params":
            kw["F_params"] = floats(val)
        elif key == "p.kind":
            kw["p_kind"] = val
        elif key == "p.params":
            kw["p_params"] = floats(val)
        elif key in simple:
            kw[key] = simple[key](val)
        else:
            raise ParameterDomainError(f"unknown config key {key!r}")
    kw["t"] = complex(float(raw.get("t_re", 1.0)), float(raw.get("t_im", 0.0)))
    return SweepConfig(**kw)
