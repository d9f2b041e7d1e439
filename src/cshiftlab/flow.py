"""The determinant-ratio pipeline, the t-derivative identity, and reports.

theorem1_sweep drives the headline check: the ratio of the interval
determinants det(I+V)/det(I+V0) against the x-independent product of the
two loop determinants, swept over increasing oscillation x.
dt_logdet_check compares a finite difference of ln det(I+V_t) in t with
the loop trace formula evaluated through the chi solution and with the
reduced expression through the rho densities.

Neither assembles V_t.  V_t = V0 + (the c-shift), and the c-shift is
exactly of rank 2r on any rule (``kernels.shift_factors``; r = 46 at
c = |t| = 1, whatever x is), so ln det(I+V_t) - ln det(I+V0) is the
log-determinant of a 2r x 2r matrix, the matrix determinant lemma.  The
sweep forms no n x n matrix: on each rule it eliminates the Cauchy-like
I + V0 from its generators (``kernels.v0_generators``,
``fredholm.cauchy_like_logdets``), and that one pass gives both
ln det(I+V0) and the lemma's log-ratio.  The t-derivative check inverts
its I + V0 once: the inverse serves the four log-determinants of its
finite difference (``fredholm.logdet_update``) and, by the
Sherman-Morrison-Woodbury identity, both chi densities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ExcludedCaseError, NearSingularityError,
                     ParameterDomainError, ResolutionError)
from .fredholm import (assemble, cauchy_like_logdets, determinant,
                       logdet_update, one_blas_thread)
from .kernels import k_kt, shift_factors, u_kt, v0, v0_generators
from .quadgrid import (gauss_interval, graded_interval, laguerre_halfline,
                       oscillation_nodes, transplanted_interval)
from .rhp import ChiSolution, DiagnosticRow, _disk_eps, solve_betas, summarize
from .symbols import EPS_K, ProblemData, ScalarRH, make_handle, make_problem

__all__ = ["SweepConfig", "SweepRow", "SweepReport", "theorem1_sweep",
           "DtReport", "dt_logdet_check", "emit", "load_config",
           "oscillation_nodes", "RULE_TOL"]

#: a row's rule is resolved once the log-ratio moves by less than
#: RULE_TOL * max(1, |ln ratio|) on the ceil(1.15 n)-point rule
RULE_TOL = 1e-12
#: tolerance of the loop-product consistency and of |fd - trace|
ROUTE_TOL = 1e-6
#: step h of dt_logdet_check's Richardson difference (4 D(h/2) - D(h))/3,
#: D the central difference quotient of ln det(I+V_t) in t
FD_STEP = 1e-4
#: tolerance of the last row's relative error |ratio/product - 1|
FINAL_TOL = 0.05
TAIL_GROWTH = "relative-error growth from one x to the next"


def _principal(z: complex) -> complex:
    """z with its imaginary part wrapped into (-pi, pi]."""
    return complex(z.real, np.angle(np.exp(1j * z.imag)))


@dataclass
class SweepConfig:
    """Inputs of one x-sweep; mirrors the flat config-file keys.

    Every loop is ``ScalarRH.loop``, a stadium at ``quadgrid.safe_radius``
    with ``stadium_contour``'s default density.
    """

    a: float = -1.0
    b: float = 1.0
    c: float = 1.0
    x_list: tuple = (50.0, 100.0, 200.0)
    F_kind: str = "constant"
    F_params: tuple = (0.2,)
    p_kind: str = "identity"
    p_params: tuple = ()
    n_budget: int = 4000              # cap on the nodes of any interval rule
    output: str = "sweep.csv"

    def __post_init__(self):
        xs = tuple(float(x) for x in self.x_list)
        if not xs:
            raise ParameterDomainError("x_list must not be empty")
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ParameterDomainError("x_list must be strictly increasing")
        self.x_list = xs

    def problem(self, x: float, t: complex = 1.0) -> ProblemData:
        return make_problem(
            a=self.a, b=self.b, c=self.c, t=t, x=x,
            F=make_handle(self.F_kind, self.F_params),
            p=make_handle(self.p_kind, self.p_params))


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
    #: |change of ln ratio| on the 1.15x finer check rule; None as for n
    gap: float | None = None


@dataclass
class SweepReport:
    rows: list = field(default_factory=list)
    fitted_decay_exponent: float = float("nan")
    #: |det(I+K_{1;1}) det(I+K_{2;1}) / product - 1|: the loop product
    #: against its interval route on graded_interval(a, b)
    product_consistency: float = float("nan")
    #: |K| and the worst residual of the fit ratio/product - 1 ~
    #: K + C/x + D/x^2 over the rows; NaN below four rows
    extrapolated_limit: float = float("nan")
    fit_residual: float = float("nan")

    def checks(self) -> list:
        """The sweep's verdicts as DiagnosticRow at lam = x; none without rows.

        The final relative error, its growth e_{i+1}/e_i < 1.5 from one x
        to the next (0 when both vanish), the loop-product consistency and
        each row's refinement gap over max(1, |ln ratio|).
        """
        if not self.rows:
            return []
        last = self.rows[-1]
        out = [DiagnosticRow("final relative error", last.x, 0.0,
                             last.rel_error, FINAL_TOL)]
        for r1, r2 in zip(self.rows, self.rows[1:]):
            e1, e2 = r1.rel_error, r2.rel_error
            growth = e2 / e1 if e1 > 0 else (0.0 if e2 == 0 else np.inf)
            out.append(DiagnosticRow(TAIL_GROWTH, r2.x, 0.0, growth, 1.5))
        out.append(DiagnosticRow("loop-product consistency", 0.0, 0.0,
                                 self.product_consistency, ROUTE_TOL))
        out += [DiagnosticRow("interval-rule refinement gap", r.x, 0.0,
                              r.gap / max(1.0, abs(np.log(complex(r.ratio)))),
                              RULE_TOL)
                for r in self.rows if r.gap is not None]
        return out

    def tail_nonincreasing(self) -> bool:
        return all(r.passed for r in self.checks() if r.obj == TAIL_GROWTH)

    def passed(self) -> bool:
        return all(r.passed for r in self.checks())


def _check_budget(cfg: SweepConfig, x: float, n: int) -> None:
    if n > cfg.n_budget:
        raise ResolutionError(
            f"x={x} needs {n} nodes, over the budget {cfg.n_budget}")


def _rule_log_ratio(cfg: SweepConfig, pd: ProblemData, n: int):
    """ln det(I+V0) and ln det(I+V)/det(I+V0) on the n-point rule."""
    _check_budget(cfg, pd.x, n)
    rule = transplanted_interval(n, cfg.a, cfg.b)
    try:
        ld_v0, ln_ratio = cauchy_like_logdets(
            rule.nodes, *v0_generators(pd, rule), *shift_factors(pd, rule))
    except NearSingularityError as exc:
        raise ExcludedCaseError(f"det(I+V0) vanishes at x={pd.x}; "
                                "the ratio is undefined") from exc
    if not np.isfinite(ln_ratio):
        raise ExcludedCaseError(
            f"det(I+V) vanishes at x={pd.x}; the ratio is undefined")
    return ld_v0, ln_ratio


def _loop_product(pd: ProblemData, cfg: SweepConfig):
    """det(I + U_+), det(I + U_-) and |interval route / loop product - 1|.

    Each kernel's lam-side factor alpha_k = alpha^{eps_k} comes from one
    ln alpha array per rule: ScalarRH's on its loop, one on the graded
    rule of the interval route det(I + K_{k;1}) = det(I + U_{k;1}).
    """
    srh = ScalarRH(pd)
    det_up, det_um = (determinant(assemble(
        u_kt(pd, k, srh), srh.loop,
        left=np.exp(EPS_K[k] * srh.loop_exponent))) for k in (1, 2))
    grule = graded_interval(cfg.a, cfg.b)
    e_grule = srh.exponent(grule.nodes + 0j)
    det_k1, det_k2 = (determinant(assemble(
        k_kt(pd, k, srh), grule, left=np.exp(EPS_K[k] * e_grule)))
        for k in (1, 2))
    return det_up, det_um, float(abs(det_k1 * det_k2 / (det_up * det_um)
                                     - 1.0))


@one_blas_thread()
def theorem1_sweep(cfg: SweepConfig) -> SweepReport:
    """Ratio of interval determinants against the product of loop determinants.

    The deformation endpoints are fixed: the numerator kernel sits at
    t = 1 and the denominator is the plain oscillatory kernel (t = 0);
    the loop side does not depend on x and is computed once.

    The ratio is never the difference of two O(x) log-determinants.  The
    c-shift V - V0 is exactly separable (``kernels.shift_factors``): on an
    n-point rule it is U R^T with U, R real (n, 2r), r = 46 at c = 1, so
    ln det(I+V)/det(I+V0) = ln det(I_2r + R^T (I+V0)^{-1} U).
    I + V0 is not formed either: each rule eliminates it block by block
    from its rank-2 generators (``fredholm.cauchy_like_logdets``), which
    gives ln det(I+V0) and the log-ratio in one pass, in real arithmetic
    for real data and O(n (2r + 128)) memory; det(I+V) = det(I+V0) ratio.
    A row costs two such passes, of order n and 1.15 n.  The sweep runs
    with OpenBLAS on one thread (``fredholm.one_blas_thread``): its
    products have BLOCK = 128 rows or a few hundred nodes, too few for
    BLAS threads to pay.

    Every rule is ``quadgrid.transplanted_interval``.  Each row starts
    from ``oscillation_nodes`` and is checked a posteriori: while ln ratio
    moves by RULE_TOL * max(1, |ln ratio|) or more on the
    ceil(1.15 n)-point rule, n grows to that rule.  The row
    reports the ratio at the n that passed, that n and its gap; a rule over
    ``cfg.n_budget`` raises ResolutionError.  A pivot block of I + V0 over
    ``fredholm.COND_CAP`` (det(I+V0) numerically zero) or a vanishing
    det(I+V) raises ExcludedCaseError.
    """
    report = SweepReport()
    det_up, det_um, report.product_consistency = _loop_product(
        cfg.problem(x=cfg.x_list[0]), cfg)
    product = det_up * det_um

    for x in cfg.x_list:
        t_start = time.perf_counter()
        pdx = cfg.problem(x=x)
        n = oscillation_nodes(pdx)
        ld_v0, ln_ratio = _rule_log_ratio(cfg, pdx, n)
        # a posteriori: the log-ratio must not move on a 1.15x finer rule
        while True:
            n_check = -(-115 * n // 100)      # ceil(1.15 n), in integers
            ld_c, ln_c = _rule_log_ratio(cfg, pdx, n_check)
            gap = abs(_principal(ln_c - ln_ratio))
            if gap < RULE_TOL * max(1.0, abs(ln_ratio)):
                break
            n, ld_v0, ln_ratio = n_check, ld_c, ln_c
        det_v0, ratio = np.exp(ld_v0), np.exp(ln_ratio)
        rel = abs(ratio / product - 1.0)
        report.rows.append(SweepRow(
            x=x, det_v=det_v0 * ratio, det_v0=det_v0, ratio=ratio,
            det_up=det_up, det_um=det_um, product=product, rel_error=rel,
            runtime=time.perf_counter() - t_start, n=n, gap=gap))

    if len(report.rows) >= 2:
        lx = np.log([row.x for row in report.rows])
        le = np.log([max(row.rel_error, 1e-300) for row in report.rows])
        report.fitted_decay_exponent = float(np.polyfit(lx, le, 1)[0])
    if len(report.rows) >= 4:
        report.extrapolated_limit, report.fit_residual = \
            _extrapolate(report.rows)
    return report


def _extrapolate(rows) -> tuple[float, float]:
    """|K| and the worst residual of ratio/product - 1 ~ K + C/x + D/x^2.

    Complex least squares over the rows, in the variable x_min/x so the
    columns are of one scale.  The theorem says K = 0: |K| is the sweep's
    estimate of how far the x -> infinity limit of the ratio misses the
    loop product.
    """
    xs = np.array([row.x for row in rows])
    err = np.array([complex(row.ratio / row.product) - 1.0 for row in rows])
    u = xs[0] / xs
    A = np.stack([np.ones_like(u), u, u * u], axis=1)
    coef = np.linalg.lstsq(A.astype(complex), err, rcond=None)[0]
    return float(abs(coef[0])), float(np.max(np.abs(A @ coef - err)))


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

    def checks(self) -> list:
        """The finite difference against the loop trace, at lam = t0."""
        return [DiagnosticRow("|fd - trace|", self.t0.real, self.t0.imag,
                              self.fd_vs_contour, ROUTE_TOL)]


def dt_logdet_check(cfg: SweepConfig, t0: complex,
                    x: float | None = None) -> DtReport:
    """Three routes to d/dt ln det(I + V_t) at t0.

    (i) Richardson finite difference of the Nystrom log-determinant at step
    FD_STEP, each ln det(I+V_t) - ln det(I+V0) by ``fredholm.logdet_update``
    against one I + V0 system;
    (ii) the loop trace formula through chi: oint z tr[d_z chi sigma3 s chi^{-1}] dz / (2 pi),
    summed over all loop points at once by ``ChiSolution.loop_trace``: with
    chi = I - F_R^T D(w) E_L and chi^{-1} = I + E_R^T D(w) F_L the trace is
    -w' . diag(A) - w'^T (B o C^T) w, A = E_L S F_R^T, B = E_L S E_R^T,
    C = F_L F_R^T, S = sigma3 s, for the Cauchy weights w and w' = dw/dz;
    (iii) the reduced density form sum_k eps_k int tau_k kappa_k[s rho_k] / (2 pi),
    exact up to O(x^{eps-1}).

    One Gauss rule serves (i) and chi, sized for chi's e^{+-i x p}
    (``oscillation_nodes`` at frequency 1); a rule over ``cfg.n_budget``
    raises ResolutionError.  Its I + V0 system is inverted once, in real
    arithmetic for real data: chi solves for F_L and F_R on Woodbury views
    of it (``rhp.ChiSolution``), and (i) applies the same inverse.
    The check assembles three systems, I + V0 and the two beta systems, and
    no V_t.  An exactly singular I + V0, where the ratio is undefined (its
    excluded case), raises NearSingularityError from chi.
    """
    t0 = complex(t0)
    x = float(x if x is not None else cfg.x_list[-1])
    pd = cfg.problem(x=x, t=t0)
    n = oscillation_nodes(pd, frequency=1.0, gauss=True)
    _check_budget(cfg, x, n)
    rule = gauss_interval(n, cfg.a, cfg.b)
    grid = laguerre_halfline(48, cfg.c)
    sys0 = assemble(v0(pd), rule)
    # chi inverts sys0 first, so the finite difference applies that inverse
    chi = ChiSolution(pd, rule, grid, sys0)

    def ld(t):
        # ln det(I+V_t) - ln det(I+V0): V0 does not depend on t, so its
        # log-determinant cancels from every central difference
        return logdet_update(sys0, *shift_factors(cfg.problem(x=x, t=t), rule))

    def central(step):
        return (ld(t0 + step) - ld(t0 - step)) / (2.0 * step)

    d_fd = (4.0 * central(FD_STEP / 2.0) - central(FD_STEP)) / 3.0

    srh = ScalarRH(pd)
    loop = srh.loop   # one loop for the trace and the betas
    d_contour = (loop.weights * loop.nodes) @ chi.loop_trace(loop.nodes) \
        / (2.0 * np.pi)

    d_reduced = 0.0 + 0.0j
    for k, bs in solve_betas(pd, srh.rule, grid, srh).items():
        kappa_s = bs.kappa_nodes * (grid.nodes * grid.weights)[None, :]
        integrand = bs.tau_nodes * np.einsum("ns,ns->n", kappa_s, bs.rho)
        d_reduced += EPS_K[k] * (integrand @ srh.rule.weights) / (2.0 * np.pi)
    return DtReport(t0=t0, x=x, d_fd=d_fd, d_contour=d_contour,
                    d_reduced=d_reduced, eps=_disk_eps(pd, loop.r))


# ---------------------------------------------------------------------------
# reports on disk

CSV_COLUMNS = ["x", "det(I+V)", "det(I+V0)", "ratio", "det(I+U+)",
               "det(I+U-)", "product", "relative error",
               "fitted decay exponent", "runtime_s", "n", "gap"]


def _fmt(v) -> str:
    if isinstance(v, complex) or isinstance(v, np.complexfloating):
        v = complex(v)
        if v.imag == 0.0:
            return f"{v.real:.17g}"
        return f"({v.real:.17g}{v.imag:+.17g}j)"
    return f"{float(v):.17g}"


def emit(report: SweepReport, path: str) -> int:
    """Write the sweep CSV and its summary; return the exit code.

    The summary holds the x-extrapolated limit and the loop factors, then
    ``summarize(report.checks())``; the exit code is 0 iff every
    check passes.
    """
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for row in report.rows:
            w.writerow([_fmt(row.x), _fmt(row.det_v), _fmt(row.det_v0),
                        _fmt(row.ratio), _fmt(row.det_up), _fmt(row.det_um),
                        _fmt(row.product), _fmt(row.rel_error),
                        _fmt(report.fitted_decay_exponent),
                        _fmt(row.runtime), row.n,
                        "" if row.gap is None else _fmt(row.gap)])

    lines = []
    if report.rows:
        if np.isnan(report.extrapolated_limit):
            lines.append("x-extrapolated limit: needs four rows or more")
        else:
            lines.append(f"x-extrapolated limit |K| of ratio/product - 1 = "
                         f"{report.extrapolated_limit:.3e}, fit residual "
                         f"{report.fit_residual:.3e}")
        lines.append(f"loop factors: det(I+U+)={_fmt(report.rows[-1].det_up)}, "
                     f"det(I+U-)={_fmt(report.rows[-1].det_um)}")
    checks, ok = summarize(report.checks())
    with open(str(path) + ".summary.txt", "w") as fh:
        fh.write("\n".join(lines + checks) + "\n")
    return 0 if ok else 1


def load_config(path: str) -> SweepConfig:
    """Flat key = value file, each key once; '#' comments; comma lists.

    A value that does not read as its key's type, or a list with an empty
    item, raises ParameterDomainError naming the key; an empty value is
    the empty list.
    """
    raw = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterDomainError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in raw:
                raise ParameterDomainError(f"config key {key!r} given twice")
            raw[key] = val

    def read(key, val, kind):
        try:
            return kind(val)
        except ValueError:
            raise ParameterDomainError(f"config key {key!r}: cannot read "
                                       f"{val!r} as {kind.__name__}") from None

    def floats(key, val):
        items = [v.strip() for v in val.split(",")] if val else []
        if "" in items:
            raise ParameterDomainError(
                f"config key {key!r}: empty list item in {val!r}")
        return tuple(read(key, v, float) for v in items)

    kw = {}
    simple = {"a": float, "b": float, "c": float, "n_budget": int,
              "output": str}
    for key, val in raw.items():
        if key == "x_list":
            kw["x_list"] = floats(key, val)
        elif key == "F.kind":
            kw["F_kind"] = val
        elif key == "F.params":
            kw["F_params"] = floats(key, val)
        elif key == "p.kind":
            kw["p_kind"] = val
        elif key == "p.params":
            kw["p_params"] = floats(key, val)
        elif key in simple:
            kw[key] = read(key, val, simple[key])
        else:
            raise ParameterDomainError(f"unknown config key {key!r}")
    return SweepConfig(**kw)
