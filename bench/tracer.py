"""Layer spans recorded from outside the package, by patching its modules.

``Tracer`` wraps the public functions and methods of every numeric layer
of cshiftlab, at every name callers look them up by: a function imported
by name into another module (``flow.assemble``, ``rhp.k_kt``,
``parametrix.tricomi_psi``) is rebound there too, methods are patched on
their class, and kernel handles returned by the ``kernels`` factories get
wrapped ``eval``/``diag`` closures, since ``fredholm`` reaches kernels
only through them.  Leaving the ``with`` block restores every binding.

Spans live in memory as ``[name, start, end, parent]`` lists (parent is
an index into the same list, -1 for a root) and are written out by the
caller.  A span's self time is its duration minus the durations of its
direct children; summed over all spans of an op, including the root
span the benchmark opens around it, self times give the op's wall time.

Work counts are taken at the same boundaries, from argument and result
sizes.  Flops and bytes are *computed* from array sizes, not measured:
a complex LU of order n (``logdet``, ``NystromSystem.factorization``)
counts 8/3 n^3 flop and 16 n^2 bytes written; ``solve`` with m
right-hand sides counts 32 n^2 m flop (two LU solves and two residual
products) and 16 n m bytes written per pass, twice; ``assemble`` counts
16 n^2 bytes for the matrix it writes.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import Counter

import numpy as np

#: the numeric layers, by module name; cli and errors do no numeric work
LAYERS = ("quadgrid", "cauchy", "symbols", "l2half", "kernels", "fredholm",
          "rhp", "chf", "parametrix", "flow")
#: methods with dunder names that callers reach through syntax
_DUNDERS = ("__call__", "__matmul__")
#: kernel factories whose handles are evaluated by fredholm and rhp
_KERNEL_FACTORIES = ("v_t", "v0", "u_kt", "u_pm", "k_kt", "resolvent_kernel")
#: chf routes as reported by TricomiEval.route
CHF_ROUTES = ("series", "laplace", "asymptotic", "monodromy", "polynomial")
#: rhp spans by object: the chi and beta solutions, the O/P/Q factory
_RHP_GROUPS = {"ChiSolution": "chi", "solve_chi": "chi", "g_chi": "chi",
               "BetaSolution": "beta", "solve_beta": "beta",
               "OperatorFactory": "factory"}


class Tracer:
    """Patch the layers of a cshiftlab package while inside ``with``."""

    def __init__(self, package):
        self.pkg = package
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.err_max = 0.0
        self.factored = set()
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def root(self, name="op"):
        """Context manager for the span the benchmark opens around an op."""
        return _Root(self, name)

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = getattr(self.pkg, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    wrapped[id(obj)] = self._wrap(obj, qual, _HOOKS.get(qual))
        for mod in [self.pkg] + [getattr(self.pkg, m) for m in LAYERS]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, name, wrapped[id(obj)])
        return self

    def _patch_class(self, layer, cls):
        plain_data = dataclasses.is_dataclass(cls)
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS \
                    and not (name == "__init__" and not plain_data):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            hook = _HOOKS.get(qual)
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._set(cls, name, kind(self._wrap(member.__func__, qual, hook)))
            elif inspect.isfunction(member):
                self._set(cls, name, self._wrap(member, qual, hook))

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # -- aggregation -----------------------------------------------------

    def self_times(self, first=0, stop=None):
        """Self times of the spans ``first`` to ``stop``, as an array."""
        spans = self.spans[first:stop]
        dur = np.array([s[2] - s[1] for s in spans])
        child = np.zeros(len(spans))
        for s, d in zip(spans, dur):
            if s[3] >= first:
                child[s[3] - first] += d
        return dur - child


class _Root:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append([self.name, 0.0, 0.0, tr._stack[-1] if tr._stack else -1])
        tr._stack.append(self.idx)
        tr.spans[self.idx][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.idx][2] = time.perf_counter()
        tr._stack.pop()
        return False

    @property
    def wall(self):
        s = self.tracer.spans[self.idx]
        return s[2] - s[1]


# ---------------------------------------------------------------------------
# work counters, run after the wrapped call returns


def _make_kernel_hook(factory):
    qual = f"kernels.{factory}"

    def count_entries(tr, args, kwargs, out):
        tr.counts["kernels.entries"] += int(np.size(out))

    def hook(tr, args, kwargs, handle):
        handle.eval = tr._wrap(handle.eval, qual + ".eval", count_entries)
        handle.diag = tr._wrap(handle.diag, qual + ".diag", count_entries)

    return qual, hook


def _assemble(tr, args, kwargs, sys_):
    n = sys_.n
    tr.counts["fredholm.systems"] += 1
    tr.counts["fredholm.n_max"] = max(tr.counts["fredholm.n_max"], n)
    tr.counts["fredholm.bytes_computed"] += 16 * n * n


def _lu(tr, args, kwargs, out):
    n = args[0].n
    tr.counts["fredholm.flop_computed"] += 8 * n ** 3 // 3
    tr.counts["fredholm.bytes_computed"] += 16 * n * n


def _factorization(tr, args, kwargs, out):
    # the LU is cached on the system after the first call: count it once
    if id(args[0]) not in tr.factored:
        tr.factored.add(id(args[0]))
        _lu(tr, args, kwargs, out)


def _solve(tr, args, kwargs, out):
    n = args[0].n
    m = int(np.size(out)) // n
    tr.counts["fredholm.flop_computed"] += 32 * n * n * m
    tr.counts["fredholm.bytes_computed"] += 2 * 16 * n * m


def _rule_nodes(tr, args, kwargs, rule):
    tr.counts["quadgrid.nodes"] += int(rule.n)


def _cauchy_points(tr, args, kwargs, out):
    kit, lam = args[0], (args[1] if len(args) > 1 else kwargs["lam"])
    xi = np.atleast_1d(kit.rule.to_unit(np.asarray(lam, dtype=complex)))
    dist = np.abs(xi - np.clip(xi.real, -1.0, 1.0))
    tr.counts["cauchy.points"] += int(xi.size)
    tr.counts["cauchy.near_points"] += int(np.count_nonzero(dist <= kit.FAR))


def _exponent_points(tr, args, kwargs, out):
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    tr.counts["symbols.exponent_points"] += int(np.size(lam))


def _tricomi(tr, args, kwargs, ev):
    tr.counts[f"chf.route.{ev.route}"] += 1
    tr.err_max = max(tr.err_max, float(ev.err))


_HOOKS = {
    "fredholm.assemble": _assemble,
    "fredholm.logdet": _lu,
    "fredholm.NystromSystem.factorization": _factorization,
    "fredholm.solve": _solve,
    "quadgrid.gauss_interval": _rule_nodes,
    "quadgrid.graded_interval": _rule_nodes,
    "quadgrid.stadium_contour": _rule_nodes,
    "quadgrid.laguerre_halfline": _rule_nodes,
    "cauchy.CauchyKit.weights": _cauchy_points,
    "cauchy.CauchyKit.dweights": _cauchy_points,
    "symbols.ScalarRH.exponent": _exponent_points,
    "chf.tricomi_psi": _tricomi,
    **dict(_make_kernel_hook(f) for f in _KERNEL_FACTORIES),
}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced op


def _group(name):
    """Metric key a span's self time is charged to."""
    parts = name.split(".")
    layer = parts[0]
    if layer == "fredholm":
        return "fredholm.assemble_self_s" if parts[1] == "assemble" \
            else "fredholm.factor_s"
    if layer == "rhp":
        return f"rhp.{_RHP_GROUPS.get(parts[1], 'probe')}_self_s"
    if layer in LAYERS:
        return f"{layer}.self_s"
    return "op.self_s"


#: spans counted as calls, besides every l2half span (l2half.calls)
_CALL_COUNTS = {
    "chf.tricomi_psi": "chf.calls",
    "rhp.ChiSolution.chi": "rhp.chi_evals",
    "rhp.ChiSolution.chi_inv": "rhp.chi_evals",
    "rhp.ChiSolution.dchi": "rhp.chi_evals",
    "rhp.BetaSolution.beta": "rhp.beta_evals",
    "parametrix.Parametrix.__call__": "parametrix.evals",
}


#: per-layer metrics with their units, in report order
LAYER_METRICS = {
    "kernels.self_s": "s", "kernels.entries": "count",
    "fredholm.factor_s": "s", "fredholm.assemble_self_s": "s",
    "fredholm.systems": "count", "fredholm.n_max": "count",
    "fredholm.flop_computed": "flop", "fredholm.bytes_computed": "B",
    "quadgrid.self_s": "s", "quadgrid.nodes": "count",
    "cauchy.self_s": "s", "cauchy.points": "count",
    "cauchy.near_points": "count",
    "symbols.self_s": "s", "symbols.exponent_points": "count",
    "l2half.self_s": "s", "l2half.calls": "count",
    "rhp.chi_self_s": "s", "rhp.chi_evals": "count",
    "rhp.beta_self_s": "s", "rhp.beta_evals": "count",
    "rhp.factory_self_s": "s", "rhp.probe_self_s": "s",
    "flow.self_s": "s",
    "chf.self_s": "s", "chf.calls": "count",
    **{f"chf.route.{r}": "count" for r in CHF_ROUTES},
    "chf.err_max": "rel",
    "parametrix.self_s": "s", "parametrix.evals": "count",
    "op.self_s": "s", "trace.spans": "count",
}


def op_metrics(tracer, first):
    """Per-layer metrics of the op whose spans start at index ``first``.

    Counters are reset afterwards, so the next op starts from zero.
    """
    out = {k: 0.0 if u in ("s", "rel") else 0 for k, u in LAYER_METRICS.items()}
    spans = tracer.spans[first:]
    for s, st in zip(spans, tracer.self_times(first)):
        out[_group(s[0])] += float(st)
        key = "l2half.calls" if s[0].startswith("l2half.") \
            else _CALL_COUNTS.get(s[0])
        if key:
            out[key] += 1
    out.update(tracer.counts)
    out["chf.err_max"] = tracer.err_max
    out["trace.spans"] = len(spans)
    tracer.counts.clear()
    tracer.factored.clear()
    tracer.err_max = 0.0
    return out
