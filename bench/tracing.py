"""Per-layer trace: spans around the public functions of every clext module.

The tracer patches clext from outside.  Each public function of a layer
module is replaced by a wrapper that records one span (name, start, end,
parent) per call, and the wrapper is bound under every name that refers
to the original, in every clext module, so calls through a by-name
import (`from .specfun import pfq` in observables and states,
`from .quadrature import tanh_sinh` in specfun) are seen too.  A few
scalar helpers that run inside inner loops get no span (their time stays
with the caller), and `structure_function` is only counted.

Sizes come from returned values (`SeriesValue.terms`, `QuadResult.nodes`,
`StateVector.dim`, `TruncatedOperator.dim`) or, for the vectorized
Meijer-G and weight evaluators, from the length of the argument array.
A layer's self time is its spans' time minus the time of their child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("algebra", "specfun", "quadrature", "states", "measures", "bargmann",
          "observables", "figures", "cli")
# scalar helpers called from inner loops: traced spans would mostly time the tracer
UNTRACED = {
    "algebra": {"energy_eigenvalue", "fock_normalization_sq"},
    "specfun": {"is_nonpositive_integer", "sinpi", "gamma_sign", "lgamma_signed", "rgamma",
                "lgamma_complex"},
}
COUNT_ONLY = {"algebra": {"structure_function"}}
METHODS = {"measures": {"WeightFunction": ("evaluate", "moment"),
                        "EigenstateMeasures": ("h", "g", "h_moment", "g_moment")}}
MEIJER = ("specfun.m0_eval_vec", "specfun.g_general_vec")
STATE_BUILDERS = ("states.cs_alpha_state", "states.eigenstate", "states.component_zmu")
STATE_NORMS = ("states.eigenstate_norm", "states.eigenstate_norm_components",
               "states.norm_series_cs_alpha")


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def _is_observable(label: str):
    return lambda name: name.startswith("observables.") and name.endswith(":" + label)


# per-layer metric -> (aggregate, span-name predicate)
#   calls: number of spans; size: summed sizes; self: self time (ms);
#   incl: span time including children (ms)
PER_LAYER = {
    "specfun.pfq.calls": ("calls", lambda n: n == "specfun.pfq"),
    "specfun.pfq.terms": ("size", lambda n: n == "specfun.pfq"),
    "specfun.pfq.self_ms": ("self", lambda n: n == "specfun.pfq"),
    "specfun.meijer.points": ("size", lambda n: n in MEIJER),
    "specfun.meijer.self_ms": ("self", lambda n: n in MEIJER),
    "specfun.kernel.build_ms": ("incl", lambda n: n == "specfun.build_convolution_kernel"),
    "quadrature.tanh_sinh.calls": ("calls", lambda n: n == "quadrature.tanh_sinh"),
    "quadrature.tanh_sinh.nodes": ("size", lambda n: n == "quadrature.tanh_sinh"),
    "quadrature.tanh_sinh.self_ms": ("self", lambda n: n == "quadrature.tanh_sinh"),
    "measures.weight.calls": ("calls", lambda n: n == "measures.weight_function"),
    "measures.moment.calls": ("calls", lambda n: n == "measures.WeightFunction.moment"),
    "measures.evaluate.points": ("size", lambda n: n == "measures.WeightFunction.evaluate"),
    "measures.self_ms": ("self", lambda n: _module_of(n) == "measures"),
    "observables.closed.calls": ("calls", _is_observable("closed")),
    "observables.closed.self_ms": ("self", _is_observable("closed")),
    "observables.oracle.calls": ("calls", _is_observable("oracle")),
    "observables.oracle.self_ms": ("self", _is_observable("oracle")),
    "states.build.calls": ("calls", lambda n: n in STATE_BUILDERS),
    "states.build.dim_sum": ("size", lambda n: n in STATE_BUILDERS),
    "states.self_ms": ("self", lambda n: _module_of(n) == "states"),
    "states.norm.calls": ("calls", lambda n: n in STATE_NORMS),
    "algebra.build_operator.calls": ("calls", lambda n: n == "algebra.build_operator"),
    "algebra.build_operator.dim_sum": ("size", lambda n: n == "algebra.build_operator"),
    "algebra.self_ms": ("self", lambda n: _module_of(n) == "algebra"),
    "algebra.structure_function.calls": ("count", "algebra.structure_function"),
    "bargmann.calls": ("calls", lambda n: _module_of(n) == "bargmann"),
    "bargmann.self_ms": ("self", lambda n: _module_of(n) == "bargmann"),
    "figures.points": ("size", lambda n: n == "figures.run_figure"),
    "figures.self_ms": ("self", lambda n: _module_of(n) == "figures"),
    "cli.calls": ("calls", lambda n: n == "cli.main"),
    "cli.self_ms": ("self", lambda n: _module_of(n) == "cli"),
}
COUNT_METRICS = tuple(k for k, (agg, _) in PER_LAYER.items() if agg in ("calls", "size", "count"))


def _size(name: str, result, args, parent: str | None) -> int:
    """Work size of one call, from its result or its array argument."""
    if name in MEIJER:
        # m0_eval_vec hands its points on to g_general_vec: count them once
        if parent in MEIJER:
            return 0
        return int(np.size(args[1 if name == "specfun.m0_eval_vec" else 2]))
    if name == "measures.WeightFunction.evaluate":
        return int(np.size(args[1]))
    if name == "figures.run_figure":
        job = args[0]
        return int(job.grid[2]) * len(job.curves)
    for attr in ("terms", "nodes", "dim"):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            return value
    return 0


class Tracer:
    """Installs the wrappers, keeps one pass of spans, and aggregates them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, size]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._wrappers: dict = {}  # original function -> wrapper
        self._patched: list[tuple[object, str, object]] = []
        self._build()

    # ----------------------------------------------------------------- set-up

    def _span_wrapper(self, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        method_at = None
        observable = _module_of(name) == "observables"
        if observable:
            params = list(inspect.signature(fn).parameters)
            method_at = params.index("method") if "method" in params else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if observable:
                method = kwargs.get("method")
                if method is None and method_at is not None and len(args) > method_at:
                    method = args[method_at]
                label = f"{name}:{'oracle' if method == 'oracle' else 'closed'}"
            parent = stack[-1] if stack else -1
            rec = [label, 0.0, 0.0, parent, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            rec[4] = _size(name, result, args, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _build(self):
        self._modules = [importlib.import_module("clext")]
        self._methods = []
        for layer in LAYERS:
            mod = importlib.import_module(f"clext.{layer}")
            self._modules.append(mod)
            for fname, obj in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or fname in UNTRACED.get(layer, ())):
                    continue
                name = f"{layer}.{fname}"
                if fname in COUNT_ONLY.get(layer, ()):
                    self._wrappers[obj] = self._count_wrapper(name, obj)
                else:
                    self._wrappers[obj] = self._span_wrapper(name, obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._methods.append((cls, meth, fn,
                                          self._span_wrapper(f"{layer}.{cls_name}.{meth}", fn)))

    def install(self):
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        for cls, meth, fn, wrapper in self._methods:
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # ------------------------------------------------------------ aggregation

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "size": 0, "self": 0.0, "incl": 0.0})
        for i, (name, start, end, _, size) in enumerate(self.spans):
            agg = by_name[name]
            agg["calls"] += 1
            agg["size"] += size
            agg["self"] += (end - start - child[i]) * 1e3
            agg["incl"] += (end - start) * 1e3
        out = {}
        for metric, (kind, pred) in PER_LAYER.items():
            if kind == "count":
                out[metric] = self.counts.get(pred, 0)
            else:
                out[metric] = sum(agg[kind] for name, agg in by_name.items() if pred(name))
        return out

    def span_records(self) -> list[list]:
        """Spans as [name, start_us, end_us, parent] relative to the first start."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for n, s, e, p, _ in self.spans]
