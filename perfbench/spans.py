"""Outside-in tracing of the `pfzeros` layers.

Every public function of the layer modules is wrapped at every module
binding that holds it: its own module, the `pfzeros` re-exports, and names
imported with `from .zeros import ...` such as
`pfzeros.density.find_zeros_region`. No library file changes. A wrapper
records one span (name, start, end, parent, invocation id) per call, kept in
memory and written out when the run ends. Per-point helpers get a call count
only, because a span per call would cost more than the call.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("model", "diagram", "zeros", "density", "analysis", "render", "cli")

# Called once per grid or curve point (eval_v: ~114k calls on
# predict-two-phase); spans here would dominate the traced time.
COUNT_ONLY = {
    "model.eval_v",
    "model.eval_log_zeta",
    "model.stability",
    "model.almost_stable_set",
    "model.in_stability_region",
    "model.in_two_phase_region",
    "model.in_coexistence_strip",
    "model.convexity_margin",
}


def _located(zs):
    return {"zeros.located": len(zs.zeros), "zeros.total_multiplicity": zs.total_multiplicity()}


def _predicted(zs):
    return {"zeros.predicted": len(zs.zeros)}


# Exact counts read from return values.
RESULT_COUNTS = {
    "zeros.find_zeros_region": _located,
    "zeros.predict_two_phase": _predicted,
    "zeros.predict_multipoint": _predicted,
    "diagram.trace_curve": lambda curve: {"diagram.curve_samples": len(curve.samples)},
    "analysis.covering_check": lambda rep: {"analysis.points_checked": rep.checked},
}


class Tracer:
    """Spans and counts for one traced run; install() before, uninstall() after."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, invocation]
        self.calls = Counter()
        self.counts = Counter()
        self.invocation = -1
        self._stack = []
        self._bindings = []  # (namespace, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pfzeros.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counter if name in COUNT_ONLY else self._spanner
                wrappers[id(fn)] = (fn, wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "pfzeros" and not modname.startswith("pfzeros."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._bindings.append((mod, attr, value, wrappers[id(value)][1]))

    def install(self):
        for mod, attr, _orig, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _wrapper in self._bindings:
            setattr(mod, attr, orig)

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        on_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                self.counts.update(on_result(result))
            return result

        return spanned

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()

    def self_times(self) -> dict:
        """Per function: [calls with a span, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _inv in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for k, (name, t0, t1, _parent, _inv) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[k]
        return out

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _n, t0, t1, parent, _i in self.spans if parent < 0)
