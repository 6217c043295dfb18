"""Out-of-tree tracer for the parkhopf benchmark.

`Tracer.install()` replaces every public function of the package's modules,
and the arithmetic methods of its classes, with a wrapper, in every namespace
that binds it: the defining module, each module that imported the name with
``from .x import y``, and the class dict for methods.  No file of the package
is edited; the wrappers live only in the traced process.

A call that crosses from one layer (module) into another opens a frame.  The
frame's duration minus the time of the frames it caused is that layer's self
time.  Frames of ordinary functions are also kept as spans (id, name, start,
end, parent id, run id) in memory until `write_spans()`.  The hot methods of
the exact kernel (`Poly`, `RatFun`, `LinComb`, gcd and exact division) are
called millions of times, so they keep self time and counters but no span.

Counters that must repeat exactly between two traced runs are integers taken
at the call boundary; timings (`*.s`, `*.self_s`) are not expected to repeat.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import re
import time
from collections import Counter

PACKAGE = "parkhopf"
LAYERS = ("cli", "combinat", "exact", "symfun", "hopf", "operad", "lagrange",
          "chars")
ROOT = "driver"
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Methods of package classes that are wrapped besides the public ones.
_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
            "__pow__")
_HOT_FUNCTIONS = {"exact.poly_gcd", "exact.poly_divexact"}
_HOT_CLASSES = {"exact.Poly", "exact.RatFun", "exact.LinComb"}
# The binary operations of the algebras; a product called inside another
# product is part of it and is not counted again.
_HOPF_PRODUCT = re.compile(
    r"hopf\.(?!qr_)\w+_(product|prec|succ|mid|left|right|thirds)$")
_WQSYM_SELECTORS = {"hopf.wqsym_left", "hopf.wqsym_mid", "hopf.wqsym_right"}


def _is_one(p) -> bool:
    """True for the constant polynomial 1."""
    if len(p.terms) != 1:
        return False
    (exps, coeff), = p.terms.items()
    return coeff == 1 and not any(exps)


class Tracer:
    """Wraps the package in place and accumulates spans and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.timers: Counter = Counter()
        self.self_s = dict.fromkeys((ROOT, *LAYERS), 0.0)
        self.modules: dict = {}
        # frame: [layer, time of child frames, span id]
        self._stack: list[list] = [[ROOT, 0.0, -1]]
        self._next_span = 0
        self._product_depth = 0
        self._selector_depth = 0
        self._gcd_depth = 0
        self._start = None

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for layer in LAYERS:
            self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        wrapped: dict[int, object] = {}
        for layer, module in self.modules.items():
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(value):
                    if self._owner(value) == layer:
                        self._wrap_class(value, layer, wrapped)
                    continue
                owner = self._owner(value)
                if owner is None or not callable(value):
                    continue
                if id(value) not in wrapped:
                    qual = f"{owner}.{getattr(value, '__qualname__', name)}"
                    wrapped[id(value)] = self._wrap(value, owner, qual)
                setattr(module, name, wrapped[id(value)])
        self._start = self.clock()
        return self

    def _owner(self, value):
        module = getattr(value, "__module__", None) or ""
        prefix = PACKAGE + "."
        if not module.startswith(prefix):
            return None
        layer = module[len(prefix):]
        # the tuple's own string, so that wrappers compare layers with `is`
        return LAYERS[LAYERS.index(layer)] if layer in LAYERS else None

    def _wrap_class(self, cls, layer, wrapped):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            kind = None
            if isinstance(value, (classmethod, staticmethod)):
                kind, value = type(value), value.__func__
            if not inspect.isfunction(value):
                continue
            if id(value) not in wrapped:
                wrapped[id(value)] = self._wrap(
                    value, layer, f"{layer}.{value.__qualname__}")
            new = wrapped[id(value)]
            setattr(cls, name, kind(new) if kind else new)

    def _wrap(self, fn, layer, qual):
        hot = qual in _HOT_FUNCTIONS or qual.rsplit(".", 1)[0] in _HOT_CLASSES
        body = self._hook(fn, qual)
        calls, stack = self.calls, self._stack
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            # the work happens while the generator is resumed, not called
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[qual] += 1
                return self._traced_gen(fn(*args, **kwargs), layer, qual)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if stack[-1][0] is layer:
                return body(*args, **kwargs)
            frame, t0 = enter(layer)
            try:
                return body(*args, **kwargs)
            finally:
                leave(frame, t0, qual, hot)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _enter(self, layer):
        frame = [layer, 0.0, self._next_span]
        self._next_span += 1
        self._stack.append(frame)
        return frame, self.clock()

    def _leave(self, frame, t0, name, hot):
        t1 = self.clock()
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self.self_s[frame[0]] += dur - frame[1]
        parent = stack[-1]
        parent[1] += dur
        if not hot:
            self.spans.append((frame[2], name, t0, t1, parent[2], self.run_id))

    def _traced_gen(self, gen, layer, qual):
        stack = self._stack
        items = 0
        try:
            while True:
                if stack[-1][0] is layer:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                else:
                    frame, t0 = self._enter(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(frame, t0, qual, False)
                items += 1
                yield item
        finally:
            self._count_items(layer, qual, items)

    # -- counters ------------------------------------------------------------

    def _count_items(self, layer, qual, items):
        if layer == "combinat":
            self.counters["combinat.items"] += items
        elif qual == "operad.all_eval_trees":
            self.counters["operad.eval_trees.items"] += items

    def _hook(self, fn, qual):
        """The callable the wrapper runs: `fn`, or `fn` plus its counters."""
        counters, timers, clock = self.counters, self.timers, self.clock
        layer = qual.split(".", 1)[0]
        if qual == "exact.LinComb.__add__":
            def body(a, b):
                counters["exact.lincomb_add.copied_terms"] += len(a.terms)
                return fn(a, b)
            return body
        if qual == "exact.poly_gcd":
            def body(a, b):
                self._gcd_depth += 1
                t0 = clock()
                try:
                    g = fn(a, b)
                finally:
                    self._gcd_depth -= 1
                    if not self._gcd_depth:
                        timers["exact.poly_gcd.s"] += clock() - t0
                counters["exact.poly_gcd.trivial"] += _is_one(g)
                return g
            return body
        if qual == "exact.span_dimension":
            def body(vectors):
                vectors = list(vectors)
                keys = {k for v in vectors for k in v.terms}
                counters["exact.span_dimension.rows"] += len(vectors)
                counters["exact.span_dimension.cols"] += len(keys)
                counters["exact.span_dimension.nnz"] += sum(
                    len(v.terms) for v in vectors)
                t0 = clock()
                try:
                    return fn(vectors)
                finally:
                    timers["exact.span_dimension.s"] += clock() - t0
            return body
        if _HOPF_PRODUCT.match(qual):
            def body(*args, **kwargs):
                selector = qual in _WQSYM_SELECTORS
                thirds = self.calls["hopf.wqsym_thirds"]
                self._product_depth += 1
                self._selector_depth += selector
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._product_depth -= 1
                    self._selector_depth -= selector
                if selector:
                    counters["hopf.wqsym_thirds.used"] += 1
                    if self.calls["hopf.wqsym_thirds"] == thirds:
                        counters["hopf.wqsym_thirds.computed"] += 1
                elif qual == "hopf.wqsym_thirds":
                    counters["hopf.wqsym_thirds.computed"] += 3
                    if not self._selector_depth:
                        counters["hopf.wqsym_thirds.used"] += 3
                if not self._product_depth:
                    counters["hopf.product.calls"] += 1
                    parts = out if isinstance(out, tuple) else (out,)
                    counters["hopf.product.terms_out"] += sum(
                        len(p) for p in parts)
                return out
            return body
        if layer == "combinat" and hasattr(fn, "cache_info"):
            def body(*args, **kwargs):
                misses = fn.cache_info().misses
                out = fn(*args, **kwargs)
                if fn.cache_info().misses != misses:
                    counters["combinat.items"] += len(out)
                return out
            return body
        if qual == "combinat.permutations":
            def body(*args, **kwargs):
                out = fn(*args, **kwargs)
                counters["combinat.items"] += len(out)
                return out
            return body
        return fn

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        """Counters, timers, call counts and self time per layer."""
        window = self.clock() - self._start
        self.self_s[ROOT] = window - sum(
            v for k, v in self.self_s.items() if k != ROOT)
        hits = misses = 0
        for fn in vars(self.modules["combinat"]).values():
            if self._owner(fn) == "combinat" and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        counters = dict(self.counters)
        counters["combinat.cache.hits"] = hits
        counters["combinat.cache.misses"] = misses
        return {"window_s": window, "self_s": self.self_s,
                "timers": dict(self.timers), "counters": counters,
                "calls": dict(self.calls), "spans": len(self.spans)}

    def write_spans(self, filename: str) -> str:
        """Write the spans, one tab-separated line each, under `SPANS_DIR`."""
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, filename)
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\trun_id\n")
            for span in sorted(self.spans):
                out.write("\t".join(map(str, span)) + "\n")
        return path
