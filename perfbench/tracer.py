"""Per-layer tracing for one benchmark pass.

The tracer wraps the public functions and methods of every ellcomb
module from outside the library.  Modules bind names such as
``theta_product`` at import time, so each wrapper is installed in every
module namespace that holds the original object, and methods are
replaced on their class.

A span (name, start, end, parent) is recorded where a call crosses from
one layer into another, and for the few functions whose inclusive time
is a metric of its own (``ALWAYS_SPAN``).  A call that stays inside the
layer of the span around it is only counted: its time belongs to that
layer either way, so per-layer self time (span minus child spans) is
unchanged, and the hot same-layer recursion of ``normal_order`` or
``theta_product -> theta`` costs one counter increment instead of a
span.  Spans stay in memory and are written out when the pass ends.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("special_fn", "weightpoly", "ncword", "boards", "skewpoly",
          "verify", "cli")

# Arithmetic dunders are the hot path of the symbolic layers; other
# dunders (__eq__, __hash__, __init__) run inside dict operations and
# are left alone.
_DUNDERS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__")

WEIGHT_METHODS = ("small", "big", "binom", "single")
WEIGHTPOLY_OPS = frozenset("weightpoly:WeightPolynomial." + n for n in
                           _DUNDERS + ("times_symbol", "shift"))

# Hot calls that do a cache lookup or a few float operations: timing
# them would cost more than they do, so they are counted only and their
# time stays with the caller's span.
COUNT_ONLY = frozenset({
    "special_fn:qpow", "special_fn:require_finite",
    "special_fn:EllipticWeights.single",
})

# Functions whose own inclusive time is reported, so they always get a
# span even when called from their own layer.
ALWAYS_SPAN = frozenset({
    "weightpoly:WeightPolynomial.evaluate",
    "boards:rook_poly", "boards:file_poly",
    "boards:rook_product_sides", "boards:file_product_sides",
    "skewpoly:SkewPoly.evaluate",
    "verify:run_check",
})


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if not n.startswith("_")]


class Tracer:
    """Spans and counters for one pass.  ``install`` patches the library;
    the process exits after the pass, so nothing is unpatched."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.calls: list = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._open = [-1]
        self._open_layer = [-1]
        self.on = False
        self.counters = {
            "theta_calls": 0, "theta_reused": 0,
            "normal_order_calls": 0, "normal_order_reused": 0,
            "terms_out": 0, "monomials_out": 0,
        }
        self.symbolic_spans: set = set()
        self.check_of_span: dict = {}
        self._theta_seen: set = set()
        self._words_seen: set = set()

    # -- installation -------------------------------------------------

    def install(self, package_name: str = "ellcomb") -> None:
        """Wrap every public function and method of each layer module."""
        layer_modules = {layer: importlib.import_module(f"{package_name}.{layer}")
                         for layer in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package_name or name.startswith(package_name + ".")]
        replaced: dict = {}
        for layer, module in layer_modules.items():
            for name in _public_names(module):
                obj = getattr(module, name, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            setattr(cls, attr, self._wrap(value, layer, f"{cls.__name__}.{attr}"))

    def _name_id(self, full: str) -> int:
        nid = self.name_ids.get(full)
        if nid is None:
            nid = len(self.names)
            self.names.append(full)
            self.name_ids[full] = nid
            self.calls.append(0)
        return nid

    def _wrap(self, fn, layer: str, name: str):
        full = f"{layer}:{name}"
        nid = self._name_id(full)
        lid = LAYERS.index(layer)
        always = full in ALWAYS_SPAN
        hook = self._hook_for(full)
        tracer = self
        calls = self.calls
        open_spans = self._open
        open_layer = self._open_layer
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def counter(*args, **kwargs):
            if tracer.on:
                calls[nid] += 1
            return fn(*args, **kwargs)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if open_layer[-1] == lid and not always:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, -1)
                return result
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(open_spans[-1])
            s_end.append(0.0)
            open_spans.append(idx)
            open_layer.append(lid)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, idx)
                return result
            finally:
                s_end[idx] = clock()
                open_spans.pop()
                open_layer.pop()

        if full in COUNT_ONLY:
            wrapper = counter
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters measured at the same boundaries -----------------------

    def _hook_for(self, full: str):
        counters = self.counters
        if full == "special_fn:theta":
            seen = self._theta_seen

            def theta_hook(args, kwargs, result, idx):
                counters["theta_calls"] += 1
                key = (complex(_arg(args, kwargs, 0, "x")),
                       complex(_arg(args, kwargs, 1, "p")))
                if key in seen:
                    counters["theta_reused"] += 1
                else:
                    seen.add(key)
            return theta_hook
        if full == "ncword:normal_order":
            seen_words = self._words_seen

            def normal_order_hook(args, kwargs, result, idx):
                counters["normal_order_calls"] += 1
                key = (str(_arg(args, kwargs, 0, "word")).lower(),
                       _arg(args, kwargs, 1, "rs"),
                       _arg(args, kwargs, 2, "strategy", "rightmost"))
                if key in seen_words:
                    counters["normal_order_reused"] += 1
                else:
                    seen_words.add(key)
                if idx >= 0:
                    counters["monomials_out"] += _monomials(result)
            return normal_order_hook
        if full == "ncword:expand_power_sum":
            def power_sum_hook(args, kwargs, result, idx):
                if idx >= 0:
                    counters["monomials_out"] += _monomials(result)
            return power_sum_hook
        if full in WEIGHTPOLY_OPS:
            def op_hook(args, kwargs, result, idx):
                counters["terms_out"] += len(getattr(result, "terms", ()))
            return op_hook
        if full in ("boards:rook_poly", "boards:file_poly"):
            symbolic = self.symbolic_spans

            def poly_hook(args, kwargs, result, idx):
                if getattr(_arg(args, kwargs, 2, "family"), "symbolic", False):
                    symbolic.add(idx)
            return poly_hook
        if full == "verify:run_check":
            check_of_span = self.check_of_span

            def run_check_hook(args, kwargs, result, idx):
                check_of_span[idx] = _arg(args, kwargs, 0, "check_id")
            return run_check_hook
        return None

    # -- results ------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer self time, call counts, and the named inclusive times."""
        n = len(self.span_name)
        names = self.names
        child_time = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive: dict = {}
        check_s: dict = {}
        symbolic_poly_s = numeric_poly_s = 0.0
        for i in range(n):
            full = names[self.span_name[i]]
            layer = full.split(":", 1)[0]
            self_s[layer] += dur[i] - child_time[i]
            # inclusive time of a name counts outermost spans only, so
            # nested calls of the same function are not counted twice
            parent = self.span_parent[i]
            if parent < 0 or names[self.span_name[parent]] != full:
                inclusive[full] = inclusive.get(full, 0.0) + dur[i]
            if full in ("boards:rook_poly", "boards:file_poly"):
                if i in self.symbolic_spans:
                    symbolic_poly_s += dur[i]
                else:
                    numeric_poly_s += dur[i]
            check = self.check_of_span.get(i)
            if check is not None:
                check_s[check] = check_s.get(check, 0.0) + dur[i]
        calls = {layer: 0 for layer in LAYERS}
        per_name = dict(zip(names, self.calls))
        for full, count in per_name.items():
            calls[full.split(":", 1)[0]] += count
        c = self.counters
        weight_calls = sum(count for full, count in per_name.items()
                           if full.startswith("special_fn:")
                           and full.rsplit(".", 1)[-1] in WEIGHT_METHODS)
        out = {
            "special_fn.self_s": self_s["special_fn"],
            "special_fn.calls": calls["special_fn"],
            "special_fn.weight_calls": weight_calls,
            "special_fn.theta_calls": c["theta_calls"],
            "special_fn.theta_reuse": (c["theta_reused"] / c["theta_calls"]
                                       if c["theta_calls"] else 0.0),
            "weightpoly.self_s": self_s["weightpoly"],
            "weightpoly.ops": sum(per_name.get(n, 0) for n in WEIGHTPOLY_OPS),
            "weightpoly.evaluate_s": inclusive.get("weightpoly:WeightPolynomial.evaluate", 0.0),
            "weightpoly.terms_out": c["terms_out"],
            "ncword.self_s": self_s["ncword"],
            "ncword.normal_order_calls": c["normal_order_calls"],
            "ncword.normal_order_reuse": (c["normal_order_reused"] / c["normal_order_calls"]
                                          if c["normal_order_calls"] else 0.0),
            "ncword.monomials_out": c["monomials_out"],
            "boards.self_s": self_s["boards"],
            "boards.poly_calls": per_name.get("boards:rook_poly", 0)
                                 + per_name.get("boards:file_poly", 0),
            "boards.symbolic_poly_s": symbolic_poly_s,
            "boards.numeric_poly_s": numeric_poly_s,
            "boards.product_sides_s": inclusive.get("boards:rook_product_sides", 0.0)
                                      + inclusive.get("boards:file_product_sides", 0.0),
            "skewpoly.self_s": self_s["skewpoly"],
            "skewpoly.calls": calls["skewpoly"],
            "skewpoly.evaluate_s": inclusive.get("skewpoly:SkewPoly.evaluate", 0.0),
            "verify.self_s": self_s["verify"],
            "cli.self_s": self_s["cli"],
        }
        return {"metrics": out, "check_s": check_s, "spans": n}

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans: a JSON header and four packed arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, calls=self.calls,
                      spans=len(self.span_name),
                      layout=["name:i32", "parent:i32", "start:f64", "end:f64"],
                      clock="time.perf_counter")
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def _monomials(normal_form) -> int:
    """Weight monomials in a normal form: terms summed over its x^i y^j
    coefficients."""
    coeffs = getattr(normal_form, "coeffs", {})
    return sum(len(getattr(c, "terms", ())) for c in coeffs.values())


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)
