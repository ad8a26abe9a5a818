"""Span tracer for curvdec, installed from outside the package.

Modules import functions by name (``from .linalg import tensor_pairing``),
so patching only the defining module would miss every caller.  `install`
therefore rebinds each traced function in every ``curvdec.*`` namespace and
in the module-level dicts that hold functions (``suite.CHECKS``,
``cli._DECOMPOSERS``, ``sampling.FORMULA_DIMS``).

A span records its name, start, end, parent span, request id and n.  Spans
live in flat arrays in memory and are written out once, at the end.  Self
time is a span's duration minus the time covered by its direct children
(one thread, so children nest inside their parent).
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "jsonio", "linalg", "spaces", "decomp", "sampling", "suite", "poly", "charts")


def _n_of(args):
    """The dimension of a call, from its first array or dimensioned argument."""
    for a in args[:2]:
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) >= 2:
            return shape[0]
        d = getattr(a, "dim", None)
        if type(d) is int:
            return d
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.req = array("l")
        self.n = array("l")
        self._stack: list[int] = []
        self.request = -1
        self.request_n = 0
        self.counts = {"poly.eval.calls": 0, "poly.eval.terms": 0, "poly.mul.calls": 0,
                       "jsonio.bytes_out": 0}
        self._patches: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        nid = self._id(name)
        names, starts, ends, parents, reqs, ns = (
            self.name, self.start, self.end, self.parent, self.req, self.n)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            ns.append(_n_of(args) or self.request_n)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return span

    # -- installation ---------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        """Wrap every public curvdec function plus the named extras."""
        import curvdec.charts as charts
        import curvdec.poly as poly
        import curvdec.suite as suite

        wrapped = {}  # id(original) -> wrapper
        originals = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("curvdec."):
                continue
            layer = modname.split(".", 1)[1]
            if layer not in LAYERS:
                continue
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == modname and id(val) not in wrapped):
                    on_result = self._count_bytes if val.__name__ == "dumps" else None
                    wrapped[id(val)] = self.wrap(f"{layer}.{attr}", val, on_result)
                    originals[id(val)] = val
        for name, fn in list(suite.CHECKS.items()):
            self._set(suite.CHECKS, name, self.wrap(f"suite.check.{name}", fn))
        for meth in ("_prepared", "_point_data"):
            fn = charts.PolyChart.__dict__[meth]
            self._set(charts.PolyChart, meth, self.wrap(f"charts.PolyChart.{meth}", fn))
        self._install_poly_counters(poly.Poly)
        # rebind by name in every namespace and function-holding dict
        for modname, mod in list(sys.modules.items()):
            if modname != "curvdec" and not modname.startswith("curvdec."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and val is originals[id(val)]:
                    self._set(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrapped and item is originals[id(item)]:
                            self._set(val, key, wrapped[id(item)])

    def _count_bytes(self, text):
        self.counts["jsonio.bytes_out"] += len(text)

    def _install_poly_counters(self, cls):
        call, mul = cls.__call__, cls.__mul__
        counts = self.counts

        def counted_call(p, point):
            counts["poly.eval.calls"] += 1
            counts["poly.eval.terms"] += len(p.terms)
            return call(p, point)

        def counted_mul(p, other):
            counts["poly.mul.calls"] += 1
            return mul(p, other)

        self._set(cls, "__call__", counted_call)
        self._set(cls, "__mul__", counted_mul)
        self._set(cls, "__rmul__", counted_mul)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self):
        a = {key: np.asarray(getattr(self, key))
             for key in ("name", "start", "end", "parent", "req", "n")}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        a["dur"] = dur
        a["self"] = dur - child
        return a

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: a[k] for k in ("name", "start", "end", "parent", "req", "n")})
