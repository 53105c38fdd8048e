"""Tracing for the benchmark's traced run, from outside the program.

Tracer.install() wraps the public functions and methods of the ortholag
layers.  Methods are wrapped on their class.  Functions are wrapped in every
ortholag.* namespace that binds them, including verify.SUITES, so calls
between modules are seen too.  uninstall() puts the originals back, so an
untraced pass in the same process runs the program unchanged.

Each wrapped call is a span: name, start, end, parent span and operation id,
kept in memory and written out by dump().  The innermost calls (scalar
boxing, dot, vec_mat) number in the millions, so they are counted and timed
but leave no span.  Self time is a call's duration minus the durations of
the wrapped calls directly inside it.
"""

import functools
import gzip
import inspect
import json
import sys
import time

# every layer module must be loaded before install() scans sys.modules
from ortholag import (cli, fields, jsonio, lagrange, linalg,  # noqa: F401
                      orthospace, strata, verify)

LAYERS = ("fields", "linalg", "orthospace", "lagrange", "strata", "verify",
          "jsonio", "cli")

# (class, method) -> (metric name, spanned)
_METHODS = {
    (fields.Field, "scalar"): ("fields.scalar", False),
    (linalg.Matrix, "rref"): ("linalg.rref", True),
    (linalg.Matrix, "kernel"): ("linalg.kernel", True),
    (linalg.Matrix, "inverse"): ("linalg.inverse", True),
    (linalg.Subspace, "span"): ("linalg.span", True),
    (linalg.Subspace, "intersection"): ("linalg.intersection", True),
    (linalg.Subspace, "__and__"): ("linalg.intersection", True),
    (linalg.Subspace, "sum"): ("linalg.sum", True),
    (linalg.Subspace, "__add__"): ("linalg.sum", True),
    (linalg.Subspace, "apply"): ("linalg.apply", True),
    (linalg.Subspace, "coordinates"): ("linalg.coordinates", True),
    (orthospace.GramSpace, "__init__"): ("orthospace.gramspace", True),
    (orthospace.GramSpace, "restrict"): ("orthospace.restrict", True),
}

# module functions whose spans would be too many; counted only
_UNSPANNED = {"linalg.dot", "linalg.vec_mat", "fields.is_square"}

# short metric names for the module functions the issue names
_RENAMES = {
    "orthospace.witt_decompose": "orthospace.witt",
    "orthospace.orthogonal_complement": "orthospace.complement",
    "lagrange.enumerate_lagrangians": "lagrange.enumerate",
    "lagrange.component_of": "lagrange.component",
    "lagrange.complement_corank_law": "lagrange.corank",
    "lagrange.lift_odd_to_even": "lagrange.lift",
    "lagrange.restrict_even_to_odd": "lagrange.restrict",
}


def _module_functions():
    """(original function, metric name) for every public layer function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"ortholag.{layer}"]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                out.append((val, _RENAMES.get(name, name)))
    return out


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = self.self_time = 0.0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []       # (id, name, start, end, parent id, op id)
        self.stack = []       # open calls: [name, start, child time, id]
        self.next_id = 0
        self.op = None
        self.outputs = 0      # Lagrangians returned by enumerate_lagrangians
        self.rref_cells = 0   # sum of rows * cols over rref calls
        self._saved = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, spanned):
        stat = self.stats.setdefault(name, Stat())
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        counts_outputs = name == "lagrange.enumerate"
        counts_cells = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_cells:
                self.rref_cells += args[0].nrows * args[0].ncols
            sid = self.next_id
            self.next_id = sid + 1
            frame = [name, clock(), 0.0, sid]
            stack.append(frame)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                if counts_outputs:
                    self.outputs += len(out)
                return out
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[2]
                if not ok:
                    stat.errors += 1
                if stack:
                    stack[-1][2] += dur
                if spanned:
                    spans.append((sid, name, frame[1], end,
                                  stack[-1][3] if stack else None, self.op))

        return wrapper

    def install(self):
        for (cls, attr), (name, spanned) in _METHODS.items():
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            w = self._wrap(fn, name, spanned)
            if isinstance(raw, classmethod):
                w = classmethod(w)
            setattr(cls, attr, w)
            self._saved.append((cls, attr, raw))
        # Matrix.__mul__ also scales by a scalar (__rmul__ and __sub__ go
        # there): only products of two matrices count as linalg.matmul
        mul = linalg.Matrix.__mul__
        product = self._wrap(mul, "linalg.matmul", True)
        scaling = self._wrap(mul, "linalg.scale", True)

        @functools.wraps(mul)
        def dispatch(a, b):
            return (product if isinstance(b, linalg.Matrix) else scaling)(a, b)
        linalg.Matrix.__mul__ = dispatch
        self._saved.append((linalg.Matrix, "__mul__", mul))
        wrappers = {}
        for fn, name in _module_functions():
            wrappers[fn] = self._wrap(fn, name, name not in _UNSPANNED)
        for modname, mod in list(sys.modules.items()):
            if modname != "ortholag" and not modname.startswith("ortholag."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._saved.append((mod, attr, val))
        for key, fn in list(verify.SUITES.items()):
            verify.SUITES[key] = wrappers[fn]
            self._saved.append((verify.SUITES, key, fn))

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def stat(self, name):
        return self.stats.get(name) or Stat()

    def layer_self(self, layer):
        return sum(s.self_time for n, s in self.stats.items()
                   if n.split(".")[0] == layer)

    def spans_under(self, name, ancestor):
        """Spans called name that have a span called ancestor above them."""
        parent = {s[0]: (s[1], s[4]) for s in self.spans}
        count = 0
        for sid, sname, _, _, pid, _ in self.spans:
            if sname != name:
                continue
            while pid in parent:
                pname, pid = parent[pid]
                if pname == ancestor:
                    count += 1
                    break
        return count

    def metrics(self, ops, loop_scalar_calls):
        """Per-layer metrics: name -> (value, unit)."""
        st = self.stat
        spans_in_enum = self.spans_under("linalg.span", "lagrange.enumerate")
        m = {
            "fields.scalar_calls": (st("fields.scalar").calls, "count"),
            "fields.scalar_calls_per_op": (loop_scalar_calls / ops, "count/op"),
            "fields.scalar_s": (st("fields.scalar").total, "s"),
            "fields.is_square_calls": (st("fields.is_square").calls, "count"),
        }
        for short in ("rref", "kernel", "span", "intersection", "matmul"):
            m[f"linalg.{short}_calls"] = (st(f"linalg.{short}").calls, "count")
            m[f"linalg.{short}_s"] = (st(f"linalg.{short}").total, "s")
        m["linalg.rref_cells"] = (self.rref_cells, "count")
        m["linalg.self_s"] = (self.layer_self("linalg"), "s")
        witt = st("orthospace.witt")
        m.update({
            "orthospace.witt_calls": (witt.calls, "count"),
            "orthospace.witt_s": (witt.total, "s"),
            "orthospace.witt_errors": (witt.errors, "count"),
            "orthospace.complement_calls": (st("orthospace.complement").calls,
                                            "count"),
            "orthospace.complement_s": (st("orthospace.complement").total, "s"),
            "orthospace.gramspace_builds": (st("orthospace.gramspace").calls,
                                            "count"),
            "orthospace.self_s": (self.layer_self("orthospace"), "s"),
            "lagrange.enumerate_calls": (st("lagrange.enumerate").calls, "count"),
            "lagrange.enumerate_s": (st("lagrange.enumerate").total, "s"),
            "lagrange.outputs": (self.outputs, "count"),
            "lagrange.enum_yield": (self.outputs / spans_in_enum
                                    if spans_in_enum else 0.0, "ratio"),
        })
        for short in ("component", "corank", "lift", "restrict"):
            m[f"lagrange.{short}_calls"] = (st(f"lagrange.{short}").calls, "count")
        m["lagrange.self_s"] = (self.layer_self("lagrange"), "s")
        m["strata.calls"] = (sum(s.calls for n, s in self.stats.items()
                                 if n.startswith("strata.")), "count")
        m["strata.self_s"] = (self.layer_self("strata"), "s")
        m["verify.suite_s"] = (sum(st(f"verify.{f.__name__}").total
                                   for f in verify.SUITES.values()), "s")
        m["jsonio.calls"] = (sum(s.calls for n, s in self.stats.items()
                                 if n.startswith("jsonio.")), "count")
        m["jsonio.self_s"] = (self.layer_self("jsonio"), "s")
        m["cli.main_s"] = (st("cli.main").total, "s")
        return m

    def dump(self, path):
        """Write the spans as gzipped JSON lines:
        id, name, start, end, parent id, operation id."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
