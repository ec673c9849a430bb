"""Layer tracer for doublerep, installed from outside the package.

The layers are the package modules.  ``Tracer.install`` replaces every public
function and method of each module with a timing wrapper:

* layer-boundary functions record a span ``(parent, name, start, end)``;
* methods of the value types in ``VALUE_TYPES`` (and all of ``cyclo``) run
  10^5-10^6 times per command, so they keep a call count and total time
  instead of spans.

Both kinds of wrapper share one stack, so each call's self time is its
duration minus the time of the wrapped calls made inside it.  Modules import
functions by name (``from .linalg import rank``), so a module-level function
is rebound under every alias in every ``doublerep`` namespace; ``uninstall``
puts every original back.

Only the calling process is traced.  Worker processes forked by
``classify --jobs`` run the wrappers too, but their records are not collected.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from importlib import import_module

PACKAGE = "doublerep"
LAYERS = ("cyclo", "linalg", "datum", "repmod", "constructors", "homology", "cli")

# Classes whose instances are small values used inside every computation.
VALUE_TYPES = frozenset({"CycScalar", "Mat", "FinAbGroup", "GroupChar", "Weight",
                         "EtaParam"})
# Operator methods of value types, wrapped along with their public methods.
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__pow__", "__eq__", "__ne__", "__bool__"})
# Each of these runs exactly one Gaussian elimination on its input.
ELIMINATIONS = ("linalg.rank", "linalg.rref", "linalg.nullspace", "linalg.solve_right")


def _elim_cells(args) -> int:
    """Cells of the matrix eliminated: solve_right(a, b) reduces [a | b]."""
    m = args[0]
    return m.nrows * (m.ncols + sum(b.ncols for b in args[1:]))


class Tracer:
    """Wrappers, their records, and the originals to put back."""

    def __init__(self):
        self.spans: list = []          # index = span id; (parent id, name, start, end)
        self.calls: dict[str, int] = {}        # counted wrappers: name -> calls
        self.total_s: dict[str, float] = {}    # counted wrappers: name -> seconds
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.elim_cells = 0
        self.matmul_calls = 0
        # Root frame: [seconds covered by wrapped calls, enclosing span id].
        self._stack: list[list] = [[0.0, None]]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _work_counter(self, name: str, fn):
        """``fn``, counting the work of each call where the count is by input."""
        if name in ELIMINATIONS:
            def counted(*args, **kwargs):
                self.elim_cells += _elim_cells(args)
                return fn(*args, **kwargs)
        elif name == "linalg.Mat.__mul__":
            def counted(a, b):
                if isinstance(b, type(a)):
                    self.matmul_calls += 1
                return fn(a, b)
        else:
            return fn
        return functools.wraps(fn)(counted)

    def _span(self, layer: str, name: str, fn):
        stack, spans, self_s, clock = self._stack, self.spans, self.self_s, time.perf_counter
        fn = self._work_counter(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self_s[layer] += dur - frame[0]
                spans[sid] = (parent[1], name, t0, t1)

        return wrapper

    def _counted(self, layer: str, name: str, fn):
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        calls, total_s = self.calls, self.total_s
        fn = self._work_counter(name, fn)
        calls[name] = 0
        total_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                self_s[layer] += dur - frame[0]
                calls[name] += 1
                total_s[name] += dur

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrap = self._counted if layer == "cyclo" else self._span
                    new = wrap(layer, name, obj)
                    for ns in namespaces:
                        for alias, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, alias, new)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        value_type = layer == "cyclo" or cls.__name__ in VALUE_TYPES
        wrap = self._counted if value_type else self._span
        for attr, raw in list(vars(cls).items()):
            binder = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if binder else raw
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and not (value_type and attr in OPERATORS):
                continue
            new = wrap(layer, f"{layer}.{cls.__name__}.{attr}", fn)
            self._patch(cls, attr, binder(new) if binder else new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def report(self, wall_s: float) -> dict:
        """Aggregates for a traced call of ``wall_s`` seconds.

        ``span_calls``/``span_s`` give, per span name, the number of calls and
        the time of the outermost ones (a recursive call is not counted twice).
        ``unattributed_s`` is the part of ``wall_s`` outside every wrapped call,
        so the layer self times plus ``unattributed_s`` add up to ``wall_s``.
        """
        spans = self.spans
        span_calls: dict[str, int] = {}
        span_s: dict[str, float] = {}
        for parent, name, t0, t1 in spans:
            span_calls[name] = span_calls.get(name, 0) + 1
            outer = True
            while parent is not None:
                if spans[parent][1] == name:
                    outer = False
                    break
                parent = spans[parent][0]
            if outer:
                span_s[name] = span_s.get(name, 0.0) + (t1 - t0)
        # Hom solves made by the command itself: the classify pairwise screen.
        pairwise_hom_s = sum((t1 - t0 for parent, name, t0, t1 in spans
                              if name == "homology.hom_space" and parent is not None
                              and spans[parent][1].startswith("cli.cmd_")), 0.0)
        return {
            "wall_s": wall_s,
            "unattributed_s": wall_s - self._stack[0][0],
            "self_s": dict(self.self_s),
            "span_calls": span_calls,
            "span_s": span_s,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "elim_cells": self.elim_cells,
            "matmul_calls": self.matmul_calls,
            "pairwise_hom_s": pairwise_hom_s,
        }


def layer_metrics(rep: dict, entries: int, pairs: int, hom_pairs: int,
                  overhead: float) -> dict[str, float]:
    """Per-layer benchmark metrics from a ``Tracer.report``.

    ``entries`` is the number of manifest entries (or sequences) the command
    reported, ``pairs``/``hom_pairs`` the classify pairwise totals.
    """
    calls, total_s = rep["calls"], rep["total_s"]
    span_calls, span_s, self_s = rep["span_calls"], rep["span_s"], rep["self_s"]

    def n(*names: str) -> int:
        return sum(calls.get(f"cyclo.CycScalar.{x}", 0) for x in names)

    mul_calls = n("__mul__", "__rmul__")
    mul_s = (total_s.get("cyclo.CycScalar.__mul__", 0.0)
             + total_s.get("cyclo.CycScalar.__rmul__", 0.0))
    builds = sum(c for name, c in span_calls.items()
                 if name.startswith("constructors.") and name.count(".") == 1)
    return {
        "cyclo.self_s": self_s["cyclo"],
        "cyclo.mul_calls": mul_calls,
        "cyclo.addsub_calls": n("__add__", "__radd__", "__sub__", "__rsub__"),
        "cyclo.inv_calls": n("inv"),
        "cyclo.zero_tests": n("is_zero", "__bool__", "__eq__"),
        "cyclo.mul_us": 1e6 * mul_s / mul_calls if mul_calls else 0.0,
        "linalg.self_s": self_s["linalg"],
        "linalg.elim_calls": sum(span_calls.get(x, 0) for x in ELIMINATIONS),
        "linalg.elim_cells": rep["elim_cells"],
        "linalg.matmul_calls": rep["matmul_calls"],
        "linalg.matvec_calls": calls.get("linalg.Mat.matvec", 0),
        "datum.self_s": self_s["datum"],
        "datum.validate_calls": span_calls.get("datum.validate_datum", 0),
        "datum.classify_weight_calls": span_calls.get("datum.ValidatedDatum.classify_weight", 0),
        "constructors.self_s": self_s["constructors"],
        "constructors.build_calls": builds,
        "constructors.entries_per_build": entries / builds if builds else 0.0,
        "repmod.self_s": self_s["repmod"],
        "repmod.verify_relations_s": span_s.get("repmod.ModuleRep.verify_relations", 0.0),
        "repmod.spin_submodule_s": span_s.get("repmod.spin_submodule", 0.0),
        "repmod.json_s": (span_s.get("repmod.ModuleRep.to_json", 0.0)
                          + span_s.get("repmod.ModuleRep.from_json", 0.0)),
        "homology.self_s": self_s["homology"],
        "homology.hom_space_calls": span_calls.get("homology.hom_space", 0),
        "homology.hom_space_s": span_s.get("homology.hom_space", 0.0),
        "homology.loewy_type_s": span_s.get("homology.loewy_type", 0.0),
        "homology.end_local_dim_s": span_s.get("homology.end_local_dim", 0.0),
        "homology.syzygy_s": span_s.get("homology.syzygy", 0.0),
        "homology.is_isomorphic_s": span_s.get("homology.is_isomorphic", 0.0),
        "cli.self_s": self_s["cli"],
        "cli.pairwise_hom_s": rep["pairwise_hom_s"],
        "cli.hom_solved_ratio": hom_pairs / pairs if pairs else 0.0,
        "trace.overhead": overhead,
        "trace.unattributed_s": rep["unattributed_s"],
    }
