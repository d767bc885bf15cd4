"""Span tracing of tracelab from outside the program.

`Tracer.install()` replaces each traced function at every name a caller
imported it under (`tracelab.cli.enumerate_ball`, `tracelab.enumerate_ball`,
...) and each traced method on its class with a wrapper that records a span;
`uninstall()` puts the originals back. Nothing in `src/` changes.

Two kinds of span:
- a *span* (public functions and CLI entry points) is kept as one record
  (id, name, parent id, start, end, self time, count);
- a *leaf* (the hot field and matrix methods, called millions of times) is
  aggregated per (name, enclosing span name) into calls, total and self
  time, so memory stays flat while every call is still timed.

Self time is a span's duration minus the time of the spans inside it. Every
name starts with its layer, which is the tracelab module it belongs to.
"""

from __future__ import annotations

import itertools
import json
import time
import types
from collections import defaultdict
from typing import Callable, Optional

import tracelab
from tracelab import analytics, arithmeticity, cli, groups, psl2, qfield

LAYERS = ("qfield", "psl2", "groups", "arithmeticity", "analytics", "cli")

QFIELD_ADD = ("__add__", "__sub__", "__rsub__")
_LEAF_METHODS = (
    (qfield.QuadElem, QFIELD_ADD + (
        "__mul__", "__neg__", "__truediv__", "__pow__", "__hash__", "__eq__",
        "real_sign", "imag_sign", "compare_embedded", "embed")),
    (psl2.ProjMat, ("__mul__", "inv", "trace", "is_identity", "__hash__", "__eq__")),
)
_LEAF_FUNCTIONS = ((psl2, ("canonical_trace",)),)
CLI_COMMANDS = ("cmd_enumerate", "cmd_traces", "cmd_cluster", "cmd_gap", "cmd_growth",
                "cmd_arith_check", "cmd_delta_c", "cmd_counting", "cmd_kronecker",
                "cmd_corollary")
_SPAN_FUNCTIONS = (
    (groups, ("enumerate_ball", "enumerate_largest_ball", "trace_set", "gamma2_ball",
              "catalog", "group_spec_from_dict")),
    (arithmeticity, ("takeuchi_verdict", "gamma2_traces", "integrality_check",
                     "conjugate_boundedness", "trace_field",
                     "subtraction_closure_check")),
    (analytics, ("cluster_counts", "gap", "growth_profile", "growth_count",
                 "delta_c_set", "delta_c_cluster_witness", "dn_set", "rn_set",
                 "rn_two_to_one_check", "totient_sum_check", "totients",
                 "kronecker_gap_demo")),
    (cli, ("main", *CLI_COMMANDS)),
)
_SPAN_METHODS = ((groups.TraceSet, ("restrict",)), (cli.Report, ("render",)))

# Work counts taken from a span's arguments or result, keyed by span name.
_COUNTS: dict[str, Callable] = {
    "groups.enumerate_ball": lambda a, k, r: r.size,
    "groups.gamma2_ball": lambda a, k, r: r.size,
    "analytics.delta_c_set": lambda a, k, r: len(r),
    "analytics.cluster_counts": lambda a, k, r: r.mass,
    "analytics.gap": lambda a, k, r: len(a[0]),
    "analytics.growth_profile": lambda a, k, r: len(a[0]) * len(a[1]),
    "arithmeticity.conjugate_boundedness": lambda a, k, r: a[0].size * len(r.shells),
    "arithmeticity.subtraction_closure_check":
        lambda a, k, r: (r.pairs_checked, a[0].size * (a[0].size - 1) // 2),
    "cli.Report.render": lambda a, k, r: len(r),
}


def _layer(obj) -> str:
    """The tracelab module that is, or defines, a module or class."""
    name = obj.__name__ if isinstance(obj, types.ModuleType) else obj.__module__
    return name.rsplit(".", 1)[-1]


class Patcher:
    """Replaces functions at every name they are bound to, and methods on
    their class, remembering the originals for `restore()`."""

    def __init__(self, extra_modules=()):
        self.modules = [tracelab, qfield, psl2, groups, analytics, arithmeticity,
                        cli, *extra_modules]
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make) -> None:
        orig = getattr(module, attr)
        wrapped = make(f"{_layer(module)}.{attr}", orig)
        for m in self.modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, wrapped)

    def methods(self, cls, attrs, make) -> None:
        for attr in attrs:
            orig = cls.__dict__[attr]
            wrapped = make(f"{_layer(cls)}.{cls.__name__}.{attr}", orig)
            # aliases such as __radd__ = __add__ share the wrapper
            for key, value in list(cls.__dict__.items()):
                if value is orig:
                    self._set(cls, key, wrapped)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, extra_modules=()):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[str, Optional[str]], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self._ids = itertools.count()
        self._stack: list[list] = []            # [child time] per open call
        self._open: list[tuple[int, str]] = []  # open spans: (id, name)
        self._patcher = Patcher(extra_modules)

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None):
        ids, stack, open_, spans = self._ids, self._stack, self._open, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1][0] if open_ else None
            frame = [0.0]
            stack.append(frame)
            open_.append((sid, name))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                open_.pop()
                if stack:
                    stack[-1][0] += end - start
                n = count(args, kwargs, result) if count and result is not None else 0
                spans.append((sid, name, parent, start, end, end - start - frame[0], n))

        return wrapper

    def leaf(self, name: str, fn: Callable):
        stack, open_, leaves = self._stack, self._open, self.leaves
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = leaves[(name, open_[-1][1] if open_ else None)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]

        return wrapper

    def install(self) -> None:
        p = self._patcher
        span = lambda name, fn: self.span(name, fn, _COUNTS.get(name))
        for cls, attrs in _LEAF_METHODS:
            p.methods(cls, attrs, self.leaf)
        for module, attrs in _LEAF_FUNCTIONS:
            for attr in attrs:
                p.function(module, attr, self.leaf)
        for module, attrs in _SPAN_FUNCTIONS:
            for attr in attrs:
                p.function(module, attr, span)
        for cls, attrs in _SPAN_METHODS:
            p.methods(cls, attrs, span)

    def uninstall(self) -> None:
        self._patcher.restore()

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per aggregated leaf."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, self_s, n in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, "self_s": self_s,
                                     "count": n}) + "\n")
            for (name, within), (calls, total, self_s) in sorted(
                    self.leaves.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                fh.write(json.dumps({"leaf": name, "within": within, "calls": calls,
                                     "total_s": total, "self_s": self_s}) + "\n")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class ElementCounter:
    """Counts the distinct elements that `enumerate_ball` and `gamma2_ball`
    return while it is entered, by the same patching as `Tracer`."""

    def __init__(self, extra_modules=()):
        self.elements = 0
        self._patcher = Patcher(extra_modules)

    def __enter__(self):
        def counting(name, fn):
            def wrapper(*args, **kwargs):
                ball = fn(*args, **kwargs)
                self.elements += ball.size
                return ball
            return wrapper

        for attr in ("enumerate_ball", "gamma2_ball"):
            self._patcher.function(groups, attr, counting)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
