"""Span tracing of the program from outside it.

Each traced function is replaced, in every ``qns`` module namespace and
dispatch table that holds it, by a wrapper that records one span: the
function's name, start and end on ``perf_counter_ns``, the span that was open
when it was called (its parent) and an optional work count (grid points,
computed flops).  Spans are kept in memory and written when the run ends.
A span's self time is its duration minus the durations of its direct
children.  The program's code is not modified; :meth:`Tracer.uninstall`
puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self, targets):
        """``targets``: ``(module, attribute, span_name, units_fn)`` tuples;
        ``units_fn(args, kwargs)`` gives the call's work count (1 if None)."""
        self.targets = list(targets)
        self.names = [t[2] for t in self.targets]
        self.ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.units: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, span_id, units_fn):
        ids, starts, ends, parents, units, stack = (
            self.ids, self.starts, self.ends, self.parents, self.units, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(span_id)
            parents.append(stack[-1] if stack else -1)
            units.append(units_fn(args, kwargs) if units_fn else 1.0)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [
            vars(m) for name, m in list(sys.modules.items())
            if m is not None and (name == "qns" or name.startswith("qns."))
        ]
        for span_id, (module, attr, _, units_fn) in enumerate(self.targets):
            orig = getattr(module, attr, None)
            if orig is None:  # gone from the program: its span count stays 0
                continue
            wrapper = self._wrap(orig, span_id, units_fn)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is orig:
                        ns[key] = wrapper
                        self._undo.append((ns, key, orig))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = wrapper
                                self._undo.append((value, k, orig))

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._undo):
            table[key] = orig
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        ids = np.asarray(self.ids, dtype=np.int64)
        start = np.asarray(self.starts, dtype=np.int64)
        end = np.asarray(self.ends, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = (end - start).astype(float) * 1e-9
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "id": ids, "start": start, "end": end, "parent": parent,
            "units": np.asarray(self.units, dtype=float), "dur": dur, "self": dur - child,
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work units."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["id"], minlength=n)
        incl = np.bincount(a["id"], weights=a["dur"], minlength=n)
        self_s = np.bincount(a["id"], weights=a["self"], minlength=n)
        units = np.bincount(a["id"], weights=a["units"], minlength=n)
        return {
            name: {"calls": int(calls[k]), "s": float(incl[k]),
                   "self_s": float(self_s[k]), "units": float(units[k])}
            for k, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.asarray(self.names), **{k: a[k] for k in
                 ("id", "start", "end", "parent", "units")})
