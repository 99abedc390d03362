"""Span tracing for the benchmark's traced run.

The tracer wraps functions of the ``nldd`` package (and numpy's n-d FFTs)
from outside the package.  A function is called through every module that
imported it, so each module-level binding that refers to the original is
replaced, and methods are replaced on their class.  Every call records a
span: name, start, end, parent span and the id of the operation it belongs
to.  Spans stay in memory in flat arrays and are written out once, at the
end; self time is derived from them.  Hooks add work counts (points, bytes,
distinct keys) at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

__all__ = ["Tracer"]


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.keys: dict[int, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.name_idx.append(self.name_ids.setdefault(name, len(self.name_ids)))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as operation op_id, under a root span named 'op'."""
        self.op_id = op_id
        i = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(i)
            self.op_id = -1

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op_id][name] += value

    def distinct(self, name: str, key) -> None:
        self.keys[self.op_id][name].add(key)

    def wrap(self, name, fn, hook=None):
        """Wrapper recording a span per call.  ``name`` is a string or a
        function of the call's arguments; ``hook(tracer, args, kwargs,
        result)`` adds counts after the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # ---- installing wrappers ----

    def install_function(self, module, attr: str, name, hook=None) -> None:
        """Wrap module.attr and rebind it in module and in every loaded nldd
        module that holds the same function object."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, hook)
        holders = {id(module): module}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nldd" or mod_name.startswith("nldd."):
                holders[id(mod)] = mod
        for mod in holders.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def install_method(self, cls, attr: str, name, hook=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, hook))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # ---- results ----

    def layer_stats(self, op_id: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds) over one operation."""
        ops = np.frombuffer(self.ops, dtype=np.int32)
        starts = np.frombuffer(self.starts)
        ends = np.frombuffer(self.ends)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        sel = ops == op_id
        out = {}
        for name, k in self.name_ids.items():
            m = sel & (names == k)
            calls = int(m.sum())
            if calls:
                out[name] = (calls, float(own[m].sum()), float(dur[m].sum()))
        return out

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(list(self.name_ids), dtype=str),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
