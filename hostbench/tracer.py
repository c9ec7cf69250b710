"""Boundary patcher and host-time span accounting.

:class:`Tracer` wraps every attribute named in :mod:`hostbench.boundaries`
and accounts host time *exclusively*: a span's self time is its duration
minus the time its child spans cover.  All arithmetic is integer
nanoseconds, so for every root span

    sum(self_ns of every wrapped target) + driver self_ns == root duration

holds exactly (the driver owns the root and unit spans).  Wrapper entry and
exit code runs inside the *parent's* self time - that is the tracing
overhead, and it is why end-to-end metrics are measured with the tracer off.

Patching survives ``from x import f``: a module-level function is rebound
in every ``repro.*`` module whose attribute *is* the original, and
:meth:`Tracer.uninstall` restores each of them (and any wrapper a module
imported while the patch was live picked up).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from hostbench.boundaries import (
    COUNT,
    DRIVER_LAYER,
    LEAF,
    SPAN,
    Resolved,
    resolve_all,
)

#: stored spans per tracer (the rest are still aggregated)
MAX_SPANS = 200_000

_now = time.perf_counter_ns


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _with_probe(wrapper, store, probe):
    """Run ``probe(store, args)`` before the (timed) wrapper, where the
    table asks for one; the common probe-less wrapper pays nothing for it."""
    if probe is None:
        return wrapper

    def probed(*args, **kwargs):
        probe(store, args)
        return wrapper(*args, **kwargs)

    return probed


class Tracer:
    """Wrappers around the layer boundaries plus the counters they fill."""

    def __init__(self, targets: Optional[List[Resolved]] = None, max_spans: int = MAX_SPANS):
        self.targets: List[Resolved] = list(targets) if targets is not None else resolve_all()
        # two driver-owned pseudo targets close the accounting
        self._root_idx = len(self.targets)
        self._unit_idx = self._root_idx + 1
        n = self._unit_idx + 1
        self.calls: List[int] = [0] * n
        self.self_ns: List[int] = [0] * n
        self.max_spans = max_spans
        #: (span id, target index, start ns, end ns, parent span id, unit index)
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.dropped_spans = 0
        self.root_ns = 0
        self.probe_stores: Dict[str, dict] = {}
        # single-element lists: shared mutable cells the closures write to
        self._child = [0]  # ns covered by finished children of the open span
        self._cur = [0]  # id of the innermost open *stored* span (0 = none)
        self._seq = [0]  # last span id handed out
        self._unit = [-1]
        self._patches: List[Tuple[object, str, object]] = []  # (owner, attr, raw)
        self._wrapper_of: Dict[int, object] = {}  # id(original fn) -> wrapper
        self._original_of: Dict[int, object] = {}  # id(wrapper) -> original fn
        self.installed = False

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def _leaf(self, fn, idx, probe_store, probe):
        calls, self_ns, child, now = self.calls, self.self_ns, self._child, _now

        def wrapper(*args, **kwargs):
            saved = child[0]
            child[0] = 0
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                calls[idx] += 1
                self_ns[idx] += dt - child[0]
                child[0] = saved + dt

        return _with_probe(wrapper, probe_store, probe)

    def _span(self, fn, idx, probe_store, probe):
        calls, self_ns, child, now = self.calls, self.self_ns, self._child, _now
        cur, seq, unit, spans = self._cur, self._seq, self._unit, self.spans
        cap = self.max_spans

        def wrapper(*args, **kwargs):
            saved = child[0]
            child[0] = 0
            parent = cur[0]
            seq[0] = sid = seq[0] + 1
            cur[0] = sid
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                dt = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dt - child[0]
                child[0] = saved + dt
                cur[0] = parent
                if len(spans) < cap:
                    spans.append((sid, idx, t0, t1, parent, unit[0]))
                else:
                    self.dropped_spans += 1

        return _with_probe(wrapper, probe_store, probe)

    def _count(self, fn, idx, probe_store, probe):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        make = {LEAF: self._leaf, SPAN: self._span, COUNT: self._count}
        for idx, t in enumerate(self.targets):
            raw = t.raw
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            store = self.probe_stores.setdefault(t.probe.__name__, {}) if t.probe else None
            wrapper = functools.wraps(fn)(make[t.mode](fn, idx, store, t.probe))
            self._original_of[id(wrapper)] = fn
            if isinstance(t.owner, type):
                new = type(raw)(wrapper) if fn is not raw else wrapper
                setattr(t.owner, t.attr, new)
                self._patches.append((t.owner, t.attr, raw))
            else:
                self._wrapper_of[id(fn)] = wrapper
        # module-level functions: rebind every repro.* attribute that IS the
        # original, wherever `from x import f` copied it
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapper_of.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        # a module first imported while the patch was live bound wrappers
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._original_of.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        self._patches.clear()
        self._wrapper_of.clear()
        self._original_of.clear()
        self.installed = False

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # driver-owned spans
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter and forget stored spans (between passes)."""
        for lst in (self.calls, self.self_ns):
            for i in range(len(lst)):
                lst[i] = 0
        self.spans.clear()
        self.dropped_spans = 0
        self.root_ns = 0
        for store in self.probe_stores.values():
            store.clear()
        self._child[0] = 0
        self._cur[0] = 0
        self._unit[0] = -1

    @contextmanager
    def root(self) -> Iterator[None]:
        """The span of one whole pass; its duration lands in ``root_ns``."""
        child, cur, seq = self._child, self._cur, self._seq
        child[0] = 0
        seq[0] = sid = seq[0] + 1
        cur[0] = sid
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            dt = t1 - t0
            self.calls[self._root_idx] += 1
            self.self_ns[self._root_idx] += dt - child[0]
            self.root_ns += dt
            child[0] = 0
            cur[0] = 0
            self.spans.append((sid, self._root_idx, t0, t1, 0, -1))

    def run_unit(self, index: int, fn):
        """Run one unit of the pass under a driver-owned span."""
        self._unit[0] = index
        try:
            return self._span(fn, self._unit_idx, None, None)()
        finally:
            self._unit[0] = -1

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def target_name(self, idx: int) -> Tuple[str, str]:
        """(layer, name) of a target index, the driver's two included."""
        if idx == self._root_idx:
            return DRIVER_LAYER, "pass"
        if idx == self._unit_idx:
            return DRIVER_LAYER, "unit"
        t = self.targets[idx]
        return t.layer, t.name

    def by_target(self) -> Dict[str, Tuple[int, int]]:
        """name -> (calls, self_ns) for every wrapped target."""
        return {
            t.name: (self.calls[i], self.self_ns[i]) for i, t in enumerate(self.targets)
        }

    def by_layer(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (timed calls, self_ns), the driver layer included.
        Count-only targets are left to :meth:`by_target`: a layer's calls are
        the ones its ``self_ns`` was measured over."""
        out: Dict[str, List[int]] = {}
        for idx in range(len(self.calls)):
            layer, _ = self.target_name(idx)
            acc = out.setdefault(layer, [0, 0])
            if idx >= self._root_idx or self.targets[idx].mode != COUNT:
                acc[0] += self.calls[idx]
            acc[1] += self.self_ns[idx]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def spans_doc(self) -> dict:
        """The stored spans as a JSON-safe document (``trace-*.json``)."""
        names = [self.target_name(i) for i in range(len(self.calls))]
        return {
            "schema": "hostbench-trace-v1",
            "clock": "time.perf_counter_ns",
            "columns": ["id", "layer", "name", "start_ns", "end_ns", "parent", "unit"],
            "dropped_spans": self.dropped_spans,
            "spans": [
                [sid, names[idx][0], names[idx][1], t0, t1, parent, unit]
                for sid, idx, t0, t1, parent, unit in self.spans
            ],
        }
