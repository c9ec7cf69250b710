"""Collapsed-stack ("folded") flamegraph export of a traced run.

Complements the Perfetto exporter: where Perfetto shows the timeline,
a flamegraph shows *where the time aggregates*.  The output is the folded
format consumed by speedscope (https://speedscope.app), Brendan Gregg's
``flamegraph.pl`` and ``inferno``: one line per unique stack, frames
joined by ``;``, followed by a space and an integer count — here the
integer is **nanoseconds of simulated time**.

Stacks are rebuilt exactly from the tracer's span records (each rank's
``sid``/``parent`` links).  The leaves are the rank's
:func:`~repro.runtime.events.busy_intervals` — the same disjoint slices the
critical-path analyzer tiles its windows with — each hung under its
innermost enclosing span, and only leaves carry a value.  So no nanosecond
is counted twice, annotation events (serving ``request`` / ``alert``
markers) never become frames, and a rank's lines sum to exactly the busy
time :mod:`repro.obs.critpath` attributes to it; idle time is not drawn
(stall analysis lives there).  Lines are emitted sorted, values are
deterministic integers, and frame names are sanitized (no spaces or
semicolons), so the same seeded run always produces byte-identical output.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.runtime.events import busy_intervals, to_ns
from repro.utils import write_text

_FRAME_BAD = re.compile(r"[;\s]+")


def _frame(name: str) -> str:
    """A folded-format-safe frame name (no separators, never empty)."""
    return _FRAME_BAD.sub("_", str(name).strip()) or "_"


class _Node:
    __slots__ = ("name", "start_ns", "end_ns", "children")

    def __init__(self, name: str, start_ns: int = 0, end_ns: int = 0):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.children: List["_Node"] = []


def _span_frame(span) -> str:
    attrs = span.attrs or {}
    if span.category == "step":
        return _frame(f"step[{attrs.get('step', '?')}]")
    if span.category == "layer":
        phase = attrs.get("phase")
        base = f"layer[{attrs.get('index', '?')}]"
        return _frame(f"{base}.{phase}" if phase else base)
    return _frame(span.name)


def _event_frame(e) -> str:
    return _frame(f"{e.kind}:{e.label}" if e.label else e.kind)


def _span_tree(rank: int, spans) -> _Node:
    """A root node whose descendants are the rank's spans, nested as recorded."""
    root = _Node(_frame(f"rank{rank}"))
    by_sid: Dict[int, _Node] = {}
    # parents appear with smaller depth; build shallow-to-deep
    for s in sorted(spans, key=lambda s: (s.depth, to_ns(s.t_start), s.sid)):
        node = _Node(_span_frame(s), to_ns(s.t_start), to_ns(s.t_end))
        parent = by_sid.get(s.parent) if s.parent is not None else None
        (parent or root).children.append(node)
        by_sid[s.sid] = node
    return root


def folded_stacks(sim) -> List[Tuple[str, int]]:
    """All (stack, busy-ns) pairs for a traced run, sorted by stack."""
    events = sim.tracer.events
    per_rank_spans: Dict[int, list] = {}
    for s in sim.tracer.spans:
        per_rank_spans.setdefault(s.rank, []).append(s)
    totals: Dict[str, int] = {}
    for rank, slices in busy_intervals(events).items():
        root = _span_tree(rank, per_rank_spans.get(rank, ()))
        for a, b, idx in slices:
            node, frames = root, []
            while node is not None:  # descend to the innermost enclosing span
                frames.append(node.name)
                node = next(
                    (c for c in node.children if c.start_ns <= a and c.end_ns >= b),
                    None,
                )
            frames.append(_event_frame(events[idx]))
            stack = ";".join(frames)
            totals[stack] = totals.get(stack, 0) + (b - a)
    return sorted(totals.items())


def render_folded(sim) -> str:
    """The folded-format text document (one ``stack value`` line each)."""
    return "".join(f"{stack} {ns}\n" for stack, ns in folded_stacks(sim))


def write_folded(sim, path: str) -> int:
    """Write the folded flamegraph; returns the number of stack lines."""
    text = render_folded(sim)
    write_text(path, text)
    return text.count("\n")


def validate_folded(text: str) -> Optional[str]:
    """The first format problem in a folded document, or ``None`` if valid.

    Checks what speedscope/flamegraph.pl require: every non-empty line is
    ``frames <integer>``, frames are ``;``-separated and non-empty, values
    are positive integers.
    """
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            return f"line {lineno}: empty line"
        stack, sep, value = line.rpartition(" ")
        if not sep or not stack:
            return f"line {lineno}: missing 'stack value' separator"
        if not value.isdigit() or int(value) <= 0:
            return f"line {lineno}: value {value!r} is not a positive integer"
        frames = stack.split(";")
        if any(not f or " " in f for f in frames):
            return f"line {lineno}: empty or space-containing frame in {stack!r}"
    return None
