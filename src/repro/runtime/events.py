"""Execution tracing for the simulator: flat events and hierarchical spans.

Two complementary record types, both stamped in *simulated* time:

* :class:`TraceEvent` — flat, per-occurrence records of collectives,
  point-to-point transfers and compute kernels.  These carry the byte and
  β-weighted volumes the cost model charged, and back the communication
  matrix and the collective-stats aggregations.  What a kind *means* — its
  attribution category, the ranks it occupies, the nanosecond rounding — is
  defined here once (:attr:`TraceEvent.category`, :attr:`TraceEvent.occupied`,
  :func:`to_ns`, :func:`busy_intervals`) and read by every trace consumer.

* :class:`Span` — hierarchical, per-rank regions (``step > layer > op >
  collective``) opened and closed with :meth:`Tracer.span`.  Each rank in a
  span gets its own record with that rank's begin/end clock, a stable span
  id, and the parent span id on the same rank, so exporters can rebuild the
  nesting exactly (and the Perfetto exporter renders one track per rank).

Tracing is off by default and must cost ~nothing when disabled: hot call
sites are expected to check :attr:`Tracer.enabled` *before* building
argument tuples, and :meth:`Tracer.span` returns a shared no-op context
manager without touching any per-rank state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple


#: grouped collectives, priced by :meth:`repro.comm.cost.GroupCommModel.price`
COLLECTIVE_KINDS = (
    "broadcast", "reduce", "all_reduce", "all_gather", "reduce_scatter",
    "scatter", "gather",
)
#: resilience subsystem: simulated time on every listed rank, no bytes
OVERHEAD_KINDS = ("fault", "checkpoint", "recovery")
#: serving lifecycle markers: neither time nor bytes
ANNOTATION_KINDS = ("request", "alert")

_CATEGORY = {
    "compute": "compute",
    "p2p": "comm",
    **dict.fromkeys(COLLECTIVE_KINDS, "comm"),
    **dict.fromkeys(OVERHEAD_KINDS, "overhead"),
    **dict.fromkeys(ANNOTATION_KINDS),
}


def to_ns(t: float) -> int:
    """Simulated seconds as the whole nanoseconds every trace reader counts in."""
    return int(round(t * 1e9))


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # "compute", "p2p" or one of the kind tuples above
    ranks: Tuple[int, ...]
    t_start: float
    t_end: float
    nbytes: float = 0.0
    label: str = ""
    weighted: float = 0.0  # β-weighted volume charged per participant
    attrs: Optional[Mapping[str, object]] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def category(self) -> Optional[str]:
        """``"compute"`` | ``"comm"`` | ``"overhead"``; ``None`` for annotations."""
        return _CATEGORY.get(self.kind)

    @property
    def occupied(self) -> Tuple[int, ...]:
        """The ranks whose timeline this event fills.

        A kernel runs on its first rank; a point-to-point transfer stalls
        only the receiver (the sender's copy engine does not block its
        compute stream); grouped events hold every participant; annotations
        hold nobody.
        """
        if self.kind == "compute":
            return self.ranks[:1]
        if self.kind == "p2p":
            return self.ranks[1:]
        return self.ranks if self.category is not None else ()


def busy_intervals(events) -> Dict[int, List[Tuple[int, int, int]]]:
    """Per rank, the sorted disjoint ``(start_ns, end_ns, event index)`` slices
    its events occupy.

    Overlaps are clipped in start order — an event that begins while the rank
    is still busy (a p2p arrival, say) contributes only its uncovered tail,
    and one that is fully shadowed contributes nothing — so the slices of a
    rank sum to its busy time with no nanosecond counted twice.
    """
    atoms: Dict[int, List[Tuple[int, int, int]]] = {}
    for idx, e in enumerate(events):
        a, b = to_ns(e.t_start), to_ns(e.t_end)
        if b > a:
            for r in e.occupied:
                atoms.setdefault(r, []).append((a, b, idx))
    for rank, slices in atoms.items():
        slices.sort()
        clipped, cursor = [], 0  # simulated clocks start at zero
        for a, b, idx in slices:
            if b > cursor:
                clipped.append((max(a, cursor), b, idx))
                cursor = b
        atoms[rank] = clipped
    return atoms


@dataclass(frozen=True)
class Span:
    """One rank's view of a hierarchical trace region."""

    name: str
    category: str  # "step", "layer", "op", "collective", ...
    rank: int
    t_start: float
    t_end: float
    depth: int  # nesting depth on this rank (0 = top level)
    sid: int  # span id, shared by all ranks of the same region
    parent: Optional[int]  # enclosing span's sid on this rank, if any
    attrs: Mapping[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """An open span: captures per-rank begin clocks, closes on ``__exit__``."""

    __slots__ = ("tracer", "name", "category", "ranks", "attrs", "sid", "_t0", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, ranks, category: str, attrs):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.ranks = tuple(ranks)
        self.attrs = attrs
        self.sid = tracer._next_sid()
        self._t0: Dict[int, float] = {}
        self._parent: Dict[int, Optional[int]] = {}
        self._depth: Dict[int, int] = {}

    def __enter__(self) -> "_SpanHandle":
        clock = self.tracer.clock_of
        for r in self.ranks:
            stack = self.tracer._stacks.setdefault(r, [])
            self._parent[r] = stack[-1] if stack else None
            self._depth[r] = len(stack)
            self._t0[r] = clock(r) if clock is not None else 0.0
            stack.append(self.sid)
        return self

    def __exit__(self, *exc) -> bool:
        clock = self.tracer.clock_of
        for r in self.ranks:
            stack = self.tracer._stacks[r]
            if not stack or stack[-1] != self.sid:
                raise RuntimeError(
                    f"span {self.name!r} (sid {self.sid}) closed out of order on "
                    f"rank {r}: open stack {stack}"
                )
            stack.pop()
            self.tracer.spans.append(
                Span(
                    name=self.name,
                    category=self.category,
                    rank=r,
                    t_start=self._t0[r],
                    t_end=clock(r) if clock is not None else 0.0,
                    depth=self._depth[r],
                    sid=self.sid,
                    parent=self._parent[r],
                    attrs=self.attrs,
                )
            )
        return False


class Tracer:
    """Event/span recorder; ``enabled`` toggles notify the owning simulator.

    ``enabled`` is a property so that direct writes (``sim.tracer.enabled =
    True``, common in tests) keep the simulator's precomputed
    :attr:`~repro.runtime.simulator.Simulator.is_enabled` fast-path flag in
    sync via the ``on_toggle`` callback.
    """

    __slots__ = ("_enabled", "events", "spans", "clock_of", "on_toggle", "_stacks", "_sid")

    def __init__(
        self,
        enabled: bool = False,
        events: Optional[List[TraceEvent]] = None,
        spans: Optional[List[Span]] = None,
        clock_of: Optional[Callable[[int], float]] = None,
    ):
        self._enabled = bool(enabled)
        self.events: List[TraceEvent] = events if events is not None else []
        self.spans: List[Span] = spans if spans is not None else []
        #: per-rank simulated clock source, wired up by the Simulator
        self.clock_of = clock_of
        #: called after every ``enabled`` write (wired up by the Simulator)
        self.on_toggle: Optional[Callable[[], None]] = None
        self._stacks: Dict[int, List[int]] = {}
        self._sid = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self.on_toggle is not None:
            self.on_toggle()

    def _next_sid(self) -> int:
        self._sid += 1
        return self._sid

    # ------------------------------------------------------------------
    # flat events
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        ranks,
        t_start: float,
        t_end: float,
        nbytes: float = 0.0,
        label: str = "",
        weighted: float = 0.0,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        if self.enabled:
            self.events.append(
                TraceEvent(kind, tuple(ranks), t_start, t_end, nbytes, label, weighted, attrs)
            )

    # ------------------------------------------------------------------
    # hierarchical spans
    # ------------------------------------------------------------------
    def span(self, name: str, ranks, category: str = "op", **attrs):
        """Open a nested region over ``ranks``; use as a context manager.

        Returns a shared no-op when tracing is disabled, so call sites may
        write ``with tracer.span(...)`` unconditionally — though hot loops
        should still guard on :attr:`enabled` to skip kwargs construction.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, ranks, category, attrs)

    @property
    def open_span_count(self) -> int:
        return sum(len(s) for s in self._stacks.values())

    def spans_of(
        self, category: Optional[str] = None, rank: Optional[int] = None
    ) -> List[Span]:
        out = self.spans
        if category is not None:
            out = [s for s in out if s.category == category]
        if rank is not None:
            out = [s for s in out if s.rank == rank]
        return list(out) if out is self.spans else out

    def max_depth(self, rank: Optional[int] = None) -> int:
        spans = self.spans if rank is None else [s for s in self.spans if s.rank == rank]
        return max((s.depth for s in spans), default=-1) + 1

    # ------------------------------------------------------------------
    # maintenance / queries
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self.events.clear()
        self.spans.clear()
        self._stacks.clear()

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def total_time(self, kind: Optional[str] = None) -> float:
        evs = self.events if kind is None else self.of_kind(kind)
        return sum(e.duration for e in evs)
