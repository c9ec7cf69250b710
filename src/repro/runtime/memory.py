"""Per-device memory accounting.

The paper's memory argument (§3.1.1, Fig. 9) is entirely about *bytes per
device*: Megatron replicates activations (``O(bsh)`` per device) while
Optimus fully distributes them (``O(bsh/p)``).  The :class:`MemoryMeter`
tracks current and peak usage with optional capacity enforcement so the
Fig. 9 max-batch-size search can detect out-of-memory exactly where a real
16 GB GPU would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class MemSample(NamedTuple):
    """One point of a per-rank allocation timeline (simulated time)."""

    t: float
    tag: str
    tag_bytes: int  # bytes held under ``tag`` after the operation
    total: int  # total bytes in use on the rank after the operation


class OutOfDeviceMemory(RuntimeError):
    """Raised when a strict-capacity allocation exceeds device memory."""

    def __init__(self, rank: int, requested: int, current: int, capacity: int):
        self.rank = rank
        self.requested = requested
        self.current = current
        self.capacity = capacity
        super().__init__(
            f"rank {rank}: OOM allocating {requested} B "
            f"(in use {current} B of {capacity} B)"
        )


@dataclass
class MemoryMeter:
    """Byte counter with peak tracking and optional capacity enforcement."""

    rank: int
    capacity: Optional[int] = None  # None = unlimited (no OOM checking)
    strict: bool = False
    current: int = 0
    peak: int = 0
    num_allocs: int = 0  # allocation events — a fragmentation-pressure proxy
    by_tag: Dict[str, int] = field(default_factory=dict)
    #: simulated-clock source (wired by the Simulator to the owning device)
    clock_fn: Optional[Callable[[], float]] = None
    #: per-allocation timeline; ``None`` (the default) disables sampling
    timeline: Optional[List[MemSample]] = None
    #: the owning Simulator (wired by it): a change made here drops its
    #: carried rank classes (``Simulator.partition``)
    sim: Any = field(default=None, repr=False, compare=False)

    def _drop(self) -> None:
        if self.sim is not None:
            self.sim.partition = None

    def enable_timeline(self) -> None:
        """Start recording a (time, tag, bytes) sample per alloc/free."""
        self._drop()
        if self.timeline is None:
            self.timeline = []

    def _sample(self, tag: str) -> None:
        self.timeline.append(
            MemSample(
                t=self.clock_fn() if self.clock_fn is not None else 0.0,
                tag=tag,
                tag_bytes=self.by_tag.get(tag, 0),
                total=self.current,
            )
        )

    def alloc(self, nbytes: int, tag: str = "untagged") -> int:
        """Charge an allocation (a one-entry :func:`alloc_many`); returns
        the byte count for convenience."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative allocation")
        alloc_many(((self, nbytes),), tag)
        return nbytes

    def free(self, nbytes: int, tag: str = "untagged") -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative free")
        self._drop()
        if nbytes > self.current:
            raise ValueError(
                f"rank {self.rank}: freeing {nbytes} B but only {self.current} B in use"
            )
        tagged = self.by_tag.get(tag, 0)
        if nbytes > tagged:
            raise ValueError(
                f"rank {self.rank}: freeing {nbytes} B from tag {tag!r} "
                f"which holds only {tagged} B"
            )
        self.current -= nbytes
        self.by_tag[tag] = tagged - nbytes
        if self.timeline is not None:
            self._sample(tag)

    def free_tag(self, tag: str) -> int:
        """Release everything charged under a tag; returns bytes freed."""
        n = self.by_tag.get(tag, 0)
        if n:
            self.free(n, tag)
        return n

    def reset_peak(self) -> None:
        self._drop()
        self.peak = self.current

    @property
    def headroom(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - self.current


def alloc_many(charges: Sequence[Tuple[MemoryMeter, int]], tag: str) -> None:
    """Charge each ``(meter, nbytes)`` of ``charges`` as one allocation
    under ``tag``, in order (:meth:`MemoryMeter.alloc` is its one-entry
    form), dropping the meters' simulator's carried rank classes: the
    :func:`charge` of a per-rank mutator."""
    if charges:
        charges[0][0]._drop()
    charge(charges, tag)


def charge(charges: Iterable[Tuple[MemoryMeter, int]], tag: str) -> None:
    """The one definition of an allocation's bookkeeping, for
    :func:`alloc_many` and for a caller that keeps ``Simulator.partition``
    right itself (``BufferManager.hold_many``).  The caller has made each
    byte count a non-negative int.  A strict-capacity overflow raises at
    the entry it binds, the entries before it charged and the rest not; a
    timeline sample is taken per entry, so a meter's samples keep their
    order."""
    for meter, nbytes in charges:
        current = meter.current + nbytes
        if meter.strict and meter.capacity is not None and current > meter.capacity:
            raise OutOfDeviceMemory(meter.rank, nbytes, meter.current, meter.capacity)
        meter.current = current
        meter.num_allocs += 1
        by_tag = meter.by_tag
        by_tag[tag] = by_tag.get(tag, 0) + nbytes
        if current > meter.peak:
            meter.peak = current
        if meter.timeline is not None:
            meter._sample(tag)
