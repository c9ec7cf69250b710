"""Memory pre-allocation and systematic buffering (paper §3.2.3, Fig. 6).

The paper manually manages five reusable per-device buffers so that SUMMA's
frequent temporary allocations (cloning parameters, receiving broadcasts)
never fragment device memory:

* **workspace** — scratch for in-flight broadcast/reduce blocks;
* **forward** — outputs of SUMMA-style ops during a layer's forward pass;
* **backward** — input gradients of SUMMA-style ops during backward;
* **param_grad** — parameter gradients of the current layer;
* **conjunction** — the activation-gradient hand-off between consecutive
  layers (so the backward buffer can be reset per layer).

We model this with logical *regions*.  In **managed** mode each region is a
grow-only arena: its charged memory is the high-water mark of concurrent
holdings, and "allocation" inside the arena is free (1 allocation event per
growth).  In **unmanaged** mode (the ablation baseline) every hold is a real
allocation event and every release a free — same peak bytes, but orders of
magnitude more allocator traffic, the fragmentation pressure the paper set
out to remove.

The paper's three additional options (§3.2.3 items 1–3) are exposed as
flags:

1. ``merge_fwd_bwd`` — forward and backward regions share one arena;
2. ``immediate_update`` — the optimizer consumes ``param_grad`` right after
   each layer's backward so the region resets per layer (handled by the
   trainer; the region API supports it via :meth:`reset_region`);
3. ``skip_matmul_outputs`` — matmul outputs are not buffered during the
   checkpointed re-forward (their values are not needed to compute input
   gradients), shrinking the forward region during backward.

A measured finding worth recording: under activation checkpointing,
arena-level fwd/bwd merging (option 1) does **not** reduce the peak — the
recomputed forward tensors and the backward gradients are live at the same
time, so a shared arena simply reaches the sum of both high-water marks.
The savings the paper describes require slot-level reuse, which option 3
delivers (see the ablation benchmark).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.memory import charge
from repro.runtime.simulator import Simulator

REGIONS = ("workspace", "forward", "backward", "param_grad", "conjunction", "checkpoint")


class ArrayPool:
    """A free-list of real numpy scratch buffers, keyed by nbytes-class.

    The SUMMA kernels produce one partial-product block per rank per step;
    before this pool every such block was a fresh ``ndarray`` allocation
    that died microseconds later.  The pool hands out views over recycled
    power-of-two byte buffers instead: :meth:`acquire` returns a C-contiguous
    array of the exact requested shape/dtype (suitable as a ``np.matmul``
    ``out=`` target, which is bit-identical to an out-of-place product), and
    :meth:`release` returns its backing storage to the free list.

    This pools *host* allocations of the simulator process itself — the
    simulated-device arenas are :class:`BufferManager`'s job.  Keying by
    rounded byte class rather than exact shape lets one buffer serve every
    same-sized block shape that SUMMA's three algorithms cycle through.
    """

    #: buffers kept per size class before further releases are dropped
    MAX_PER_CLASS = 16

    __slots__ = ("_free", "_backing", "hits", "misses", "dropped")

    def __init__(self):
        self._free: Dict[int, List[np.ndarray]] = {}
        self._backing: Dict[int, np.ndarray] = {}  # id(view) -> raw buffer
        self.hits = 0
        self.misses = 0
        self.dropped = 0

    @staticmethod
    def _class_of(nbytes: int) -> int:
        return 1 << (nbytes - 1).bit_length() if nbytes > 1 else 1

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous uninitialized array of ``shape``/``dtype``."""
        dt = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dt.itemsize
        cls = self._class_of(max(nbytes, 1))
        free = self._free.get(cls)
        if free:
            raw = free.pop()
            self.hits += 1
        else:
            raw = np.empty(cls, dtype=np.uint8)
            self.misses += 1
        view = raw[:nbytes].view(dt).reshape(shape)
        self._backing[id(view)] = raw
        return view

    def release(self, view: np.ndarray) -> None:
        """Return an acquired array's storage to the free list."""
        raw = self._backing.pop(id(view), None)
        if raw is None:
            return  # not pool-owned (or already released): nothing to do
        free = self._free.setdefault(raw.nbytes, [])
        if len(free) < self.MAX_PER_CLASS:
            free.append(raw)
        else:
            self.dropped += 1

    def stats(self) -> Dict[str, int]:
        pooled = sum(len(v) for v in self._free.values())
        pooled_bytes = sum(cls * len(v) for cls, v in self._free.items())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "dropped": self.dropped,
            "live": len(self._backing),
            "free_buffers": pooled,
            "free_bytes": pooled_bytes,
        }

    def clear(self) -> None:
        self._free.clear()
        self._backing.clear()


def _byte_runs(runs):
    """``runs`` (see :meth:`BufferManager.hold_many`) with every size made
    an ``int``, as :meth:`BufferManager.hold` takes it; a negative size
    raises."""
    runs = [(ranks, [int(nbytes) for nbytes in sizes]) for ranks, sizes in runs]
    for _ranks, sizes in runs:
        for nbytes in sizes:
            if nbytes < 0:
                raise ValueError("negative allocation")
    return runs


@dataclass
class _Region:
    usage: int = 0  # live bytes logically held
    capacity: int = 0  # arena size actually charged (managed mode)
    #: the capacity at the arena's last growth (None before the first), what
    #: its ``buffer_capacity_bytes`` gauge shows
    gauge: Optional[int] = None


class BufferManager:
    """Per-device logical memory regions with managed/unmanaged semantics."""

    def __init__(
        self,
        sim: Simulator,
        ranks: Optional[Iterable[int]] = None,
        managed: bool = True,
        merge_fwd_bwd: bool = False,
        skip_matmul_outputs: bool = False,
    ):
        self.sim = sim
        self.ranks = list(ranks) if ranks is not None else list(sim.ranks)
        self.managed = managed
        self.merge_fwd_bwd = merge_fwd_bwd
        self.skip_matmul_outputs = skip_matmul_outputs
        #: set by the model around checkpoint recomputation; when
        #: ``skip_matmul_outputs`` is on, matmul outputs are not re-buffered
        #: during recompute (their values are never needed for input
        #: gradients — §3.2.3 option 3)
        self.in_recompute = False
        self._regions: Dict[str, Dict[int, _Region]] = {
            name: {r: _Region() for r in self.ranks} for name in REGIONS
        }
        sim.metrics.view("buffer_capacity_bytes", self._gauges)

    def _gauges(self):
        """Each grown arena's ``buffer_capacity_bytes`` gauge: its labels and
        value (see :meth:`~repro.obs.metrics.MetricsRegistry.view`)."""
        for region, arenas in self._regions.items():
            for rank, st in arenas.items():
                if st.gauge is not None:
                    yield {"region": region, "rank": rank}, float(st.gauge)

    # ------------------------------------------------------------------
    def _canonical(self, region: str) -> str:
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}")
        if self.merge_fwd_bwd and region == "backward":
            return "forward"
        return region

    def _tag(self, region: str) -> str:
        return f"buffer:{region}"

    def hold(self, region: str, rank: int, nbytes: int) -> int:
        """Logically place ``nbytes`` in a region; returns bytes held.  A
        strict-capacity OOM leaves the region as it was.  The one-entry form
        of :meth:`hold_many`, except that it poisons a recording dry-run
        layer tape."""
        self._poison()
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative allocation")
        self.hold_many(region, (((rank,), (nbytes,)),))
        return nbytes

    def _poison(self, alike: bool = False) -> None:
        """A mutator other than :meth:`hold_many` ran: a dry-run layer tape
        recording now cannot replay the pass (``runtime.tape.Tape``), and
        the simulator's carried rank classes are dropped unless the mutator
        is ``alike`` (it acts on every rank of this manager) and they cover
        this manager's arenas (``Simulator.partition``)."""
        sim = self.sim
        part = sim.partition
        if part is not None and not (alike and self in part.managers):
            sim.partition = None
        if sim.tape is not None:
            sim.tape.poison()

    def hold_many(
        self, region: str, runs: Sequence[Tuple[Sequence[int], Sequence[int]]]
    ) -> None:
        """For each ``(ranks, sizes)`` run of ``runs``, hold every size of
        ``sizes`` in order on each of ``ranks`` in turn — :meth:`hold` per
        ``(rank, size)``, rank-major — from one frame.  The sizes are checked
        once, before any rank is touched: each goes through ``int`` as in
        :meth:`hold`, and a negative one raises.  A recording dry-run layer
        tape records the call (``runtime.tape.Tape``).

        Unmanaged, every hold is an allocation.  A managed arena grows when
        a hold takes its usage past its capacity: the growth is one
        allocation, and the capacity and the arena's gauge value become the
        usage.  The growths go to the meters in one
        :func:`~repro.runtime.memory.charge` after the loop, a growth on
        a strict meter (with those before it) at once, so that an overflow
        raises before its hold applies: its region is left unchanged and
        the holds before it held.  Runs other than over whole carried rank
        classes drop them (``Simulator.partition``)."""
        for _ranks, sizes in runs:
            for nbytes in sizes:
                if nbytes.__class__ is not int or nbytes < 0:
                    break
            else:
                continue
            runs = _byte_runs(runs)  # a float or NumPy count, or a negative one
            break
        region = self._canonical(region)
        sim = self.sim
        if sim.tape is not None:
            return sim.tape.hold(self, region, runs)
        if sim.partition is not None and not sim.partition.holds(self, runs):
            sim.partition = None
        regions = self._regions[region]
        devices = sim.devices
        tag = self._tag(region)
        if not self.managed:
            for ranks, sizes in runs:
                for rank in ranks:
                    st = regions[rank]
                    for nbytes in sizes:
                        devices[rank].memory.alloc(nbytes, tag)
                        st.usage += nbytes
            return
        grown = []
        for ranks, sizes in runs:
            for rank in ranks:
                st = regions[rank]
                for nbytes in sizes:
                    usage = st.usage + nbytes
                    if usage > st.capacity:
                        meter = devices[rank].memory
                        grown.append((meter, usage - st.capacity))
                        if meter.strict:
                            charge(grown, tag)
                            grown = []
                        st.capacity = st.gauge = usage
                    st.usage = usage
        if grown:
            charge(grown, tag)

    def arenas(self, region: str) -> Dict[int, _Region]:
        """``region``'s per-rank arena records (usage, capacity, gauge), by
        rank: what a dry-run layer tape compares and copies."""
        return self._regions[self._canonical(region)]

    def fits(self, region: str, ranks: Iterable[int], nbytes: int) -> bool:
        """Whether each of ``ranks``' managed ``region`` arenas holds
        ``nbytes`` more without growing — then a hold and its release change
        nothing observable.  Always False in unmanaged mode, where every
        hold is an allocation."""
        if not self.managed:
            return False
        regions = self._regions[self._canonical(region)]
        for rank in ranks:
            st = regions[rank]
            if st.usage + nbytes > st.capacity:
                return False
        return True

    def compute_in_workspace(self, ranks: Sequence[int], nbytes: int, flops: float) -> None:
        """SUMMA's workspace pattern on each of ``ranks``: hold ``nbytes`` of
        workspace, charge one ``flops`` gemm, release.  When every rank's
        managed arena already fits the block nothing observable happens to
        memory, and the gemms are one :meth:`Simulator.charge_compute`;
        otherwise (an arena must grow, or unmanaged mode, where the free is
        stamped after the gemm) each rank runs the three calls."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        if flops < 0:
            raise ValueError("negative flops")
        self._poison()
        sim = self.sim
        if self.fits("workspace", ranks, nbytes):
            sim.charge_compute(ranks, ((flops, "gemm"),))
            return
        for rank in ranks:
            self.hold("workspace", rank, nbytes)
            sim.devices[rank].compute(flops)
            self.release("workspace", rank, nbytes)

    def release(self, region: str, rank: int, nbytes: int) -> None:
        """Logically release ``nbytes``; frees real memory in unmanaged mode."""
        self._poison()
        nbytes = int(nbytes)
        region = self._canonical(region)
        st = self._regions[region][rank]
        if nbytes > st.usage:
            raise ValueError(
                f"rank {rank}: releasing {nbytes} B from region {region!r} "
                f"holding {st.usage} B"
            )
        st.usage -= nbytes
        if not self.managed:
            self.sim.device(rank).memory.free(nbytes, self._tag(region))

    def reset_region(self, region: str, rank: Optional[int] = None) -> None:
        """Drop all logical holdings of a region (arena retained if managed)."""
        self._poison(rank is None)
        part = self.sim.partition  # (kept: every member frees alike)
        region = self._canonical(region)
        targets = self.ranks if rank is None else [rank]
        for r in targets:
            st = self._regions[region][r]
            if not self.managed and st.usage:
                self.sim.device(r).memory.free(st.usage, self._tag(region))
            st.usage = 0
        self.sim.partition = part

    def trim_region(self, region: str, rank: Optional[int] = None) -> None:
        """Shrink a managed arena's capacity to its current usage.

        Models re-allocating a pre-sized buffer at a smaller footprint —
        used by §3.2.3 option 3 to re-size the forward buffer for the
        recompute phase, where matmul outputs are no longer buffered.
        """
        self._poison(rank is None)
        part = self.sim.partition  # (kept: every member frees alike)
        region = self._canonical(region)
        targets = self.ranks if rank is None else [rank]
        for r in targets:
            st = self._regions[region][r]
            if self.managed and st.capacity > st.usage:
                self.sim.device(r).memory.free(
                    st.capacity - st.usage, self._tag(region)
                )
                st.capacity = st.usage
        self.sim.partition = part

    @contextmanager
    def scratch(self, rank: int, nbytes: int):
        """Hold workspace bytes for the duration of a SUMMA step."""
        self.hold("workspace", rank, nbytes)
        try:
            yield
        finally:
            self.release("workspace", rank, nbytes)

    # ------------------------------------------------------------------
    def usage(self, region: str, rank: int) -> int:
        return self._regions[self._canonical(region)][rank].usage

    def capacity(self, region: str, rank: int) -> int:
        st = self._regions[self._canonical(region)][rank]
        return st.capacity if self.managed else st.usage

    def total_capacity(self, rank: int) -> int:
        return sum(self.capacity(name, rank) for name in REGIONS)

    def release_all(self) -> None:
        """Free every region's real memory (model teardown)."""
        self._poison()
        for name in REGIONS:
            for r in self.ranks:
                st = self._regions[name][r]
                mem = self.sim.device(r).memory
                charged = st.capacity if self.managed else st.usage
                if charged:
                    mem.free(charged, self._tag(name))
                st.usage = 0
                st.capacity = 0
