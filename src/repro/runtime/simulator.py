"""The single-controller SPMD simulator.

One :class:`Simulator` instance models a job: a cluster, a rank→GPU
arrangement, and one :class:`SimDevice` per rank.  All distributed modules
(Optimus, Megatron) execute against a simulator; collectives in
:mod:`repro.comm` use its topology to price communication and its devices to
advance bulk-synchronous clocks.

Design note — why single-controller: running one OS process per simulated
rank (mpi4py-style) would give no additional fidelity here, since the
simulation is deterministic and bulk-synchronous; a single controller that
loops over ranks keeps the numerics bit-reproducible, makes every rank's
state inspectable in tests, and is dramatically faster for the q≤8 meshes we
execute numerically.
"""

from __future__ import annotations

import os
from collections import defaultdict
from functools import reduce
from itertools import count, repeat
from math import inf
from operator import add, attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hardware.arrangement import Arrangement, linear_arrangement, make_arrangement
from repro.hardware.specs import ClusterSpec, frontera_rtx
from repro.hardware.topology import ClusterTopology
from repro.obs.metrics import MetricsRegistry
from repro.runtime.device import SimDevice
from repro.runtime.events import Tracer
from repro.runtime.memory import MemoryMeter, MemSample

if TYPE_CHECKING:
    from repro.runtime.tape import Tape

#: the opcodes of an accounting program's entries (see :meth:`Simulator.replay`)
COMPUTE, COLLECTIVES, OPEN, CLOSE = range(4)

#: the per-rank counters an accounting program updates, in the order of a
#: lockstep form's increment chains (see :meth:`Simulator.lockstep`)
COUNTERS = (
    "clock", "flops", "flops_gemm", "compute_time",
    "comm_time", "bytes_comm", "weighted_comm_volume", "num_collectives",
)
_counters = attrgetter(*COUNTERS)


class Simulator:
    """A simulated multi-device job."""

    def __init__(
        self,
        cluster: ClusterSpec,
        num_ranks: Optional[int] = None,
        arrangement: Optional[Arrangement] = None,
        strict_memory: bool = False,
        backend: str = "numpy",
        trace: bool = False,
        strict_invariants: Optional[bool] = None,
    ):
        self.cluster = cluster
        self.num_ranks = num_ranks if num_ranks is not None else cluster.num_devices
        if self.num_ranks > cluster.num_devices:
            raise ValueError(
                f"{self.num_ranks} ranks do not fit on {cluster.num_devices} devices"
            )
        self.arrangement = (
            arrangement
            if arrangement is not None
            else linear_arrangement(cluster, self.num_ranks)
        )
        if self.arrangement.num_ranks != self.num_ranks:
            raise ValueError("arrangement rank count does not match simulator")
        self.topology = ClusterTopology(cluster)
        self.backend = backend  # "numpy" (real data) or "shape" (dryrun)
        # strict mode: validate every DTensor built on this simulator against
        # its layout contract (repro.check.invariants).  Costs O(data) per
        # DTensor, so it is opt-in — per simulator, or process-wide via the
        # REPRO_STRICT_INVARIANTS environment variable (used by CI).
        if strict_invariants is None:
            strict_invariants = os.environ.get(
                "REPRO_STRICT_INVARIANTS", ""
            ).lower() in ("1", "true", "yes", "on")
        self._strict_invariants = bool(strict_invariants)
        self.tracer = Tracer(enabled=trace)
        self.tracer.on_toggle = self._refresh_is_enabled
        #: precomputed instrumentation flag: True iff *any* per-call checking
        #: or tracing (strict invariants, span/event tracing) is active.  Hot
        #: paths guard on this single attribute so that disabled-mode
        #: overhead is two attribute reads (``sim.is_enabled``); hostbench's
        #: ``hostbench.trace_overhead_ratio`` measures the traced/off cost.
        self.is_enabled = self._strict_invariants or trace
        self.metrics = MetricsRegistry()
        #: fault injector (repro.resilience), or None.  Collectives check
        #: this single attribute; when None (the default) the fault
        #: machinery costs one attribute read and contributes nothing to
        #: numerics, clocks, byte counters or traces.
        self.fault_injector = None
        #: the :class:`~repro.runtime.tape.Tape` recording a dry-run layer pass, or None
        self.tape: Optional[Tape] = None
        self.devices: List[SimDevice] = [
            SimDevice(
                rank=r,
                spec=cluster.device,
                memory=MemoryMeter(
                    rank=r, capacity=cluster.device.memory_bytes, strict=strict_memory
                ),
                tracer=self.tracer,
                sim=self,
            )
            for r in range(self.num_ranks)
        ]
        self.tracer.clock_of = lambda r: self.devices[r].clock
        for d in self.devices:
            d.memory.clock_fn = (lambda dev=d: dev.clock)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_mesh(
        cls,
        q: int,
        gpus_per_node: int = 4,
        arrangement_kind: str = "bunched",
        **kw,
    ) -> "Simulator":
        """Build a simulator sized for a q×q mesh on Frontera-like nodes."""
        p = q * q
        num_nodes = -(-p // gpus_per_node)  # ceil
        cluster = frontera_rtx(num_nodes, gpus_per_node)
        arr = make_arrangement(cluster, q, arrangement_kind)
        return cls(cluster, num_ranks=p, arrangement=arr, **kw)

    @classmethod
    def for_flat(cls, p: int, gpus_per_node: int = 4, **kw) -> "Simulator":
        """Build a simulator for a flat p-rank (Megatron-style) group."""
        num_nodes = -(-p // gpus_per_node)
        cluster = frontera_rtx(num_nodes, gpus_per_node)
        return cls(cluster, num_ranks=p, arrangement=linear_arrangement(cluster, p), **kw)

    # ------------------------------------------------------------------
    # device access and clock management
    # ------------------------------------------------------------------
    def device(self, rank: int) -> SimDevice:
        return self.devices[rank]

    @property
    def ranks(self) -> range:
        return range(self.num_ranks)

    def sync(self, ranks: Sequence[int]) -> float:
        """Barrier over a rank set; returns the synchronized time."""
        if self.tape is not None:
            self.tape.poison()
        t = max(self.devices[r].clock for r in ranks)
        for r in ranks:
            self.devices[r].clock = t
        return t

    def advance(self, ranks: Sequence[int], dt: float) -> None:
        if self.tape is not None:
            self.tape.poison()
        for r in ranks:
            self.devices[r].clock += dt

    # ------------------------------------------------------------------
    # accounting programs: an SPMD program issues the same charge on every
    # rank of a group, and what that costs the host is the Python call per
    # event, not the arithmetic.  A program is a sequence of entries (the
    # opcodes below), compiled once per shape and replayed from one frame by
    # :meth:`replay`, the one definition of the per-rank updates; every
    # charge is still a per-rank event (own clock, own counters, own trace
    # record).  A rank-symmetric program may also be compiled to a lockstep
    # form (:meth:`lockstep`), which an untraced replay runs once and copies
    # to the scope when the scope's counters start equal.
    # :meth:`charge_compute` and ``collectives.charge_only`` are
    # :meth:`replay`'s one-entry forms.  ``SimDevice.compute`` /
    # ``charge_comm`` and ``sync`` + ``advance`` stay the single-device
    # definitions, and ``tests/test_bulk_charges.py`` holds the two equal.
    # ------------------------------------------------------------------
    def compute_entry(self, ranks: Sequence[int], charges: Iterable[Tuple[float, str]]) -> tuple:
        """The program entry charging the ``(flops, kind)`` sequence on each
        of ``ranks``: ``(COMPUTE, ranks, [(flops, kind, dt), …])``.  Raises
        if any ``flops`` is negative, NaN or infinite."""
        # every device of a simulator shares ``cluster.device``; the division
        # is SimDevice.compute's own (a reciprocal would round differently)
        effective_flops = self.cluster.device.effective_flops
        timed = []
        for flops, kind in charges:
            if not 0 <= flops < inf:
                raise ValueError(f"non-finite or negative flops: {flops!r}")
            timed.append((flops, kind, flops / effective_flops))
        return (COMPUTE, ranks, timed)

    def lockstep(self, program: Sequence[tuple], scope: Iterable[int]) -> Optional[tuple]:
        """``program``'s lockstep form over the ranks of ``scope`` — the
        scope's devices and, per counter of :data:`COUNTERS`, the tuple of
        increments one rank's replay adds to it, in program order
        (:meth:`chains`) — or None when the program is not rank-symmetric
        over ``scope`` (:meth:`in_step`)."""
        scope = list(scope)
        if not scope or not self.in_step(program, scope):
            return None
        return [self.devices[r] for r in scope], self.chains(program, scope[0])

    def in_step(self, program: Sequence[tuple], scope: Sequence[int]) -> bool:
        """Whether ``program`` is rank-symmetric over the ranks of ``scope``.

        The proof: each rank carries the id of the increment sequence it has
        applied so far, hash-consed (an id and an entry's increments map to
        one new id), so ranks with equal ids applied equal sequences.  The
        program is rank-symmetric when the members of every charged line
        hold one id at its barrier — started equal, they meet with equal
        clocks, and the barrier adds ``dt`` to that clock — and every rank of
        ``scope`` ends with one id.  A rank charged outside ``scope``
        refutes it."""
        ids = [None] * self.num_ranks  # rank -> seq id; None: out of scope
        for r in scope:
            ids[r] = 0
        # increments -> key id, and (seq id, key id) -> the next seq id,
        # each a fresh id on first sight
        keys, table = defaultdict(count().__next__), defaultdict(count(1).__next__)
        for entry in program:
            op = entry[0]
            if op == COMPUTE:
                key = keys[COMPUTE, tuple(entry[2])]
                for r in entry[1]:
                    old = ids[r]
                    if old is None:
                        return False
                    ids[r] = table[old, key]
            elif op == COLLECTIVES:
                for group, cost in entry[2]:
                    ranks = group.ranks
                    if len(ranks) <= 1:
                        continue
                    old = ids[ranks[0]]
                    if old is None:
                        return False
                    new = table[old, keys[COLLECTIVES, cost]]
                    for r in ranks:
                        if ids[r] != old:  # a member out of step at the barrier
                            return False
                        ids[r] = new
        last = ids[scope[0]]
        for r in scope:
            if ids[r] != last:
                return False
        return True

    @staticmethod
    def chains(program: Sequence[tuple], rank: int) -> Tuple[tuple, ...]:
        """Per counter of :data:`COUNTERS`, the increments ``rank``'s replay
        of ``program`` adds to it, in program order: the chains of a
        lockstep form (see :meth:`lockstep`)."""
        chains = clock, flops, gemm, compute_time, comm_time, nbytes, weighted, num = (
            [], [], [], [], [], [], [], []
        )
        for entry in program:
            op = entry[0]
            if op == COMPUTE:
                timed = entry[2]
                for _ in range(entry[1].count(rank)):  # as often as listed
                    for f, kind, dt in timed:
                        flops.append(f)
                        if kind == "gemm":
                            gemm.append(f)
                        compute_time.append(dt)
                        clock.append(dt)
            elif op == COLLECTIVES:
                for group, (dt, nb, w) in entry[2]:
                    ranks = group.ranks
                    if len(ranks) > 1 and rank in ranks:
                        clock.append(dt)
                        comm_time.append(dt)
                        nbytes.append(nb)
                        weighted.append(w)
                        num.append(1)
        return tuple(map(tuple, chains))

    @staticmethod
    def _lockstep(devices: Sequence[SimDevice], chains: Tuple[tuple, ...]) -> bool:
        """Run a lockstep form (see :meth:`lockstep`) if the eight counters
        of ``devices`` are equal: each counter's increments added in order to
        the common value — the float-add chain every rank would run — and the
        results written to every device.  False, having changed nothing, at
        the first device that differs."""
        state = _counters(devices[0])
        for d in devices:
            if _counters(d) != state:
                return False
        clock, flops, gemm, compute_time, comm_time, nbytes, weighted, num = map(
            reduce, repeat(add), chains, state
        )
        for d in devices:
            d.clock = clock
            d.flops = flops
            d.flops_gemm = gemm
            d.compute_time = compute_time
            d.comm_time = comm_time
            d.bytes_comm = nbytes
            d.weighted_comm_volume = weighted
            d.num_collectives = num
        return True

    def replay(self, program: Iterable[tuple], lockstep: Optional[tuple] = None) -> None:
        """Run an accounting program's entries in order:

        * ``(COMPUTE, ranks, timed)`` (see :meth:`compute_entry`) — ``for r
          in ranks: for flops, kind, dt in timed: device(r).compute(flops,
          kind)``, rank-major, so trace events keep that order;
        * ``(COLLECTIVES, kind, lines)`` — one ``kind`` collective on each
          ``(group, (dt, nbytes, weighted))`` of ``lines``, in order (a mesh's
          rows or columns, or one group): barrier over the group's devices
          (see :attr:`~repro.comm.group.ProcessGroup.devices`; a tape's
          class plan lists only its representatives'), advance by ``dt``,
          one ``charge_comm`` each and the trace record.  A single-rank
          group moves no data and is charged nothing;
        * ``(OPEN, name, ranks, category, attrs)`` / ``(CLOSE,)`` — a trace
          span's ``__enter__`` / ``__exit__`` (nothing when untraced).

        Traced or not, the per-rank updates are the same, in the same
        order, and this loop stays their one definition.  ``lockstep`` is the
        program's lockstep form (see :meth:`lockstep`); an untraced replay
        whose scope starts with equal counters runs it instead — one rank's
        float-add chain, copied to the scope — and every other replay runs
        the loop.  ``tests/test_bulk_charges.py`` holds the two equal on
        random programs and start states.  A recording dry-run layer tape
        records the call (:class:`~repro.runtime.tape.Tape`)."""
        if self.tape is not None:
            return self.tape.program(program, lockstep)
        tr = self.tracer
        traced = tr.enabled
        if lockstep is not None and not traced and self._lockstep(*lockstep):
            return
        devices = self.devices
        spans = []
        for entry in program:
            op = entry[0]
            if op == COLLECTIVES:
                kind = entry[1]
                for group, (dt, nbytes, weighted) in entry[2]:
                    if len(group.ranks) <= 1:
                        continue
                    members = group.devices
                    t0 = members[0].clock  # the barrier: the latest clock
                    for d in members:
                        if d.clock > t0:
                            t0 = d.clock
                    t1 = t0 + dt
                    for d in members:
                        d.clock = t1
                        d.comm_time += dt
                        d.bytes_comm += nbytes
                        d.weighted_comm_volume += weighted
                        d.num_collectives += 1
                    if traced:
                        tr.record(
                            kind, group.ranks, t0, t1,
                            nbytes=nbytes, label=group.kind, weighted=weighted,
                        )
            elif op == COMPUTE:
                timed = entry[2]
                for rank in entry[1]:
                    d = devices[rank]
                    for flops, kind, dt in timed:
                        d.flops += flops
                        if kind == "gemm":
                            d.flops_gemm += flops
                        d.compute_time += dt
                        t0 = d.clock
                        d.clock = t1 = t0 + dt
                        if traced:
                            tr.record(
                                "compute", (rank,), t0, t1, label=kind, attrs={"flops": flops}
                            )
            elif not traced:
                continue
            elif op == OPEN:
                _, name, ranks, category, attrs = entry
                span = tr.span(name, ranks, category, **attrs)
                span.__enter__()
                spans.append(span)
            else:
                spans.pop().__exit__(None, None, None)

    def charge_compute(self, ranks: Iterable[int], charges: Iterable[Tuple[float, str]]) -> None:
        """Charge the ``(flops, kind)`` sequence on each of ``ranks`` (a
        one-entry :meth:`replay`).  Nothing is charged if any ``flops`` is
        negative, NaN or infinite."""
        self.replay((self.compute_entry(ranks, charges),))

    def elapsed(self) -> float:
        """Simulated wall-clock of the job so far (slowest rank)."""
        return max(d.clock for d in self.devices)

    def reset_time(self, keep_trace: bool = False) -> None:
        """Zero clocks and compute/comm counters; memory state is kept.

        ``keep_trace=True`` preserves accumulated trace events and spans —
        useful when an experiment times phases separately but wants one
        continuous timeline exported at the end.
        """
        for d in self.devices:
            d.reset_counters(reset_clock=True)
        if not keep_trace:
            self.tracer.clear()

    # ------------------------------------------------------------------
    # correctness checking
    # ------------------------------------------------------------------
    def _refresh_is_enabled(self) -> None:
        self.is_enabled = self._strict_invariants or self.tracer.enabled

    @property
    def strict_invariants(self) -> bool:
        return self._strict_invariants

    @strict_invariants.setter
    def strict_invariants(self, value: bool) -> None:
        self._strict_invariants = bool(value)
        self._refresh_is_enabled()

    def enable_strict_invariants(self) -> None:
        """Validate every subsequently-built DTensor against its layout."""
        self.strict_invariants = True

    def disable_strict_invariants(self) -> None:
        self.strict_invariants = False

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_memory_timeline(self) -> None:
        """Start per-allocation (time, tag, bytes) sampling on every rank."""
        for d in self.devices:
            d.memory.enable_timeline()

    def memory_timeline(self) -> Dict[int, List[MemSample]]:
        """Per-rank allocation timelines (empty lists when sampling is off)."""
        return {d.rank: list(d.memory.timeline or []) for d in self.devices}

    def comm_matrix(self, weighted: bool = False):
        """Rank→rank traffic matrix from the trace (requires ``trace=True``)."""
        from repro.obs.comm_matrix import comm_matrix

        return comm_matrix(self, weighted=weighted)

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        return sum(d.flops for d in self.devices)

    def total_bytes_comm(self) -> float:
        return sum(d.bytes_comm for d in self.devices)

    def max_weighted_comm_volume(self) -> float:
        return max(d.weighted_comm_volume for d in self.devices)

    def peak_memory(self) -> int:
        return max(d.memory.peak for d in self.devices)

    def memory_report(self) -> Dict[int, Dict[str, int]]:
        return {
            d.rank: {"current": d.memory.current, "peak": d.memory.peak}
            for d in self.devices
        }

    def watermarks(self) -> List[Dict[str, float]]:
        """Per-rank high-water counters for the run ledger: peak/current
        memory, allocation events, and the cumulative compute/comm split."""
        return [
            {
                "rank": d.rank,
                "peak_bytes": int(d.memory.peak),
                "current_bytes": int(d.memory.current),
                "num_allocs": int(d.memory.num_allocs),
                "clock": d.clock,
                "flops": d.flops,
                "flops_gemm": d.flops_gemm,
                "bytes_comm": d.bytes_comm,
                "weighted_comm_volume": d.weighted_comm_volume,
                "compute_time": d.compute_time,
                "comm_time": d.comm_time,
                "num_collectives": int(d.num_collectives),
            }
            for d in self.devices
        ]

    def summary(self) -> Dict[str, float]:
        return {
            "elapsed": self.elapsed(),
            "total_flops": self.total_flops(),
            "total_bytes_comm": self.total_bytes_comm(),
            "peak_memory_bytes": float(self.peak_memory()),
            "max_compute_time": max(d.compute_time for d in self.devices),
            "max_comm_time": max(d.comm_time for d in self.devices),
        }
