"""A single simulated accelerator."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Optional

from repro.hardware.specs import DeviceSpec
from repro.runtime.events import Tracer
from repro.runtime.memory import MemoryMeter


@dataclass
class SimDevice:
    """One rank's device: BSP clock, compute/comm counters, memory meter.

    Counters:

    * ``flops`` — scalar multiply-adds executed locally (2·m·k·n per GEMM);
    * ``bytes_comm`` — raw bytes this device received in collectives;
    * ``weighted_comm_volume`` — the paper's cost-model quantity: bytes
      multiplied by the per-collective stage factor (``log₂ g`` for tree
      broadcast/reduce, ``2(g−1)/g`` for ring all-reduce).  Summed over a
      transformer layer this reproduces Table 1's communication column
      exactly, which is how the Table 1 benchmark validates the simulator.
    """

    rank: int
    spec: DeviceSpec
    memory: MemoryMeter
    clock: float = 0.0
    flops: float = 0.0
    flops_gemm: float = 0.0  # matmul-only MAC·2 count (Table 1 validation)
    bytes_comm: float = 0.0
    weighted_comm_volume: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    num_collectives: int = 0
    tracer: Optional[Tracer] = None  # wired by the Simulator
    #: the owning Simulator (wired by it): a charge made here drops its
    #: carried rank classes, and poisons a recording dry-run layer tape
    #: (see ``runtime.tape.Tape``)
    sim: Any = field(default=None, repr=False, compare=False)

    def compute(self, flops: float, kind: str = "gemm") -> float:
        """Charge a local computation; returns the simulated duration.

        ``kind`` separates GEMM FLOPs (the paper's Table 1 counts only
        matrix-product multiply-adds) from elementwise work (GELU, softmax,
        layernorm), which is charged to the clock but excluded from
        ``flops_gemm``.
        """
        if not 0 <= flops < inf:
            raise ValueError(f"non-finite or negative flops: {flops!r}")
        sim = self.sim
        if sim is not None:
            sim.partition = None
            if sim.tape is not None:
                sim.tape.poison()
        dt = flops / self.spec.effective_flops
        self.flops += flops
        if kind == "gemm":
            self.flops_gemm += flops
        self.compute_time += dt
        t0 = self.clock
        self.clock += dt
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.record(
                "compute", (self.rank,), t0, self.clock,
                label=kind, attrs={"flops": flops},
            )
        return dt

    def charge_comm(self, dt: float, nbytes: float, weighted_volume: float) -> None:
        """Record one collective's contribution (clock advance is separate)."""
        sim = self.sim
        if sim is not None:
            sim.partition = None
            if sim.tape is not None:
                sim.tape.poison()
        self.comm_time += dt
        self.bytes_comm += nbytes
        self.weighted_comm_volume += weighted_volume
        self.num_collectives += 1

    def reset_counters(self, reset_clock: bool = True) -> None:
        if self.sim is not None:
            self.sim.partition = None
        if reset_clock:
            self.clock = 0.0
        self.flops = 0.0
        self.flops_gemm = 0.0
        self.bytes_comm = 0.0
        self.weighted_comm_volume = 0.0
        self.compute_time = 0.0
        self.comm_time = 0.0
        self.num_collectives = 0
