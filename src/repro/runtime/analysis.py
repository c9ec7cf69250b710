"""Post-run analysis of simulator state: utilization, breakdowns, timelines.

These helpers turn the raw per-device counters and trace events into the
quantities performance engineers actually look at — busy/idle fractions,
compute-vs-communication splits, per-collective traffic totals — and back
the "time breakdown" columns of the comparison benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runtime.events import Tracer, busy_intervals
from repro.runtime.simulator import Simulator


@dataclass(frozen=True)
class DeviceBreakdown:
    rank: int
    compute_time: float
    comm_time: float
    idle_time: float
    total_time: float

    @property
    def busy_fraction(self) -> float:
        return (self.compute_time + self.comm_time) / self.total_time if self.total_time else 0.0

    @property
    def comm_fraction(self) -> float:
        busy = self.compute_time + self.comm_time
        return self.comm_time / busy if busy else 0.0


def device_breakdowns(sim: Simulator) -> List[DeviceBreakdown]:
    """Per-device compute / communication / idle split of the run so far.

    Idle is measured against the job's elapsed time (slowest rank), so the
    slowest device shows ~zero idle and everyone else's idle is the time
    they spent waiting at collectives or on pipeline dependencies.
    """
    elapsed = sim.elapsed()
    out = []
    for d in sim.devices:
        idle = max(0.0, elapsed - d.compute_time - d.comm_time)
        out.append(
            DeviceBreakdown(
                rank=d.rank,
                compute_time=d.compute_time,
                comm_time=d.comm_time,
                idle_time=idle,
                total_time=elapsed,
            )
        )
    return out


def utilization(sim: Simulator) -> float:
    """Mean busy fraction across devices (1.0 = perfectly balanced, no waits)."""
    bds = device_breakdowns(sim)
    if not bds:
        return 0.0
    return sum(b.busy_fraction for b in bds) / len(bds)


def comm_fraction(sim: Simulator) -> float:
    """Fraction of the critical path spent communicating (slowest rank)."""
    slowest = max(sim.devices, key=lambda d: d.clock)
    busy = slowest.compute_time + slowest.comm_time
    return slowest.comm_time / busy if busy else 0.0


@dataclass(frozen=True)
class CollectiveStats:
    kind: str
    count: int
    total_bytes: float  # payload bytes, counted once per event
    total_time: float
    total_weighted: float = 0.0  # β-weighted volume charged per participant
    total_bytes_charged: float = 0.0  # bytes as the device counters saw them


def collective_stats(tracer: Tracer) -> Dict[str, CollectiveStats]:
    """Aggregate traced communication events by kind (requires trace=True).

    Covers grouped collectives *and* point-to-point transfers; compute
    events are excluded.  ``total_bytes_charged`` multiplies each payload by
    its participant count (both endpoints for p2p), which is exactly what
    the per-device ``bytes_comm`` counters accumulate — so
    ``sum(s.total_bytes_charged) == sim.total_bytes_comm()`` for a fully
    traced run.
    """
    agg: Dict[str, List] = {}
    for e in tracer.events:
        if e.category not in ("compute", None):  # kernels, annotations: no traffic
            agg.setdefault(e.kind, []).append(e)
    return {
        kind: CollectiveStats(
            kind=kind,
            count=len(evs),
            total_bytes=sum(e.nbytes for e in evs),
            total_time=sum(e.duration for e in evs),
            total_weighted=sum(e.weighted * len(e.ranks) for e in evs),
            total_bytes_charged=sum(e.nbytes * len(e.ranks) for e in evs),
        )
        for kind, evs in agg.items()
    }


@dataclass(frozen=True)
class RankActivity:
    """Busy/idle split of one rank derived purely from trace records."""

    rank: int
    busy_time: float
    idle_time: float
    total_time: float

    @property
    def busy_fraction(self) -> float:
        return self.busy_time / self.total_time if self.total_time else 0.0


def rank_activity(
    tracer: Tracer, num_ranks: int, elapsed: Optional[float] = None
) -> List[RankActivity]:
    """Per-rank busy/idle fractions from trace events alone.

    Busy time is the rank's :func:`~repro.runtime.events.busy_intervals`
    (compute slices, collective participation, the *receiving* side of
    point-to-point transfers; overlaps clipped, so a rank is never more than
    100% busy).  Unlike :func:`device_breakdowns`, this needs only a tracer —
    e.g. one loaded back from an exported trace.
    """
    busy_ns = busy_intervals(tracer.events)
    horizon = elapsed
    if horizon is None:
        horizon = max((e.t_end for e in tracer.events), default=0.0)
    out = []
    for r in range(num_ranks):
        busy = sum(b - a for a, b, _ in busy_ns.get(r, ())) / 1e9
        out.append(
            RankActivity(
                rank=r,
                busy_time=busy,
                idle_time=max(0.0, horizon - busy),
                total_time=horizon,
            )
        )
    return out


def load_imbalance(sim: Simulator) -> float:
    """max/mean compute time across devices (1.0 = perfectly balanced)."""
    times = [d.compute_time for d in sim.devices]
    mean = sum(times) / len(times)
    return max(times) / mean if mean else 1.0


def format_breakdown(sim: Simulator, title: str = "") -> str:
    """Human-readable per-device breakdown table."""
    from repro.utils.tables import format_table

    rows = [
        [b.rank, b.compute_time, b.comm_time, b.idle_time,
         f"{b.busy_fraction:.1%}", f"{b.comm_fraction:.1%}"]
        for b in device_breakdowns(sim)
    ]
    return format_table(
        ["rank", "compute (s)", "comm (s)", "idle (s)", "busy", "comm share"],
        rows,
        title=title or "Per-device time breakdown",
    )
