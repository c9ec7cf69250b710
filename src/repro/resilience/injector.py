"""Deterministic fault injection into the simulator's collectives.

The injector installs itself on a :class:`~repro.runtime.simulator.Simulator`
(``sim.fault_injector``); every collective in :mod:`repro.comm.collectives`
checks that single attribute and, when armed, routes through
:meth:`FaultInjector.on_collective`.  With no injector installed the check
costs one attribute read — the zero-overhead-when-off contract.

All fault decisions come from the :class:`~repro.resilience.faults.FaultSchedule`
plus a seeded generator (victim-rank and victim-element choices), so a
(schedule, seed) pair replays identically.  Every injected delay — timeouts,
exponential backoff, straggler skew — is charged to the *simulated* clock
through the same ``sync``/``advance`` primitives the α–β model uses, so
fault overhead shows up in ``sim.elapsed()``, per-step timings, and the
Perfetto trace (as ``fault`` events), not just in counters.  Flaky retry
attempts re-run the real collective and discard the result: the wire moved
the bytes, so byte counters and the comm-matrix reconciliation stay exact.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.backend.shape_array import is_shape_array
from repro.resilience.faults import (
    CollectiveTimeoutError,
    FaultSchedule,
    RankCrashError,
)


def _flip_high_bit(arr: np.ndarray, flat_index: int, bit: int) -> bool:
    """OR a high exponent bit into one element, in place.

    Setting the exponent MSB drives the magnitude to ~1e308 (float64) /
    ~1e38 (float32), which the gradient-norm and non-finite guards are
    guaranteed to notice downstream.  Returns False for non-float arrays
    (nothing corrupted).  Works on non-contiguous shards (collective
    outputs can be axis-1 splits) by staging the one element.
    """
    if arr.dtype == np.float64:
        utype, b = np.uint64, min(bit, 62)
    elif arr.dtype == np.float32:
        utype, b = np.uint32, min(bit, 30)
    else:
        return False
    if arr.size == 0:
        return False
    pos = np.unravel_index(flat_index % arr.size, arr.shape)
    one = np.array([arr[pos]], dtype=arr.dtype)
    one.view(utype)[0] |= utype(1) << utype(b)
    arr[pos] = one[0]
    return True


class FaultInjector:
    """Replays a :class:`FaultSchedule` against a simulator, deterministically."""

    def __init__(
        self,
        schedule: FaultSchedule,
        seed: int = 0,
        max_retries: int = 5,
        timeout_s: float = 1.0,
        backoff_base_s: float = 0.05,
    ):
        self.schedule = schedule
        self.seed = seed
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.rng = np.random.default_rng(seed)
        self.sim = None
        self.armed = False
        self._step = 0
        self._collective_index = 0
        self._kind_counts: Dict[str, int] = {}
        self._active_stragglers: List = []
        self._straggler_marks: Dict[int, float] = {}
        #: plain-python tallies (the same quantities also go to sim.metrics)
        self.stats = {"crashes": 0, "retries": 0, "corruptions": 0, "sdc_injected": 0}

    # ------------------------------------------------------------------
    def install(self, sim) -> "FaultInjector":
        self.sim = sim
        sim.fault_injector = self
        self.armed = True
        return self

    def uninstall(self) -> None:
        if self.sim is not None and self.sim.fault_injector is self:
            self.sim.fault_injector = None
        self.armed = False

    def _invoke(self, run: Callable):
        """Run the real collective with the injector disarmed (reentrancy)."""
        self.armed = False
        try:
            return run()
        finally:
            self.armed = True

    # ------------------------------------------------------------------
    # step boundary
    # ------------------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Called by the resilient trainer before each step; raises
        :class:`RankCrashError` when a crash is scheduled here."""
        self._step = step
        self._collective_index = 0
        self._kind_counts = {}
        self._active_stragglers = self.schedule.stragglers_active(step)
        active_ranks = {s.rank for s in self._active_stragglers}
        for s in self._active_stragglers:
            self._straggler_marks.setdefault(s.rank, self.sim.device(s.rank).compute_time)
        for rank in list(self._straggler_marks):
            if rank not in active_ranks:
                del self._straggler_marks[rank]
        crash = self.schedule.match_crash(step)
        if crash is not None:
            crash.consumed = True
            self.stats["crashes"] += 1
            self.sim.metrics.counter("resilience/crashes").inc()
            if self.sim.tracer.enabled:
                now = self.sim.device(crash.rank).clock
                self.sim.tracer.record(
                    "fault", (crash.rank,), now, now, label="crash",
                    attrs={"step": step},
                )
            raise RankCrashError(crash.rank, step)

    # ------------------------------------------------------------------
    # collective boundary
    # ------------------------------------------------------------------
    def on_collective(self, kind: str, group, run: Callable):
        sim = self.sim
        idx = self._collective_index
        self._collective_index += 1
        kidx = self._kind_counts.get(kind, 0)
        self._kind_counts[kind] = kidx + 1
        if self._active_stragglers:
            self._apply_straggler_skew()
        transient = self.schedule.match_transient(self._step, idx, kidx, kind)
        if transient is not None:
            transient.consumed = True
            t0 = sim.elapsed()
            for attempt in range(transient.fails):
                if attempt >= self.max_retries:
                    raise CollectiveTimeoutError(
                        f"{kind} over ranks {list(group.ranks)} still failing "
                        f"after {attempt} retries (step {self._step}, "
                        f"collective #{idx})"
                    )
                self._charge_failed_attempt(kind, group, transient, run, attempt)
            sim.metrics.histogram("resilience/retry_time").observe(
                sim.elapsed() - t0
            )
        corruption = self.schedule.match_corruption(self._step, idx, kidx, kind)
        result = self._invoke(run)
        if corruption is not None:
            corruption.consumed = True
            result = self._corrupt_result(kind, corruption, result)
        return result

    def _charge_failed_attempt(self, kind, group, fault, run, attempt) -> None:
        sim = self.sim
        if fault.mode == "flaky":
            # the attempt really ran on the wire (bytes + α–β time charged,
            # normal trace event recorded); the payload failed the transport
            # checksum and is dropped
            self._invoke(run)
        t0 = sim.sync(group.ranks)
        dt = self.backoff_base_s * (2.0**attempt)
        if fault.mode == "timeout":
            dt += self.timeout_s
        sim.advance(group.ranks, dt)
        self.stats["retries"] += 1
        sim.metrics.counter("resilience/retries", kind=kind).inc()
        if sim.tracer.enabled:
            sim.tracer.record(
                "fault", group.ranks, t0, t0 + dt, label=f"{kind}:{fault.mode}",
                attrs={"step": self._step, "attempt": attempt},
            )

    def _corrupt_result(self, kind: str, fault, result):
        ranks = sorted(result)
        if fault.victim_rank is not None and fault.victim_rank in result:
            victim = fault.victim_rank
        else:
            victim = ranks[int(self.rng.integers(len(ranks)))]
        arr = result[victim]
        if is_shape_array(arr):
            return result  # dryrun carries no data to corrupt
        # corrupt a copy: for broadcast the root's output aliases the
        # caller's source buffer, which must stay pristine
        corrupted = np.array(arr, copy=True)
        index = int(self.rng.integers(max(corrupted.size, 1)))
        if not _flip_high_bit(corrupted, index, fault.bit):
            return result  # non-float payload (e.g. token ids): leave it
        result = dict(result)
        result[victim] = corrupted
        self.stats["corruptions"] += 1
        sim = self.sim
        sim.metrics.counter("resilience/corruptions", kind=kind).inc()
        if sim.tracer.enabled:
            now = sim.device(victim).clock
            sim.tracer.record(
                "fault", (victim,), now, now, label=f"{kind}:corrupt",
                attrs={"step": self._step, "bit": fault.bit},
            )
        return result

    def _apply_straggler_skew(self) -> None:
        """Convert compute done since the last collective into extra clock
        time on straggling ranks; the next ``sync`` makes everyone wait."""
        for s in self._active_stragglers:
            dev = self.sim.device(s.rank)
            done = dev.compute_time - self._straggler_marks[s.rank]
            if done > 0:
                self.sim.metrics.counter("resilience/straggler_time").inc(
                    (s.factor - 1.0) * done
                )
                self.sim.partition = None
                dev.clock += (s.factor - 1.0) * done
                self._straggler_marks[s.rank] = dev.compute_time

    # ------------------------------------------------------------------
    # gradient SDC (after backward, before the guards)
    # ------------------------------------------------------------------
    def on_gradients(self, step: int, params) -> None:
        fault = self.schedule.match_sdc(step)
        if fault is None:
            return
        candidates = [p for p in params if p.grad is not None]
        if fault.param is not None:
            candidates = [p for p in candidates if p.name == fault.param]
        if not candidates:
            return
        fault.consumed = True
        p = candidates[int(self.rng.integers(len(candidates)))]
        # one distinct block, flipped on every rank holding a copy of it, so
        # copies stay consistent and one scalar of the gradient changes
        grad = p.grad
        blocks = sorted(grad.layout.distinct(grad.owner))
        block = blocks[int(self.rng.integers(len(blocks)))]
        targets = sorted(grad.layout.copies(grad.owner, block))
        first = grad.shards[targets[0]]
        if is_shape_array(first):
            return
        index = int(self.rng.integers(max(np.asarray(first).size, 1)))
        flipped = False
        for r in targets:
            flipped = _flip_high_bit(np.asarray(grad.shards[r]), index, fault.bit)
        if not flipped:
            return
        self.stats["sdc_injected"] += 1
        sim = self.sim
        sim.metrics.counter("resilience/sdc_injected").inc()
        if sim.tracer.enabled:
            now = sim.device(targets[0]).clock
            sim.tracer.record(
                "fault", tuple(targets), now, now, label=f"sdc:{p.name}",
                attrs={"step": step, "bit": fault.bit},
            )
