"""Request-scoped serving telemetry: live metrics + lifecycle trace events.

One :class:`ServingTelemetry` is attached per engine run.  It has two
jobs, both strictly **read-only with respect to the simulation** (it never
touches a device clock, a KV block, or a sampled token, which is what
keeps serve reports byte-identical with telemetry on or off):

* **Live metrics** — every engine step publishes queue depth, running
  batch size, KV/swap occupancy, TTFT/TPOT/e2e histograms, and
  goodput/throughput counters into the simulator's labeled
  :class:`~repro.obs.metrics.MetricsRegistry`.  The ``repro serve
  --metrics-port`` endpoint renders that registry on each scrape; counters
  carry a ``created`` reset epoch so scrapers see proper OpenMetrics
  counter-restart semantics across arms.

* **Request lifecycle tracing** — when the simulator's tracer is enabled,
  every request emits flat events of kind ``"request"`` (``queued >
  admitted > prefill > decode[step] > preempted/swap-out/swap-in >
  complete|abort``) plus a root event spanning arrival→finish.  Event
  identity derives from ``(rid, step)`` so traces are byte-deterministic;
  the Perfetto exporter turns them into per-rank "requests" tracks with
  cross-step flow arrows.

The scheduler reports preemption/swap/timeout transitions through its
``observer`` attribute (duck-typed to this class; ``None`` disables it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class ServingTelemetry:
    """Per-run metrics publisher and request-lifecycle trace emitter."""

    def __init__(
        self,
        engine,
        slo: Optional[Tuple[float, float]] = None,
        epoch: int = 0,
    ):
        self.engine = engine
        self.sim = engine.sim
        self.reg = engine.sim.metrics
        self.scheme = engine.scheme
        self.slo = slo  # (slo_ttft, slo_tpot); None disables goodput accounting
        self.epoch = int(epoch)
        self.good_total = 0.0
        self.gen_total = 0.0
        self._lifecycle_prev: Dict[str, int] = {}

    # -- registry helpers ----------------------------------------------
    def _counter(self, name: str):
        c = self.reg.counter(name, scheme=self.scheme)
        if c.created < self.epoch:
            c.created = self.epoch
        return c

    def _gauge(self, name: str):
        return self.reg.gauge(name, scheme=self.scheme)

    def _hist(self, name: str):
        return self.reg.histogram(name, scheme=self.scheme)

    # -- trace helpers -------------------------------------------------
    @property
    def tracing(self) -> bool:
        return self.sim.tracer.enabled

    def _ranks_of(self, slot: int) -> Sequence[int]:
        return self.engine.cache.group_of(slot).ranks

    def _event(self, label: str, ranks, t0: float, t1: float, **attrs) -> None:
        if self.tracing:
            self.sim.tracer.record("request", ranks, t0, t1, label=label, attrs=attrs)

    # ==================================================================
    # engine hooks
    # ==================================================================
    def on_admitted(self, states: List, now: float) -> None:
        """New admissions this step: close each request's queued wait."""
        for st in states:
            rid = st.request.rid
            ranks = self._ranks_of(st.slot)
            self._event("queued", ranks, st.request.arrival, now, rid=rid, phase="queued")
            self._event("admitted", ranks, now, now, rid=rid, slot=st.slot, phase="admitted")

    def on_lanes(self, entries: List, active: Dict, step: int, t0: float, t1: float) -> None:
        """One prefill/decode event per lane of a successful step."""
        if not self.tracing:
            return
        for e in entries:
            st = active.get(e.slot)
            if st is None:  # finished and evicted within this step
                continue
            phase = "prefill" if st.prefill_lane else "decode"
            self._event(
                phase,
                self._ranks_of(e.slot),
                t0,
                t1,
                rid=st.request.rid,
                step=step,
                slot=e.slot,
                pos=e.pos,
                phase=phase,
            )

    def on_first_token(self, state, t: float) -> None:
        self._hist("serving/ttft_s").observe(t - state.request.arrival)

    def on_recovery(self, t0: float, t1: float, step: int) -> None:
        if self.tracing:
            self.sim.tracer.record(
                "request",
                self.engine.all_ranks,
                t0,
                t1,
                label="recovery",
                attrs={"step": step, "phase": "recovery"},
            )

    def on_step(self, step: int, now: float, prompt_delta: int, gen_delta: int) -> None:
        """Post-bookkeeping publication for one successful engine step."""
        # counter families deliberately lack a _total suffix: the
        # OpenMetrics renderer appends it to the sample name itself
        self.gen_total += gen_delta
        self._counter("serving/steps").inc()
        if gen_delta:
            self._counter("serving/tokens").inc(gen_delta)
        if prompt_delta:
            self._counter("serving/prompt_tokens").inc(prompt_delta)
        self._lifecycle_deltas()
        self._publish_gauges(now)

    def on_idle(self, now: float) -> None:
        """Idle-advance: keep the scrapeable gauges fresh while parked."""
        self._publish_gauges(now)

    def on_alert(self, event) -> None:
        """An alert transition: point event in the trace (metrics untouched)."""
        if self.tracing:
            self.sim.tracer.record(
                "alert",
                self.engine.all_ranks,
                event.t,
                event.t,
                label=f"{event.rule}:{event.state}",
                attrs={
                    "rule": event.rule,
                    "state": event.state,
                    "severity": event.severity,
                    "step": event.step,
                    "value": event.value,
                },
            )

    # ==================================================================
    # scheduler observer surface
    # ==================================================================
    def on_preempt(self, state, now: float, swapped: bool) -> None:
        rid = state.request.rid
        ranks = self._ranks_of(state.slot)
        mode = "swap" if swapped else "recompute"
        self._event(
            "preempted", ranks, now, now, rid=rid, slot=state.slot, mode=mode, phase="preempted"
        )
        if swapped:
            self._event("swap-out", ranks, now, now, rid=rid, slot=state.slot, phase="swap-out")

    def on_resume(self, state, now: float, swapped: bool) -> None:
        phase = "swap-in" if swapped else "resume-recompute"
        self._event(
            phase,
            self._ranks_of(state.slot),
            now,
            now,
            rid=state.request.rid,
            slot=state.slot,
            phase=phase,
        )

    def on_shed(self, request, now: float) -> None:
        self._event("abort", self.engine.all_ranks, now, now, rid=request.rid, phase="shed")

    def on_timeout(self, request, now: float, where: str, retried: bool) -> None:
        label = "retry" if retried else "abort"
        self._event(
            label, self.engine.all_ranks, now, now, rid=request.rid, phase=f"timeout-{where}"
        )

    def on_finish(self, state, now: float) -> None:
        """A request completed: latency histograms, goodput, root event."""
        r = state.request
        e2e = now - r.arrival
        tpot = state.tpot
        self._hist("serving/e2e_s").observe(e2e)
        self._hist("serving/tpot_s").observe(tpot)
        self._counter("serving/finished").inc()
        if self.slo is not None:
            slo_ttft, slo_tpot = self.slo
            ttft = state.first_token_time - r.arrival
            if ttft <= slo_ttft and tpot <= slo_tpot:
                good = len(state.generated)
                self.good_total += good
                self._counter("serving/good_tokens").inc(good)
        ranks = self._ranks_of(state.slot)
        self._event(
            "request",
            ranks,
            r.arrival,
            now,
            rid=r.rid,
            generated=len(state.generated),
            phase="request",
        )
        self._event("complete", ranks, now, now, rid=r.rid, phase="complete")

    # ==================================================================
    def _lifecycle_deltas(self) -> None:
        """Mirror scheduler lifecycle counters into monotone registry counters."""
        for key, val in self.engine.scheduler.lifecycle.items():
            prev = self._lifecycle_prev.get(key, 0)
            if val > prev:
                self._counter(f"serving/{key}").inc(val - prev)
                self._lifecycle_prev[key] = val

    def _publish_gauges(self, now: float) -> None:
        sched = self.engine.scheduler
        cache = self.engine.cache
        arrived = sum(1 for r in sched.queue if r.arrival <= now)
        self._gauge("serving/queue_depth").set(arrived)
        self._gauge("serving/running").set(len(sched.active))
        self._gauge("serving/paused").set(len(sched.paused))
        cap = sum(p.capacity for p in cache.pools.values())
        used = sum(p.in_use for p in cache.pools.values())
        self._gauge("serving/kv_used_frac").set(used / cap if cap else 0.0)
        swap = self.engine.swap
        if swap is not None:
            frac = swap.blocks_held / swap.capacity_blocks if swap.capacity_blocks else 0.0
            self._gauge("serving/swap_used_frac").set(frac)
        if now > 0:
            self._gauge("serving/goodput_tokens_per_s").set(self.good_total / now)
            self._gauge("serving/throughput_tokens_per_s").set(self.gen_total / now)
