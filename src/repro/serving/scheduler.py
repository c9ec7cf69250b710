"""Continuous-batching scheduler (Orca-style iteration-level scheduling).

At *every* decode step the engine asks the scheduler to admit newly-arrived
requests and, after the step, evicts finished sequences — there is no
static batch.  Two admission policies are supported:

* ``reserve`` (default, PR 8 behavior, byte-identical) — **conservative
  reservation**: a request is only placed when its *whole* KV footprint
  (``prompt + output − 1`` positions, rounded up to blocks) can be reserved
  immediately, so a running sequence can never hit an out-of-blocks
  condition mid-decode and preemption is never needed.
* ``preempt`` — a request is placed once its *prompt* fits; KV blocks grow
  on demand each step.  When a group's pool runs dry the scheduler evicts
  a victim (lowest priority, then longest remaining, deterministic
  tie-break) and parks it: **swap-out** to a host-memory tier when one is
  configured and has room, else the **recompute** fallback (drop the KV,
  replay the known prefix on resume — byte-identical by greedy-decode
  determinism).  Paused sequences resume FIFO before new admissions.

Both policies share strict FCFS admission (the head of the queue never
gets skipped — starvation-free) and deterministic placement (lowest
eligible slot wins).

The request lifecycle layer (all off by default) adds per-request
deadlines (queued expiry and mid-flight abort), bounded idempotent
retries (the request re-enters the queue with a fresh arrival), and
overload backpressure (a bounded waiting room: arrivals beyond
``max_queue_depth`` are shed, newest first, recorded lowest-rid-first).

Invariants (enforced here, asserted in ``tests/test_serving.py``):
active sequences never exceed the slot count, per-group block usage never
exceeds the pool capacity, and every block is back in its pool after the
last eviction.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.serving.kvcache import HostSwapSpace, ShardedKVCache, SwapTicket
from repro.serving.traffic import Request
from repro.utils import UsageError

POLICIES = ("reserve", "preempt")


@dataclass(frozen=True)
class ServingOptions:
    """Scheduler policy knobs; the defaults reproduce PR 8 exactly."""

    policy: str = "reserve"
    swap_blocks: int = 0  # host swap capacity in blocks (0 = recompute only)
    swap_gbps: float = 16.0  # host link bandwidth per rank
    deadline_s: Optional[float] = None  # default e2e deadline for every request
    max_retries: int = 0  # retry budget per request after a timeout
    max_queue_depth: Optional[int] = None  # waiting-room bound (None = unbounded)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise UsageError(f"--policy: unknown policy {self.policy!r} (choose from {POLICIES})")
        if self.swap_blocks < 0:
            raise UsageError(f"--swap-blocks: must be >= 0, got {self.swap_blocks}")
        if self.swap_gbps <= 0:
            raise UsageError(f"--swap-bw: must be positive, got {self.swap_gbps}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise UsageError(f"--deadline: must be positive, got {self.deadline_s}")
        if self.max_retries < 0:
            raise UsageError(f"--retries: must be >= 0, got {self.max_retries}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise UsageError(f"--max-queue-depth: must be >= 1, got {self.max_queue_depth}")

    @property
    def enabled(self) -> bool:
        """True when any non-PR-8 behavior is switched on."""
        return (
            self.policy != "reserve"
            or self.deadline_s is not None
            or self.max_retries > 0
            or self.max_queue_depth is not None
        )


@dataclass
class SlotState:
    """Progress of one admitted request through its slot."""

    request: Request
    slot: int
    admit_time: float
    fed: int = 0  # tokens fed to the model so far (prompt + generated)
    generated: List[int] = field(default_factory=list)
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    preemptions: int = 0
    #: recompute-resume replay target: tokens below this index were already
    #: fed before a preemption dropped the KV and are being re-fed
    replay_until: int = 0

    @property
    def in_prefill(self) -> bool:
        """True while the next input token still comes from the prompt."""
        return self.fed < self.request.prompt_len

    @property
    def prefill_lane(self) -> bool:
        """Lane classification for attribution: prompt feeds *and* replay
        re-feeds run prefill-style (known token in, output discarded)."""
        return self.fed < max(self.request.prompt_len, self.replay_until)

    def next_input(self) -> int:
        if self.in_prefill:
            return self.request.prompt[self.fed]
        # indexing (not [-1]) so recompute replay re-feeds the right token;
        # in the normal flow fed - prompt_len is always len(generated) - 1
        return self.generated[self.fed - self.request.prompt_len]

    @property
    def done(self) -> bool:
        return len(self.generated) >= self.request.max_new

    @property
    def remaining(self) -> int:
        return self.request.max_new - len(self.generated)

    @property
    def tpot(self) -> float:
        """Time-per-output-token of a finished request over its decode
        stretch (0.0 for max_new == 1): the report's and the live
        telemetry's one definition."""
        n = self.request.max_new
        return (self.finish_time - self.first_token_time) / (n - 1) if n > 1 else 0.0


@dataclass
class PausedSeq:
    """A preempted sequence waiting to resume (FIFO)."""

    state: SlotState
    ticket: Optional[SwapTicket]  # None = recompute fallback (KV dropped)
    known: int  # tokens fed (and committed) at preemption time


def _fresh_lifecycle() -> Dict[str, int]:
    return {
        "rejected_shed": 0,  # backpressure: waiting room full at arrival
        "rejected_deadline": 0,  # expired while still queued
        "timed_out": 0,  # aborted mid-flight or while paused
        "retried": 0,  # re-enqueued after a timeout (budget permitting)
        "preempted": 0,
        "swapped_out": 0,
        "swapped_in": 0,
        "recomputed": 0,  # recompute-fallback resumes
        "recomputed_tokens": 0,  # prefix tokens re-fed during replay
        "recovered_steps": 0,  # decode steps re-executed after a fault
    }


class ContinuousBatchingScheduler:
    """Admit-at-every-step FCFS scheduler over a sharded KV cache."""

    def __init__(
        self,
        cache: ShardedKVCache,
        options: Optional[ServingOptions] = None,
        swap: Optional[HostSwapSpace] = None,
    ):
        self.cache = cache
        self.options = options if options is not None else ServingOptions()
        self.swap = swap
        self.queue: Deque[Request] = deque()
        self.active: Dict[int, SlotState] = {}
        self.paused: Deque[PausedSeq] = deque()
        self.completed: List[SlotState] = []
        self._free_slots: List[int] = sorted(s for g in cache.groups for s in g.slots)
        self.num_slots = len(self._free_slots)
        self._retries_left: Dict[int, int] = {}
        self._has_deadlines = False
        self.shed_rids: List[int] = []
        self.timeout_rids: List[int] = []
        self.stats = {
            "admitted": 0,
            "finished": 0,
            "max_active": 0,
            "hol_blocked_steps": 0,  # admission stopped with the queue non-empty
        }
        self.lifecycle = _fresh_lifecycle()
        #: lifecycle observer (duck-typed to ServingTelemetry); the engine
        #: installs one per run.  Observers must be read-only over the
        #: scheduler — they exist to emit trace events and metrics.
        self.observer = None

    # ------------------------------------------------------------------
    def load(self, requests: List[Request]) -> None:
        capacity = max(p.capacity for p in self.cache.pools.values())
        for r in requests:
            need = self.cache.blocks_needed(r.kv_positions)
            if need > capacity:
                raise ValueError(
                    f"request {r.rid} needs {need} KV blocks but the largest "
                    f"pool holds {capacity} — it could never be admitted"
                )
        self.queue = deque(sorted(requests, key=lambda r: (r.arrival, r.rid)))
        self._has_deadlines = self.options.deadline_s is not None or any(
            r.deadline_s is not None for r in requests
        )

    @property
    def pending(self) -> int:
        return len(self.queue)

    def next_arrival(self) -> Optional[float]:
        return self.queue[0].arrival if self.queue else None

    def incomplete(self) -> bool:
        return bool(self.queue or self.active or self.paused)

    def _deadline_of(self, req: Request) -> Optional[float]:
        return req.deadline_s if req.deadline_s is not None else self.options.deadline_s

    # ------------------------------------------------------------------
    # lifecycle phases (all no-ops in the default PR 8 configuration)
    # ------------------------------------------------------------------
    def intake(self, now: float) -> None:
        """Backpressure: shed arrivals beyond the waiting-room bound."""
        depth = self.options.max_queue_depth
        if depth is None:
            return
        arrived: List[Request] = []
        while self.queue and self.queue[0].arrival <= now:
            arrived.append(self.queue.popleft())
        for r in arrived[depth:]:  # newest beyond the bound are shed
            self.lifecycle["rejected_shed"] += 1
            self.shed_rids.append(r.rid)
            if self.observer is not None:
                self.observer.on_shed(r, now)
        for r in reversed(arrived[:depth]):
            self.queue.appendleft(r)

    def expire(self, now: float) -> None:
        """Deadline pass: queued expiry, mid-flight abort, paused abort."""
        if not self._has_deadlines:
            return
        survivors: List[Request] = []
        expired_queued: List[Request] = []
        for r in self.queue:
            d = self._deadline_of(r)
            if d is not None and r.arrival <= now and now > r.arrival + d:
                expired_queued.append(r)
            else:
                survivors.append(r)
        if expired_queued:
            self.queue = deque(survivors)
        for r in expired_queued:
            self.lifecycle["rejected_deadline"] += 1
            retried = self._maybe_retry(r, now)
            if not retried:
                self.timeout_rids.append(r.rid)
            if self.observer is not None:
                self.observer.on_timeout(r, now, "queued", retried)
        for slot in sorted(self.active):
            state = self.active[slot]
            d = self._deadline_of(state.request)
            if d is not None and now > state.request.arrival + d:
                self.active.pop(slot)
                self.cache.free(slot)
                self._free_slots.append(slot)
                self._free_slots.sort()
                self.lifecycle["timed_out"] += 1
                retried = self._maybe_retry(state.request, now)
                if not retried:
                    self.timeout_rids.append(state.request.rid)
                if self.observer is not None:
                    self.observer.on_timeout(state.request, now, "active", retried)
        kept: List[PausedSeq] = []
        for entry in self.paused:
            d = self._deadline_of(entry.state.request)
            if d is not None and now > entry.state.request.arrival + d:
                if entry.ticket is not None:
                    self.cache.discard_ticket(entry.ticket, self.swap)
                self.lifecycle["timed_out"] += 1
                retried = self._maybe_retry(entry.state.request, now)
                if not retried:
                    self.timeout_rids.append(entry.state.request.rid)
                if self.observer is not None:
                    self.observer.on_timeout(entry.state.request, now, "paused", retried)
            else:
                kept.append(entry)
        if len(kept) != len(self.paused):
            self.paused = deque(kept)

    def _maybe_retry(self, req: Request, now: float) -> bool:
        left = self._retries_left.setdefault(req.rid, self.options.max_retries)
        if left <= 0:
            return False
        self._retries_left[req.rid] = left - 1
        retry = dataclasses.replace(req, arrival=now)
        self.queue = deque(sorted([*self.queue, retry], key=lambda r: (r.arrival, r.rid)))
        self.lifecycle["retried"] += 1
        return True

    def resume(self, now: float) -> None:
        """Bring paused sequences back, FIFO, before any new admission."""
        while self.paused:
            entry = self.paused[0]
            state = entry.state
            if entry.ticket is not None:
                gid = entry.ticket.gid
                slot = next(
                    (
                        s
                        for s in self._free_slots
                        if self.cache.group_of(s).gid == gid
                        and self.cache.pools[gid].free >= entry.ticket.num_blocks
                    ),
                    None,
                )
                if slot is None:
                    break  # strict FIFO: don't resume younger entries first
                self.paused.popleft()
                self._free_slots.remove(slot)
                self.cache.swap_in(slot, entry.ticket, self.swap)
                self.lifecycle["swapped_in"] += 1
                state.slot = slot
                if self.observer is not None:
                    self.observer.on_resume(state, now, swapped=True)
            else:
                replay_target = max(entry.known, state.replay_until)
                slot = next(
                    (s for s in self._free_slots if self.cache.can_reserve(s, replay_target)),
                    None,
                )
                if slot is None:
                    break
                self.paused.popleft()
                self._free_slots.remove(slot)
                self.cache.reserve(slot, replay_target)
                state.replay_until = replay_target
                state.fed = 0
                self.lifecycle["recomputed"] += 1
                state.slot = slot
                if self.observer is not None:
                    self.observer.on_resume(state, now, swapped=False)
            state.slot = slot
            self.active[slot] = state
        self.stats["max_active"] = max(self.stats["max_active"], len(self.active))

    # ------------------------------------------------------------------
    def admit(self, now: float) -> List[SlotState]:
        """Admit arrived requests in strict FCFS order; returns new states."""
        admitted: List[SlotState] = []
        while self.queue and self.queue[0].arrival <= now:
            req = self.queue[0]
            slot = self._place(req)
            if slot is None:
                self.stats["hol_blocked_steps"] += 1
                break  # strict FCFS: never skip the head of the queue
            self.queue.popleft()
            self._free_slots.remove(slot)
            self.cache.reserve(slot, self._admission_footprint(req))
            state = SlotState(request=req, slot=slot, admit_time=now)
            self.active[slot] = state
            admitted.append(state)
            self.stats["admitted"] += 1
        self.stats["max_active"] = max(self.stats["max_active"], len(self.active))
        return admitted

    def _admission_footprint(self, req: Request) -> int:
        """KV positions reserved at admission: the whole sequence under
        conservative reservation, just the prompt under preemption."""
        if self.options.policy == "preempt":
            return req.prompt_len
        return req.kv_positions

    def _place(self, req: Request) -> Optional[int]:
        footprint = self._admission_footprint(req)
        for slot in self._free_slots:  # kept sorted: lowest slot wins
            if self.cache.can_reserve(slot, footprint):
                return slot
        return None

    # ------------------------------------------------------------------
    def prepare_step(self, now: float) -> None:
        """Preemptive growth: make sure every active lane has a KV block
        for the position it is about to write, evicting victims if not."""
        if self.options.policy != "preempt":
            return
        for slot in sorted(self.active):
            if slot not in self.active:  # victim of an earlier lane's growth
                continue
            state = self.active[slot]
            while not self.cache.ensure_capacity(slot, state.fed + 1):
                victim = self._pick_victim(slot)
                if victim is None:
                    raise RuntimeError(
                        f"slot {slot} cannot grow and no victim exists in its "
                        "group — footprint validation should make this impossible"
                    )
                self._preempt(victim, now)

    def _pick_victim(self, requester_slot: int) -> Optional[int]:
        """Lowest priority first, then longest remaining, then highest rid."""
        group = self.cache.group_of(requester_slot)
        candidates = [s for s in group.slots if s in self.active and s != requester_slot]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda s: (
                self.active[s].request.priority,
                -self.active[s].remaining,
                -self.active[s].request.rid,
            ),
        )

    def _preempt(self, slot: int, now: float = 0.0) -> None:
        state = self.active.pop(slot)
        known = state.fed
        ticket: Optional[SwapTicket] = None
        if self.swap is not None and self.swap.can_hold(self.cache.blocks_of(slot)):
            ticket = self.cache.swap_out(slot, self.swap)
            self.lifecycle["swapped_out"] += 1
        else:
            self.cache.free(slot)  # recompute fallback: replay on resume
        self._free_slots.append(slot)
        self._free_slots.sort()
        state.preemptions += 1
        self.lifecycle["preempted"] += 1
        if self.observer is not None:
            self.observer.on_preempt(state, now, swapped=ticket is not None)
        self.paused.append(PausedSeq(state=state, ticket=ticket, known=known))

    # ------------------------------------------------------------------
    def finish(self, slot: int, now: float) -> SlotState:
        """Evict a finished sequence and free its KV blocks."""
        state = self.active.pop(slot)
        state.finish_time = now
        self.cache.free(slot)
        self._free_slots.append(slot)
        self._free_slots.sort()
        self.completed.append(state)
        self.stats["finished"] += 1
        if self.observer is not None:
            self.observer.on_finish(state, now)
        return state
