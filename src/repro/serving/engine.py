"""Autoregressive serving engines over the 2-D (Optimus) and 1-D (Megatron)
model stacks.

Both engines run **token-level continuous batching**: every engine step
advances each active sequence by exactly one token through a batched
decode-shaped forward (global activation ``[B, h]`` — one row per lane).
Prompt tokens stream through the same kernel as generated tokens, so
prefill and decode interleave freely in one batch and admission/eviction
happen at every step boundary on the simulated clock (Orca-style
iteration-level scheduling).

The decode forward is one :meth:`ServingEngine.step` for both schemes (1-D
is its one-row case) and reuses the training modules unchanged (the
shared leaves of :mod:`repro.nn.leaves` with each scheme's cells, and the
shared ``MLP``) — SUMMA and the Megatron conjugate all-reduces accept any token
count, so the decode path exercises the exact communication/compute
accounting of training, including the batched SUMMA executor, which stays
bit-exact here (``tests/test_serving.py`` compares a whole report with it
forced off).
Only attention is new: paged causal attention over the sharded KV cache
(:func:`repro.reference.attention.decode_attention_fwd`).  Both schemes
partition the heads and never the sequence, so the head shards of one shard
group concatenate: the step writes, gathers and attends a group's lanes in
one call each per layer, and every rank is still charged its own lanes'
attention events one by one.

Greedy sampling is distributed and *priced*: each rank finds its local
vocabulary stripe's (max, argmax), the candidates are all-gathered along
the stripe axis (mesh row for 2-D, the whole group for 1-D), and every
rank deterministically picks the winner — ties break toward the lowest
vocabulary index, matching a serial ``argmax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm import collectives as coll
from repro.comm.stacked import precosts
from repro.config import ModelConfig
from repro.mesh.dtensor import DTensor, on_stacks
from repro.nn.transformer import ELEMWISE_COST, charge_elementwise
from repro.reference.attention import decode_attention_fwd
from repro.runtime.simulator import Simulator
from repro.schemes import SCHEMES, lookup, mesh_side
from repro.serving.kvcache import (
    HostSwapSpace,
    KVShardGroup,
    LaneAddresses,
    ShardedKVCache,
)
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    ServingOptions,
    SlotState,
)
from repro.serving.telemetry import ServingTelemetry
from repro.serving.traffic import Request

if TYPE_CHECKING:
    from repro.resilience.injector import FaultInjector

#: the cluster restart charge per recovered decode step (simulated seconds)
RESTART_COST_S = 0.005


@dataclass(frozen=True)
class LaneInput:
    """One active sequence's contribution to a decode step."""

    slot: int
    token: int
    pos: int  # KV position this token is written to (== tokens fed so far)


@dataclass(frozen=True)
class RowPlan:
    """One shard group's share of a decode step, the same for its ranks and
    for every layer."""

    entries: List[LaneInput]  # the real lanes; the row's later lanes are padding
    #: where the real lanes' new K/V goes and which blocks and positions they
    #: then read; None without a real lane
    address: Optional[LaneAddresses]
    #: what attention charges each rank per layer — per lane, padding
    #: included, (q·Kᵀ, probs·V, softmax) at the lane's context length (1 for
    #: padding) — as a ``Simulator.charge_compute`` sequence
    costs: List[Tuple[float, str]]


@dataclass(frozen=True)
class StepPlan:
    rows: List[RowPlan]
    width: int  # lanes every row runs

    @property
    def total_lanes(self) -> int:
        """Lanes computed (including shape padding)."""
        return len(self.rows) * self.width


@dataclass
class ServingResult:
    """Everything :func:`repro.serving.report` needs from one engine run."""

    completed: List[SlotState]
    steps: int
    lane_steps: int  # real (non-padding) lane advances
    padded_lane_steps: int  # padding lanes computed to keep SUMMA shapes
    prompt_tokens: int
    generated_tokens: int
    attribution: Dict[str, float]  # prefill/decode/padding/idle (+swap/recovery)
    scheduler_stats: dict
    cache_stats: dict
    clock: float
    #: lifecycle counters + shed/timeout rids; None on the default PR 8 path
    lifecycle: Optional[dict] = None
    #: alert-engine summary (rules + firing/resolved events); None unless
    #: an :class:`~repro.obs.alerts.AlertEngine` was armed for the run
    alerts: Optional[dict] = None


class ServingEngine:
    """The continuous-batching loop and the decode step, written once.

    A subclass names its scheme, whose record in :data:`repro.schemes.SCHEMES`
    builds the model; ``rows`` are the groups its loss stripes one lane's
    vocabulary (and KV heads) over.  Slots are partitioned evenly over the
    rows: the q mesh rows for Optimus, the one flat group for Megatron,
    which makes 1-D the one-row case of the same step (no padding, one
    gather over p stripes).
    """

    scheme = "base"

    def __init__(
        self,
        sim: Simulator,
        cfg: ModelConfig,
        params_global: dict,
        num_slots: int,
        block_size: int,
        blocks_per_group: int,
        options: Optional[ServingOptions] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self._validate(num_slots)
        model = SCHEMES[self.scheme].model(sim, cfg, params_global, checkpoint_activations=False)
        self.model = model
        self.rows = rows = model.loss_fn.rows
        self.slots_per_row = num_slots // len(rows)
        self.n_loc = cfg.num_heads // rows[0].size
        self.options = options if options is not None else ServingOptions()
        self.injector = injector
        self.all_ranks: Sequence[int] = [r for row in rows for r in row.ranks]
        spr = self.slots_per_row
        self.cache = ShardedKVCache(
            sim,
            [
                KVShardGroup(gid=i, ranks=row.ranks, slots=tuple(range(i * spr, (i + 1) * spr)))
                for i, row in enumerate(rows)
            ],
            num_layers=cfg.num_layers,
            heads_loc=self.n_loc,
            head_dim=cfg.head_dim,
            block_size=block_size,
            blocks_per_group=blocks_per_group,
            dtype=model.layers[0].attn.qkv_linear.weight.data.dtype,
        )
        self.step_plan: Optional[StepPlan] = None  # of the last step()
        self.swap: Optional[HostSwapSpace] = None
        if self.options.policy == "preempt" and self.options.swap_blocks > 0:
            self.swap = HostSwapSpace(
                capacity_blocks=self.options.swap_blocks,
                rank_block_bytes=self.cache.bytes_per_rank_block(),
                gbps=self.options.swap_gbps,
            )
        self.scheduler = ContinuousBatchingScheduler(self.cache, self.options, self.swap)
        # telemetry knobs (set by make_engine; harmless defaults otherwise)
        self.slo: Optional[tuple] = None  # (slo_ttft, slo_tpot) for goodput
        self.counter_epoch = 0  # OpenMetrics counter reset epoch for this arm
        self.alerts = None  # Optional[repro.obs.alerts.AlertEngine]
        self.telemetry: Optional[ServingTelemetry] = None

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Roll back a failed decode step so it can be re-executed.

        Nothing committed: ``cache.commit`` only runs after a successful
        step, so partial K/V writes are positionally overwritten with
        identical values on re-execution.  Forward scratch is dropped, all
        ranks re-sync, and the cluster pays the restart charge."""
        self.model.drop_caches()
        self.model.buffers.reset_region("forward")
        self.sim.sync(self.all_ranks)
        self.sim.advance(self.all_ranks, RESTART_COST_S)

    def run(self, requests: List[Request]) -> ServingResult:
        sched = self.scheduler
        opts = self.options
        inj = self.injector
        # telemetry is read-only over the simulation (registry writes and —
        # when tracing — flat trace events only), so arming it can never
        # change a clock or a sampled token
        tel = ServingTelemetry(self, slo=self.slo, epoch=self.counter_epoch)
        self.telemetry = tel
        sched.observer = tel
        if inj is not None:
            from repro.resilience.faults import CollectiveTimeoutError, RankCrashError

            inj.install(self.sim)
        sched.load(requests)
        attribution = {"prefill": 0.0, "decode": 0.0, "padding": 0.0, "idle": 0.0}
        # attribution keys are conditional so default-path reports stay
        # byte-identical to PR 8
        if opts.policy == "preempt":
            attribution["swap"] = 0.0
        if inj is not None:
            attribution["recovery"] = 0.0
        steps = lane_steps = padded_lane_steps = 0
        prompt_tokens = generated_tokens = 0
        step_no = 0

        while sched.incomplete():
            now = self.sim.elapsed()
            sched.intake(now)
            sched.expire(now)
            sched.resume(now)
            admitted = sched.admit(now)
            if admitted:
                tel.on_admitted(admitted, now)
            if sched.active:
                sched.prepare_step(now)
            t0 = self.sim.elapsed()
            if "swap" in attribution:
                # only swap transfers move the clock inside the scheduler
                attribution["swap"] += t0 - now
            if not sched.active:
                if not sched.incomplete():
                    break  # everything left was shed or expired
                # nothing runnable: idle-advance every device to the next
                # arrival (the simulated cluster sits empty, clock still runs)
                target = sched.next_arrival()
                self.sim.partition = None
                for r in self.all_ranks:
                    dev = self.sim.device(r)
                    dev.clock = max(dev.clock, target)
                attribution["idle"] += max(0.0, target - t0)
                tel.on_idle(target)
                if self.alerts is not None:
                    for ev in self.alerts.evaluate(self.sim.metrics, target, step_no):
                        tel.on_alert(ev)
                continue

            entries = [
                LaneInput(slot=slot, token=state.next_input(), pos=state.fed)
                for slot, state in sorted(sched.active.items())
            ]
            prefill_lanes = sum(1 for e in entries if sched.active[e.slot].prefill_lane)
            if inj is not None:
                try:
                    inj.begin_step(step_no)
                    with self.sim.tracer.span(
                        "serve_step", self.all_ranks, category="step", step=step_no
                    ):
                        sampled = self.step(entries)
                except (RankCrashError, CollectiveTimeoutError):
                    # fired faults are consumed: re-executing the same
                    # step_no runs clean and produces identical tokens
                    self._recover()
                    attribution["recovery"] += self.sim.elapsed() - t0
                    sched.lifecycle["recovered_steps"] += 1
                    tel.on_recovery(t0, self.sim.elapsed(), step_no)
                    continue
            else:
                with self.sim.tracer.span(
                    "serve_step", self.all_ranks, category="step", step=step_no
                ):
                    sampled = self.step(entries)
            t1 = self.sim.elapsed()
            dt = t1 - t0

            total_lanes = self.step_plan.total_lanes
            decode_lanes = len(entries) - prefill_lanes
            pad_lanes = total_lanes - len(entries)
            attribution["prefill"] += dt * prefill_lanes / total_lanes
            attribution["decode"] += dt * decode_lanes / total_lanes
            attribution["padding"] += dt * pad_lanes / total_lanes
            this_step = step_no
            steps += 1
            step_no += 1
            lane_steps += len(entries)
            padded_lane_steps += pad_lanes
            tel.on_lanes(entries, sched.active, this_step, t0, t1)

            prompt_delta = gen_delta = 0
            for e in entries:
                state = sched.active[e.slot]
                self.cache.commit(e.slot)
                if state.fed < state.replay_until:
                    sched.lifecycle["recomputed_tokens"] += 1
                elif state.in_prefill:
                    prompt_tokens += 1
                    prompt_delta += 1
                state.fed += 1
                # the sample is new progress exactly when every known token
                # (prompt + previously generated) has been fed; in the PR 8
                # flow this is the post-increment "not in_prefill" condition
                if state.fed >= state.request.prompt_len + len(state.generated):
                    state.generated.append(sampled[e.slot])
                    generated_tokens += 1
                    gen_delta += 1
                    if state.first_token_time is None:
                        state.first_token_time = t1
                        tel.on_first_token(state, t1)
                    if state.done:
                        sched.finish(e.slot, t1)
            tel.on_step(this_step, t1, prompt_delta, gen_delta)
            if self.alerts is not None:
                for ev in self.alerts.evaluate(self.sim.metrics, t1, this_step):
                    tel.on_alert(ev)

        lifecycle = None
        if opts.enabled or inj is not None or sched._has_deadlines:
            lifecycle = dict(sched.lifecycle)
            lifecycle["shed_rids"] = sorted(sched.shed_rids)
            lifecycle["timeout_rids"] = sorted(sched.timeout_rids)
            if inj is not None:
                lifecycle["injector"] = dict(inj.stats)
        cache_stats = self.cache.stats()
        if self.swap is not None:
            cache_stats["host_swap"] = self.swap.stats()
        return ServingResult(
            completed=list(sched.completed),
            steps=steps,
            lane_steps=lane_steps,
            padded_lane_steps=padded_lane_steps,
            prompt_tokens=prompt_tokens,
            generated_tokens=generated_tokens,
            attribution=attribution,
            scheduler_stats=dict(sched.stats),
            cache_stats=cache_stats,
            clock=self.sim.elapsed(),
            lifecycle=lifecycle,
            alerts=self.alerts.summary() if self.alerts is not None else None,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _pick_winner(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Global argmax ``[rows, width]`` from each stripe's maxima and
        their vocabulary indices, both ``[rows, stripes, width]``.

        Strictly-greater comparison walking stripes in order makes ties
        resolve to the lowest vocabulary index — identical to a serial
        ``np.argmax`` over the assembled logits row.
        """
        best_val = values[:, 0]
        best_idx = indices[:, 0]
        for c in range(1, values.shape[1]):
            better = values[:, c] > best_val
            best_val = np.where(better, values[:, c], best_val)
            best_idx = np.where(better, indices[:, c], best_idx)
        return best_idx

    def _by_row(self, x: DTensor) -> Optional[np.ndarray]:
        """``x``'s block stack as ``[rows, g] + shard``, every rank's shard
        by shard group and group position (Optimus: the q×q stack; Megatron:
        the one row of p), or None when ``x`` is not on a full stack."""
        blocks = x.blocks
        if not on_stacks(self.model.owner, x):
            return None
        lead = blocks.shape[: blocks.ndim - len(x.global_shape)]
        if math.prod(lead) != len(self.all_ranks):
            return None
        return blocks.reshape((len(self.rows), self.rows[0].size) + blocks.shape[len(lead) :])


    # ------------------------------------------------------------------
    def _plan_step(self, entries: List[LaneInput]) -> StepPlan:
        n_loc, d = self.n_loc, self.cfg.head_dim
        by_row: List[List[LaneInput]] = [[] for _ in self.rows]
        for e in entries:
            by_row[e.slot // self.slots_per_row].append(e)
        # every row runs the same lane count: rows with fewer active slots
        # run padding lanes (token 0, length-1 self-attention, output
        # discarded) — the static-shape waste the report attributes to
        # "padding".  One row (1-D) never pads.
        width = max(len(r) for r in by_row)
        rows = []
        for row in by_row:
            ells = [e.pos + 1 for e in row] + [1] * (width - len(row))
            costs = []
            for ell in ells:
                gemm = (2.0 * n_loc * ell * d, "gemm")
                softmax = (ELEMWISE_COST["softmax"] * (n_loc * ell), "elementwise")
                costs += (gemm, gemm, softmax)
            address = None
            if row:
                address = self.cache.address([e.slot for e in row], [e.pos for e in row])
            rows.append(RowPlan(row, address, costs))
        return StepPlan(rows, width)

    def step(self, entries: List[LaneInput]) -> Dict[int, int]:
        """One batched decode step; returns {slot: sampled token}."""
        cfg, model = self.cfg, self.model
        n_loc, d = self.n_loc, cfg.head_dim
        plan = self.step_plan = self._plan_step(entries)
        width = plan.width
        g = self.rows[0].size  # ranks per shard group: together they hold every head

        ids = np.zeros((plan.total_lanes, 1), dtype=np.int64)
        for i, row in enumerate(plan.rows):
            for w, e in enumerate(row.entries):
                ids[i * width + w, 0] = e.token
        x = model.embedding.forward(model.distribute_tokens(ids))

        for layer in model.layers:
            a = layer.ln1.forward(x)
            qkv = layer.attn.qkv_linear.forward(a)  # [rows·width, 3h]
            qkv_rows = self._by_row(qkv)
            # every rank's context [width, n_loc·d], one array [rows, g, …]
            # in group-rank order (Optimus: the q×q block stack)
            contexts = np.empty((len(self.rows), g, width, n_loc * d), dtype=qkv.dtype)
            for gid, (row, group) in enumerate(zip(plan.rows, self.rows)):
                ranks = group.ranks
                # the group's head shards concatenate in group-rank order
                if qkv_rows is None:
                    fused = np.concatenate([qkv.local(r) for r in ranks], axis=1)
                else:
                    fused = qkv_rows[gid].transpose(1, 0, 2)
                fused = fused.reshape((width, cfg.num_heads, 3, d))
                real = len(row.entries)
                # the group's contexts, filled through a lane-major view
                ctx = contexts[gid]
                by_lane = ctx.reshape((g, width, n_loc, d)).transpose(1, 0, 2, 3)
                # a padding lane attends to its own fresh K/V only (nothing
                # cached): softmax over one position is 1, the context is V
                if real < width:
                    by_lane[real:] = fused[real:, :, 2].reshape((-1, g, n_loc, d))
                if real:
                    at = row.address
                    self.cache.write_lanes(
                        gid, layer.index, at, fused[:real, :, 1], fused[:real, :, 2]
                    )
                    k_slab, v_slab = self.cache.slabs[gid][layer.index]
                    by_lane[:real] = decode_attention_fwd(
                        fused[:real, :, 0], k_slab, v_slab, at.table, at.mask
                    ).reshape((real, g, n_loc, d))
                self.sim.charge_compute(ranks, row.costs)
            ctx_dt = self._context(contexts, (plan.total_lanes, cfg.hidden_size))
            x = x + layer.attn.out_linear.forward(ctx_dt)
            charge_elementwise(x, "add")
            x = x + layer.mlp.forward(layer.ln2.forward(x))
            charge_elementwise(x, "add")

        out = model.final_ln.forward(x)
        logits = model.lm_head.forward(out)  # [rows·width, v]
        sampled = self._sample_greedy(logits, [row.entries for row in plan.rows])
        model.drop_caches()
        model.buffers.reset_region("forward")
        return sampled

    def _context(self, contexts: np.ndarray, global_shape) -> DTensor:
        """The attention context as the output linear's input: every rank
        its ``contexts[row, member]``, keyed in row order — the stack of the
        mesh or of the one-row flat group (stacks are for more than one
        rank)."""
        owner = self.model.owner
        layout = self.model.layers[0].attn.layout
        if len(self.all_ranks) == 1:
            return DTensor(owner, layout, {self.all_ranks[0]: contexts[0, 0]}, global_shape)
        return DTensor.from_blocks(owner, layout, contexts, global_shape, self.all_ranks)

    def _sample_greedy(self, logits: DTensor, rows: List[List[LaneInput]]) -> Dict[int, int]:
        g = self.rows[0].size  # vocabulary stripes per row
        v_loc = self.cfg.vocab_size // g
        width = logits.global_shape[0] // len(self.rows)
        charges = ((2.0 * width * v_loc, "elementwise"),)  # every stripe is [width, v_loc]
        # each stripe's (max, argmax) pairs go out as one [width, 2] buffer
        # of the logits' dtype; the argmax stays an integer beside it (a
        # float16 holds integers exactly only up to 2048)
        stripes = self._by_row(logits)  # [rows, g, width, v_loc]
        if stripes is not None:
            values = stripes.max(axis=-1)
            indices = stripes.argmax(axis=-1) + np.arange(g)[:, None] * v_loc
            nbytes = width * 2 * g * logits.dtype.itemsize
            for row in self.rows:  # each stripe row is its own line
                self.sim.charge_compute(row.ranks, charges)
                coll.charge_only("all_gather", precosts(row, None, "all_gather", nbytes))
        else:
            values = np.empty((len(self.rows), g, width), logits.dtype)
            indices = np.empty((len(self.rows), g, width), np.int64)
            for r, group in enumerate(self.rows):
                shards = {}
                for j, rank in enumerate(group.ranks):
                    ll = np.asarray(logits.local(rank))
                    values[r, j] = ll.max(axis=1)
                    indices[r, j] = ll.argmax(axis=1) + j * v_loc
                    shards[rank] = np.stack([values[r, j], indices[r, j]], axis=1).astype(ll.dtype)
                self.sim.charge_compute(group.ranks, charges)
                coll.all_gather(group, shards, axis=1)  # [width, 2·g]
        best = self._pick_winner(values, indices)
        sampled: Dict[int, int] = {}
        for r, row in enumerate(rows):
            for w, e in enumerate(row):
                sampled[e.slot] = int(best[r, w])
        return sampled


# ======================================================================
class OptimusServingEngine(ServingEngine):
    """Decode over the 2-D mesh: slots partitioned across mesh rows."""

    scheme = "optimus"

    def _validate(self, num_slots: int) -> None:
        q = mesh_side(self.sim.num_ranks)
        if num_slots % q:
            raise ValueError(f"num_slots {num_slots} not divisible by mesh q={q}")
        self.cfg.validate_for_optimus(q, num_slots)

    step = ServingEngine.step  # hostbench patches it on the scheme's class


# ======================================================================
class MegatronServingEngine(ServingEngine):
    """Decode over a flat 1-D group: every rank sees every sequence."""

    scheme = "megatron"

    def _validate(self, num_slots: int) -> None:
        self.cfg.validate_for_megatron(self.sim.num_ranks, num_slots)

    step = ServingEngine.step  # hostbench patches it on the scheme's class


#: each scheme's engine, keyed like :data:`repro.schemes.SCHEMES`
ENGINES = {cls.scheme: cls for cls in (OptimusServingEngine, MegatronServingEngine)}


# ======================================================================
def make_engine(
    scheme: str,
    cfg: ModelConfig,
    params_global: dict,
    q: int,
    num_slots: int,
    block_size: int,
    blocks_per_group: int,
    options: Optional[ServingOptions] = None,
    injector: Optional[FaultInjector] = None,
    trace: bool = False,
    slo: Optional[tuple] = None,
    counter_epoch: int = 0,
    alerts=None,
) -> ServingEngine:
    """Build a fresh simulator + engine for one serving arm.

    ``q`` sizes both schemes to the same p = q² devices (the paper's
    comparison): a q×q mesh for Optimus, a flat group for Megatron.

    ``trace`` enables request-lifecycle tracing (see
    :mod:`repro.serving.telemetry`); ``slo`` = ``(slo_ttft, slo_tpot)``
    feeds the live goodput counters; ``counter_epoch`` is the OpenMetrics
    counter reset epoch for this arm; ``alerts`` is an optional armed
    :class:`~repro.obs.alerts.AlertEngine` evaluated at every step."""
    sim = lookup(scheme, "serving scheme").simulator(q * q, trace=trace)
    engine = ENGINES[scheme](
        sim, cfg, params_global, num_slots, block_size, blocks_per_group, options, injector
    )
    engine.slo = slo
    engine.counter_epoch = int(counter_epoch)
    engine.alerts = alerts
    return engine
