"""The pipeline-parallel execution engine.

One simulated device per stage; contiguous layer slices; micro-batched
forward/backward driven by a :mod:`repro.pipeline.schedule`.  Execution is
dependency-driven: each stage consumes its schedule in order, and an op
fires only when its producers have run — combined with blocking
point-to-point transfers and per-device clocks, this yields the classic
pipeline timeline (fill, steady state, drain) without any explicit timing
logic.

Numerics are exact full-batch training: micro-batch losses are averaged and
each micro-batch's backward is scaled by 1/m, so parameters see exactly the
gradient of the full-batch mean-token loss (the test suite checks this
against :class:`~repro.reference.model.ReferenceTransformer` to 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm.collectives import send_recv
from repro.config import ModelConfig
from repro.pipeline.schedule import (
    PipeOp,
    Schedule,
    gpipe_schedule,
    one_f_one_b_schedule,
)
from repro.reference import functional as F
from repro.reference.stack import LayerStack
from repro.runtime.simulator import Simulator

_ACT_TAG = "pipeline_act"


@dataclass
class _HeadCache:
    ln: tuple = None
    ln_out: object = None
    probs: object = None
    labels: object = None


class PipelineModel:
    """GPipe / 1F1B pipeline over contiguous layer slices."""

    scheme = "pipeline"

    def __init__(
        self,
        sim: Simulator,
        cfg: ModelConfig,
        params: Dict[str, object],
        num_micro_batches: int = 4,
        schedule: str = "1f1b",
        num_stages: Optional[int] = None,
    ):
        if schedule not in ("gpipe", "1f1b"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.sim = sim
        self.cfg = cfg
        self.params = params
        self.m = num_micro_batches
        self.schedule_name = schedule
        self.S = num_stages if num_stages is not None else sim.num_ranks
        if self.S > sim.num_ranks:
            raise ValueError(f"{self.S} stages need {self.S} ranks, have {sim.num_ranks}")
        if self.S > cfg.num_layers:
            raise ValueError(
                f"{self.S} stages but only {cfg.num_layers} layers to split"
            )
        self.grads: Dict[str, object] = {}
        # contiguous, balanced layer assignment
        counts = [
            cfg.num_layers // self.S + (1 if s < cfg.num_layers % self.S else 0)
            for s in range(self.S)
        ]
        self.stage_layers: List[List[int]] = []
        start = 0
        for c in counts:
            self.stage_layers.append(list(range(start, start + c)))
            start += c
        self.stacks = [LayerStack(cfg, params, idx) for idx in self.stage_layers]
        self._elem = 4 if sim.backend == "shape" else 8

    # ------------------------------------------------------------------
    def schedule(self) -> Schedule:
        if self.schedule_name == "gpipe":
            return gpipe_schedule(self.S, self.m)
        return one_f_one_b_schedule(self.S, self.m)

    def describe(self) -> dict:
        """What a ledger record says about this executor beyond its scheme."""
        return {
            "pipeline": {
                "schedule": self.schedule_name,
                "num_stages": self.S,
                "num_micro_batches": self.m,
            }
        }

    # ------------------------------------------------------------------
    def forward(self, ids, labels) -> float:
        """The trainer's entry point.  The schedule interleaves the two
        passes, so the whole iteration runs here (:meth:`forward_backward`)
        and :meth:`backward` has nothing left to do."""
        return self.forward_backward(ids, labels)

    def backward(self) -> None:
        pass

    def forward_backward(self, ids, labels) -> float:
        """One full training iteration; returns the mean-token loss.

        Gradients of the *mean* loss (all parameters, including
        embedding/final-LN; each micro-batch's backward is pre-scaled by
        1/m) accumulate into ``self.grads`` under the global parameter names.
        """
        cfg, sim, S, m = self.cfg, self.sim, self.S, self.m
        b, s_len = ids.shape
        if b % m:
            raise ValueError(f"batch {b} not divisible by {m} micro-batches")
        mb = b // m
        for st in self.stacks:
            st.zero_grads()

        ids_mb = self._split(ids, m)
        labels_mb = self._split(labels, m)

        acts: Dict[Tuple[int, int], object] = {}  # (stage, j) -> output
        stage_caches: Dict[Tuple[int, int], list] = {}
        head_caches: Dict[int, _HeadCache] = {}
        dgrads: Dict[Tuple[int, int], object] = {}  # (stage, j) -> dx to send up
        losses: List[object] = []
        done = set()

        def ready(op: PipeOp) -> bool:
            if op.phase == "fwd":
                return op.stage == 0 or ("fwd", op.stage - 1, op.micro_batch) in done
            if ("fwd", op.stage, op.micro_batch) not in done:
                return False
            return op.stage == S - 1 or ("bwd", op.stage + 1, op.micro_batch) in done

        def run_fwd(stage: int, j: int) -> None:
            dev = sim.device(stage)
            if stage == 0:
                x = self._embed(ids_mb[j], dev)
            else:
                buf, produced_at = acts.pop((stage - 1, j))
                x = send_recv(sim, stage - 1, stage, buf, send_time=produced_at)
            y = self.stacks[stage].forward(x, mb)
            stage_caches[(stage, j)] = self.stacks[stage].export_caches()
            dev.compute(self.stacks[stage].flops_forward(mb))
            dev.memory.alloc(
                self.stacks[stage].activation_bytes(mb, self._elem), _ACT_TAG
            )
            if stage == S - 1:
                losses.append(self._head_forward(y, labels_mb[j], j, head_caches, dev))
            else:
                acts[(stage, j)] = (y, dev.clock)  # send starts at production

        def run_bwd(stage: int, j: int) -> None:
            dev = sim.device(stage)
            if stage == S - 1:
                dy = self._head_backward(j, head_caches, dev)
            else:
                buf, produced_at = dgrads.pop((stage + 1, j))
                dy = send_recv(sim, stage + 1, stage, buf, send_time=produced_at)
            self.stacks[stage].import_caches(stage_caches.pop((stage, j)))
            dx = self.stacks[stage].backward(dy)
            dev.compute(2.0 * self.stacks[stage].flops_forward(mb))
            dev.memory.free(
                self.stacks[stage].activation_bytes(mb, self._elem), _ACT_TAG
            )
            if stage == 0:
                self._embed_backward(ids_mb[j], dx)
            else:
                dgrads[(stage, j)] = (dx, dev.clock)

        # dependency-driven execution of the per-stage schedules
        queues = [list(q) for q in self.schedule()]
        remaining = sum(len(q) for q in queues)
        while remaining:
            progressed = False
            for st in range(S):
                if queues[st] and ready(queues[st][0]):
                    op = queues[st].pop(0)
                    (run_fwd if op.phase == "fwd" else run_bwd)(op.stage, op.micro_batch)
                    done.add((op.phase, op.stage, op.micro_batch))
                    remaining -= 1
                    progressed = True
            if not progressed:  # pragma: no cover - schedule bug guard
                raise RuntimeError("pipeline schedule deadlocked")

        # collect stage gradients under the global names
        for st in self.stacks:
            for name, g in st.grads.items():
                self._acc(name, g)
        total = losses[0]
        for l in losses[1:]:
            total = total + l
        if is_shape_array(total):
            return total
        return float(total) / m

    # ------------------------------------------------------------------
    # embedding (stage 0) and LN + LM head + CE (last stage)
    # ------------------------------------------------------------------
    def _embed(self, ids_j, dev):
        table = self.params["embedding.table"]
        T = ids_j.shape[0] * ids_j.shape[1]
        dev.compute(float(T) * self.cfg.hidden_size, kind="elementwise")
        return ops.take_rows(table, ids_j.reshape((T,)))

    def _embed_backward(self, ids_j, dx) -> None:
        table = self.params["embedding.table"]
        g = ops.zeros_like(table)
        ops.index_add(g, ids_j.reshape((dx.shape[0],)), dx)
        self._acc("embedding.table", g)

    def _head_forward(self, x, labels_j, j, head_caches, dev):
        cfg = self.cfg
        table = self.params["embedding.table"]
        T = x.shape[0]
        out, x_hat, inv_std = F.layernorm_fwd(
            x, self.params["final_ln.gamma"], self.params["final_ln.beta"], cfg.ln_eps
        )
        logits = out @ ops.transpose(table)
        dev.compute(2.0 * T * cfg.hidden_size * cfg.vocab_size)
        labels_flat = labels_j.reshape((T,))
        loss_tok, probs = F.cross_entropy_fwd(logits, labels_flat)
        head_caches[j] = _HeadCache(
            ln=(x_hat, inv_std), ln_out=out, probs=probs, labels=labels_flat
        )
        return ops.sum(loss_tok) / float(T)

    def _head_backward(self, j, head_caches, dev):
        cfg = self.cfg
        table = self.params["embedding.table"]
        c = head_caches.pop(j)
        T = c.probs.shape[0]
        dloss = ops.full(
            (T,), 1.0 / (T * self.m), dtype="float64",
            backend=ops.backend_of(c.probs),
        )
        dlogits = F.cross_entropy_bwd(c.probs, c.labels, dloss)
        d_out = dlogits @ table
        self._acc("embedding.table", ops.transpose(dlogits) @ c.ln_out)
        dev.compute(4.0 * T * cfg.hidden_size * cfg.vocab_size)
        x_hat, inv_std = c.ln
        dx, dgamma, dbeta = F.layernorm_bwd(
            d_out, x_hat, inv_std, self.params["final_ln.gamma"]
        )
        self._acc("final_ln.gamma", dgamma)
        self._acc("final_ln.beta", dbeta)
        return dx

    # ------------------------------------------------------------------
    def _acc(self, name: str, g) -> None:
        if name in self.grads:
            self.grads[name] = self.grads[name] + g
        else:
            self.grads[name] = g

    def zero_grads(self) -> None:
        self.grads = {}
        for st in self.stacks:
            st.zero_grads()

    @staticmethod
    def _split(arr, m: int):
        if is_shape_array(arr):
            return [ShapeArray((arr.shape[0] // m,) + arr.shape[1:], arr.dtype)] * m
        return np.split(np.asarray(arr), m, axis=0)
