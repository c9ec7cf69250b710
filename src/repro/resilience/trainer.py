"""A trainer that survives the fault model.

:class:`ResilientTrainer` extends the base
:class:`~repro.training.trainer.Trainer` with three recovery mechanisms,
matched to the three fault classes that escape the collectives' built-in
retry machinery:

* **periodic full-state checkpointing + restart** for fail-stop faults
  (rank crashes) and exhausted collective retries — the run rolls back to
  the last checkpoint and replays, and because checkpoints capture the
  complete training state (parameters, optimizer moments, LR step, loss
  scale, data cursor, RNG state) the replayed trajectory is bit-identical
  to an uninterrupted run;
* **gradient guards + step re-execution** for silent data corruption —
  after every backward the gradients are checked for non-finite values and
  an implausible global norm; a trip discards the step's gradients and
  re-runs the same batch (the injected fault is one-shot, so the re-run is
  clean — exactly the semantics of a transient memory/link SDC); in strict
  mode the invariant validator may see a corrupted replica copy first,
  which is the same detection;
* **simulated-time accounting of all downtime** — checkpoint writes,
  restart latency and re-executed compute all advance the BSP clock, so
  MTTR and recovery overhead are measurable in ``sim.elapsed()``, the
  ``resilience/*`` metrics and the Perfetto trace (``recovery`` events).

Log entries past the restored step are truncated on rollback, so
``trainer.log`` always reads as one continuous, fault-free trajectory.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

from repro.check.invariants import InvariantViolation
from repro.resilience.faults import (
    CollectiveTimeoutError,
    RankCrashError,
    SDCDetectedError,
)
from repro.resilience.injector import FaultInjector
from repro.training.amp import grads_finite
from repro.training.optim import grad_norm
from repro.training.trainer import Trainer, TrainingDivergedError, TrainLog


#: checkpoint read/write bandwidth charged to the simulated clock (bytes/s)
IO_BANDWIDTH = 4e9
#: global gradient norm above which a step is treated as silently corrupted
SDC_GRAD_NORM_MAX = 1e8
#: re-executions of one poisoned step before the error propagates
MAX_STEP_RETRIES = 3


class ResilientTrainer(Trainer):
    """Trainer + fault injector + checkpoint/restart + SDC guards."""

    def __init__(
        self,
        *args,
        injector: Optional[FaultInjector] = None,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        restart_cost_s: float = 30.0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.injector = injector
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.restart_cost_s = restart_cost_s
        self.recoveries = []
        self._last_checkpoint = None
        self._ckpt_bytes = 0
        if injector is not None:
            if self.sim is None:
                raise ValueError("fault injection needs a simulated model")
            injector.install(self.sim)

    # ------------------------------------------------------------------
    def train_steps(self, num_steps: int) -> TrainLog:
        target = self.step + num_steps
        while self.step < target:
            try:
                self._maybe_checkpoint()
                if self.injector is not None:
                    self.injector.begin_step(self.step)
                self._logged_step()
            except (RankCrashError, CollectiveTimeoutError) as e:
                self._recover(e)
        if self.ledger is not None:
            self.ledger.append(self.ledger_record())
        return self.log

    def _one_step(self) -> float:
        ids, labels = next(self.batches)
        for attempt in range(MAX_STEP_RETRIES + 1):
            try:
                return self._run_step(ids, labels)
            except (SDCDetectedError, TrainingDivergedError, InvariantViolation) as e:
                if isinstance(e, InvariantViolation):
                    if self.injector is None:
                        raise  # nothing was injected: a broken layout is a bug
                    # strict mode saw a corrupted copy before the guards did
                    self.metrics.counter("resilience/sdc_detected").inc()
                if attempt >= MAX_STEP_RETRIES:
                    raise
                # discard the poisoned step and re-run the same batch; the
                # recomputation's cost lands on the simulated clock
                self.optimizer.zero_grad()
                self.metrics.counter("resilience/step_retries").inc()

    def _check_gradients(self, loss: float) -> None:
        if self.injector is not None:
            self.injector.on_gradients(self.step, self.optimizer.params)
        params = self.optimizer.params
        if not params:
            return  # serial adapter: no distributed gradients to guard
        if not grads_finite(params):
            self.metrics.counter("resilience/sdc_detected").inc()
            raise SDCDetectedError(
                f"non-finite gradients after backward at step {self.step}"
            )
        with np.errstate(over="ignore"):  # a corrupted 1e308 entry squares to inf
            # every copy: corruption may hit any data-parallel replica, which
            # the global norm counts once
            norm = math.hypot(*[grad_norm([p]) for p in params])
        if norm > SDC_GRAD_NORM_MAX:
            self.metrics.counter("resilience/sdc_detected").inc()
            raise SDCDetectedError(
                f"gradient norm {norm:.3e} exceeds SDC ceiling "
                f"{SDC_GRAD_NORM_MAX:.3e} at step {self.step}"
            )

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_every or self.step % self.checkpoint_every:
            return
        if self.checkpoint_path is None:
            raise ValueError("checkpoint_every set but checkpoint_path is None")
        path = self.save(self.checkpoint_path)
        self._last_checkpoint = path
        self._ckpt_bytes = os.path.getsize(path)
        self.metrics.counter("resilience/checkpoints").inc()
        sim = self.sim
        if sim is not None:
            dt = self._ckpt_bytes / IO_BANDWIDTH
            t0 = sim.sync(sim.ranks)
            sim.advance(sim.ranks, dt)
            if sim.tracer.enabled:
                sim.tracer.record(
                    "checkpoint", sim.ranks, t0, t0 + dt,
                    nbytes=0, label=f"step{self.step}",
                    attrs={"step": self.step, "file_bytes": self._ckpt_bytes},
                )

    def _recover(self, cause: Exception) -> None:
        """Roll back to the last checkpoint and charge the downtime."""
        if self._last_checkpoint is None:
            raise cause  # nothing to restart from: the failure is fatal
        sim = self.sim
        failed_step = self.step
        t0 = sim.sync(sim.ranks) if sim is not None else 0.0
        self.optimizer.zero_grad()
        self.resume(self._last_checkpoint)
        drop = getattr(self.model, "drop_caches", None)
        if callable(drop):
            drop()
        mttr = self.restart_cost_s + self._ckpt_bytes / IO_BANDWIDTH
        if sim is not None:
            sim.advance(sim.ranks, mttr)
            if sim.tracer.enabled:
                sim.tracer.record(
                    "recovery", sim.ranks, t0, t0 + mttr,
                    nbytes=0, label=type(cause).__name__,
                    attrs={
                        "failed_step": failed_step,
                        "restored_step": self.step,
                    },
                )
        self.metrics.counter("resilience/recoveries").inc()
        self.metrics.histogram("resilience/mttr").observe(mttr)
        self.recoveries.append(
            {
                "cause": type(cause).__name__,
                "detail": str(cause),
                "failed_step": failed_step,
                "restored_step": self.step,
                "mttr_s": mttr,
            }
        )
