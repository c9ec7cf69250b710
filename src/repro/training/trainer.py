"""A scheme-agnostic training loop.

Drives any *executor*: an object with ``forward(ids, labels) -> loss`` and
``backward()``, plus — on the built-in ones — ``scheme``, ``cfg`` and ``sim``
(``None`` off the simulator).  Optimus, Megatron, the serial reference, the
pipeline and hybrid data parallelism all are, as the classes stand
(``docs/parallelism.md`` tabulates them).  The optimizer is anything with
``zero_grad()`` / ``step()`` / ``lr`` / ``params``; :class:`GlobalGradOptimizer`
gives that shape to a serial optimizer for the two executors whose gradients
are a global name → array dict.

When the model runs on a simulator, each step is wrapped in a ``step`` span
(so traces show ``step > layer > op > collective`` nesting) and per-step
metrics — loss, simulated step time, the step's compute/comm split — are
published into a :class:`~repro.obs.metrics.MetricsRegistry` (the
simulator's own registry by default).

The loop is factored into small overridable pieces so the resilience layer
can interpose without duplicating it:

* :meth:`Trainer._run_step` — one forward/backward/clip/update given a
  batch (re-executable: the SDC guard re-runs it on detected corruption);
* :meth:`Trainer._check_gradients` — a hook between backward and update
  (no-op here; :class:`~repro.resilience.trainer.ResilientTrainer` injects
  and detects silent data corruption in it);
* :meth:`Trainer._logged_step` — one step plus span/metrics/log bookkeeping.

A trainer also knows how to checkpoint itself: :meth:`state_dict` captures
the scalar training state (step counter, optimizer hyper-state, AMP loss
scale, data cursor, RNG state), and :meth:`save` / :meth:`resume` delegate
to :mod:`repro.serialization` for the full parameters-and-moments state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.runtime.events import NULL_SPAN
from repro.training.optim import clip_grads


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite (nan/inf)."""

    def __init__(self, step: int, loss: float, last_finite_loss: Optional[float]):
        self.step = step
        self.loss = loss
        self.last_finite_loss = last_finite_loss
        tail = (
            f"last finite loss was {last_finite_loss:.6g}"
            if last_finite_loss is not None
            else "no finite loss was ever recorded"
        )
        super().__init__(
            f"training diverged at step {step}: loss is {loss!r} ({tail})"
        )


@dataclass
class TrainLog:
    losses: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    lrs: List[float] = field(default_factory=list)
    step_times: List[float] = field(default_factory=list)  # simulated seconds
    comm_fractions: List[float] = field(default_factory=list)

    def truncate(self, num_steps: int) -> None:
        """Drop log entries beyond ``num_steps`` (checkpoint rollback)."""
        for lst in (
            self.losses,
            self.grad_norms,
            self.lrs,
            self.step_times,
            self.comm_fractions,
        ):
            del lst[num_steps:]


class Trainer:
    """Forward / backward / clip / step loop over a batch iterator."""

    def __init__(
        self,
        model,
        optimizer,
        batches: Iterator[Tuple[object, object]],
        lr_schedule: Optional[Callable[[int], float]] = None,
        max_grad_norm: Optional[float] = None,
        log_every: int = 0,
        printer: Callable[[str], None] = print,
        metrics: Optional[MetricsRegistry] = None,
        scaler=None,
        rng: Optional[np.random.Generator] = None,
        ledger=None,
        run_label: str = "",
        seed: Optional[int] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.batches = batches
        self.lr_schedule = lr_schedule
        self.max_grad_norm = max_grad_norm
        self.log_every = log_every
        self.printer = printer
        self.scaler = scaler
        self.rng = rng
        #: optional :class:`~repro.obs.ledger.RunLedger`; when set,
        #: :meth:`train_steps` appends one ``train`` record per call.
        #: ``None`` falls back to ``RunLedger.from_env()`` so every scheme —
        #: including pipeline runs — honors ``REPRO_LEDGER`` without its
        #: entry point having to plumb a ledger argument.  Building a record
        #: only reads counters, so losses and simulated clocks are
        #: bit-identical with the ledger on or off.
        if ledger is None:
            from repro.obs.ledger import RunLedger

            ledger = RunLedger.from_env()
        self.ledger = ledger
        self.run_label = run_label
        self.seed = seed
        self.step = 0
        self.log = TrainLog()
        #: the simulator behind the model, if any (the serial reference has none)
        self.sim = getattr(model, "sim", None)
        self._last_finite_loss: Optional[float] = None
        if metrics is not None:
            self.metrics = metrics
        elif self.sim is not None:
            self.metrics = self.sim.metrics
        else:
            self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # one step, in re-executable pieces
    # ------------------------------------------------------------------
    def _one_step(self) -> float:
        ids, labels = next(self.batches)
        return self._run_step(ids, labels)

    def _run_step(self, ids, labels) -> float:
        """One forward/backward/clip/update on a given batch.

        Pure in the batch: re-running it on the same (ids, labels) after
        zeroing gradients reproduces the same update, which is what lets
        the SDC guard retry a corrupted step.
        """
        self.optimizer.zero_grad()
        loss = float(self.model.forward(ids, labels))
        if not math.isfinite(loss):
            raise TrainingDivergedError(self.step, loss, self._last_finite_loss)
        self.model.backward()
        self._check_gradients(loss)
        norm = float("nan")
        if self.max_grad_norm is not None:
            norm = clip_grads(self.optimizer.params, self.max_grad_norm)
        if self.lr_schedule is not None:
            self.optimizer.lr = self.lr_schedule(self.step)
        if self.scaler is not None:
            from repro.training.amp import scale_grads

            # the scale is a power of two, so scale→unscale is bit-exact and
            # the trajectory matches unscaled training when nothing overflows
            scale_grads(self.optimizer.params, self.scaler.scale)
            self.scaler.step()
        else:
            self.optimizer.step()
        self.log.grad_norms.append(norm)
        self._last_finite_loss = loss
        return loss

    def _check_gradients(self, loss: float) -> None:
        """Hook between backward and update; the resilience layer overrides
        it to inject and detect silent data corruption."""

    def _logged_step(self) -> float:
        """One step plus span, timing, metrics and log bookkeeping."""
        sim = self.sim
        if sim is not None:
            tr = sim.tracer
            t0 = sim.elapsed()
            compute0 = max(d.compute_time for d in sim.devices)
            comm0 = max(d.comm_time for d in sim.devices)
            with tr.span("step", sim.ranks, "step",
                         step=self.step) if tr.enabled else NULL_SPAN:
                loss = self._one_step()
            step_time = sim.elapsed() - t0
            compute_dt = max(d.compute_time for d in sim.devices) - compute0
            comm_dt = max(d.comm_time for d in sim.devices) - comm0
            busy = compute_dt + comm_dt
            comm_frac = comm_dt / busy if busy else 0.0
        else:
            loss = self._one_step()
            step_time = float("nan")
            comm_frac = float("nan")
        self.step += 1
        self.log.losses.append(loss)
        self.log.lrs.append(self.optimizer.lr)
        self.log.step_times.append(step_time)
        self.log.comm_fractions.append(comm_frac)
        self.metrics.counter("train/steps").inc()
        self.metrics.histogram("train/loss").observe(loss)
        if sim is not None:
            self.metrics.histogram("train/step_time").observe(step_time)
            self.metrics.gauge("train/comm_fraction").set(comm_frac)
        if self.log_every and self.step % self.log_every == 0:
            self.printer(
                f"step {self.step:5d}  loss {loss:.4f}  "
                f"lr {self.optimizer.lr:.2e}"
            )
        return loss

    def train_steps(self, num_steps: int) -> TrainLog:
        for _ in range(num_steps):
            self._logged_step()
        if self.ledger is not None:
            self.ledger.append(self.ledger_record())
        return self.log

    def ledger_record(self, kind: str = "train"):
        """A :class:`~repro.obs.ledger.RunRecord` of this trainer's run so
        far — read-only over counters, metrics and the training log."""
        from repro.obs.ledger import RunRecord, json_safe, record_from_sim

        scheme = getattr(self.model, "scheme", None)
        cfg = getattr(self.model, "cfg", None)
        doc = {
            "steps": self.step,
            "final_loss": self.log.losses[-1] if self.log.losses else None,
            "losses": list(self.log.losses),
            "step_times": list(self.log.step_times),
            "comm_fractions": list(self.log.comm_fractions),
            "label": self.run_label,
        }
        describe = getattr(self.model, "describe", None)
        if describe is not None:
            doc.update(describe())
        extra = json_safe(doc)
        if self.sim is None:
            return RunRecord(
                kind=kind,
                label=self.run_label,
                scheme=scheme,
                seed=self.seed,
                metrics=self.metrics.export(),
                extra=extra,
            )
        mesh = getattr(self.model, "mesh", None)
        mesh_doc = {"q": mesh.q} if mesh is not None and hasattr(mesh, "q") else None
        return record_from_sim(
            kind,
            self.sim,
            label=self.run_label,
            scheme=scheme,
            seed=self.seed,
            config=cfg,
            mesh=mesh_doc,
            extra=extra,
        )

    # ------------------------------------------------------------------
    # checkpoint / restart
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Scalar training state (everything except arrays); paired with the
        parameter/moment arrays by
        :func:`repro.serialization.save_training_checkpoint`."""
        state: dict = {"step": self.step, "last_finite_loss": self._last_finite_loss}
        if callable(getattr(self.optimizer, "state_dict", None)):
            state["optimizer"] = self.optimizer.state_dict()
        if self.scaler is not None:
            state["scaler"] = self.scaler.state()
        if callable(getattr(self.batches, "state", None)):
            state["data"] = self.batches.state()
        if self.rng is not None:
            state["rng"] = self.rng.bit_generator.state
        # counters only: campaign-cumulative totals must survive a resume
        # with OpenMetrics restart semantics (monotone value, bumped
        # ``_created`` epoch); gauges/histograms describe the live process
        state["metrics"] = self.metrics.counters_state()
        return state

    def save(self, path) -> str:
        """Write a full-state checkpoint; returns the path written."""
        from repro.serialization import save_training_checkpoint

        return save_training_checkpoint(path, self)

    def resume(self, source) -> int:
        """Restore full training state from a checkpoint path (or an
        already-loaded :class:`~repro.serialization.TrainingState`) and
        return the step to continue from."""
        from repro.serialization import (
            TrainingState,
            apply_training_state,
            load_training_checkpoint,
        )

        state = (
            source
            if isinstance(source, TrainingState)
            else load_training_checkpoint(source)
        )
        apply_training_state(self, state)
        self.log.truncate(self.step)
        return self.step


# ----------------------------------------------------------------------
# executors whose gradients are a global name → array dict
# ----------------------------------------------------------------------
class GlobalGradOptimizer:
    """Bridge a serial optimizer (``step(grads)`` over global arrays) to the
    trainer's ``zero_grad()`` / ``step()`` protocol, for the executors that
    keep their gradients in ``model.grads`` (serial reference, pipeline)."""

    params = ()  # no DistParams: grad clipping is a no-op on this path

    def __init__(self, opt, model):
        self.opt = opt
        self.model = model

    @property
    def lr(self) -> float:
        return self.opt.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.opt.lr = value

    def zero_grad(self) -> None:
        self.model.zero_grads()

    def step(self) -> None:
        if self.model.grads:
            self.opt.step(self.model.grads)

    def state_dict(self) -> dict:
        return self.opt.state_dict()

    def load_state_dict(self, d: dict) -> None:
        self.opt.load_state_dict(d)

    def state_slots(self):
        return self.opt.state_slots()

    def load_state_slots(self, slots) -> None:
        self.opt.load_state_slots(slots)


def make_serial_trainer(cfg, batches, optimizer=None, params=None, seed=1, **kw):
    """A :class:`Trainer` over the serial reference model, built from
    ``params`` (or a fresh seeded init)."""
    from repro.nn.init import init_transformer_params
    from repro.reference.model import ReferenceTransformer
    from repro.training.optim import SerialAdam

    if params is None:
        params = init_transformer_params(cfg, seed=seed)
    model = ReferenceTransformer(cfg, params)
    if optimizer is None:
        optimizer = SerialAdam(params, lr=1e-2)
    return Trainer(model, GlobalGradOptimizer(optimizer, model), batches, **kw)


def make_pipeline_trainer(
    cfg,
    batches,
    optimizer=None,
    params=None,
    seed=1,
    schedule: str = "1f1b",
    num_micro_batches: int = 4,
    num_stages: int = 2,
    sim=None,
    **kw,
):
    """A :class:`Trainer` over the GPipe/1F1B pipeline engine.

    Builds a flat ``num_stages``-rank simulator (unless one is supplied)
    and — like every trainer — appends a ``train`` ledger record per
    :meth:`Trainer.train_steps` call whenever a ledger is passed or
    ``REPRO_LEDGER`` is set."""
    from repro.nn.init import init_transformer_params
    from repro.pipeline.engine import PipelineModel
    from repro.runtime.simulator import Simulator
    from repro.training.optim import SerialAdam

    if params is None:
        params = init_transformer_params(cfg, seed=seed)
    if sim is None:
        sim = Simulator.for_flat(num_stages)
    model = PipelineModel(
        sim,
        cfg,
        params,
        num_micro_batches=num_micro_batches,
        schedule=schedule,
        num_stages=num_stages,
    )
    if optimizer is None:
        optimizer = SerialAdam(params, lr=1e-2)
    kw.setdefault("seed", seed)
    return Trainer(model, GlobalGradOptimizer(optimizer, model), batches, **kw)
