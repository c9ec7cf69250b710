"""The four workloads.

A workload object is built once per child process from ``--seed`` (that is
the set-up the ``setup_s`` metric times) and then hands out the *units* of
one pass; the harness times every unit separately.  ``repro`` only ever
sees the generated inputs, and is only driven through public functions -
always looked up on their module at call time (``runner.run_optimus_stem``,
not a ``from`` import) so the tracer's rebinding reaches them.

The seed never changes how much work a pass does: it draws token ids,
batches and parameters, while shapes, request lengths and arrival times
are fixed.  Host time is therefore comparable across seeds and every
simulated quantity is seed-independent (README.md, "What the seed does").
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import config
from repro.core import model as core_model
from repro.experiments import runner
from repro.megatron import model as megatron_model
from repro.mesh import mesh as mesh_mod
from repro.nn import init as nn_init
from repro.runtime.simulator import Simulator
from repro.serving import report as serving_report
from repro.serving import scheduler as serving_scheduler
from repro.serving import traffic as serving_traffic
from repro.training import data as training_data
from repro.training import optim as training_optim
from repro.training import trainer as training_trainer

MIB = 1024.0 * 1024.0


def sha(doc) -> str:
    """Short content hash of a JSON-safe document (floats by ``repr``)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class UnitResult:
    """What one unit of a pass did, read from its public outputs."""

    ops: int  # operations attempted
    failed: int = 0  # operations that failed inside the unit
    digest: str = ""  # content hash of the unit's outputs
    sim_time_s: float = 0.0  # simulated seconds the unit advanced
    sim_peak_mem_b: int = 0  # max over devices, simulated bytes
    sim_comm_b: float = 0.0  # simulated bytes received in collectives
    sim_comm_time_s: float = 0.0  # busiest device's simulated comm time
    sim_flops: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)  # layer extras
    error: str = ""
    payload: object = None  # kept for verify(), never serialised


@dataclass(frozen=True)
class Unit:
    name: str
    ops: int
    run: Callable[[], UnitResult]


@contextmanager
def _simulators_built():
    """Collect every ``Simulator`` constructed inside the block.

    ``run_*_stem`` build their simulator internally and return only a
    ``StemResult``; the per-rank clock/flops/bytes/peak check needs the
    simulator itself.  (Their ``ledger=`` hook would hand it over too, but
    building a ``RunRecord`` shells out to ``git rev-parse`` - inside a
    timed unit that is pure noise.)"""
    built: List[Simulator] = []
    original = Simulator.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    Simulator.__init__ = recording_init
    try:
        yield built
    finally:
        Simulator.__init__ = original


def _sim_counters(sim) -> tuple:
    return (
        sim.elapsed(),
        sim.total_bytes_comm(),
        max(d.comm_time for d in sim.devices),
        sim.total_flops(),
    )


def _sim_fields(sim, base=(0.0, 0.0, 0.0, 0.0)) -> dict:
    """The simulated quantities of one unit (``base``: the counters before
    it, for a simulator that outlives the unit)."""
    now = _sim_counters(sim)
    return {
        "sim_time_s": now[0] - base[0],
        "sim_comm_b": now[1] - base[1],
        "sim_comm_time_s": now[2] - base[2],
        "sim_flops": now[3] - base[3],
        "sim_peak_mem_b": int(sim.peak_memory()),
    }


class Workload:
    """Base: subclasses set the class attributes and fill ``units``."""

    name = ""
    why = ""
    seed_note = ""
    #: every pass must reproduce the first pass's unit digests exactly
    #: (False only where the program is stateful across passes: training)
    repeatable = True

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.units: List[Unit] = []  # one pass, in order

    def verify(self, passes: List[List[UnitResult]]) -> List[str]:
        """Check outputs against an independent reference, untimed.
        Returns one message per failed operation."""
        return []


# ======================================================================
# table2_dryrun
# ======================================================================
class Table2Dryrun(Workload):
    name = "table2_dryrun"
    why = (
        "paper Table 2 rows at p=16 and p=64, both schemes, shape backend: "
        "no data, so host time is pure simulator bookkeeping"
    )
    seed_note = "seed unused (shape-only dry run: there are no values to draw)"

    #: Table 2 runs N=24 layers; host time is linear in N, and 4 keeps the
    #: longest unit (optimus, p=64) near 0.6 s: short units are what make a
    #: low quantile of their samples robust to this box's noise (README.md)
    NUM_LAYERS = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rows = {r["num_devices"]: r for r in config.table2_weak_scaling()}
        for p in (16, 64):
            row = rows[p]
            q = math.isqrt(p)
            meg = dataclasses.replace(row["model_megatron"], num_layers=self.NUM_LAYERS)
            opt = dataclasses.replace(row["model_optimus"], num_layers=self.NUM_LAYERS)
            self._add(f"megatron_p{p}", "run_megatron_stem", meg, p, row["batch_megatron"])
            self._add(f"optimus_p{p}", "run_optimus_stem", opt, q, row["batch_optimus"])

    def _add(self, name: str, fn_name: str, model, width: int, batch: int) -> None:
        def run() -> UnitResult:
            with _simulators_built() as built:
                res = getattr(runner, fn_name)(model, width, batch)
            (sim,) = built
            doc = {"result": dataclasses.asdict(res), "ranks": sim.watermarks()}
            return UnitResult(ops=1, digest=sha(doc), **_sim_fields(sim))

        self.units.append(Unit(name, 1, run))


# ======================================================================
# train_numeric
# ======================================================================
class TrainNumeric(Workload):
    name = "train_numeric"
    why = (
        "real float64 training steps on 16 ranks, both schemes: NumPy GEMMs, "
        "gelu/softmax and the optimizer dominate; ShapeArray is never touched"
    )
    seed_note = "seed draws the parameters and every batch (copy task, seed+k)"
    repeatable = False  # step k+1 continues from step k

    CFG = config.ModelConfig(
        vocab_size=3200, hidden_size=128, num_heads=16, num_layers=4, seq_len=32,
        dtype="float64",
    )
    BATCH = 8
    LR = 1e-3
    RTOL = 1e-9

    def __init__(self, seed: int):
        super().__init__(seed)
        cfg = self.CFG
        sim2d = Simulator.for_mesh(q=4)
        optimus = core_model.OptimusModel(mesh_mod.Mesh(sim2d, 4), cfg, self._params())
        megatron = megatron_model.MegatronModel(Simulator.for_flat(p=16), cfg, self._params())
        self.trainers = {
            name: training_trainer.Trainer(
                m, training_optim.Adam(m.parameters(), lr=self.LR), self._batches()
            )
            for name, m in (("optimus", optimus), ("megatron", megatron))
        }
        for name in self.trainers:
            self.units.append(Unit(f"{name}_step", 1, lambda n=name: self._step(n)))

    def _params(self):
        return nn_init.init_transformer_params(self.CFG, seed=self.seed, dtype="float64")

    def _batches(self):
        k = 0
        while True:
            yield training_data.copy_task_batch(self.CFG, self.BATCH, seed=self.seed + k)
            k += 1

    def _step(self, name: str) -> UnitResult:
        trainer = self.trainers[name]
        sim = trainer.sim
        since = _sim_counters(sim)
        step = trainer.step
        try:
            trainer.train_steps(1)
        except training_trainer.TrainingDivergedError as e:
            return UnitResult(ops=1, failed=1, error=str(e), **_sim_fields(sim, since))
        loss = trainer.log.losses[-1]
        return UnitResult(
            ops=1,
            digest=sha({"scheme": name, "step": step, "loss": repr(loss)}),
            counters={"training.trainer.final_loss": loss},
            payload=(name, step, loss),
            **_sim_fields(sim, since),
        )

    def verify(self, passes):
        """Same parameters and batches through the single-worker serial
        reference; every distributed loss must match it to ``RTOL``."""
        steps = len(passes)
        params = self._params()
        serial = training_trainer.make_serial_trainer(
            self.CFG, self._batches(),
            optimizer=training_optim.SerialAdam(params, lr=self.LR), params=params,
        )
        want = serial.train_steps(steps).losses
        bad = []
        for units in passes:
            for u in units:
                if u.payload is None:
                    continue  # already counted as failed inside the unit
                name, step, loss = u.payload
                ref = want[step]
                if not (math.isfinite(loss) and abs(loss - ref) <= self.RTOL * abs(ref)):
                    bad.append(f"{name} step {step}: loss {loss!r} != serial {ref!r}")
        return bad


# ======================================================================
# serving
# ======================================================================
#: the arrival times and prompt/output lengths of both serving traces come
#: from this fixed seed; ``--seed`` redraws only the prompt token ids
TRAFFIC_SHAPE_SEED = 0


class _Serve(Workload):
    seed_note = (
        "seed redraws every prompt's token ids; arrivals and lengths are fixed "
        f"(TrafficGenerator seed {TRAFFIC_SHAPE_SEED})"
    )
    TRAFFIC: dict = {}
    BLOCKS = 12
    #: (unit name, scheme, ServingOptions or None)
    ARMS: List[tuple] = []
    ENGINE = dict(q=2, slots=8, block_size=8, slo_ttft=0.005, slo_tpot=0.0005)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = config.tiny_config(num_heads=4)
        self.params = nn_init.init_transformer_params(
            self.cfg, seed=serving_report.PARAM_SEED
        )
        self.requests: List[serving_traffic.Request] = []
        self.units.append(Unit("traffic", 0, self._traffic))
        for unit_name, scheme, options in self.ARMS:
            self.units.append(
                Unit(
                    unit_name, self.TRAFFIC["num_requests"],
                    lambda s=scheme, o=options: self._arm(s, o, self.BLOCKS),
                )
            )

    def _traffic(self) -> UnitResult:
        gen = serving_traffic.TrafficGenerator(
            TRAFFIC_SHAPE_SEED, self.cfg.vocab_size, **self.TRAFFIC
        )
        rng = np.random.default_rng(self.seed)
        self.requests = [
            dataclasses.replace(
                r,
                prompt=tuple(
                    int(t) for t in rng.integers(0, self.cfg.vocab_size, size=r.prompt_len)
                ),
            )
            for r in gen.generate()
        ]
        doc = [[r.rid, repr(r.arrival), list(r.prompt), r.max_new] for r in self.requests]
        return UnitResult(ops=0, digest=sha(doc))

    def _arm(self, scheme: str, options, blocks: int) -> UnitResult:
        entry, sim = serving_report.run_arm(
            scheme, self.cfg, self.params, self.requests,
            blocks=blocks, options=options, **self.ENGINE,
        )
        n = len(self.requests)
        lc = entry.get("lifecycle") or {}
        sched = entry["scheduler"]
        fields = _sim_fields(sim)
        fields["sim_time_s"] = entry["makespan_s"]
        ms = 1e3
        return UnitResult(
            ops=n,
            failed=n - entry["completed"],
            digest=sha(entry),
            counters={
                "serving.scheduler.admitted": sched["admitted"],
                "serving.scheduler.hol_blocked": sched["hol_blocked_steps"],
                "serving.scheduler.preempted": lc.get("preempted", 0),
                "serving.scheduler.shed": lc.get("rejected_shed", 0),
                "serving.scheduler.timed_out": lc.get("timed_out", 0)
                + lc.get("rejected_deadline", 0),
                "serving.scheduler.retried": lc.get("retried", 0),
                "serving.kvcache.peak_blocks_in_use": max(
                    entry["kv_cache"]["peak_blocks_in_use"].values()
                ),
                "serving.kvcache.swapped_out": lc.get("swapped_out", 0),
                "serving.kvcache.swapped_in": lc.get("swapped_in", 0),
                "serving.kvcache.recomputed_tokens": lc.get("recomputed_tokens", 0),
                "serving.engine.steps": entry["steps"],
                "serving.engine.lane_steps": entry["lane_steps"],
                "serving.engine.padded_lane_steps": entry["padded_lane_steps"],
                "serving.engine.generated_tokens": entry["generated_tokens"],
                "serving.engine.prompt_tokens": entry["prompt_tokens"],
                "serving.engine.sim_ttft_p50_ms": entry["ttft_s"]["p50"] * ms,
                "serving.engine.sim_ttft_p99_ms": entry["ttft_s"]["p99"] * ms,
                "serving.engine.sim_tpot_p50_ms": entry["tpot_s"]["p50"] * ms,
                "serving.engine.sim_e2e_p99_ms": entry["e2e_s"]["p99"] * ms,
                "serving.engine.sim_goodput_tok_s": entry["goodput_tokens_per_s"],
                "serving.engine.slo_attainment": entry["slo_attainment"],
            },
            payload=(entry["completed"], entry["tokens_sha256"]),
            **fields,
        )

    def _reference_tokens(self) -> Optional[str]:
        """``tokens_sha256`` the arms must reproduce, or None for "the first
        arm's" (steady state: the two schemes check each other)."""
        return None

    def verify(self, passes):
        bad = []
        want = self._reference_tokens()
        for units in passes:
            expect = want
            for unit, u in zip(self.units, units):
                if u.payload is None:
                    continue
                completed, tokens = u.payload
                if expect is None:
                    expect = tokens
                # an incomplete arm hashes fewer requests: already counted
                if completed == unit.ops and tokens != expect:
                    bad.extend(
                        f"{unit.name}: tokens_sha256 {tokens} != {expect}"
                        for _ in range(completed)
                    )
        return bad


class ServeSteady(_Serve):
    name = "serve_steady"
    why = (
        "a full serving run on the default reserve policy, both schemes: engine "
        "build, continuous batching, per-lane decode attention, KV gather; "
        "zero preemptions"
    )
    TRAFFIC = dict(arrival="poisson", rate_rps=1000.0, num_requests=32)
    BLOCKS = 12
    ARMS = [("optimus", "optimus", None), ("megatron", "megatron", None)]


def _churn_options(swap_blocks: int) -> "serving_scheduler.ServingOptions":
    # deadline and queue bound are armed (so expire/intake do their work on
    # every step) but sized so that nothing is ever shed or timed out: a
    # workload on which operations fail by design could not be gated
    return serving_scheduler.ServingOptions(
        policy="preempt", swap_blocks=swap_blocks, deadline_s=1.0, max_retries=1,
        max_queue_depth=32,
    )


class ServeChurn(_Serve):
    name = "serve_churn"
    why = (
        "the same serving layers under overload with half the KV blocks: "
        "preemption, swap-out/in and recompute-replay write the KV cache "
        "beside reading it"
    )
    TRAFFIC = dict(arrival="bursty", rate_rps=4000.0, num_requests=32, burst_size=10)
    BLOCKS = 6
    ARMS = [
        ("optimus_swap", "optimus", _churn_options(12)),
        ("megatron_swap", "megatron", _churn_options(12)),
        ("optimus_recompute", "optimus", _churn_options(0)),
        ("megatron_recompute", "megatron", _churn_options(0)),
    ]
    AMPLE_BLOCKS = 32

    def _reference_tokens(self) -> str:
        """Greedy decoding is deterministic, so a preempted, swapped or
        replayed request must emit what it emits with ample capacity."""
        if not self.requests:
            self._traffic()
        ref = self._arm("optimus", None, self.AMPLE_BLOCKS)
        if ref.failed:
            raise RuntimeError("ample-capacity reference run left requests incomplete")
        return ref.payload[1]


WORKLOADS = {
    w.name: w for w in (Table2Dryrun, TrainNumeric, ServeSteady, ServeChurn)
}
