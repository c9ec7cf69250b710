"""Running and reading passes - shared by the child process
(`hostbench.child`) and the self-tests."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import summa

from hostbench.metrics import MAX, MIN, SUM, UNIT_COUNTERS
from hostbench.tracer import Tracer
from hostbench.workloads import MIB, UnitResult, Workload


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    units: List[UnitResult]
    unit_ns: List[int]  # host ns of each unit, same order

    @property
    def wall_ns(self) -> int:
        return sum(self.unit_ns)


def run_pass(workload: Workload, tracer: Optional[Tracer] = None) -> PassResult:
    """Run every unit of one pass, timing each; a unit that raises counts
    all its operations as failed.  With a tracer (already installed) the
    pass runs under a root span and each unit under a unit span."""
    gc.collect()
    results: List[UnitResult] = []
    unit_ns: List[int] = []

    def go() -> None:
        for index, unit in enumerate(workload.units):
            t0 = time.perf_counter_ns()
            try:
                res = unit.run() if tracer is None else tracer.run_unit(index, unit.run)
            except Exception as e:  # the benchmark must report, not die
                res = UnitResult(
                    ops=unit.ops, failed=unit.ops, error=f"{type(e).__name__}: {e}"
                )
            unit_ns.append(time.perf_counter_ns() - t0)
            results.append(res)

    if tracer is None:
        go()
    else:
        tracer.reset()
        with tracer.root():
            go()
    return PassResult(results, unit_ns)


def check_repeatable(workload: Workload, passes: List[PassResult]) -> List[str]:
    """Every pass of a stateless workload must reproduce the first pass's
    outputs and simulated state exactly; one message per failed operation."""
    if not workload.repeatable or not passes:
        return []
    bad = []
    first = passes[0].units
    for k, p in enumerate(passes[1:], start=1):
        for unit, a, b in zip(workload.units, first, p.units):
            if not a.error and not b.error and a.digest != b.digest:
                bad.extend(
                    f"{unit.name}: pass {k} digest {b.digest} != pass 0 {a.digest}"
                    for _ in range(max(unit.ops, 1))
                )
    return bad


# ----------------------------------------------------------------------
# simulated metrics and unit counters of one pass
# ----------------------------------------------------------------------
def sim_metrics(p: PassResult) -> Dict[str, float]:
    us = p.units
    return {
        "sim_time_s": sum(u.sim_time_s for u in us),
        "sim_peak_mem_mb": max(u.sim_peak_mem_b for u in us) / MIB,
        "sim_comm_mb": sum(u.sim_comm_b for u in us) / MIB,
    }


def unit_counters(p: PassResult) -> Dict[str, float]:
    """The per-layer counters units read from their public results,
    combined over the pass (0 where no unit reports one)."""
    out: Dict[str, float] = {}
    for name, _unit, _better, how in UNIT_COUNTERS:
        vals = [u.counters[name] for u in p.units if name in u.counters]
        if not vals:
            out[name] = 0
        else:
            out[name] = {SUM: sum, MAX: max, MIN: min}[how](vals)
    return out


def pass_digest(p: PassResult) -> str:
    return ",".join(u.digest or "-" for u in p.units)


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, p: PassResult) -> Dict[str, float]:
    """Every tracer-derived per-layer metric of the pass just traced (call
    before the next pass resets the tracer).  Raises if the parts do not
    sum to the whole."""
    layers = tracer.by_layer()
    total = sum(ns for _calls, ns in layers.values())
    if total != tracer.root_ns:
        raise AssertionError(
            f"layer self times sum to {total} ns but the root span is "
            f"{tracer.root_ns} ns"
        )
    out: Dict[str, float] = {}
    for layer, (calls, ns) in layers.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = ns / 1e6
    target = tracer.by_target()

    def calls_of(name: str) -> int:
        return target[name][0]

    device = "repro.runtime.device:SimDevice."
    out["backend.shape_array.constructed"] = calls_of(
        "repro.backend.shape_array:ShapeArray.__init__"
    )
    out["runtime.device.sim_events"] = calls_of(device + "compute") + calls_of(
        device + "charge_comm"
    )
    out["runtime.device.sim_flops"] = sum(u.sim_flops for u in p.units)
    out["runtime.memory.allocs"] = calls_of("repro.runtime.memory:MemoryMeter.alloc")
    out["comm.collectives.sim_bytes"] = sum(u.sim_comm_b for u in p.units)
    out["comm.collectives.sim_time_s"] = sum(u.sim_comm_time_s for u in p.units)

    meshes = tracer.probe_stores.get("see_mesh", {})
    plans = sum(summa.plan_cache_size(m) for m in meshes.values())
    summa_calls = layers["core.summa"][0]
    out["core.summa.plan_cache_size"] = plans
    out["core.summa.plan_hit_ratio"] = 1.0 - plans / summa_calls if summa_calls else 0.0

    hits = misses = 0
    for pool, hits0, misses0 in tracer.probe_stores.get("see_pool", {}).values():
        hits += pool.hits - hits0
        misses += pool.misses - misses0
    out["core.buffers.pool_hits"] = hits
    out["core.buffers.pool_misses"] = misses
    out["core.buffers.pool_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    out["training.trainer.steps"] = calls_of("repro.training.trainer:Trainer.train_steps")
    out["serving.kvcache.gather_calls"] = calls_of(
        "repro.serving.kvcache:ShardedKVCache.gather"
    )
    out["serving.kvcache.gathered_positions"] = tracer.probe_stores.get(
        "sum_upto", {}
    ).get("positions", 0)
    return out
