"""Every metric the benchmark reports: name, unit, direction (and bound).

``BENCHMARK.json`` must list exactly these (``tests/test_contract.py``).
Units prefixed ``sim_`` are on the *simulated* clock: deterministic, equal
on every run of the same code, and a host-side optimisation must leave them
bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hostbench.boundaries import DRIVER_LAYER, LAYERS

#: run order; ``hostbench.workloads.WORKLOADS`` defines them (kept apart so
#: the parent process can name them without importing the simulator)
WORKLOAD_NAMES = ("table2_dryrun", "train_numeric", "serve_steady", "serve_churn")

#: the one statistic behind the host times (0.0 = the lowest sample):
#: ``host_wall_s`` sums, over the units of a pass, this quantile of the unit's
#: pooled timed samples; ``setup_s`` is this quantile of the rounds' set-up
#: times (README.md, "Why the lowest sample of short units")
UNIT_QUANTILE = 0.0

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("host_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

SUM, MAX, MIN = "sum", "max", "min"

#: counters a unit reads from its public result: (name, unit, better, how to
#: combine the units of one pass)
UNIT_COUNTERS: List[Tuple[str, str, str, str]] = [
    ("training.trainer.final_loss", "nats", "lower", MAX),
    ("serving.scheduler.admitted", "count", "higher", SUM),
    ("serving.scheduler.hol_blocked", "count", "lower", SUM),
    ("serving.scheduler.preempted", "count", "lower", SUM),
    ("serving.scheduler.shed", "count", "lower", SUM),
    ("serving.scheduler.timed_out", "count", "lower", SUM),
    ("serving.scheduler.retried", "count", "lower", SUM),
    ("serving.kvcache.peak_blocks_in_use", "count", "lower", MAX),
    ("serving.kvcache.swapped_out", "count", "lower", SUM),
    ("serving.kvcache.swapped_in", "count", "lower", SUM),
    ("serving.kvcache.recomputed_tokens", "count", "lower", SUM),
    ("serving.engine.steps", "count", "lower", SUM),
    ("serving.engine.lane_steps", "count", "lower", SUM),
    ("serving.engine.padded_lane_steps", "count", "lower", SUM),
    ("serving.engine.generated_tokens", "count", "higher", SUM),
    ("serving.engine.prompt_tokens", "count", "higher", SUM),
    ("serving.engine.sim_ttft_p50_ms", "sim_ms", "lower", MAX),
    ("serving.engine.sim_ttft_p99_ms", "sim_ms", "lower", MAX),
    ("serving.engine.sim_tpot_p50_ms", "sim_ms", "lower", MAX),
    ("serving.engine.sim_e2e_p99_ms", "sim_ms", "lower", MAX),
    ("serving.engine.sim_goodput_tok_s", "sim_tok/s", "higher", MIN),
    ("serving.engine.slo_attainment", "ratio", "higher", MIN),
]

#: counters the tracer or the harness derives: (name, unit, better)
DERIVED: List[Tuple[str, str, str]] = [
    ("sim_time_s", "sim_s", "lower"),
    ("sim_peak_mem_mb", "sim_MiB", "lower"),
    ("sim_comm_mb", "sim_MiB", "lower"),
    ("host_us_per_sim_event", "us", "lower"),
    ("backend.shape_array.constructed", "count", "lower"),
    ("runtime.device.sim_events", "count", "lower"),
    ("runtime.device.sim_flops", "sim_flop", "lower"),
    ("runtime.memory.allocs", "count", "lower"),
    ("comm.collectives.sim_bytes", "sim_B", "lower"),
    ("comm.collectives.sim_time_s", "sim_s", "lower"),
    ("core.summa.plan_cache_size", "count", "lower"),
    ("core.summa.plan_hit_ratio", "ratio", "higher"),
    ("core.buffers.pool_hits", "count", "higher"),
    ("core.buffers.pool_misses", "count", "lower"),
    ("core.buffers.pool_hit_ratio", "ratio", "higher"),
    ("training.trainer.steps", "count", "higher"),
    ("serving.kvcache.gather_calls", "count", "lower"),
    ("serving.kvcache.gathered_positions", "count", "lower"),
    ("hostbench.trace_overhead_ratio", "ratio", "lower"),
    ("hostbench.py_calls", "count", "lower"),
    ("hostbench.calib_unit_ms", "ms", "lower"),
]


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every traced-run metric, in print order."""
    out: List[Tuple[str, str, str]] = []
    for layer in [*LAYERS, DRIVER_LAYER]:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms", "ms", "lower"))
    out.extend(DERIVED)
    out.extend((n, u, b) for n, u, b, _ in UNIT_COUNTERS)
    return out


def units() -> Dict[str, str]:
    """name -> unit for every metric of either kind."""
    table = {n: u for n, u, _, _ in END_TO_END}
    table.update({n: u for n, u, _ in per_layer()})
    return table
