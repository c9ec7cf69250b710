"""Inference serving over the 2-D (Optimus) and 1-D (Megatron) stacks.

Continuous batching + block-partitioned sharded KV-cache + seeded
synthetic traffic, reported as byte-deterministic ``repro-serve-v1`` JSON.
The robustness layer (all off by default) adds fault-injected decode with
token-identical recovery, preemption with KV swap-out/recompute, and a
deadline/retry/backpressure request lifecycle.
"""

from repro.serving.chaos import run_serve_chaos
from repro.serving.engine import (
    MegatronServingEngine,
    OptimusServingEngine,
    ServingEngine,
    ServingResult,
    make_engine,
)
from repro.serving.kvcache import (
    KV_MEMORY_TAG,
    KV_SWAP_TAG,
    HostSwapSpace,
    KVBlockPool,
    KVShardGroup,
    ShardedKVCache,
    SwapTicket,
)
from repro.serving.report import (
    REPORT_SCHEMA,
    compare_reports,
    percentile,
    run_preempt_ab,
    run_serve,
)
from repro.serving.scheduler import (
    POLICIES,
    ContinuousBatchingScheduler,
    ServingOptions,
    SlotState,
)
from repro.serving.traffic import ARRIVAL_PROFILES, Request, TrafficGenerator

__all__ = [
    "ARRIVAL_PROFILES",
    "ContinuousBatchingScheduler",
    "HostSwapSpace",
    "KV_MEMORY_TAG",
    "KV_SWAP_TAG",
    "KVBlockPool",
    "KVShardGroup",
    "MegatronServingEngine",
    "OptimusServingEngine",
    "POLICIES",
    "REPORT_SCHEMA",
    "Request",
    "ServingEngine",
    "ServingOptions",
    "ServingResult",
    "ShardedKVCache",
    "SlotState",
    "SwapTicket",
    "TrafficGenerator",
    "compare_reports",
    "make_engine",
    "percentile",
    "run_preempt_ab",
    "run_serve",
    "run_serve_chaos",
]
