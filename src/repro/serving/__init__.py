"""Inference serving over the 2-D (Optimus) and 1-D (Megatron) stacks.

Continuous batching + block-partitioned sharded KV-cache + seeded
synthetic traffic, reported as byte-deterministic ``repro-serve-v1`` JSON.
The robustness layer (all off by default) adds fault-injected decode with
token-identical recovery, preemption with KV swap-out/recompute, and a
deadline/retry/backpressure request lifecycle.
"""
