#!/usr/bin/env python
"""Hybrid parallelism: data-parallel replicas of 2D tensor-parallel meshes.

This is how Optimus is deployed in practice (e.g. in Colossal-AI): tensor
parallelism handles the model that doesn't fit on one device, data
parallelism scales the batch across replicas.  Here we train 2 replicas of
a 2×2 mesh (8 simulated GPUs total), verify the result is bit-identical to
full-batch serial training, and look at the gradient-synchronization cost
the data-parallel dimension adds.

Run:  python examples/hybrid_data_parallel.py
"""

import numpy as np

from repro.config import ModelConfig
from repro.hybrid.data_parallel import DataParallel
from repro.mesh.partition import assemble_any
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.runtime.analysis import collective_stats, format_breakdown
from repro.training.optim import SGD, SerialSGD


def main() -> None:
    cfg = ModelConfig(vocab_size=256, hidden_size=48, num_heads=4,
                      num_layers=2, seq_len=24)
    rng = np.random.default_rng(0)
    b = 16
    ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))

    # hybrid: 2 data-parallel replicas x (2x2 tensor-parallel mesh)
    dp = DataParallel.build(num_replicas=2, q=2, cfg=cfg, seed=0)
    dp.sim.tracer.enabled = True
    opt = SGD(dp.parameters(), lr=0.1)

    # serial twin for verification
    params_ref = init_transformer_params(cfg, seed=0)
    ref = ReferenceTransformer(cfg, params_ref)
    sopt = SerialSGD(params_ref, lr=0.1)

    print("step | hybrid loss | serial loss | max param diff")
    for step in range(5):
        opt.zero_grad()
        loss = dp.forward_backward(ids, labels)
        opt.step()
        sloss, grads = ref.loss_and_grads(ids, labels)
        sopt.step(grads)
        w = assemble_any(dp.replica(0).named_parameters()["layer0.mlp.w1"].data)
        diff = np.abs(w - params_ref["layer0.mlp.w1"]).max()
        print(f"{step:4d} | {loss:11.6f} | {float(sloss):11.6f} | {diff:.2e}")

    stats = collective_stats(dp.sim.tracer)
    dp_traffic = sum(
        e.nbytes for e in dp.sim.tracer.events
        if e.kind == "all_reduce" and e.label == "dp"
    )
    total_traffic = sum(s.total_bytes for s in stats.values())
    print(
        f"\ngradient-sync share of all traffic: "
        f"{dp_traffic / total_traffic:.1%} "
        f"({dp_traffic / 2**20:.1f} MiB of {total_traffic / 2**20:.1f} MiB over 5 steps)"
    )
    print()
    print(format_breakdown(dp.sim, title="Per-device time breakdown (8 GPUs)"))


if __name__ == "__main__":
    main()
