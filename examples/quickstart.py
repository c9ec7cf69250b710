#!/usr/bin/env python
"""Quickstart: run Optimus (2D/SUMMA tensor parallelism) on a simulated mesh.

This script walks the public API end to end:

1.  build a simulated 2×2 device mesh (4 GPUs on one Frontera-style node);
2.  initialize one set of global transformer parameters;
3.  run the same forward/backward on the serial reference, on Megatron (1D)
    and on Optimus (2D) — and show that all three agree to float precision;
4.  inspect what the simulator measured: per-device FLOPs, communication
    volume/time, and peak memory for each scheme.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.config import ModelConfig
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.runtime.simulator import Simulator
from repro.utils.tables import format_bytes, format_table


def main() -> None:
    # a small but real transformer: 2 layers, h=64, 8 heads, vocab 512
    cfg = ModelConfig(
        vocab_size=512, hidden_size=64, num_heads=8, num_layers=2, seq_len=32
    )
    params = init_transformer_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = 8
    ids = rng.integers(0, cfg.vocab_size, size=(batch, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(batch, cfg.seq_len))

    # ------------------------------------------------------------------
    # 1) ground truth on a single device
    # ------------------------------------------------------------------
    reference = ReferenceTransformer(cfg, params)
    ref_loss = float(reference.forward(ids, labels))
    ref_grads = reference.backward()
    print(f"serial reference      loss = {ref_loss:.6f}")

    # ------------------------------------------------------------------
    # 2) Optimus on a 2×2 mesh (4 simulated GPUs)
    # ------------------------------------------------------------------
    sim_2d = Simulator.for_mesh(q=2)
    optimus = OptimusModel(Mesh(sim_2d, 2), cfg, params, checkpoint_activations=True)
    opt_loss = optimus.forward(ids, labels)
    optimus.backward()
    print(f"Optimus (2x2 mesh)    loss = {opt_loss:.6f}   "
          f"(diff vs serial: {abs(opt_loss - ref_loss):.2e})")

    # ------------------------------------------------------------------
    # 3) Megatron on 4 flat devices
    # ------------------------------------------------------------------
    sim_1d = Simulator.for_flat(p=4)
    megatron = MegatronModel(sim_1d, cfg, params, checkpoint_activations=True)
    meg_loss = megatron.forward(ids, labels)
    megatron.backward()
    print(f"Megatron (4 devices)  loss = {meg_loss:.6f}   "
          f"(diff vs serial: {abs(meg_loss - ref_loss):.2e})")

    # gradients agree too — spot-check one weight matrix
    from repro.mesh.partition import assemble_blocked_2d

    g2d = assemble_blocked_2d(optimus.named_parameters()["layer0.mlp.w1"].grad)
    err = np.max(np.abs(g2d - ref_grads["layer0.mlp.w1"]))
    print(f"max |grad difference| on layer0.mlp.w1: {err:.2e}")

    # ------------------------------------------------------------------
    # 4) what did the simulated hardware see?
    # ------------------------------------------------------------------
    rows = []
    for name, sim in (("optimus", sim_2d), ("megatron", sim_1d)):
        d = sim.device(0)
        rows.append(
            [
                name,
                f"{d.flops_gemm:.3e}",
                format_bytes(d.bytes_comm),
                f"{d.comm_time * 1e3:.3f} ms",
                f"{sim.elapsed() * 1e3:.3f} ms",
                format_bytes(sim.peak_memory()),
            ]
        )
    print()
    print(
        format_table(
            ["scheme", "GEMM flops/dev", "bytes comm/dev", "comm time",
             "simulated iter", "peak mem/dev"],
            rows,
            title="Per-device accounting for one training iteration (4 devices)",
        )
    )
    print(
        "\nNote how Optimus moves its data with broadcast/reduce inside SUMMA"
        "\nwhile Megatron pays ring all-reduces on full replicated activations;"
        "\nat this toy scale Megatron is fine — the paper's effects appear at"
        "\nscale (see examples/scaling_study.py)."
    )


if __name__ == "__main__":
    main()
