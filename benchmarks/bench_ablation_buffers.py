"""Ablation A1 — the §3.2.3 memory-management techniques.

Quantifies each design choice DESIGN.md calls out:

1. managed arenas vs per-tensor allocation → allocator-event count (the
   fragmentation-pressure proxy the paper's pre-allocation removes);
2. merging the forward and backward buffers (§3.2.3 option 1) → peak bytes;
3. distributed vs replicated activation checkpoints (Megatron baseline,
   §3.1.1) → peak bytes;
4. checkpointing on/off → peak bytes vs backward time (the classic
   compute-for-memory trade of [Chen et al. 2016]).
"""

import pytest

from benchmarks.conftest import save_result
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.utils.tables import format_bytes, format_table

CFG = ModelConfig(
    vocab_size=51200, hidden_size=2048, num_heads=32, num_layers=8, seq_len=512
)
BATCH = 16


def _run_optimus(managed=True, merge=False, checkpoint=True, fused=False, skip=False):
    sim = Simulator.for_mesh(q=2, backend="shape")
    mesh = Mesh(sim, 2)
    params = init_transformer_params(
        CFG, backend="shape", dtype="float32", include_embedding=False
    )
    buffers = BufferManager(
        sim, ranks=mesh.ranks, managed=managed, merge_fwd_bwd=merge,
        skip_matmul_outputs=skip,
    )
    model = OptimusModel(
        mesh, CFG, params, checkpoint_activations=checkpoint,
        buffers=buffers, stem_only=True, fused_attention=fused,
    )
    model.stem_forward(BATCH)
    fwd = sim.elapsed()
    model.stem_backward()
    dev = sim.device(0)
    return {
        "peak": dev.memory.peak,
        "allocs": dev.memory.num_allocs,
        "fwd_time": fwd,
        "bwd_time": sim.elapsed() - fwd,
    }


@pytest.fixture(scope="module")
def results():
    out = {
        "managed": _run_optimus(managed=True),
        "unmanaged": _run_optimus(managed=False),
        "merged": _run_optimus(managed=True, merge=True),
        "no_ckpt": _run_optimus(checkpoint=False),
        "fused_attention": _run_optimus(fused=True),
        "skip_matmul_outputs": _run_optimus(skip=True),
    }
    sim = Simulator.for_flat(p=4, backend="shape")
    params = init_transformer_params(
        CFG, backend="shape", dtype="float32", include_embedding=False
    )
    for layout in ("distributed", "replicated"):
        model = MegatronModel(
            sim_ := Simulator.for_flat(p=4, backend="shape"), CFG, params,
            checkpoint_layout=layout, stem_only=True,
        )
        model.stem_forward(BATCH)
        model.stem_backward()
        out[f"megatron_{layout}_ckpt"] = {
            "peak": sim_.device(0).memory.peak,
            "allocs": sim_.device(0).memory.num_allocs,
            "fwd_time": 0.0,
            "bwd_time": 0.0,
        }
    return out


def test_benchmark_ablation(benchmark, results):
    benchmark.pedantic(_run_optimus, rounds=1, iterations=1)
    rows = [
        [name, format_bytes(r["peak"]), r["allocs"], r["fwd_time"], r["bwd_time"]]
        for name, r in results.items()
    ]
    save_result(
        "ablation_buffers",
        format_table(
            ["variant", "peak/device", "alloc events", "fwd (s)", "bwd (s)"],
            rows,
            title="Ablation — §3.2.3 memory management techniques",
        ),
    )


def test_managed_buffers_slash_allocator_traffic(results):
    """The paper's systematic buffering: same peak, far less allocator churn
    (the residual events are parameter materialization + arena growth)."""
    assert results["managed"]["allocs"] * 3 < results["unmanaged"]["allocs"]
    # arenas retain their high-water capacity where per-tensor allocation
    # frees exactly, so managed sits a few percent above — the price of the
    # paper's anti-fragmentation guarantee
    assert results["managed"]["peak"] == pytest.approx(
        results["unmanaged"]["peak"], rel=0.10
    )


def test_merged_fwd_bwd_buffer_is_peak_neutral_under_checkpointing(results):
    """Measured finding: with checkpointing, recomputed-forward and backward
    tensors are live together, so arena-level merging (§3.2.3 option 1)
    cannot reduce the peak — slot-level reuse (option 3) is what helps."""
    assert results["merged"]["peak"] == pytest.approx(results["managed"]["peak"], rel=0.02)


def test_skip_matmul_outputs_saves_memory(results):
    """§3.2.3 option 3: not re-buffering matmul outputs during recompute."""
    assert results["skip_matmul_outputs"]["peak"] < results["managed"]["peak"]


def test_checkpointing_trades_compute_for_memory(results):
    assert results["managed"]["peak"] < results["no_ckpt"]["peak"]
    assert results["managed"]["bwd_time"] > results["no_ckpt"]["bwd_time"]


def test_fused_attention_trades_compute_for_memory(results):
    """§6 operation fusion: lower peak (no [b,n,s,s] probs), slightly more
    backward compute (the per-chunk recompute GEMM)."""
    assert results["fused_attention"]["peak"] < results["managed"]["peak"]
    assert results["fused_attention"]["bwd_time"] >= results["managed"]["bwd_time"]


def test_distributed_checkpoints_save_memory(results):
    assert (
        results["megatron_distributed_ckpt"]["peak"]
        < results["megatron_replicated_ckpt"]["peak"]
    )
