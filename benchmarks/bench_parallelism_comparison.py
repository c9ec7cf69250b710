"""Extension experiment — the three parallelism families side by side.

The paper's §1 surveys pipeline parallelism (GPipe/PipeDream) and 1D tensor
parallelism (Megatron) before proposing 2D.  With all three implemented on
the same simulated cluster, we can run the comparison the paper implies:
identical model, identical device count, one training iteration each.

Expected shape: on a single node (p=4, fast interconnect) tensor
parallelism wins — the pipeline pays its (S−1)/(m+S−1) bubble; pipeline
memory is the lowest (only 1/S of the layers per device plus in-flight
micro-batches); across nodes the pipeline's tiny point-to-point traffic
makes it competitive where all-reduce-heavy Megatron suffers.
"""

import pytest

from benchmarks.conftest import save_result
from repro.backend.shape_array import ShapeArray
from repro.config import ModelConfig
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.pipeline.engine import PipelineModel
from repro.pipeline.schedule import bubble_fraction
from repro.runtime.simulator import Simulator
from repro.utils.tables import format_bytes, format_table

CFG = ModelConfig(
    vocab_size=51200, hidden_size=2048, num_heads=32, num_layers=8, seq_len=512
)
BATCH = 16
MICRO = 8


def _run(kind: str):
    params = init_transformer_params(CFG, backend="shape", dtype="float32")
    ids = ShapeArray((BATCH, CFG.seq_len), "int64")
    labels = ShapeArray((BATCH, CFG.seq_len), "int64")
    if kind == "optimus":
        sim = Simulator.for_mesh(q=2, backend="shape")
        model = OptimusModel(Mesh(sim, 2), CFG, params)
        model.forward(ids, labels)
        model.backward()
    elif kind == "megatron":
        sim = Simulator.for_flat(p=4, backend="shape")
        model = MegatronModel(sim, CFG, params)
        model.forward(ids, labels)
        model.backward()
    else:  # pipeline variants: "pipeline_gpipe" / "pipeline_1f1b"
        sim = Simulator.for_flat(p=4, backend="shape")
        model = PipelineModel(
            sim, CFG, params, num_micro_batches=MICRO,
            schedule=kind.split("_")[1],
        )
        model.forward_backward(ids, labels)
    d0 = sim.device(0)
    return {
        "time": sim.elapsed(),
        "peak": sim.peak_memory(),
        "comm_time": max(d.comm_time for d in sim.devices),
        "compute_time": max(d.compute_time for d in sim.devices),
    }


@pytest.fixture(scope="module")
def results():
    return {k: _run(k) for k in ("optimus", "megatron", "pipeline_gpipe", "pipeline_1f1b")}


def test_benchmark_comparison(benchmark, results):
    benchmark.pedantic(lambda: _run("pipeline_1f1b"), rounds=1, iterations=1)
    rows = [
        [
            name,
            r["time"],
            BATCH / r["time"],
            r["compute_time"],
            r["comm_time"],
            format_bytes(r["peak"]),
        ]
        for name, r in results.items()
    ]
    out = format_table(
        ["scheme", "iter (s)", "seq/s", "compute (s)", "comm (s)", "peak/device"],
        rows,
        title=f"Parallelism families on 4 devices (h={CFG.hidden_size}, "
        f"N={CFG.num_layers}, b={BATCH})",
    )
    out += (
        f"\npipeline bubble fraction at S=4, m={MICRO}: "
        f"{bubble_fraction(4, MICRO):.3f}"
    )
    save_result("parallelism_comparison", out)


def test_tensor_parallel_beats_pipeline_on_one_node(results):
    """Intra-node bandwidth is cheap; the pipeline bubble is not."""
    for pipe in ("pipeline_gpipe", "pipeline_1f1b"):
        assert results["megatron"]["time"] < results[pipe]["time"]


def test_pipeline_has_lowest_parameter_memory(results):
    """Each pipeline stage holds 1/S of the layers (plus the embedding on
    the boundary stages), so its peak sits below the tensor-parallel runs
    at this scale."""
    assert results["pipeline_1f1b"]["peak"] < results["megatron"]["peak"]


def test_1f1b_no_slower_than_gpipe(results):
    assert results["pipeline_1f1b"]["time"] <= results["pipeline_gpipe"]["time"] * 1.02


def test_pipeline_comm_is_negligible(results):
    """Point-to-point activation hand-off ≪ all-reduce/broadcast traffic."""
    assert results["pipeline_1f1b"]["comm_time"] < results["megatron"]["comm_time"]
    assert results["pipeline_1f1b"]["comm_time"] < results["optimus"]["comm_time"]
