"""Extension experiment — hybrid data × tensor parallel scaling.

Weak scaling over the *data-parallel* dimension: R replicas of a 2×2
Optimus mesh, constant per-replica batch.  Ideal scaling doubles throughput
with R; the deviation is the per-step gradient all-reduce across replicas
(whose cost grows with R and with the parameter count, not the batch), i.e.
the classic data-parallel efficiency story stacked on top of the paper's
tensor parallelism.
"""

import pytest

from benchmarks.conftest import save_result
from repro.backend.shape_array import ShapeArray
from repro.config import ModelConfig
from repro.hybrid.data_parallel import DataParallel
from repro.utils.tables import format_table

CFG = ModelConfig(
    vocab_size=25600, hidden_size=1024, num_heads=16, num_layers=6, seq_len=256
)
PER_REPLICA_BATCH = 8


def _run(R: int):
    dp = DataParallel.build(R, 2, CFG, backend="shape")
    b = PER_REPLICA_BATCH * R
    ids = ShapeArray((b, CFG.seq_len), "int64")
    dp.forward_backward(ids, ids)
    t = dp.sim.elapsed()
    return {"replicas": R, "batch": b, "time": t, "throughput": b / t}


@pytest.fixture(scope="module")
def results():
    return [_run(R) for R in (1, 2, 4)]


def test_benchmark_hybrid(benchmark, results):
    benchmark.pedantic(lambda: _run(2), rounds=1, iterations=1)
    base = results[0]["throughput"]
    rows = [
        [r["replicas"], 4 * r["replicas"], r["batch"], r["time"], r["throughput"],
         f"{r['throughput'] / (base * r['replicas']):.1%}"]
        for r in results
    ]
    save_result(
        "hybrid_scaling",
        format_table(
            ["replicas", "devices", "batch", "iter (s)", "seq/s", "DP efficiency"],
            rows,
            title="Hybrid data x tensor parallel weak scaling (2x2 mesh per replica)",
        ),
    )


def test_throughput_scales_with_replicas(results):
    thr = [r["throughput"] for r in results]
    assert thr[0] < thr[1] < thr[2]


def test_dp_efficiency_reasonable_and_decaying(results):
    base = results[0]["throughput"]
    effs = [r["throughput"] / (base * r["replicas"]) for r in results]
    assert effs[0] == pytest.approx(1.0)
    assert effs[2] <= effs[1] <= 1.0 + 1e-9  # sync cost grows with R
    assert effs[2] > 0.5  # but stays a win
