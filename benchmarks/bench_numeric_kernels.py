"""Wall-clock benchmarks of the numeric (real-data) execution paths.

These measure the *reproduction's own* performance — SUMMA on real numpy
shards vs a plain matmul, and a full distributed training step — so
regressions in the simulator's Python overhead are caught.
"""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.core.summa import summa_ab
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.mesh.partition import distribute_blocked_2d
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD


@pytest.fixture(scope="module")
def mesh():
    sim = Simulator.for_mesh(q=2)
    return Mesh(sim, 2)


def test_benchmark_summa_ab_numeric(benchmark, mesh):
    rng = np.random.default_rng(0)
    a = distribute_blocked_2d(mesh, rng.normal(size=(128, 128)))
    b = distribute_blocked_2d(mesh, rng.normal(size=(128, 128)))
    benchmark(lambda: summa_ab(mesh, a, b))


def test_benchmark_optimus_training_step(benchmark):
    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(cfg, seed=1)
    sim = Simulator.for_mesh(q=2)
    model = OptimusModel(Mesh(sim, 2), cfg, params)
    opt = SGD(model.parameters(), lr=0.1)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))

    def step():
        opt.zero_grad()
        model.forward(ids, labels)
        model.backward()
        opt.step()

    benchmark(step)


def test_benchmark_megatron_training_step(benchmark):
    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(cfg, seed=1)
    sim = Simulator.for_flat(p=3)
    model = MegatronModel(sim, cfg, params)
    opt = SGD(model.parameters(), lr=0.1)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))

    def step():
        opt.zero_grad()
        model.forward(ids, labels)
        model.backward()
        opt.step()

    benchmark(step)


def test_benchmark_dryrun_stem_layer(benchmark):
    """Throughput of the shape-backend simulation itself (per layer)."""
    from repro.config import ModelConfig
    from repro.experiments.runner import run_optimus_stem

    cfg = ModelConfig(
        vocab_size=51200, hidden_size=8192, num_heads=128, num_layers=1, seq_len=512
    )
    benchmark.pedantic(
        lambda: run_optimus_stem(cfg, q=8, batch_size=384), rounds=1, iterations=1
    )
