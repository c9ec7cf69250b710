"""The pinned benchmark suite.

Micro benchmarks isolate one subsystem (collectives, each SUMMA kernel, one
numeric training step per scheme, instrumentation overhead); macro
benchmarks run a Table-1-class dryrun stem.  Every workload is pinned —
fixed sizes, fixed seeds, fixed iteration counts — so wall-clock is
comparable across commits.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.core import bench
from repro.config import ModelConfig, tiny_config
from repro.core import summa

_STEM_CFG = ModelConfig(
    vocab_size=32000, hidden_size=1024, num_heads=16, num_layers=4, seq_len=512
)


def _sim_stats(sim) -> dict:
    return {
        "sim_time": sim.elapsed(),
        "sim_allocs": sum(d.memory.num_allocs for d in sim.devices),
    }


def _flat_group(p: int):
    from repro.comm.group import ProcessGroup
    from repro.runtime.simulator import Simulator

    sim = Simulator.for_flat(p)
    return sim, ProcessGroup(sim, sim.ranks, kind="bench")


# ----------------------------------------------------------------------
# micro
# ----------------------------------------------------------------------
@bench("micro/collectives", repeats=5)
def collectives_bench() -> dict:
    from repro.comm import collectives as coll

    sim, group = _flat_group(4)
    rng = np.random.default_rng(0)
    xs = {r: rng.standard_normal((64, 64)).astype(np.float32) for r in group.ranks}
    root = group.ranks[0]
    for _ in range(150):
        coll.broadcast(group, xs[root], root)
        coll.reduce(group, xs, root)
        coll.all_reduce(group, xs)
        coll.all_gather(group, xs, axis=0)
        coll.reduce_scatter(group, xs, axis=0)
    return _sim_stats(sim)


def _summa_setup(q: int = 2, n: int = 64):
    from repro.mesh.mesh import Mesh
    from repro.mesh.partition import distribute_blocked_2d
    from repro.runtime.simulator import Simulator

    sim = Simulator.for_mesh(q)
    mesh = Mesh(sim, q)
    rng = np.random.default_rng(0)
    a = distribute_blocked_2d(mesh, rng.standard_normal((n, n)).astype(np.float32))
    b = distribute_blocked_2d(mesh, rng.standard_normal((n, n)).astype(np.float32))
    return sim, mesh, a, b


def _summa_kernel(kernel_name: str) -> dict:
    sim, mesh, a, b = _summa_setup()
    kernel = getattr(summa, kernel_name)
    for _ in range(100):
        kernel(mesh, a, b)
    stats = _sim_stats(sim)
    stats["pool_hits"] = summa._pool_of(sim).stats()["hits"]
    return stats


@bench("micro/summa_ab", repeats=5)
def summa_ab_bench() -> dict:
    return _summa_kernel("summa_ab")


@bench("micro/summa_abt", repeats=5)
def summa_abt_bench() -> dict:
    return _summa_kernel("summa_abt")


@bench("micro/summa_atb", repeats=5)
def summa_atb_bench() -> dict:
    return _summa_kernel("summa_atb")


def _train_steps(scheme: str, steps: int = 6) -> dict:
    from repro.nn.init import init_transformer_params
    from repro.runtime.simulator import Simulator
    from repro.training import SGD, Trainer, copy_task_batch

    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(cfg, seed=1)
    if scheme == "optimus":
        from repro.core.model import OptimusModel
        from repro.mesh.mesh import Mesh

        sim = Simulator.for_mesh(2)
        model = OptimusModel(Mesh(sim, 2), cfg, params)
    else:
        from repro.megatron.model import MegatronModel

        sim = Simulator.for_flat(2)
        model = MegatronModel(sim, cfg, params)

    def batches():
        k = 0
        while True:
            yield copy_task_batch(cfg, 4, seed=k)
            k += 1

    trainer = Trainer(model, SGD(model.parameters(), lr=0.1), batches())
    trainer.train_steps(1)  # warm-up: JIT-free but caches/pools fill here
    t0 = time.perf_counter()
    trainer.train_steps(steps)
    wall = time.perf_counter() - t0
    return {"wall_time": wall / steps, **_sim_stats(sim)}


@bench("micro/optimus_step", repeats=5)
def optimus_step_bench() -> dict:
    return _train_steps("optimus")


@bench("micro/megatron_step", repeats=5)
def megatron_step_bench() -> dict:
    return _train_steps("megatron")


@bench("micro/instrumentation", repeats=5)
def instrumentation_bench() -> dict:
    """Disabled-mode instrumentation overhead, measured (not asserted).

    Times the same SUMMA workload with all checking/tracing off and with
    span tracing on; ``overhead_ratio`` is traced/off.  The "off" arm is
    what every production run pays for the ``sim.is_enabled`` guards.
    """

    def run(trace: bool) -> float:
        sim, mesh, a, b = _summa_setup()
        sim.tracer.enabled = trace
        t0 = time.perf_counter()
        for _ in range(80):
            summa.summa_ab(mesh, a, b)
        return time.perf_counter() - t0

    run(False)  # warm
    off = run(False)
    traced = run(True)
    return {
        "wall_time": off,
        "traced_wall": traced,
        "overhead_ratio": traced / off if off else float("inf"),
    }


# ----------------------------------------------------------------------
# macro
# ----------------------------------------------------------------------
@bench("macro/optimus_stem")
def optimus_stem_bench() -> dict:
    from repro.experiments.runner import run_optimus_stem

    res = run_optimus_stem(_STEM_CFG, q=4, batch_size=8)
    return {
        "sim_time": res.forward_time + res.backward_time,
        "throughput_seq_per_s": res.throughput,
        "peak_sim_memory_bytes": res.peak_memory_bytes,
    }


@bench("macro/megatron_stem")
def megatron_stem_bench() -> dict:
    from repro.experiments.runner import run_megatron_stem

    res = run_megatron_stem(_STEM_CFG, p=16, batch_size=8)
    return {
        "sim_time": res.forward_time + res.backward_time,
        "throughput_seq_per_s": res.throughput,
        "peak_sim_memory_bytes": res.peak_memory_bytes,
    }
