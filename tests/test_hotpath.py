"""Hot-path machinery (SUMMA plan cache, scratch pool) and the pinned simulated
numbers; host time is measured by ``hostbench/run.py``, never asserted here."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.config import ModelConfig, tiny_config
from repro.core import summa
from repro.core.model import OptimusModel
from repro.experiments.runner import run_megatron_stem, run_optimus_stem
from repro.hybrid.data_parallel import DataParallel
from repro.megatron.model import MegatronModel
from repro.mesh.partition import assemble_blocked_2d, distribute_blocked_2d
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.training.data import BatchStream
from repro.training.optim import SGD
from repro.training.trainer import Trainer
from tests.conftest import make_mesh


def _random_operands(mesh, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = distribute_blocked_2d(mesh, rng.standard_normal((m, k)).astype(np.float32))
    b = distribute_blocked_2d(mesh, rng.standard_normal((k, n)).astype(np.float32))
    return a, b


class TestPlanCache:
    def test_miss_and_hit_charge_identically(self):
        """A planned call charges what building the plan afresh charges:
        miss/hit/hit on one mesh ≡ three misses on another (its cache is
        emptied before every call), bit for bit."""

        def run(drop_plans):
            mesh = make_mesh(2)
            a, b = _random_operands(mesh, 8, 12, 6)
            outs = []

            def call(kernel, x, y):
                if drop_plans:
                    mesh.__dict__.pop("_summa_plans", None)
                outs.append(kernel(mesh, x, y))
                return outs[-1]

            for _ in range(3):
                c = call(summa.summa_ab, a, b)
                call(summa.summa_abt, c, b)
                call(summa.summa_atb, a, c)
            sim = mesh.sim
            state = [
                (
                    d.clock,
                    d.flops,
                    d.bytes_comm,
                    d.weighted_comm_volume,
                    d.compute_time,
                    d.comm_time,
                    d.num_collectives,
                    d.memory.peak,
                )
                for d in sim.devices
            ]
            return outs, state, summa.plan_cache_size(mesh)

        hit, s_hit, n_hit = run(drop_plans=False)
        miss, s_miss, n_miss = run(drop_plans=True)
        assert (n_hit, n_miss) == (3, 1)
        assert s_hit == s_miss
        for t1, t2 in zip(hit, miss):
            assert np.array_equal(assemble_blocked_2d(t1), assemble_blocked_2d(t2))

    def test_cache_populates_and_hits(self):
        mesh = make_mesh(2)
        a, b = _random_operands(mesh, 8, 12, 6)
        assert summa.plan_cache_size(mesh) == 0
        summa.summa_ab(mesh, a, b)
        assert summa.plan_cache_size(mesh) == 1
        summa.summa_ab(mesh, a, b)
        assert summa.plan_cache_size(mesh) == 1  # hit, no new plan
        summa.summa_atb(mesh, a, summa.summa_ab(mesh, a, b))  # new algo
        assert summa.plan_cache_size(mesh) >= 2

    def test_ragged_blocks_get_distinct_plans(self):
        # same global shape, different per-rank block shapes (MoE-style
        # ragged tensors) must not share a plan
        from repro.mesh.dtensor import DTensor
        from repro.mesh.layouts import BLOCKED_2D

        mesh = make_mesh(2)
        rng = np.random.default_rng(0)

        def ragged(rows):
            shards = {}
            r0 = 0
            for i in range(2):
                c0 = 0
                for j in range(2):
                    nrows = rows[i]
                    ncols = 6
                    shards[mesh.rank(i, j)] = rng.standard_normal((nrows, ncols)).astype(np.float32)
                    c0 += ncols
                r0 += rows[i]
            return DTensor(mesh, BLOCKED_2D, shards, (sum(rows), 12))

        b = distribute_blocked_2d(mesh, rng.standard_normal((12, 6)).astype(np.float32))
        c1 = summa.summa_ab(mesh, ragged([3, 9]), b)
        c2 = summa.summa_ab(mesh, ragged([9, 3]), b)  # would crash on stale plan
        assert c1.shards[mesh.rank(0, 0)].shape[0] == 3
        assert c2.shards[mesh.rank(0, 0)].shape[0] == 9


class TestArrayPool:
    def test_acquire_release_reuses_backing(self):
        from repro.core.buffers import ArrayPool

        pool = ArrayPool()
        x = pool.acquire((4, 8), np.float32)
        assert x.shape == (4, 8) and x.dtype == np.float32 and x.flags["C_CONTIGUOUS"]
        pool.release(x)
        y = pool.acquire((8, 4), np.float32)  # same byte class, new shape
        assert pool.stats()["hits"] == 1
        pool.release(y)
        assert pool.stats()["free_buffers"] == 1

    def test_release_of_foreign_array_is_noop(self):
        from repro.core.buffers import ArrayPool

        pool = ArrayPool()
        pool.release(np.zeros(4))  # not pool-owned: must not raise
        assert pool.stats()["free_buffers"] == 0

    def test_summa_reuses_pool_across_calls(self):
        """Operands without a block stack are stacked through the pool."""
        from repro.mesh.dtensor import DTensor

        mesh = make_mesh(2)
        a, b = (
            DTensor(x.owner, x.layout, x.shards, x.global_shape)
            for x in _random_operands(mesh, 8, 12, 6)
        )
        assert a.blocks is None and b.blocks is None
        for _ in range(3):
            summa.summa_ab(mesh, a, b)
        pool = mesh.sim._array_pool
        assert pool.stats()["hits"] > 0
        assert pool.stats()["live"] == 0  # everything released after the call

    def test_stacked_ab_acquires_no_pool_scratch(self):
        mesh = make_mesh(2)
        a, b = _random_operands(mesh, 8, 12, 6)
        assert a.blocks is not None and b.blocks is not None
        for _ in range(3):
            summa.summa_ab(mesh, a, b)
        stats = summa._pool_of(mesh.sim).stats()
        assert stats["hits"] == stats["misses"] == stats["live"] == 0


class TestInstrumentationFlag:
    def test_tracer_toggle_refreshes_is_enabled(self):
        mesh = make_mesh(2)
        sim = mesh.sim
        sim.strict_invariants = False  # may be on via REPRO_STRICT_INVARIANTS
        assert not sim.is_enabled
        sim.tracer.enabled = True
        assert sim.is_enabled
        sim.tracer.enabled = False
        assert not sim.is_enabled

    def test_strict_invariants_toggle_refreshes_is_enabled(self):
        mesh = make_mesh(2)
        sim = mesh.sim
        sim.strict_invariants = True
        assert sim.is_enabled
        sim.strict_invariants = False
        assert not sim.is_enabled


class TestSaveResultPreservation:
    def test_identical_rewrite_is_noop_and_diff_archives(self, tmp_path, monkeypatch):
        import benchmarks.conftest as bc

        monkeypatch.setattr(bc, "RESULTS_DIR", tmp_path)
        bc.save_result("t1", "alpha", metrics={"v": 1})
        assert (tmp_path / "t1.txt").read_text() == "alpha\n"
        mtime = (tmp_path / "t1.txt").stat().st_mtime_ns
        bc.save_result("t1", "alpha", metrics={"v": 1})  # identical: no-op
        assert (tmp_path / "t1.txt").stat().st_mtime_ns == mtime
        assert len(list(tmp_path.glob("t1*.txt"))) == 1
        bc.save_result("t1", "beta", metrics={"v": 2})  # differs: archived
        assert (tmp_path / "t1.txt").read_text() == "beta\n"
        assert len(list(tmp_path.glob("t1*.txt"))) == 2
        assert len(list(tmp_path.glob("t1*.json"))) == 2


def _sim_allocs(sim) -> int:
    return sum(d.memory.num_allocs for d in sim.devices)


def _tiny_trainer(scheme):
    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(cfg, seed=1)
    if scheme == "optimus":
        model = OptimusModel(make_mesh(2), cfg, params)
    else:
        model = MegatronModel(Simulator.for_flat(2), cfg, params)
    batches = BatchStream.copy_task(cfg, 4, seed=0)
    return Trainer(model, SGD(model.parameters(), lr=0.1), batches)


class TestPinnedSimulatedNumbers:
    """Exact simulated clock / allocation counts of fixed workloads: any
    change to the cost model, a kernel's charge order or buffer handling
    moves one of these literals and has to say so."""

    def test_collectives(self):
        sim = Simulator.for_flat(4)
        group = ProcessGroup(sim, sim.ranks)
        rng = np.random.default_rng(0)
        xs = {r: rng.standard_normal((64, 64)).astype(np.float32) for r in group.ranks}
        root = group.ranks[0]
        for _ in range(150):
            coll.broadcast(group, xs[root], root)
            coll.reduce(group, xs, root)
            coll.all_reduce(group, xs)
            coll.all_gather(group, xs, axis=0)
            coll.reduce_scatter(group, xs, axis=0)
        assert (sim.elapsed(), _sim_allocs(sim)) == (0.014228705882352949, 0)

    @pytest.mark.parametrize("kernel", [summa.summa_ab, summa.summa_abt, summa.summa_atb])
    def test_summa(self, kernel):
        mesh = make_mesh(2)
        a, b = _random_operands(mesh, 64, 64, 64)
        for _ in range(100):
            kernel(mesh, a, b)
        assert (mesh.sim.elapsed(), _sim_allocs(mesh.sim)) == (0.0021632280859010416, 0)

    @pytest.mark.parametrize(
        "scheme, clock, allocs, peak",
        [
            ("optimus", 0.00825295827450986, 236, 143232),
            ("megatron", 0.0013268439843137304, 110, 251328),
        ],
    )
    def test_seven_train_steps(self, scheme, clock, allocs, peak):
        trainer = _tiny_trainer(scheme)
        trainer.train_steps(7)
        sim = trainer.sim
        assert (sim.elapsed(), _sim_allocs(sim), sim.peak_memory()) == (clock, allocs, peak)

    @pytest.mark.parametrize(
        "stem, kw, sim_time, peak, seq_per_s",
        [
            (run_optimus_stem, {"q": 4}, 0.23394513606872105, 77647872, 34.19605183691449),
            (run_megatron_stem, {"p": 16}, 0.20449151624126966, 189897728, 39.121427367975436),
        ],
    )
    def test_stem(self, stem, kw, sim_time, peak, seq_per_s):
        cfg = ModelConfig(
            vocab_size=32000, hidden_size=1024, num_heads=16, num_layers=4, seq_len=512
        )
        res = stem(cfg, batch_size=8, **kw)
        assert res.forward_time + res.backward_time == sim_time
        assert (res.peak_memory_bytes, res.throughput) == (peak, seq_per_s)


@pytest.mark.parametrize("scheme", ["optimus", "megatron", "hybrid"])
def test_param_grad_region_is_reused_across_steps(scheme):
    """§3.2.3: ``param_grad`` is one reused region — a multi-step run must
    not grow the managed arena, under ``Trainer`` or (hybrid) a hand-written
    loop that bypasses it."""
    if scheme == "hybrid":
        cfg = tiny_config(num_layers=2)
        dp = DataParallel.build(num_replicas=2, q=2, cfg=cfg, seed=1)
        ids, labels = next(BatchStream.copy_task(cfg, 8, seed=0))
        sim = dp.sim

        def run(steps):
            for _ in range(steps):
                dp.zero_grads()
                dp.forward_backward(ids, labels)
    else:
        trainer = _tiny_trainer(scheme)
        sim, run = trainer.sim, trainer.train_steps
    footprints = []
    for steps in (1, 3):
        run(steps)
        grads = [d.memory.by_tag["buffer:param_grad"] for d in sim.devices]
        footprints.append((sim.peak_memory(), grads, _sim_allocs(sim)))
    assert footprints[0] == footprints[1]


@pytest.mark.parametrize(
    "stem, small, large, growth",
    [
        (run_optimus_stem, {"q": 2}, {"q": 4}, 2.0),
        (run_megatron_stem, {"p": 2}, {"p": 4}, 1.25),
    ],
)
def test_dryrun_shape_math_is_derived_once_not_per_rank(monkeypatch, stem, small, large, growth):
    """"Derive once, charge p times" as a count that repeats exactly: 4× the
    ranks must not mean 4× the placeholders.  What still grows with p is the
    parameter blocks (one per rank) and the per-group collective results
    (before ``rank_map``: Optimus 2 242 → 11 450, Megatron 824 → 1 632)."""
    from repro.backend.shape_array import ShapeArray

    built = []
    real_init = ShapeArray.__init__

    def counting_init(self, *args, **kw):
        built[-1] += 1
        real_init(self, *args, **kw)

    monkeypatch.setattr(ShapeArray, "__init__", counting_init)
    for kw in (small, large):
        built.append(0)
        stem(tiny_config(num_heads=4), batch_size=8, **kw)
    assert 0 < built[1] <= growth * built[0], built


# the simulated compute events ("compute" trace records) of each decode step,
# counted as SimDevice.compute calls before the paged rewrite and before the
# bulk charges: attention is still charged rank × lane × (gemm, gemm, softmax)
_DECODE_CHARGES = {
    "optimus": [208, 232, 232, 232, 208, 208, 184, 184, 184, 184, 184, 184, 184, 184],
    "megatron": [136, 136, 160, 160, 136, 136, 112, 112, 112, 112, 112, 112, 112, 112, 112],
}


def _counted(counts, key, fn):
    """``fn``, counting its calls in ``counts[key]``."""

    def wrapper(*args, **kw):
        counts[key] += 1
        return fn(*args, **kw)

    return wrapper


@pytest.mark.parametrize("scheme", ["optimus", "megatron"])
def test_decode_step_attends_once_per_shard_group_and_charges_per_lane(monkeypatch, scheme):
    """Host work per step is one attention call per shard group per layer,
    no per-lane ``gather`` and (Megatron, whose norms are replicated math)
    one ``layernorm_fwd`` per norm, not per rank; the simulated charge
    sequence is per rank per lane, as it always was."""
    from repro.reference import functional as F
    from repro.serving import engine as serving_engine
    from repro.serving.kvcache import ShardedKVCache
    from repro.serving.traffic import Request

    calls = {"kernel": 0, "gather": 0, "layernorm": 0}
    monkeypatch.setattr(
        serving_engine,
        "decode_attention_fwd",
        _counted(calls, "kernel", serving_engine.decode_attention_fwd),
    )
    monkeypatch.setattr(ShardedKVCache, "gather", _counted(calls, "gather", ShardedKVCache.gather))
    monkeypatch.setattr(F, "layernorm_fwd", _counted(calls, "layernorm", F.layernorm_fwd))

    cfg = tiny_config(num_heads=4)
    eng = serving_engine.make_engine(scheme, cfg, init_transformer_params(cfg, seed=1), 2, 8, 8, 16)
    eng.sim.tracer.enabled = True
    per_step = []
    step = type(eng).step

    def computes():
        return len(eng.sim.tracer.of_kind("compute"))

    def watched(self, entries):
        before = dict(calls, compute=computes())
        out = step(self, entries)
        now = dict(calls, compute=computes())
        per_step.append({k: now[k] - before[k] for k in now})
        return out

    monkeypatch.setattr(type(eng), "step", watched)
    specs = [(0.0, (5, 11, 23), 4), (0.0, (40, 1), 3), (0.0002, (7, 7, 7, 9, 13, 2, 30, 19, 44), 5)]
    eng.run([Request(rid=i, arrival=a, prompt=p, max_new=m) for i, (a, p, m) in enumerate(specs)])

    assert [s["compute"] for s in per_step] == _DECODE_CHARGES[scheme]
    assert all(s["gather"] == 0 for s in per_step)
    if scheme == "megatron":
        assert {s["layernorm"] for s in per_step} == {2 * cfg.num_layers + 1}
    budget = len(eng.rows) * cfg.num_layers
    assert all(0 < s["kernel"] <= budget for s in per_step)
    # a mesh row whose slots are all idle runs padding lanes only: no call
    assert scheme == "megatron" or any(s["kernel"] < budget for s in per_step)


@pytest.mark.parametrize("p", [4, 16])
def test_megatron_replicated_layernorm_runs_once_per_group_not_per_rank(monkeypatch, p):
    """hostbench's ``train_numeric`` model: 4 layers × 2 norms × (forward +
    checkpoint recompute) + the final norm = 17 forward kernels and 9
    backward, whatever p is (per rank it was 272 / 144 at p = 16)."""
    from repro.reference import functional as F
    from repro.training.optim import Adam

    cfg = ModelConfig(
        vocab_size=3200,
        hidden_size=128,
        num_heads=16,
        num_layers=4,
        seq_len=32,
        dtype="float64",
    )
    params = init_transformer_params(cfg, seed=0, dtype="float64")
    model = MegatronModel(Simulator.for_flat(p), cfg, params)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=1e-3), BatchStream.copy_task(cfg, 8, seed=0)
    )
    counts = {"fwd": 0, "bwd": 0}
    # the layers look both up on the module at call time
    monkeypatch.setattr(F, "layernorm_fwd", _counted(counts, "fwd", F.layernorm_fwd))
    monkeypatch.setattr(F, "layernorm_bwd", _counted(counts, "bwd", F.layernorm_bwd))
    trainer.train_steps(1)
    assert counts == {"fwd": 17, "bwd": 9}
