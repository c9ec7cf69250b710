"""``replica_map``: rank-local math on ``REPLICATED_1D`` operands is evaluated
once and shared read-only — and whole Megatron runs cannot tell it from the
per-rank ``rank_map`` loop, bit for bit."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.comm.group import ProcessGroup
from repro.config import tiny_config
from repro.megatron import cls_head as megatron_cls_head
from repro.megatron import layers as megatron_layers
from repro.megatron.model import MegatronModel
from repro.mesh import dtensor, rank_map, replica_map
from repro.mesh.layouts import REPLICATED_1D
from repro.mesh.partition import distribute_replicated_1d
from repro.nn.init import init_transformer_params
from repro.resilience.faults import FaultSchedule
from repro.resilience.injector import FaultInjector
from repro.runtime.simulator import Simulator
from repro.serving.report import DEFAULTS, PARAM_SEED, run_arm
from repro.serving.traffic import TrafficGenerator
from repro.training import SGD, BatchStream, Trainer


def per_rank(fn, group, *shard_dicts):
    """What every converted site did before: the plain per-rank loop."""
    return rank_map(fn, group.ranks, *shard_dicts)


def _force_per_rank(monkeypatch):
    for module in (dtensor, megatron_layers, megatron_cls_head):
        monkeypatch.setattr(module, "replica_map", per_rank)


@pytest.fixture
def group():
    sim = Simulator.for_flat(4)
    return ProcessGroup(sim, (2, 0, 3, 1))


def _replicas(group, a):
    return {r: a.copy() for r in group.ranks}


def _spy(calls, fn):
    def spied(*args):
        calls.append(args)
        return fn(*args)

    return spied


class TestOneEvaluation:
    def test_fn_runs_once_on_the_first_ranks_replicas(self, group, rng):
        xs, ys = _replicas(group, rng.normal(size=(3, 2))), _replicas(group, rng.normal(size=(2,)))
        calls = []
        got = replica_map(_spy(calls, lambda x, y: x + y), group, xs, ys)
        first = group.ranks[0]
        assert len(calls) == 1 and calls[0][0] is xs[first] and calls[0][1] is ys[first]
        assert tuple(got) == group.ranks
        assert all(got[r] is got[first] for r in group.ranks)
        np.testing.assert_array_equal(got[first], xs[first] + ys[first])

    def test_results_are_read_only_through_tuples_and_operands_stay_writable(self, group, rng):
        xs = _replicas(group, rng.normal(size=(3, 2)))
        before = {r: x.copy() for r, x in xs.items()}
        got = replica_map(lambda x: (x * 2, x.sum(axis=0)), group, xs)
        doubled, sums = got[group.ranks[-1]]
        for arr in (doubled, sums):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        for r in group.ranks:
            assert xs[r].flags.writeable
            np.testing.assert_array_equal(xs[r], before[r])

    @pytest.mark.parametrize("fn", [lambda x: x, lambda x: (x.sum(), x)], ids=["bare", "in-tuple"])
    def test_an_fn_that_returns_its_operand_freezes_nothing(self, group, rng, fn):
        xs = _replicas(group, rng.normal(size=(3,)))
        got = replica_map(fn, group, xs)
        for r in group.ranks:
            out = got[r][1] if isinstance(got[r], tuple) else got[r]
            assert out is xs[r] and out.flags.writeable

    def test_a_dtensor_map_that_hands_shards_back_keeps_them_owned(self, group, rng):
        dt = distribute_replicated_1d(group, rng.normal(size=(3,)))
        same = dt.map(np.asarray)  # no copy: the shard itself
        assert all(same.local(r) is dt.local(r) for r in group.ranks)
        assert all(dt.local(r).flags.writeable for r in group.ranks)
        cast = dt.astype("float32")
        assert not cast.local(0).flags.writeable and cast.local(0) is cast.local(3)


class TestPerRankCases:
    def test_placeholders_take_rank_map(self, group):
        xs = {r: ShapeArray((4, 3), "float32") for r in group.ranks}
        calls = []
        got = replica_map(_spy(calls, lambda x: x.T), group, xs)
        assert len(calls) == 1  # rank_map's own sharing by signature
        assert tuple(got) == group.ranks and got[0].shape == (3, 4)

    def test_a_one_rank_group_takes_rank_map(self, rng):
        solo = ProcessGroup(Simulator.for_flat(1), (0,))
        got = replica_map(lambda x: x * 2, solo, {0: rng.normal(size=(2,))})
        assert got[0].flags.writeable

    def test_an_armed_injector_takes_rank_map(self, group, rng):
        xs = _replicas(group, rng.normal(size=(3,)))
        injector = FaultInjector(FaultSchedule()).install(group.sim)
        calls = []
        got = replica_map(_spy(calls, lambda x: x * 2), group, xs)
        assert len(calls) == len(group.ranks) and tuple(got) == group.ranks
        assert len({id(v) for v in got.values()}) == len(group.ranks)
        assert all(v.flags.writeable for v in got.values())
        injector.uninstall()
        shared = replica_map(lambda x: x * 2, group, xs)
        assert shared[0] is shared[1]


class TestDTensorRouting:
    def test_replicated_elementwise_math_is_shared_and_sharded_is_not(self, group, rng):
        from repro.mesh.partition import distribute_sharded_1d

        rep = distribute_replicated_1d(group, rng.normal(size=(4, 4)))
        total = rep + rep * 2.0
        assert total.layout == REPLICATED_1D
        assert all(total.local(r) is total.local(0) for r in group.ranks)
        assert not total.local(0).flags.writeable
        np.testing.assert_array_equal(total.local(0), rep.local(0) + rep.local(0) * 2.0)
        sh = distribute_sharded_1d(group, rng.normal(size=(4, 4)), axis=1)
        assert len({id(s) for s in (sh + sh).shards.values()}) == 4

    def test_copy_and_zeros_like_hand_out_owned_buffers(self, group, rng):
        rep = distribute_replicated_1d(group, rng.normal(size=(4,)))
        shared = rep * 2.0
        for fresh in (shared.copy(), shared.zeros_like(), rep.copy()):
            bufs = list(fresh.shards.values())
            assert len({id(b) for b in bufs}) == 4 and all(b.flags.writeable for b in bufs)
            bufs[0][0] = 7.0
            assert bufs[1][0] != 7.0


# ----------------------------------------------------------------------
# whole runs: shared versus forced per-rank
# ----------------------------------------------------------------------
def _train(p, checkpoint, monkeypatch=None):
    if monkeypatch is not None:
        _force_per_rank(monkeypatch)
    cfg = tiny_config(num_layers=2, num_heads=4)
    sim = Simulator.for_flat(p)
    sim.tracer.enabled = True
    model = MegatronModel(
        sim, cfg, init_transformer_params(cfg, seed=1), checkpoint_activations=checkpoint
    )
    trainer = Trainer(model, SGD(model.parameters(), lr=0.1), BatchStream.copy_task(cfg, 4, seed=0))
    losses = list(trainer.train_steps(2).losses)
    params = model.parameters()
    return {
        "losses": losses,
        "grads": {q.name: dict(q.grad.shards) for q in params},
        "data": {q.name: dict(q.data.shards) for q in params},
        "watermarks": sim.watermarks(),
        "events": list(sim.tracer.events),
    }


def _some_grad_is_shared(run) -> bool:
    return any(len({id(s) for s in g.values()}) < len(g) for g in run["grads"].values())


def _assert_shards_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].keys() == want[name].keys(), name
        for rank, shard in want[name].items():
            assert np.array_equal(got[name][rank], shard), (name, rank)


@pytest.mark.parametrize("checkpoint", [True, False], ids=["ckpt", "no-ckpt"])
@pytest.mark.parametrize("p", [2, 4])
def test_train_steps_are_bit_identical_to_the_per_rank_run(monkeypatch, p, checkpoint):
    shared = _train(p, checkpoint)
    naive = _train(p, checkpoint, monkeypatch)
    assert shared["losses"] == naive["losses"]
    _assert_shards_equal(shared["grads"], naive["grads"])
    _assert_shards_equal(shared["data"], naive["data"])
    # the patch really forced the loop: only the shared run aliases replicas
    assert _some_grad_is_shared(shared) and not _some_grad_is_shared(naive)
    assert shared["watermarks"] == naive["watermarks"]
    assert shared["events"] == naive["events"]


def test_serve_report_is_identical_to_the_per_rank_run(monkeypatch):
    cfg = tiny_config(num_heads=4)
    params = init_transformer_params(cfg, seed=PARAM_SEED)
    knobs = {k: DEFAULTS[k] for k in ("q", "slots", "block_size", "blocks", "slo_ttft", "slo_tpot")}

    def arm():
        requests = TrafficGenerator(
            seed=0, vocab_size=cfg.vocab_size, rate_rps=DEFAULTS["rate_rps"], num_requests=10
        ).generate()
        entry, _sim = run_arm("megatron", cfg, params, requests, **knobs)
        return entry

    shared = arm()
    _force_per_rank(monkeypatch)
    naive = arm()
    assert shared["tokens_sha256"] == naive["tokens_sha256"]
    assert shared == naive


def test_classification_head_is_bit_identical_to_the_per_rank_run(monkeypatch, rng):
    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(cfg, seed=1, num_classes=2)
    ids = rng.integers(0, cfg.vocab_size, size=(6, cfg.seq_len))
    labels = rng.integers(0, 2, size=6)

    def run():
        sim = Simulator.for_flat(3)
        sim.tracer.enabled = True
        model = MegatronModel(sim, cfg, params)
        loss = model.forward_classification(ids, labels)
        model.backward_classification()
        logits = MegatronModel(Simulator.for_flat(3), cfg, params).forward_classification(ids)
        return {
            "loss": loss,
            "logits": {"logits": dict(logits.shards)},
            "grads": {q.name: dict(q.grad.shards) for q in model.parameters() if q.grad is not None},
            "watermarks": sim.watermarks(),
            "events": list(sim.tracer.events),
        }

    shared = run()
    _force_per_rank(monkeypatch)
    naive = run()
    assert shared["loss"] == naive["loss"]
    _assert_shards_equal(shared["logits"], naive["logits"])
    _assert_shards_equal(shared["grads"], naive["grads"])
    assert "cls_head.weight" in shared["grads"]
    assert shared["watermarks"] == naive["watermarks"]
    assert shared["events"] == naive["events"]
