"""Replicated math on a flat group: ``block_map`` over ``REPLICATED_1D``
stacks evaluates once, on one replica, and hands every rank one read-only
``(1,)`` entry — and whole Megatron runs cannot tell it from the forced
per-rank path, bit for bit.  The stack layouts themselves, one
evaluation on a flat group (``TestOneEvaluation``) and the training /
serving matrices are in ``tests/test_block_stacks.py``."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.comm.group import ProcessGroup
from repro.config import tiny_config
from repro.core import summa
from repro.megatron.model import MegatronModel
from repro.mesh.dtensor import DTensor, block_map
from repro.mesh.layouts import REPLICATED_1D
from repro.mesh.partition import distribute_replicated_1d
from repro.nn.init import init_transformer_params
from repro.resilience.faults import FaultSchedule
from repro.resilience.injector import FaultInjector
from repro.runtime.simulator import Simulator
from repro.training.data import BatchStream
from repro.training.optim import SGD
from repro.training.trainer import Trainer


def _force_per_rank(monkeypatch):
    """The one gate of every host-side stacked path."""
    monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)


@pytest.fixture
def group():
    sim = Simulator.for_flat(4)
    return ProcessGroup(sim, (2, 0, 3, 1))


def _spy(calls, fn):
    def spied(*args):
        calls.append(args)
        return fn(*args)

    return spied


def _shared(dt) -> bool:
    return len({id(s) for s in dt.shards.values()}) == 1


class TestPerRankCases:
    def test_placeholders_take_rank_map(self, group):
        xs = DTensor(
            group, REPLICATED_1D, {r: ShapeArray((4, 3), "float32") for r in group.ranks}, (4, 3)
        )
        calls = []
        got = block_map(_spy(calls, lambda x: x.T), group, xs)
        assert len(calls) == 1  # rank_map's own sharing by signature
        assert tuple(got.shards) == group.ranks and got.local(0).shape == (3, 4)
        assert got.blocks is None and got.global_shape == (3, 4)

    def test_a_one_rank_group_takes_rank_map(self, rng):
        solo = ProcessGroup(Simulator.for_flat(1), (0,))
        x = distribute_replicated_1d(solo, rng.normal(size=(2,)))
        assert x.blocks is None
        assert block_map(lambda a: a * 2, solo, x).local(0).flags.writeable

    def test_an_armed_injector_takes_rank_map(self, group, rng):
        xs = distribute_replicated_1d(group, rng.normal(size=(3,)))
        injector = FaultInjector(FaultSchedule()).install(group.sim)
        calls = []
        got = block_map(_spy(calls, lambda x: x * 2), group, xs)
        assert len(calls) == len(group.ranks) and tuple(got.shards) == group.ranks
        assert got.blocks is None
        assert len({id(v) for v in got.shards.values()}) == len(group.ranks)
        assert all(v.flags.writeable for v in got.shards.values())
        injector.uninstall()
        assert _shared(block_map(lambda x: x * 2, group, xs))


class TestDTensorRouting:
    def test_replicated_elementwise_math_is_shared_and_sharded_is_not(self, group, rng):
        from repro.mesh.partition import distribute_sharded_1d

        rep = distribute_replicated_1d(group, rng.normal(size=(4, 4)))
        total = rep + rep * 2.0
        assert total.layout == REPLICATED_1D and _shared(total)
        assert not total.local(0).flags.writeable
        np.testing.assert_array_equal(total.local(0), rep.local(0) + rep.local(0) * 2.0)
        sh = distribute_sharded_1d(group, rng.normal(size=(4, 4)), axis=1)
        both = sh + sh
        assert both.blocks.shape == (4, 4, 1) and len({id(s) for s in both.shards.values()}) == 4

    def test_copy_and_zeros_like_hand_out_owned_buffers(self, group, rng):
        rep = distribute_replicated_1d(group, rng.normal(size=(4,)))
        shared = rep * 2.0
        for fresh in (shared.copy(), shared.zeros_like(), rep.copy()):
            bufs = list(fresh.shards.values())
            assert len({id(b) for b in bufs}) == 4 and all(b.flags.writeable for b in bufs)
            bufs[0][0] = 7.0
            assert bufs[1][0] != 7.0


# ----------------------------------------------------------------------
# whole runs: stacked versus forced per-rank
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
        assert list(got[name]) == list(want[name]), name
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
    # the patch really forced the loop: only the stacked run shares replicas
    assert _some_grad_is_shared(shared) and not _some_grad_is_shared(naive)
    assert shared["watermarks"] == naive["watermarks"]
    assert shared["events"] == naive["events"]


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
    assert shared["logits"]["logits"][0] is shared["logits"]["logits"][2]  # one (1,) entry
    _force_per_rank(monkeypatch)
    naive = run()
    assert shared["loss"] == naive["loss"]
    _assert_shards_equal(shared["logits"], naive["logits"])
    _assert_shards_equal(shared["grads"], naive["grads"])
    assert "cls_head.weight" in shared["grads"]
    assert shared["watermarks"] == naive["watermarks"]
    assert shared["events"] == naive["events"]
