"""Block stacks: a uniform numeric 2-D tensor on a q > 1 mesh is one
``(q, q) + block`` array, and rank-local math whose operands all carry one
runs once per mesh.  Everything observable — values, key order, clocks,
buffer peaks and the raw trace event list — equals the per-rank path."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.check.invariants import InvariantViolation, validate_dtensor
from repro.comm import collectives as coll
from repro.comm import stacked
from repro.comm.group import ProcessGroup
from repro.comm.stacked import broadcast_down_columns
from repro.config import tiny_config
from repro.core import layers, summa
from repro.core.model import OptimusModel
from repro.hybrid.data_parallel import DataParallel
from repro.megatron.layers import RowParallelLinear
from repro.megatron.model import MegatronModel
from repro.mesh.dtensor import DTensor, block_map, rank_map
from repro.mesh.layouts import BLOCKED_2D, REPLICATED_1D, SHARDED_1D
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_any,
    distribute_blocked_2d,
    distribute_replicated_1d,
    distribute_row0_cols,
    distribute_sharded_1d,
    scatter_any,
)
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.serving import report as serving_report
from repro.serving.scheduler import ServingOptions
from repro.serving.traffic import TrafficGenerator
from repro.training.amp import DynamicLossScaler
from repro.training.data import BatchStream
from repro.training.optim import SGD
from repro.training.trainer import Trainer
from tests.conftest import make_mesh


def _force_per_rank(monkeypatch):
    """The one gate of every host-side batched path."""
    monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)


def _counted(fn):
    calls = []

    def wrapped(*args):
        calls.append(len(args))
        return fn(*args)

    return wrapped, calls


def _blocked(mesh, shape=(8, 12), seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return distribute_blocked_2d(mesh, rng.standard_normal(shape).astype(dtype))


def _plain(dt):
    """The same shards without a stack (what a ragged or foreign tensor is)."""
    return DTensor(dt.owner, dt.layout, dt.shards, dt.global_shape)


# ----------------------------------------------------------------------
# the stack and its invariant
# ----------------------------------------------------------------------
class TestFromBlocks:
    def test_shards_are_views_of_the_stack(self):
        mesh = make_mesh(3)
        a = np.arange(6 * 9, dtype=np.float64).reshape(6, 9)
        dt = distribute_blocked_2d(mesh, a)
        assert dt.blocks.shape == (3, 3, 2, 3) and dt.blocks.flags.c_contiguous
        for i in range(3):
            for j in range(3):
                shard = dt.local(mesh.rank(i, j))
                assert np.shares_memory(shard, dt.blocks[i, j])
                assert np.array_equal(shard, a[2 * i : 2 * i + 2, 3 * j : 3 * j + 3])
        assert list(dt.shards) == list(mesh.ranks)
        validate_dtensor(dt)

    def test_row0_vector_stack_is_indexed_by_column(self):
        mesh = make_mesh(2)
        v = distribute_row0_cols(mesh, np.arange(6.0))
        assert v.blocks.shape == (2, 3)
        assert np.shares_memory(v.local(mesh.rank(0, 1)), v.blocks[1])
        validate_dtensor(v)

    def test_in_place_updates_reach_the_stack(self):
        """Optimizers and checkpoint restore write shards in place."""
        mesh = make_mesh(2)
        dt = _blocked(mesh)
        dt.local(mesh.rank(1, 0))[...] = 7.0
        assert (dt.blocks[1, 0] == 7.0).all()
        want = np.arange(8 * 12, dtype=np.float64).reshape(8, 12)
        scatter_any(dt, want)
        assert np.array_equal(assemble_any(dt), want)
        assert np.array_equal(dt.blocks.swapaxes(1, 2).reshape(8, 12), want)

    def test_no_stack_on_placeholders_or_q1(self):
        assert _blocked(make_mesh(1)).blocks is None
        mesh = make_mesh(2, backend="shape")
        assert distribute_blocked_2d(mesh, ShapeArray((8, 12), "float32")).blocks is None

    def test_strict_mode_rejects_a_rebound_shard(self):
        mesh = make_mesh(2)
        mesh.enable_strict_invariants()
        dt = _blocked(mesh)  # validated, stack included, at construction
        dt.shards[mesh.rank(0, 1)] = dt.local(mesh.rank(0, 1)).copy()
        with pytest.raises(InvariantViolation, match="not a view"):
            validate_dtensor(dt)
        dt.shards[mesh.rank(0, 1)] = np.zeros((4, 6), np.float32)
        with pytest.raises(InvariantViolation):
            validate_dtensor(dt)


class TestFlatGroupStacks:
    """Megatron's 1-D layouts: ``(p,) + shard`` by group position, a shared
    ``(1,) + shape`` for replicated results."""

    def test_sharded_and_replicated_stacks_follow_group_positions(self):
        group = ProcessGroup(Simulator.for_flat(4), (2, 0, 3, 1))
        a = np.arange(4.0 * 8).reshape(4, 8)
        sh = distribute_sharded_1d(group, a, axis=1)
        assert sh.blocks.shape == (4, 4, 2) and sh.blocks.flags.c_contiguous
        assert list(sh.shards) == [2, 0, 3, 1]
        for k, rank in enumerate(group.ranks):
            assert np.shares_memory(sh.local(rank), sh.blocks[k])
            assert np.array_equal(sh.local(rank), a[:, 2 * k : 2 * k + 2])
        rep = distribute_replicated_1d(group, a)
        assert rep.blocks.shape == (4, 4, 8)  # owned copies, one per rank
        assert all(rep.local(r).flags.writeable for r in group.ranks)
        assert np.array_equal(assemble_any(sh), a) and np.array_equal(assemble_any(rep), a)
        validate_dtensor(sh)
        validate_dtensor(rep)

    def test_a_one_row_array_reads_as_the_group_stack(self):
        group = ProcessGroup(Simulator.for_flat(3), (0, 1, 2))
        row = np.arange(3.0 * 2 * 5).reshape(1, 3, 2, 5)
        dt = DTensor.from_blocks(group, SHARDED_1D(1), row, (2, 15), group.ranks)
        assert dt.blocks.shape == (3, 2, 5)
        assert all(np.shares_memory(dt.local(k), row[0, k]) for k in range(3))
        validate_dtensor(dt)

    def test_a_shared_entry_is_read_only_and_strict_mode_checks_views(self):
        group = ProcessGroup(Simulator.for_flat(3), (0, 1, 2))
        group.sim.enable_strict_invariants()
        one = DTensor.from_blocks(group, REPLICATED_1D, np.ones((1, 4)), (4,), group.ranks)
        assert not one.local(1).flags.writeable and one.local(0) is one.local(2)
        sh = distribute_sharded_1d(group, np.arange(6.0), axis=0)
        sh.shards[1] = sh.local(1).copy()
        with pytest.raises(InvariantViolation, match="not a view"):
            validate_dtensor(sh)

    def test_no_stack_on_placeholders_or_one_rank(self):
        solo = ProcessGroup(Simulator.for_flat(1), (0,))
        assert distribute_sharded_1d(solo, np.ones((2, 4)), axis=1).blocks is None
        group = ProcessGroup(Simulator.for_flat(2, backend="shape"), (0, 1))
        assert distribute_replicated_1d(group, ShapeArray((2, 4), "float32")).blocks is None


@pytest.fixture
def group():
    """A flat group of four ranks out of mesh order."""
    sim = Simulator.for_flat(4)
    return ProcessGroup(sim, (2, 0, 3, 1))


def _spy(calls, fn):
    def spied(*args):
        calls.append(args)
        return fn(*args)

    return spied


def _shared(dt) -> bool:
    return len({id(s) for s in dt.shards.values()}) == 1


class TestOneEvaluation:
    """Replicated math on a flat group: ``block_map`` over ``REPLICATED_1D``
    stacks evaluates once, on one replica, and hands every rank one
    read-only ``(1,)`` entry."""

    def test_fn_runs_once_on_the_first_ranks_replicas(self, group, rng):
        xs = distribute_replicated_1d(group, rng.normal(size=(3, 2)))
        ys = distribute_replicated_1d(group, rng.normal(size=(2,)))
        assert xs.blocks.shape == (4, 3, 2)  # owned copies, one per rank
        calls = []
        got = block_map(_spy(calls, lambda x, y: x + y), group, xs, ys)
        first = group.ranks[0]
        assert len(calls) == 1
        assert np.shares_memory(calls[0][0], xs.local(first))
        assert np.shares_memory(calls[0][1], ys.local(first))
        assert tuple(got.shards) == group.ranks
        assert got.blocks.shape == (1, 3, 2) and _shared(got)
        np.testing.assert_array_equal(got.local(first), xs.local(first) + ys.local(first))

    def test_results_are_read_only_through_tuples_and_operands_stay_writable(self, group, rng):
        xs = distribute_replicated_1d(group, rng.normal(size=(3, 2)))
        before = {r: x.copy() for r, x in xs.shards.items()}
        doubled, sums = block_map(lambda x: (x * 2, x.sum(axis=0)), group, xs)
        for dt in (doubled, sums):
            arr = dt.local(group.ranks[-1])
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        for r in group.ranks:
            assert xs.local(r).flags.writeable
            np.testing.assert_array_equal(xs.local(r), before[r])

    @pytest.mark.parametrize("fn", [lambda x: x, lambda x: (x.sum(), x)], ids=["bare", "in-tuple"])
    def test_an_fn_that_returns_its_operand_freezes_nothing(self, group, rng, fn):
        xs = distribute_replicated_1d(group, rng.normal(size=(3,)))
        got = block_map(fn, group, xs)
        out = got[1] if isinstance(got, tuple) else got
        for r in group.ranks:
            assert out.local(r) is xs.local(r) and out.local(r).flags.writeable

    def test_a_dtensor_map_that_hands_shards_back_keeps_them_owned(self, group, rng):
        dt = distribute_replicated_1d(group, rng.normal(size=(3,)))
        same = dt.map(np.asarray)  # no copy: the shard itself
        assert all(same.local(r) is dt.local(r) for r in group.ranks)
        assert all(dt.local(r).flags.writeable for r in group.ranks)
        cast = dt.astype("float32")
        assert not cast.local(0).flags.writeable and cast.local(0) is cast.local(3)


# ----------------------------------------------------------------------
# block_map
# ----------------------------------------------------------------------
class TestBlockMap:
    def test_one_evaluation_equal_to_the_per_rank_results(self):
        mesh = make_mesh(2)
        x, y = _blocked(mesh, seed=1), _blocked(mesh, seed=2)

        def body(a, b):
            s = np.sum(a * b, axis=-1, keepdims=True)
            return a - s, s

        fn, calls = _counted(body)
        got_out, got_s = block_map(fn, mesh, x, y)
        assert len(calls) == 1
        assert got_out.blocks is not None and got_s.blocks is not None
        assert got_out.global_shape == (8, 12) and got_s.global_shape == (8, 2)
        want = rank_map(body, x.shards, x.shards, y.shards)
        for rank, (out, s) in want.items():
            assert np.array_equal(got_out.local(rank), out)
            assert np.array_equal(got_s.local(rank), s)
        assert list(got_out.shards) == list(x.shards)

    def test_keys_follow_the_first_operand(self):
        mesh = make_mesh(3)
        x = _blocked(mesh, (9, 9))
        col_major = [mesh.rank(i, j) for j in range(3) for i in range(3)]
        first = DTensor.from_blocks(mesh, BLOCKED_2D, x.blocks, x.global_shape, col_major)
        out = block_map(lambda a, b: a + b, mesh, first, x)
        assert list(out.shards) == col_major

    def test_bias_add_is_keyed_column_major_like_the_per_rank_path(self, monkeypatch):
        mesh = make_mesh(3)
        lin = layers.Linear2D(mesh, "fc", np.ones((9, 9)), np.arange(9.0))
        y = _blocked(mesh, (6, 9))
        stacked = lin._bias_add(y)
        assert stacked.blocks is not None
        _force_per_rank(monkeypatch)
        per_rank = lin._bias_add(_plain(y))
        assert per_rank.blocks is None
        assert list(stacked.shards) == list(per_rank.shards)
        assert list(stacked.shards) == [mesh.rank(i, j) for j in range(3) for i in range(3)]
        for rank in mesh.ranks:
            assert np.array_equal(stacked.local(rank), per_rank.local(rank))

    @pytest.mark.parametrize("forced", [False, True])
    def test_backward_results_are_keyed_like_the_per_rank_path(self, forced, monkeypatch):
        """A SUMMA ``abt`` output (the usual ``dy``) is keyed column by
        column; LayerNorm's ``dx`` must still come out in mesh order and the
        vector gradients by column root, on either path."""
        mesh = make_mesh(3)
        if forced:
            _force_per_rank(monkeypatch)
        ln = layers.LayerNorm2D(mesh, "ln", np.arange(1.0, 10.0), np.zeros(9))
        lin = layers.Linear2D(mesh, "fc", np.ones((9, 9)), np.arange(9.0))
        x = _blocked(mesh, (6, 9), seed=1)
        col_major = [mesh.rank(i, j) for j in range(3) for i in range(3)]
        y = _blocked(mesh, (6, 9), seed=2)
        dy = DTensor.from_blocks(mesh, BLOCKED_2D, y.blocks, y.global_shape, col_major)
        if forced:
            x, dy = _plain(x), _plain(dy)
        ln.forward(x)
        dx = ln.backward(dy)
        lin._bias_backward(dy)
        assert (dx.blocks is None) == forced
        assert list(dx.shards) == list(mesh.ranks)
        roots = [mesh.rank(0, j) for j in range(3)]
        for p in (ln.gamma, ln.beta, lin.bias):
            assert list(p.grad.shards) == roots, p.name
            assert (p.grad.blocks is None) == forced, p.name

    def test_map_and_zip_map_run_once(self):
        mesh = make_mesh(2)
        x = _blocked(mesh)
        fn, calls = _counted(np.tanh)
        t = x.map(fn)
        s = t + x
        assert len(calls) == 1 and t.blocks is not None and s.blocks is not None
        assert np.array_equal(assemble_any(s), np.tanh(assemble_any(x)) + assemble_any(x))

    def test_conversion_to_placeholders_goes_rank_by_rank(self):
        mesh = make_mesh(2)
        out = _blocked(mesh).map(lambda s: ShapeArray(s.shape, s.dtype))
        assert out.blocks is None
        assert {s.shape for s in out.shards.values()} == {(4, 6)}


class TestGate:
    """Contract checker, armed injector, placeholders, ragged blocks, q = 1
    and an operand on another mesh each take the per-rank path: the function
    is evaluated q² times and nothing carries a stack."""

    def _per_rank(self, mesh, *operands):
        fn, calls = _counted(lambda a, *rest: a * 2.0)
        out = block_map(fn, mesh, *operands)
        return len(calls) == len(mesh.ranks) and out.blocks is None

    def test_contract_checker_sees_the_per_rank_collectives(self):
        from repro.check.contracts import CollectiveContractChecker

        mesh = make_mesh(2)
        x = _blocked(mesh)
        ln = layers.LayerNorm2D(mesh, "ln", np.ones(12), np.zeros(12))
        checker = CollectiveContractChecker()
        with checker:
            assert self._per_rank(mesh, x)
            out = ln.forward(x)
        assert out.blocks is None
        # one all-reduce per mesh row, one broadcast per column for γ and β
        assert checker.calls == {"all_reduce": 2, "broadcast": 4}
        assert not self._per_rank(mesh, x)  # uninstalled: stacked again

    def test_armed_injector(self):
        from repro.resilience.faults import FaultSchedule
        from repro.resilience.injector import FaultInjector

        mesh = make_mesh(2)
        x = _blocked(mesh)
        inj = FaultInjector(FaultSchedule()).install(mesh.sim)
        try:
            assert self._per_rank(mesh, x)
            assert broadcast_down_columns(
                mesh, layers.LayerNorm2D(mesh, "ln", np.ones(12), np.zeros(12)).gamma
            ).blocks is None
        finally:
            inj.uninstall()
        assert not self._per_rank(mesh, x)

    def test_placeholders(self):
        mesh = make_mesh(2, backend="shape")
        x = DTensor(
            mesh, BLOCKED_2D, {r: ShapeArray((4, 6), "float32") for r in mesh.ranks}, (8, 12)
        )
        out = block_map(lambda a: a * 2.0, mesh, x)
        assert out.blocks is None and out.global_shape == (8, 12)

    def test_ragged_moe_blocks(self):
        mesh = make_mesh(2)
        rng = np.random.default_rng(0)
        rows = [3, 9]
        shards = {
            mesh.rank(i, j): rng.standard_normal((rows[i], 6))
            for i in range(2)
            for j in range(2)
        }
        x = DTensor(mesh, BLOCKED_2D, shards, (12, 12))
        assert self._per_rank(mesh, x)
        out = x.map(np.tanh)
        assert out.global_shape == (12, 12)

    def test_q1(self):
        mesh = make_mesh(1)
        assert self._per_rank(mesh, _blocked(mesh))

    def test_contract_checker_sees_megatron_per_rank_collectives(self):
        from repro.check.contracts import CollectiveContractChecker

        group = ProcessGroup(Simulator.for_flat(2), (0, 1))
        rng = np.random.default_rng(0)
        row = RowParallelLinear(group, "fc", rng.standard_normal((8, 4)), np.zeros(4))
        x = distribute_sharded_1d(group, rng.standard_normal((3, 8)), axis=1)
        checker = CollectiveContractChecker()
        with checker:
            out = row.forward(x)
        assert out.blocks is None and checker.calls == {"all_reduce": 1}
        assert row.forward(x).blocks.shape == (1, 3, 4)  # uninstalled: stacked again

    def test_foreign_mesh_operand(self):
        sim = Simulator.for_mesh(q=2)
        mine, other = Mesh(sim, 2), Mesh(sim, 2)
        x = _blocked(mine)
        y = _blocked(other)
        assert self._per_rank(mine, x, y)


def _spy_per_rank(m):
    """Record the kind of every per-rank collective the stacked module runs
    (``per_line``, and the real all-gather it falls back to)."""
    kinds = []
    per_line, all_gather = stacked.per_line, coll.all_gather
    m.setattr(stacked, "per_line", lambda *a, **k: kinds.append(a[1]) or per_line(*a, **k))
    m.setattr(coll, "all_gather", lambda *a, **k: kinds.append("all_gather") or all_gather(*a, **k))
    return kinds


PER_RANK_KINDS = ["all_reduce", "broadcast", "reduce", "all_reduce", "all_gather"]


class TestPlaceholderCollectives:
    """On the dry run a tensor whose shards are all one interned placeholder
    takes the stacked branch of the four DTensor collectives of
    :mod:`repro.comm.stacked`: one replayed charge, the same placeholder
    back.  Everything observable equals the per-rank path on the same input:
    the shard objects, their key order, the raw trace events and the
    watermarks."""

    Q, P = 3, 4

    def _calls(self):
        """Fresh owners (a 3×3 mesh, a 4-rank group) and the five calls."""
        q = self.Q
        mesh = make_mesh(q, backend="shape", trace=True)
        group = ProcessGroup(
            Simulator.for_flat(self.P, backend="shape", trace=True), tuple(range(self.P))
        )

        def blocked(block):
            shards = dict.fromkeys(mesh.ranks, ShapeArray(block))
            return DTensor(mesh, BLOCKED_2D, shards, (q * block[0], q * block[1]))

        x, sums = blocked((4, 6)), blocked((2, 6))
        bias = SimpleNamespace(data=distribute_row0_cols(mesh, ShapeArray((6 * q,))))
        shards = dict.fromkeys(group.ranks, ShapeArray((5, 8)))
        partials = DTensor(group, REPLICATED_1D, shards, (5, 8))
        # a checkpoint's uneven row slices of the 5 rows
        parts = {r: ShapeArray((rows, 8)) for r, rows in zip(group.ranks, (2, 1, 1, 1))}
        calls = [
            lambda: (stacked.all_reduce_rows(mesh, x),),
            lambda: (stacked.broadcast_down_columns(mesh, bias),),
            lambda: stacked.reduce_up_columns(mesh, sums, (6 * q,)),
            lambda: (stacked.all_reduce(group, partials),),
            lambda: (stacked.all_gather(group, partials, parts),),
        ]
        return (mesh.sim, group.sim), calls

    def _run(self, monkeypatch, forced):
        with monkeypatch.context() as m:
            kinds = _spy_per_rank(m)
            if forced:
                _force_per_rank(m)
            sims, calls = self._calls()
            out = [
                [(dt.layout, dt.global_shape, [(r, id(s)) for r, s in dt.shards.items()])
                 for dt in call()]
                for call in calls
            ]
        return out, [(sim.tracer.events, sim.watermarks()) for sim in sims], kinds

    def test_equal_to_the_per_rank_path(self, monkeypatch):
        got, got_charges, got_kinds = self._run(monkeypatch, forced=False)
        want, want_charges, want_kinds = self._run(monkeypatch, forced=True)
        assert got == want and got_charges == want_charges
        assert all(events for events, _marks in got_charges)
        assert got_kinds == [] and want_kinds == PER_RANK_KINDS
        # the row all-reduce hands every rank the operand's own placeholder
        ((_layout, _shape, shards),) = got[0]
        assert {obj for _r, obj in shards} == {id(ShapeArray((4, 6)))}

    def test_an_armed_injector_takes_the_per_rank_path(self, monkeypatch):
        from repro.resilience.faults import FaultSchedule
        from repro.resilience.injector import FaultInjector

        kinds = _spy_per_rank(monkeypatch)
        sims, calls = self._calls()
        injectors = [FaultInjector(FaultSchedule()).install(sim) for sim in sims]
        try:
            for call in calls:
                call()
        finally:
            for inj in injectors:
                inj.uninstall()
        # the injector runs the real all-gather through its module name again
        assert kinds[:4] == PER_RANK_KINDS[:4] and set(kinds[4:]) == {"all_gather"}

    def test_a_non_float_placeholder_takes_per_line(self, monkeypatch):
        """Summing an integer placeholder promotes it, so it is not its own
        sum: the row all-reduce runs per line."""
        mesh = make_mesh(2, backend="shape")
        shards = dict.fromkeys(mesh.ranks, ShapeArray((2, 3), "int32"))
        x = DTensor(mesh, BLOCKED_2D, shards, (4, 6))
        kinds = _spy_per_rank(monkeypatch)
        out = stacked.all_reduce_rows(mesh, x)
        assert kinds == ["all_reduce"]
        assert out.local(0).dtype.name == "float64"


# ----------------------------------------------------------------------
# whole paths: stacked ≡ per-rank, raw trace events included (a sorted
# trace export cannot see two ranks' events swap places; this list can)
# ----------------------------------------------------------------------
def _train(q, dtype, checkpoint):
    cfg = tiny_config(hidden_size=48, num_heads=12, vocab_size=48, dtype=dtype)
    params = init_transformer_params(cfg, seed=3, dtype=dtype)
    sim = Simulator.for_mesh(q=q, trace=True)
    model = OptimusModel(Mesh(sim, q), cfg, params, checkpoint_activations=checkpoint)
    trainer = Trainer(
        model, SGD(model.parameters(), lr=0.05, momentum=0.9),
        BatchStream.copy_task(cfg, 12, seed=5), printer=lambda s: None,
    )
    losses = trainer.train_steps(2).losses
    shards = {
        p.name: (
            {r: np.array(s) for r, s in p.data.shards.items()},
            {r: np.array(s) for r, s in p.grad.shards.items()},
            list(p.grad.shards),
        )
        for p in model.parameters()
    }
    return losses, shards, sim.watermarks(), list(sim.tracer.events)


def _assert_same_run(a, b):
    losses_a, shards_a, marks_a, events_a = a
    losses_b, shards_b, marks_b, events_b = b
    assert losses_a == losses_b
    assert shards_a.keys() == shards_b.keys()
    for name in shards_a:
        (pa, ga, ka), (pb, gb, kb) = shards_a[name], shards_b[name]
        assert ka == kb, name
        for r in pa:
            assert np.array_equal(pa[r], pb[r]), (name, r)
            assert np.array_equal(ga[r], gb[r]), (name, r)
    assert marks_a == marks_b
    assert events_a == events_b


@pytest.mark.parametrize("checkpoint", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_training_is_identical_to_the_per_rank_path(q, dtype, checkpoint, monkeypatch):
    stacked = _train(q, dtype, checkpoint)
    _force_per_rank(monkeypatch)
    per_rank = _train(q, dtype, checkpoint)
    assert stacked[3], "the tracer recorded nothing"
    _assert_same_run(stacked, per_rank)


def _serve(policy):
    cfg = tiny_config(num_heads=4)
    params = init_transformer_params(cfg, seed=serving_report.PARAM_SEED)
    requests = TrafficGenerator(
        0, cfg.vocab_size, arrival="bursty", rate_rps=4000.0, num_requests=12, burst_size=6
    ).generate()
    options = None
    if policy == "preempt":
        options = ServingOptions(policy="preempt", swap_blocks=6)
    entry, sim = serving_report.run_arm(
        "optimus", cfg, params, requests, q=2, slots=8, block_size=8,
        blocks=6 if policy == "preempt" else 12,
        slo_ttft=0.005, slo_tpot=0.0005, options=options, trace=True,
    )
    return entry, sim.watermarks(), list(sim.tracer.events)


@pytest.mark.parametrize("policy", ["reserve", "preempt"])
def test_serving_is_identical_to_the_per_rank_path(policy, monkeypatch):
    stacked = _serve(policy)
    _force_per_rank(monkeypatch)
    per_rank = _serve(policy)
    if policy == "preempt":
        assert stacked[0]["lifecycle"]["preempted"] > 0
    assert stacked[2], "the tracer recorded nothing"
    assert stacked[0] == per_rank[0]
    assert stacked[1] == per_rank[1]
    assert stacked[2] == per_rank[2]


def _train_data_parallel(clip, scaled):
    """R = 2 replicas of a q = 2 mesh, strict, with gradient clipping or loss
    scaling — both rescale the averaged gradients through ``DTensor.map``.
    Also records, right after each sync, which gradients carry a stack."""
    cfg = tiny_config(hidden_size=48, num_heads=12, vocab_size=48)
    sim = Simulator.for_flat(8, strict_invariants=True)
    dp = DataParallel(sim, cfg, init_transformer_params(cfg, seed=3), 2, 2)
    synced = {}
    sync = dp._sync_gradients

    def recording_sync():
        sync()
        for model in dp.replicas:
            for p in model.parameters():
                synced[p.name] = p.grad.blocks is not None

    dp._sync_gradients = recording_sync
    opt = SGD(dp.parameters(), lr=0.05, momentum=0.9)
    trainer = Trainer(
        dp, opt, BatchStream.copy_task(cfg, 8, seed=5), printer=lambda s: None,
        max_grad_norm=1e-2 if clip else None,
        scaler=DynamicLossScaler(opt, init_scale=2.0**4) if scaled else None,
    )
    losses = trainer.train_steps(2).losses
    for model in dp.replicas:
        model.validate_invariants()
    replicas = [
        {p.name: [np.array(s) for s in p.data.shards.values()] for p in model.parameters()}
        for model in dp.replicas
    ]
    return losses, replicas, synced


@pytest.mark.parametrize("clip,scaled", [(True, False), (False, True)])
def test_data_parallel_rescaling_keeps_the_averaged_gradients(clip, scaled, monkeypatch):
    stacked_losses, stacked, stacked_synced = _train_data_parallel(clip, scaled)
    _force_per_rank(monkeypatch)
    per_rank_losses, per_rank, per_rank_synced = _train_data_parallel(clip, scaled)
    assert stacked_losses == per_rank_losses
    for name in stacked[0]:
        for r in range(2):  # replicas stay identical, on either path
            for got, want in zip(stacked[r][name], per_rank[0][name]):
                assert np.array_equal(got, want), (name, r)
            for got, want in zip(per_rank[r][name], per_rank[0][name]):
                assert np.array_equal(got, want), (name, r)
    # averaged into stacks of their own (the tied table's gradient adds the
    # embedding's per-rank scatter, so it never has one); none when forced
    assert stacked_synced == {name: name != "embedding.table" for name in stacked_synced}
    assert not any(per_rank_synced.values())


def test_strict_forward_backward_under_contract_checks():
    from repro.check.contracts import contract_checks

    cfg = tiny_config()
    sim = Simulator.for_mesh(q=2, strict_invariants=True)
    model = OptimusModel(Mesh(sim, 2), cfg, init_transformer_params(cfg, seed=1))
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    with contract_checks():
        loss = model.forward(ids, ids)
        model.backward()
    assert np.isfinite(loss)
    model.validate_invariants()
    assert model.layers[0].mlp.fc1.weight.data.blocks is not None


# ----------------------------------------------------------------------
# combinations: the backward, the loss gradient and the optimizer step run
# on stacks, composed with every training feature that touches gradients
# ----------------------------------------------------------------------
_COMBOS = {
    # name: (q, optimizer, options)
    "sgd-ckpt": (2, "sgd", {}),
    "adam-ckpt": (3, "adam", {}),
    "adam-no-ckpt-fused": (2, "adam", dict(checkpoint=False, fused=True)),
    "sgd-fused-immediate": (3, "sgd", dict(fused=True, immediate=True)),
    "adam-no-ckpt-immediate": (2, "adam", dict(checkpoint=False, immediate=True)),
    "adam-dp-clip": (2, "adam", dict(replicas=2, clip=True)),
    "sgd-dp-scaled-strict": (2, "sgd", dict(replicas=2, scaled=True, strict=True)),
    "adam-clip-scaled-strict": (3, "adam", dict(clip=True, scaled=True, strict=True)),
    "adam-strict-contracts": (2, "adam", dict(strict=True, contracts=True)),
}


def _train_combo(q, optimizer, checkpoint=True, fused=False, immediate=False,
                 replicas=1, clip=False, scaled=False, strict=False, contracts=False,
                 megatron=None):
    """``megatron``: train a ``MegatronModel`` on ``q`` ranks with that
    checkpoint layout instead of Optimus on a q×q mesh."""
    from contextlib import nullcontext

    from repro.check.contracts import contract_checks
    from repro.training.optim import Adam, make_immediate_updater

    cfg = tiny_config(hidden_size=24, num_heads=4 if megatron else 6, vocab_size=24)
    params = init_transformer_params(cfg, seed=3)
    model_kw = dict(checkpoint_activations=checkpoint, fused_attention=fused)
    if megatron:
        sim = Simulator.for_flat(q, strict_invariants=strict, trace=True)
        model = MegatronModel(sim, cfg, params, checkpoint_layout=megatron, **model_kw)
        models = [model]
    elif replicas > 1:
        sim = Simulator.for_flat(replicas * q * q, strict_invariants=strict, trace=True)
        model = DataParallel(sim, cfg, params, replicas, q, **model_kw)
        models = model.replicas
    else:
        sim = Simulator.for_mesh(q=q, strict_invariants=strict, trace=True)
        model = OptimusModel(Mesh(sim, q), cfg, params, **model_kw)
        models = [model]
    if optimizer == "sgd":
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=0.01)
    else:
        opt = Adam(model.parameters(), lr=1e-2, weight_decay=0.01)
    batches = BatchStream.copy_task(cfg, 4 if megatron else 4 * q * replicas, seed=5)
    with contract_checks() if contracts else nullcontext():
        if immediate:  # §3.2.3 option 2: no global clip / unscale to wait for
            hook = make_immediate_updater(opt, model.buffers)
            losses = []
            for _ in range(2):
                ids, labels = next(batches)
                opt.zero_grad()
                losses.append(model.forward(ids, labels))
                model.backward(on_layer_backward=hook)
                opt.step()
        else:
            trainer = Trainer(
                model, opt, batches, printer=lambda s: None,
                max_grad_norm=5e-2 if clip else None,
                scaler=DynamicLossScaler(opt, init_scale=2.0**4) if scaled else None,
            )
            losses = trainer.train_steps(2).losses
    if strict:
        for m in models:
            m.validate_invariants()

    def shards(dt):
        return None if dt is None else [(r, s.dtype, s.tobytes()) for r, s in dt.shards.items()]

    tensors = [
        (p.name, shards(p.data), shards(p.grad)) for m in models for p in m.parameters()
    ]
    slots = {name: [a.tobytes() for a in arrays] for name, arrays in opt.state_slots().items()}
    pool = summa._pool_of(sim)  # the per-rank SUMMA executor's scratch
    observed = (losses, tensors, slots, opt.t, sim.watermarks(), list(sim.tracer.events))
    return observed, pool.hits + pool.misses


@pytest.mark.parametrize("combo", sorted(_COMBOS))
def test_training_combinations_are_identical_to_the_per_rank_path(combo, monkeypatch):
    """Losses, every parameter / gradient / optimizer-state shard (bytes,
    dtype and key order), the step count, watermarks and the raw event
    list."""
    q, optimizer, options = _COMBOS[combo]
    stacked, per_rank_products = _train_combo(q, optimizer, **options)
    # every SUMMA operand arrived stacked (the contract checker forces all
    # collectives, and so every product, per rank)
    assert (per_rank_products > 0) == options.get("contracts", False)
    _force_per_rank(monkeypatch)
    per_rank, _ = _train_combo(q, optimizer, **options)
    assert stacked[5], "the tracer recorded nothing"
    names = ("losses", "tensors", "optimizer state", "step count", "watermarks", "events")
    for name, got, want in zip(names, stacked, per_rank):
        assert got == want, name


_MEGATRON_COMBOS = {
    # name: (p, optimizer, options)
    "sgd-distributed": (2, "sgd", dict(megatron="distributed")),
    "adam-replicated": (4, "adam", dict(megatron="replicated")),
    "adam-no-ckpt-fused": (2, "adam", dict(megatron="distributed", checkpoint=False, fused=True)),
    "sgd-fused-immediate": (4, "sgd", dict(megatron="distributed", fused=True, immediate=True)),
    "adam-clip-scaled-strict": (
        4, "adam", dict(megatron="distributed", clip=True, scaled=True, strict=True)
    ),
    "adam-strict-contracts": (2, "adam", dict(megatron="replicated", strict=True, contracts=True)),
}


@pytest.mark.parametrize("combo", sorted(_MEGATRON_COMBOS))
def test_megatron_training_combinations_are_identical_to_the_per_rank_path(combo, monkeypatch):
    """The same matrix over Megatron's ``(p,)`` / ``(1,)`` stacks: both
    checkpoint layouts, fused attention, immediate updates, clipping, loss
    scaling, strict mode and the contract checker (which forces every
    collective, and so every stacked site, per rank)."""
    p, optimizer, options = _MEGATRON_COMBOS[combo]
    stacked, _ = _train_combo(p, optimizer, **options)
    _force_per_rank(monkeypatch)
    per_rank, _ = _train_combo(p, optimizer, **options)
    assert stacked[5], "the tracer recorded nothing"
    names = ("losses", "tensors", "optimizer state", "step count", "watermarks", "events")
    for name, got, want in zip(names, stacked, per_rank):
        assert got == want, name


def test_serve_report_is_identical_to_the_per_rank_run(monkeypatch):
    """A Megatron serving arm: replicated math shared on the stacked path."""
    cfg = tiny_config(num_heads=4)
    params = init_transformer_params(cfg, seed=serving_report.PARAM_SEED)
    defaults = serving_report.DEFAULTS
    knobs = {k: defaults[k] for k in ("q", "slots", "block_size", "blocks", "slo_ttft", "slo_tpot")}

    def arm():
        requests = TrafficGenerator(
            seed=0, vocab_size=cfg.vocab_size, rate_rps=defaults["rate_rps"], num_requests=10
        ).generate()
        entry, _sim = serving_report.run_arm("megatron", cfg, params, requests, **knobs)
        return entry

    shared = arm()
    _force_per_rank(monkeypatch)
    naive = arm()
    assert shared["tokens_sha256"] == naive["tokens_sha256"]
    assert shared == naive


def _serve_megatron(policy):
    cfg = tiny_config(num_heads=4)
    params = init_transformer_params(cfg, seed=serving_report.PARAM_SEED)
    requests = TrafficGenerator(
        0, cfg.vocab_size, arrival="bursty", rate_rps=4000.0, num_requests=12, burst_size=6
    ).generate()
    options = ServingOptions(policy="preempt", swap_blocks=6) if policy == "preempt" else None
    entry, sim = serving_report.run_arm(
        "megatron", cfg, params, requests, q=2, slots=8, block_size=8,
        blocks=6 if policy == "preempt" else 12,
        slo_ttft=0.005, slo_tpot=0.0005, options=options, trace=True,
    )
    return entry, sim.watermarks(), list(sim.tracer.events)


@pytest.mark.parametrize("policy", ["reserve", "preempt"])
def test_megatron_serving_is_identical_to_the_per_rank_path(policy, monkeypatch):
    stacked = _serve_megatron(policy)
    _force_per_rank(monkeypatch)
    per_rank = _serve_megatron(policy)
    if policy == "preempt":
        assert stacked[0]["lifecycle"]["preempted"] > 0
    assert stacked[2], "the tracer recorded nothing"
    assert stacked == per_rank


@pytest.mark.parametrize(
    "scheme, n", [("megatron", 1), ("megatron", 2), ("optimus", 1), ("optimus", 2)]
)
def test_training_leaves_the_callers_arrays_alone(scheme, n):
    """A model owns copies of the global parameters it was built from: a
    training step writes its shards, never ``params_global``."""
    from repro.training.optim import Adam

    cfg = tiny_config(num_layers=1)
    params = init_transformer_params(cfg, seed=1)
    before = {name: a.copy() for name, a in params.items()}
    if scheme == "megatron":
        model = MegatronModel(Simulator.for_flat(n), cfg, params)
    else:
        model = OptimusModel(Mesh(Simulator.for_mesh(q=n), n), cfg, params)
    Trainer(
        model, Adam(model.parameters(), lr=1e-2), BatchStream.copy_task(cfg, 2 * n, seed=0),
        printer=lambda s: None,
    ).train_steps(1)
    assert {n for n, a in params.items() if not np.array_equal(a, before[n])} == set()
    assert not np.array_equal(assemble_any(model.parameters()[0].data), before["embedding.table"])


def test_optimizer_state_round_trips_through_stacked_slots(monkeypatch):
    """Adam's moments live on the parameters' stacks; ``state_slots`` reads
    the same global arrays as the per-rank slots, and ``load_state_slots``
    writes back through the shards into the stacks."""
    from repro.training.optim import Adam

    def trained():
        cfg = tiny_config(hidden_size=24, num_heads=6, vocab_size=24)
        model = OptimusModel(Mesh(Simulator.for_mesh(q=2), 2), cfg, init_transformer_params(cfg))
        opt = Adam(model.parameters(), lr=1e-2)
        Trainer(
            model, opt, BatchStream.copy_task(cfg, 8, seed=5), printer=lambda s: None
        ).train_steps(2)
        return model, opt

    model, opt = trained()
    w1 = model.layers[0].mlp.fc1.weight
    m, v = opt._state[id(w1)]["slots"]
    assert m.blocks is not None and m.blocks.shape == w1.data.blocks.shape
    saved = opt.state_slots()
    with monkeypatch.context() as forced:
        _force_per_rank(forced)
        _, per_rank_opt = trained()
        want = per_rank_opt.state_slots()
    assert saved.keys() == want.keys()
    for name in saved:
        for got, ref in zip(saved[name], want[name]):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    fresh_model, fresh = trained()
    fresh.load_state_slots({name: [a * 2.0 for a in arrays] for name, arrays in saved.items()})
    m2, _ = fresh._state[id(fresh_model.layers[0].mlp.fc1.weight)]["slots"]
    assert np.array_equal(m2.blocks, m.blocks * 2.0)
    fresh.load_state_slots(saved)
    for name, arrays in fresh.state_slots().items():
        for got, ref in zip(arrays, saved[name]):
            assert got.tobytes() == ref.tobytes(), name
