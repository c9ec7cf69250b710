"""Collectives: data semantics, clock synchronization, cost charging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shape_array import ShapeArray
from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.runtime.simulator import Simulator


def _group(p=4, **kw):
    sim = Simulator.for_flat(p=p, **kw)
    return ProcessGroup(sim, range(p), kind="test")


def _shards(group, rng, shape=(3, 4)):
    return {r: rng.normal(size=shape) for r in group.ranks}


class TestDataSemantics:
    def test_broadcast(self, rng):
        g = _group()
        src = rng.normal(size=(2, 5))
        out = coll.broadcast(g, src, root=1)
        for r in g.ranks:
            np.testing.assert_array_equal(out[r], src)
        # non-root buffers must be copies, not aliases
        out[0][0, 0] = 123.0
        assert src[0, 0] != 123.0

    def test_broadcast_bad_root(self):
        g = _group()
        with pytest.raises(ValueError):
            coll.broadcast(g, np.zeros(3), root=9)

    def test_reduce_sum(self, rng):
        g = _group()
        sh = _shards(g, rng)
        out = coll.reduce(g, sh, root=2)
        np.testing.assert_allclose(out[2], sum(sh.values()))
        assert set(out) == {2}

    def test_reduce_max(self, rng):
        g = _group()
        sh = _shards(g, rng)
        out = coll.reduce(g, sh, root=0, op="max")
        np.testing.assert_allclose(out[0], np.maximum.reduce(list(sh.values())))

    def test_reduce_bad_op(self, rng):
        g = _group()
        with pytest.raises(
            ValueError,
            match=r"unsupported reduction op 'prod': valid ops are \['sum', 'max'\]",
        ):
            coll.reduce(g, _shards(g, rng), root=0, op="prod")

    def test_bad_op_rejected_on_size1_group(self, rng):
        # size-1 groups take the zero-copy early return and never combine;
        # the op must still be validated up front
        g = _group(p=1)
        sh = {0: rng.normal(size=(2, 2))}
        with pytest.raises(ValueError, match="unsupported reduction op 'prod'"):
            coll.reduce(g, sh, root=0, op="prod")
        with pytest.raises(ValueError, match="unsupported reduction op 'mean'"):
            coll.all_reduce(g, sh, op="mean")

    def test_all_reduce(self, rng):
        g = _group()
        sh = _shards(g, rng)
        out = coll.all_reduce(g, sh)
        expected = sum(sh.values())
        for r in g.ranks:
            np.testing.assert_allclose(out[r], expected)

    def test_all_reduce_max(self, rng):
        g = _group()
        sh = _shards(g, rng)
        out = coll.all_reduce(g, sh, op="max")
        np.testing.assert_allclose(out[3], np.maximum.reduce(list(sh.values())))

    def test_all_gather(self, rng):
        g = _group()
        sh = {r: rng.normal(size=(2, 3)) for r in g.ranks}
        out = coll.all_gather(g, sh, axis=0)
        expected = np.concatenate([sh[r] for r in g.ranks], axis=0)
        for r in g.ranks:
            np.testing.assert_array_equal(out[r], expected)

    def test_all_gather_uneven(self, rng):
        g = _group(p=2)
        sh = {0: rng.normal(size=(2, 3)), 1: rng.normal(size=(5, 3))}
        out = coll.all_gather(g, sh, axis=0)
        assert out[0].shape == (7, 3)

    def test_reduce_scatter(self, rng):
        g = _group()
        sh = _shards(g, rng, shape=(8, 3))
        out = coll.reduce_scatter(g, sh, axis=0)
        total = sum(sh.values())
        for i, r in enumerate(g.ranks):
            np.testing.assert_allclose(out[r], total[2 * i : 2 * i + 2])

    def test_reduce_scatter_indivisible(self, rng):
        g = _group()
        with pytest.raises(ValueError):
            coll.reduce_scatter(g, _shards(g, rng, shape=(7, 3)), axis=0)

    def test_scatter_gather_roundtrip(self, rng):
        g = _group()
        full = rng.normal(size=(8, 3))
        pieces = coll.scatter(g, full, root=0, axis=0)
        back = coll.gather(g, pieces, root=0, axis=0)
        np.testing.assert_array_equal(back[0], full)

    def test_shard_validation(self, rng):
        g = _group()
        with pytest.raises(ValueError):
            coll.all_reduce(g, {0: np.zeros(3)})  # missing ranks
        bad = _shards(g, rng)
        bad[0] = np.zeros((9, 9))
        with pytest.raises(ValueError):
            coll.all_reduce(g, bad)

    def test_single_rank_group_is_free(self, rng):
        g = _group(p=1)
        out = coll.all_reduce(g, {0: rng.normal(size=(3,))})
        assert g.sim.elapsed() == 0.0
        assert 0 in out


class TestClockAndCost:
    def test_collective_synchronizes(self, rng):
        g = _group()
        g.sim.device(0).clock = 1.0
        coll.all_reduce(g, _shards(g, rng))
        clocks = {g.sim.device(r).clock for r in g.ranks}
        assert len(clocks) == 1
        assert clocks.pop() > 1.0

    def test_larger_payload_costs_more(self, rng):
        g1, g2 = _group(), _group()
        coll.all_reduce(g1, {r: np.zeros(10) for r in g1.ranks})
        coll.all_reduce(g2, {r: np.zeros(10000) for r in g2.ranks})
        assert g2.sim.elapsed() > g1.sim.elapsed()

    def test_weighted_volume_matches_eq4_eq5(self):
        # broadcast: log2(g)·B ; all-reduce: 2(g−1)/g·B  (paper Eqs. 4–5)
        g = _group(p=4)
        buf = np.zeros(100, dtype=np.float64)  # 800 bytes
        coll.broadcast(g, buf, root=0)
        d = g.sim.device(0)
        assert d.weighted_comm_volume == pytest.approx(np.log2(4) * 800)
        before = d.weighted_comm_volume
        coll.all_reduce(g, {r: buf.copy() for r in g.ranks})
        assert d.weighted_comm_volume - before == pytest.approx(2 * 3 / 4 * 800)

    def test_scatter_charges_moved_fraction(self, rng):
        """Regression: scatter charged full-buffer bytes but (g−1)/g time
        and weighted volume — the three must agree on the moved volume."""
        g = _group()
        full = rng.normal(size=(8, 4))
        coll.scatter(g, full, root=0, axis=0)
        moved = full.nbytes * 3 / 4
        for r in g.ranks:
            d = g.sim.device(r)
            assert d.bytes_comm == pytest.approx(moved)
            assert d.comm_time == pytest.approx(g.model.broadcast_time(moved))
            assert d.weighted_comm_volume == pytest.approx(
                g.model.broadcast_weighted_volume(moved)
            )

    def test_gather_charges_moved_fraction(self, rng):
        g = _group()
        sh = _shards(g, rng, shape=(2, 4))
        coll.gather(g, sh, root=1, axis=0)
        moved = sum(v.nbytes for v in sh.values()) * 3 / 4
        for r in g.ranks:
            d = g.sim.device(r)
            assert d.bytes_comm == pytest.approx(moved)
            assert d.comm_time == pytest.approx(g.model.reduce_time(moved))
            assert d.weighted_comm_volume == pytest.approx(
                g.model.reduce_weighted_volume(moved)
            )

    def test_tracer_records(self, rng):
        sim = Simulator.for_flat(p=2, trace=True)
        g = ProcessGroup(sim, range(2))
        coll.broadcast(g, rng.normal(size=(4,)), root=0)
        events = sim.tracer.of_kind("broadcast")
        assert len(events) == 1
        assert events[0].ranks == (0, 1)
        assert events[0].duration > 0

    def test_dryrun_shards(self):
        g = _group(p=4, backend="shape")
        sh = {r: ShapeArray((3, 4), "float32") for r in g.ranks}
        out = coll.all_reduce(g, sh)
        assert out[0].shape == (3, 4)
        assert g.sim.elapsed() > 0

    def test_barrier(self):
        g = _group()
        g.sim.device(2).clock = 3.0
        t = coll.barrier(g)
        assert t == 3.0
        assert all(g.sim.device(r).clock == 3.0 for r in g.ranks)


class TestGroupValidation:
    def test_duplicate_ranks(self):
        sim = Simulator.for_flat(p=4)
        with pytest.raises(ValueError):
            ProcessGroup(sim, [0, 0, 1])

    def test_out_of_range_rank(self):
        sim = Simulator.for_flat(p=2)
        with pytest.raises(ValueError):
            ProcessGroup(sim, [0, 5])

    def test_index_contains(self):
        sim = Simulator.for_flat(p=4)
        g = ProcessGroup(sim, [1, 3])
        assert g.size == 2
        assert g.index_of(3) == 1
        assert g.contains(1) and not g.contains(0)


class TestAlgebraicProperties:
    """Hypothesis: collectives respect the algebra of the underlying ops."""

    @given(st.integers(2, 6), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_all_reduce_equals_sum(self, p, n):
        rng = np.random.default_rng(p * 100 + n)
        sim = Simulator.for_flat(p=p)
        g = ProcessGroup(sim, range(p))
        sh = {r: rng.normal(size=(n,)) for r in g.ranks}
        out = coll.all_reduce(g, sh)
        np.testing.assert_allclose(out[0], sum(sh.values()), rtol=1e-12)

    @given(st.integers(2, 6), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_reduce_scatter_then_gather_equals_all_reduce(self, p, rows_per):
        rng = np.random.default_rng(p * 37 + rows_per)
        sim = Simulator.for_flat(p=p)
        g = ProcessGroup(sim, range(p))
        sh = {r: rng.normal(size=(p * rows_per, 3)) for r in g.ranks}
        rs = coll.reduce_scatter(g, {r: v.copy() for r, v in sh.items()}, axis=0)
        gathered = coll.all_gather(g, rs, axis=0)
        ar = coll.all_reduce(g, sh)
        np.testing.assert_allclose(gathered[0], ar[0], rtol=1e-12)
