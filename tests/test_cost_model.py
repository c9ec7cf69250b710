"""The α–β collective cost model: formulas, hierarchy, monotonicity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.cost import (
    RING_EFFICIENCY_INTER,
    RING_EFFICIENCY_INTRA,
    TREE_EFFICIENCY,
    GroupCommModel,
    _log2_stages,
)
from repro.hardware.arrangement import bunched_arrangement, linear_arrangement, naive_arrangement
from repro.hardware.specs import frontera_rtx
from repro.hardware.topology import ClusterTopology


def _model(ranks, num_nodes=4, arrangement=None, siblings=None):
    cluster = frontera_rtx(num_nodes)
    topo = ClusterTopology(cluster)
    arr = arrangement or linear_arrangement(cluster)
    return GroupCommModel.build(topo, arr, ranks, siblings=siblings)


class TestEquationForms:
    def test_eq4_intra_node_broadcast(self):
        """log₂(g)·(α + βB/eff) for an intra-node group (Eq. 4)."""
        m = _model([0, 1, 2, 3], num_nodes=1)
        B = 1e6
        link = frontera_rtx(1).intra_link
        expected = 2 * (link.alpha + link.beta * B / TREE_EFFICIENCY)
        assert m.broadcast_time(B) == pytest.approx(expected)
        assert m.reduce_time(B) == m.broadcast_time(B)

    def test_eq5_ring_all_reduce(self):
        """2(g−1)·(α + βB/(g·eff)) (Eq. 5)."""
        m = _model([0, 1, 2, 3], num_nodes=1)
        B = 1e6
        link = frontera_rtx(1).intra_link
        expected = 2 * 3 * (link.alpha + link.beta * B / (4 * RING_EFFICIENCY_INTRA))
        assert m.all_reduce_time(B) == pytest.approx(expected)

    def test_single_rank_is_free(self):
        m = _model([0], num_nodes=1)
        assert m.broadcast_time(1e9) == 0.0
        assert m.all_reduce_time(1e9) == 0.0
        assert m.all_gather_time(1e9) == 0.0

    def test_hierarchical_tree_stages(self):
        """Multi-node tree: log₂(nodes) inter stages + log₂(r) intra stages."""
        cluster = frontera_rtx(2)
        topo = ClusterTopology(cluster)
        arr = linear_arrangement(cluster)
        m = GroupCommModel.build(topo, arr, list(range(8)))
        B = 1e6
        expected = _log2_stages(2) * (
            cluster.inter_link.alpha
            + cluster.inter_link.beta * m.crowding * B / TREE_EFFICIENCY
        ) + _log2_stages(4) * (
            cluster.intra_link.alpha + cluster.intra_link.beta * B / TREE_EFFICIENCY
        )
        assert m.broadcast_time(B) == pytest.approx(expected)

    def test_weighted_volumes_are_paper_units(self):
        m = _model([0, 1, 2, 3], num_nodes=1)
        assert m.broadcast_weighted_volume(100) == pytest.approx(math.log2(4) * 100)
        assert m.all_reduce_weighted_volume(100) == pytest.approx(2 * 3 / 4 * 100)
        assert m.all_gather_weighted_volume(100) == pytest.approx(3 / 4 * 100)


class TestContention:
    def test_crowding_multiplies_inter_bandwidth_term(self):
        cluster = frontera_rtx(4)
        topo = ClusterTopology(cluster)
        arr = naive_arrangement(cluster, 4)
        cols = [[i * 4 + j for i in range(4)] for j in range(4)]
        alone = GroupCommModel.build(topo, arr, cols[0])
        crowded = GroupCommModel.build(topo, arr, cols[0], siblings=cols)
        assert crowded.crowding == 4
        assert alone.crowding == 1
        assert crowded.broadcast_time(1e7) > alone.broadcast_time(1e7)

    def test_bunched_cheaper_than_naive_for_columns(self):
        cluster = frontera_rtx(4)
        topo = ClusterTopology(cluster)
        cols = [[i * 4 + j for i in range(4)] for j in range(4)]
        mn = GroupCommModel.build(topo, naive_arrangement(cluster, 4), cols[0], siblings=cols)
        mb = GroupCommModel.build(topo, bunched_arrangement(cluster, 4), cols[0], siblings=cols)
        assert mb.broadcast_time(1e7) < mn.broadcast_time(1e7)
        assert mb.all_reduce_time(1e7) < mn.all_reduce_time(1e7)

    def test_intra_group_ignores_crowding(self):
        cluster = frontera_rtx(4)
        topo = ClusterTopology(cluster)
        arr = naive_arrangement(cluster, 4)
        rows = [[i * 4 + j for j in range(4)] for i in range(4)]
        m = GroupCommModel.build(topo, arr, rows[0], siblings=rows)
        assert m.profile.is_intra_node
        assert m.crowding == 1


class TestInterVsIntra:
    def test_inter_node_costs_more(self):
        intra = _model([0, 1, 2, 3], num_nodes=2)  # one node
        inter = _model([0, 4], num_nodes=2)  # two nodes
        B = 1e7
        assert inter.broadcast_time(B) > intra.broadcast_time(B) / 2  # sanity
        assert inter.all_reduce_time(B) / 1 > 0
        # per-stage inter β with the lower ring efficiency dominates
        assert RING_EFFICIENCY_INTER < RING_EFFICIENCY_INTRA


@given(st.integers(2, 16), st.floats(1.0, 1e9))
@settings(max_examples=60, deadline=None)
def test_costs_monotone_in_bytes_property(g, B):
    m = _model(list(range(min(g, 16))), num_nodes=4)
    for fn in (m.broadcast_time, m.all_reduce_time, m.all_gather_time):
        assert fn(2 * B) > fn(B) > 0


@given(st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_log2_stages_property(n):
    s = _log2_stages(n)
    assert s >= 0
    if n > 1:
        assert s == pytest.approx(math.log2(n))
    else:
        assert s == 0.0


class TestPriceList:
    """`GroupCommModel.price` is the one kind → formula map: the collectives
    charge it, the SUMMA planner caches it, the critpath auditor predicts it."""

    @staticmethod
    def _groups():
        from repro.comm.group import ProcessGroup
        from repro.mesh.mesh import Mesh
        from repro.runtime.simulator import Simulator

        flat = Simulator.for_flat(p=4, trace=True)
        yield "intra-node", ProcessGroup(flat, range(4)), True
        for kind in ("naive", "bunched"):
            mesh = Mesh(Simulator.for_mesh(q=4, arrangement_kind=kind, trace=True), 4)
            col = mesh.col_groups[0]
            assert not col.model.profile.is_intra_node
            yield f"{kind}-row", mesh.row_groups[0], False
            yield f"{kind}-col", col, False

    @staticmethod
    def _call(kind, group, rows):
        """Issue one real collective; returns the bytes it should be priced on."""
        import numpy as np

        from repro.comm import collectives as coll

        g, root = group.size, group.ranks[1]
        shard = np.ones((rows * g, 3))
        shards = {r: shard for r in group.ranks}
        if kind == "broadcast":
            coll.broadcast(group, shard, root)
        elif kind == "scatter":
            coll.scatter(group, shard, root)
            return shard.nbytes * (g - 1) / g
        elif kind in ("reduce", "gather"):
            getattr(coll, kind)(group, shards, root)
            if kind == "gather":
                return g * shard.nbytes * (g - 1) / g
        else:
            getattr(coll, kind)(group, shards)
            if kind == "all_gather":
                return g * shard.nbytes
        return shard.nbytes

    def test_every_collective_charges_its_price(self):
        from repro.obs.critpath import CostAuditor
        from repro.runtime.events import COLLECTIVE_KINDS

        crowded = False
        for name, group, solo in self._groups():
            sim = group.sim
            auditor = CostAuditor(sim)
            crowded = crowded or group.model.crowding > 1
            for kind in COLLECTIVE_KINDS:
                for rows in (1, 7, 256):
                    dev = sim.device(group.ranks[0])
                    t0 = sim.sync(sim.ranks)
                    before = (dev.bytes_comm, dev.weighted_comm_volume)
                    moved = self._call(kind, group, rows)
                    dt, nbytes, weighted = group.model.price(kind, moved)
                    where = (name, kind, rows)
                    assert nbytes == moved and dt > 0, where
                    assert [sim.device(r).clock for r in group.ranks] == (
                        [t0 + dt] * group.size
                    ), where
                    assert dev.bytes_comm == before[0] + nbytes, where
                    assert dev.weighted_comm_volume == before[1] + weighted, where
                    e = sim.tracer.events[-1]
                    assert (e.kind, e.nbytes, e.weighted) == (kind, nbytes, weighted), where
                    assert e.category == "comm" and e.occupied == group.ranks
                    if solo:  # no sibling crowding: the audit is the charge
                        assert auditor.predicted_s(e) == dt, where
                    else:
                        assert auditor.predicted_s(e) <= dt, where
        assert crowded, "no case exercised NIC crowding"

    def test_unknown_kind_names_the_valid_ones(self):
        m = _model([0, 1, 2, 3], num_nodes=1)
        with pytest.raises(ValueError, match="all_reduce.*gather"):
            m.price("all_to_all", 1e6)
        with pytest.raises(ValueError, match="p2p"):
            m.price("p2p", 1e6)  # topology.p2p_time is a different model
