"""Hardware model: specs, arrangements (Fig. 8 placements), topology."""

import itertools

import pytest

from repro.hardware.arrangement import (
    Arrangement,
    _tile_dims,
    bunched_arrangement,
    linear_arrangement,
    make_arrangement,
    naive_arrangement,
)
from repro.hardware.specs import RTX5000, DeviceSpec, LinkSpec, frontera_rtx
from repro.hardware.topology import ClusterTopology


class TestSpecs:
    def test_device_effective_flops(self):
        d = DeviceSpec("x", 10e12, 0.5, 16 * 2**30)
        assert d.effective_flops == 5e12

    def test_link_alpha_beta(self):
        l = LinkSpec("x", bandwidth=10e9, latency=1e-6)
        assert l.beta == 1e-10
        assert l.alpha == 1e-6

    def test_cluster(self):
        c = frontera_rtx(4)
        assert c.num_devices == 16
        assert c.node_of(0) == 0
        assert c.node_of(7) == 1
        assert c.device is RTX5000
        with pytest.raises(ValueError):
            c.node_of(16)

    def test_rtx5000_matches_paper_testbed(self):
        assert RTX5000.memory_bytes == 16 * 1024**3


class TestArrangements:
    def test_linear(self):
        arr = linear_arrangement(frontera_rtx(2), 8)
        assert arr.rank_to_gpu == tuple(range(8))
        assert arr.node_of(5) == 1

    def test_linear_too_many(self):
        with pytest.raises(ValueError):
            linear_arrangement(frontera_rtx(1), 5)

    def test_naive_places_rows_on_nodes(self):
        arr = naive_arrangement(frontera_rtx(4), 4)
        # mesh row i = ranks 4i..4i+3 → node i: intra-node rows
        for i in range(4):
            row = [i * 4 + j for j in range(4)]
            assert len(arr.nodes_of(row)) == 1
        # columns span all four nodes
        col = [i * 4 + 0 for i in range(4)]
        assert len(arr.nodes_of(col)) == 4

    def test_bunched_tiles(self):
        arr = bunched_arrangement(frontera_rtx(4), 4)
        # Fig. 8b: every row and every column spans exactly 2 nodes, 2 per node
        for i in range(4):
            row = [i * 4 + j for j in range(4)]
            col = [j * 4 + i for j in range(4)]
            assert sorted(arr.nodes_of(row).values()) == [2, 2]
            assert sorted(arr.nodes_of(col).values()) == [2, 2]

    def test_bunched_injective(self):
        arr = bunched_arrangement(frontera_rtx(16), 8)
        assert len(set(arr.rank_to_gpu)) == 64

    def test_bunched_single_node(self):
        arr = bunched_arrangement(frontera_rtx(1), 2)
        assert arr.rank_to_gpu == (0, 1, 2, 3)

    def test_tile_dims(self):
        assert _tile_dims(4, 4) == (2, 2)
        assert _tile_dims(8, 4) == (2, 2)
        assert _tile_dims(6, 4) == (2, 2)
        with pytest.raises(ValueError):
            _tile_dims(3, 4)  # 2x2 tiles do not divide a 3x3 mesh

    def test_make_arrangement_fallback(self):
        # q=3 with 4-GPU nodes has no square tiling → falls back to naive
        arr = make_arrangement(frontera_rtx(3), 3, "bunched")
        assert arr.name == "naive"
        with pytest.raises(ValueError):
            make_arrangement(frontera_rtx(3), 3, "bogus")

    def test_duplicate_gpu_rejected(self):
        with pytest.raises(ValueError):
            Arrangement("bad", frontera_rtx(1), (0, 0, 1, 2))

    def test_spans_nodes(self):
        arr = linear_arrangement(frontera_rtx(2), 8)
        assert not arr.spans_nodes([0, 1, 2, 3])
        assert arr.spans_nodes([3, 4])


class TestTopology:
    def test_graph_structure(self):
        topo = ClusterTopology(frontera_rtx(2))
        gpus = range(topo.cluster.num_devices)
        visited = {v for a in gpus for b in gpus for v in topo.path(a, b)}
        hosts = {"host:0", "host:1"}
        assert visited == {"switch"} | hosts | {f"gpu:{k}" for k in gpus}
        # connected: every pair's path runs from one GPU to the other over
        # tree edges (gpu-host, host-switch)
        for a, b in itertools.product(gpus, gpus):
            path = topo.path(a, b)
            assert path[0] == f"gpu:{a}" and path[-1] == f"gpu:{b}"
            for u, v in zip(path, path[1:]):
                edge = {u.split(":")[0], v.split(":")[0]}
                assert edge in ({"gpu", "host"}, {"host", "switch"})

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4])
    def test_paths_links_and_p2p_time_of_every_pair(self, nodes):
        cluster = frontera_rtx(nodes)
        topo = ClusterTopology(cluster)
        intra, inter = cluster.intra_link, cluster.inter_link
        nbytes = 3 * 10**6
        for a, b in itertools.product(range(cluster.num_devices), repeat=2):
            na, nb = a // cluster.gpus_per_node, b // cluster.gpus_per_node
            if a == b:
                path, links, t = [f"gpu:{a}"], [], 0.0
            elif na == nb:
                path = [f"gpu:{a}", f"host:{na}", f"gpu:{b}"]
                links = [intra, intra]
                t = (intra.alpha + intra.alpha) + intra.beta * nbytes
            else:
                path = [f"gpu:{a}", f"host:{na}", "switch", f"host:{nb}", f"gpu:{b}"]
                links = [intra, inter, inter, intra]
                alpha = intra.alpha + inter.alpha + inter.alpha + intra.alpha
                t = alpha + max(intra.beta, inter.beta) * nbytes
            assert topo.path(a, b) == path
            assert topo.path_links(a, b) == links
            assert topo.p2p_time(a, b, nbytes) == t

    def test_paths(self):
        topo = ClusterTopology(frontera_rtx(2))
        assert len(topo.path(0, 1)) == 3  # gpu-host-gpu
        assert len(topo.path(0, 4)) == 5  # gpu-host-switch-host-gpu

    def test_p2p_time(self):
        topo = ClusterTopology(frontera_rtx(2))
        assert topo.p2p_time(0, 0, 1000) == 0.0
        intra = topo.p2p_time(0, 1, 10**6)
        inter = topo.p2p_time(0, 4, 10**6)
        assert inter > intra > 0

    def test_group_profile(self):
        topo = ClusterTopology(frontera_rtx(4))
        arr = naive_arrangement(topo.cluster, 4)
        prof = topo.group_profile([0, 4, 8, 12], arr)
        assert prof.nodes_spanned == 4
        assert prof.max_ranks_per_node == 1
        assert not prof.is_intra_node
        prof2 = topo.group_profile([0, 1, 2, 3], arr)
        assert prof2.is_intra_node

    def test_crowding_naive_vs_bunched(self):
        cl = frontera_rtx(4)
        topo = ClusterTopology(cl)
        cols = [[i * 4 + j for i in range(4)] for j in range(4)]
        assert topo.crowding(cols, naive_arrangement(cl, 4)) == 4
        assert topo.crowding(cols, bunched_arrangement(cl, 4)) == 2

    def test_crowding_intra_groups_do_not_count(self):
        cl = frontera_rtx(4)
        topo = ClusterTopology(cl)
        rows = [[i * 4 + j for j in range(4)] for i in range(4)]
        # naive rows are intra-node: no NIC traffic at all
        assert topo.crowding(rows, naive_arrangement(cl, 4)) == 1
