"""Cluster interconnect topology: a two-level tree of GPUs, hosts and a switch.

The tree has one vertex per GPU, one per host (node), and a central switch:

    gpu:k --(intra link)-- host:n --(inter link / NIC)-- switch

This is the fat-tree abstraction the paper's Fig. 8 reasons about: all
inter-node traffic of a node's GPUs shares the single host↔switch edge, so
the number of concurrent multi-node collectives touching a host determines
the contention ("crowding") factor on its cable.  Every path in the tree has
a closed form: ``gpu — host — gpu`` within a node, ``gpu — host — switch —
host — gpu`` across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.hardware.arrangement import Arrangement
from repro.hardware.specs import ClusterSpec, LinkSpec


@dataclass(frozen=True)
class GroupProfile:
    """Placement summary of one process group under an arrangement."""

    size: int
    nodes_spanned: int
    max_ranks_per_node: int

    @property
    def is_intra_node(self) -> bool:
        return self.nodes_spanned <= 1


class ClusterTopology:
    """Path and placement queries on a :class:`ClusterSpec`'s two-level tree."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    # ------------------------------------------------------------------
    def gpu_vertex(self, gpu_id: int) -> str:
        return f"gpu:{gpu_id}"

    def path(self, gpu_a: int, gpu_b: int) -> List[str]:
        """Vertex path between two GPUs (the tree has exactly one)."""
        if gpu_a == gpu_b:
            return [self.gpu_vertex(gpu_a)]
        na, nb = self.cluster.node_of(gpu_a), self.cluster.node_of(gpu_b)
        if na == nb:
            hops = [f"host:{na}"]
        else:
            hops = [f"host:{na}", "switch", f"host:{nb}"]
        return [self.gpu_vertex(gpu_a), *hops, self.gpu_vertex(gpu_b)]

    def path_links(self, gpu_a: int, gpu_b: int) -> List[LinkSpec]:
        """The link of each hop of :meth:`path`, in path order."""
        if gpu_a == gpu_b:
            return []
        intra = self.cluster.intra_link
        if self.cluster.node_of(gpu_a) == self.cluster.node_of(gpu_b):
            return [intra, intra]
        inter = self.cluster.inter_link
        return [intra, inter, inter, intra]

    def p2p_time(self, gpu_a: int, gpu_b: int, nbytes: int) -> float:
        """Store-and-forward α–β time of a point-to-point transfer."""
        if gpu_a == gpu_b:
            return 0.0
        links = self.path_links(gpu_a, gpu_b)
        # bandwidth is limited by the slowest hop; latencies accumulate
        alpha = sum(l.alpha for l in links)
        beta = max(l.beta for l in links)
        return alpha + beta * nbytes

    # ------------------------------------------------------------------
    def group_profile(self, ranks: Sequence[int], arrangement: Arrangement) -> GroupProfile:
        hist = arrangement.nodes_of(ranks)
        return GroupProfile(
            size=len(ranks),
            nodes_spanned=len(hist),
            max_ranks_per_node=max(hist.values()),
        )

    def crowding(
        self, groups: Sequence[Sequence[int]], arrangement: Arrangement
    ) -> int:
        """Max number of *multi-node* groups whose members share one host.

        When several sibling collectives (e.g. the q concurrent column
        broadcasts of a SUMMA step) run at once, each multi-node group with a
        member on host ``n`` pushes traffic through ``n``'s NIC; the busiest
        host's count is the effective bandwidth-division factor.
        """
        load: Dict[int, int] = {}
        for ranks in groups:
            hist = arrangement.nodes_of(ranks)
            if len(hist) <= 1:
                continue  # purely intra-node group, no NIC traffic
            for node in hist:
                load[node] = load.get(node, 0) + 1
        return max(load.values()) if load else 1
