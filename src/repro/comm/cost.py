"""α–β timing model for collectives, with topology-aware contention.

Following the paper's §2.5:

* tree broadcast / reduce within a group of g devices costs
  ``log(g) · (α + βB)`` (Eq. 4, latency retained although the paper drops it);
* ring all-reduce over g devices costs ``2(g−1) · (α + βB/g)`` (Eq. 5).

On a multi-node cluster the effective β of an inter-node stage is the NIC's
β multiplied by a *crowding factor*: the number of concurrent multi-node
collectives whose members share the busiest host (Fig. 8).  Groups that fit
inside one node use the intra-node link.  Multi-node tree collectives are
priced hierarchically: ``⌈log₂ m⌉`` inter-node stages (m = nodes spanned)
followed by ``⌈log₂ r⌉`` intra-node stages (r = max ranks per node), which is
how NCCL-style implementations behave and what makes the bunched arrangement
of Fig. 8b faster than the naive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.hardware.arrangement import Arrangement
from repro.hardware.topology import ClusterTopology, GroupProfile


def _log2_stages(n: int) -> float:
    """Continuous stage count for pipelined tree collectives.

    Eq. 4 of the paper prices a broadcast as ``log(q)·βB``; with large
    pipelined messages the effective serialization grows smoothly with the
    fan-out rather than in integer jumps, so we use ``log₂ n`` directly
    (3 nodes → 1.58 stages, 4 nodes → 2).
    """
    return math.log2(n) if n > 1 else 0.0


#: Sustained fractions of link bandwidth achieved by ring collectives.
#: Calibration constants (see DESIGN.md): a multi-node NCCL ring over
#: PCIe-attached GPUs and one shared IB NIC per node pays per-hop protocol
#: and host-staging overhead on each of its 2(g−1) serialized steps;
#: measured Megatron-LM all-reduce bus bandwidths on this hardware class are
#: ~40% of line rate across nodes, while a ring confined to one node's PCIe
#: fabric with peer-to-peer copies sustains ~85%.
RING_EFFICIENCY_INTRA = 0.85
RING_EFFICIENCY_INTER = 0.40

#: Sustained fraction for pipelined tree broadcast/reduce of large blocks —
#: one bulk transfer per stage pipelines well (~85% of line rate).
TREE_EFFICIENCY = 0.85


#: The price list: collective kind → (time formula, weighted-volume formula),
#: as method names so a caller that wraps a formula on the class still sees
#: every call.  Scatter / gather are tree collectives over the moved
#: ``(g−1)/g`` of the buffer (the caller decides the bytes, not the formula).
_PRICE = {
    "broadcast": ("broadcast_time", "broadcast_weighted_volume"),
    "reduce": ("reduce_time", "reduce_weighted_volume"),
    "all_reduce": ("all_reduce_time", "all_reduce_weighted_volume"),
    "all_gather": ("all_gather_time", "all_gather_weighted_volume"),
    "reduce_scatter": ("reduce_scatter_time", "reduce_scatter_weighted_volume"),
    "scatter": ("broadcast_time", "broadcast_weighted_volume"),
    "gather": ("reduce_time", "reduce_weighted_volume"),
}


@dataclass(frozen=True)
class GroupCommModel:
    """Prices collectives for one process group under one arrangement."""

    profile: GroupProfile
    crowding: int  # bandwidth-division factor on inter-node stages
    alpha_intra: float
    beta_intra: float
    alpha_inter: float
    beta_inter: float
    ring_efficiency_intra: float = RING_EFFICIENCY_INTRA
    ring_efficiency_inter: float = RING_EFFICIENCY_INTER
    tree_efficiency: float = TREE_EFFICIENCY

    @classmethod
    def build(
        cls,
        topology: ClusterTopology,
        arrangement: Arrangement,
        ranks: Sequence[int],
        siblings: Optional[Sequence[Sequence[int]]] = None,
        crowding: Optional[int] = None,
    ) -> "GroupCommModel":
        """Construct from the group's placement.

        ``siblings`` is the set of rank groups that run the *same* collective
        concurrently (e.g. all q rows of a SUMMA step); it determines NIC
        crowding.  When omitted, the group is assumed to run alone.  A
        caller that builds every sibling (a mesh axis) passes their
        ``crowding`` (:meth:`ClusterTopology.crowding`) instead, computed
        once.

        The model is a pure function of frozen values — the cluster, the
        GPUs of ``ranks`` (and the node size that places them) and the
        crowding — so it is built once per value in a process and shared
        (:data:`_BUILT`), and equal models are one object: a caller may
        price a line once per distinct model."""
        if crowding is None:
            # a group alone shares no host with a sibling: crowding 1
            crowding = 1 if siblings is None else topology.crowding(siblings, arrangement)
        cluster = topology.cluster
        key = (
            cluster, arrangement.cluster.gpus_per_node,
            tuple(map(arrangement.rank_to_gpu.__getitem__, ranks)), crowding,
        )
        model = _BUILT.get(key)
        if model is None:
            intra, inter = cluster.intra_link, cluster.inter_link
            model = cls(
                profile=topology.group_profile(ranks, arrangement),
                crowding=max(1, crowding),
                alpha_intra=intra.alpha,
                beta_intra=intra.beta,
                alpha_inter=inter.alpha,
                beta_inter=inter.beta,
            )
            model = _BUILT[key] = _BUILT.setdefault(model, model)
        return model

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.profile.size

    def price(self, kind: str, nbytes: float) -> Tuple[float, float, float]:
        """What one ``kind`` collective over ``nbytes`` is charged:
        ``(dt, nbytes, weighted volume)`` — the simulator's ``Precost`` triple,
        and the first element is what the critical-path auditor predicts."""
        try:
            time_of, volume_of = _PRICE[kind]
        except KeyError:
            raise ValueError(
                f"no price for collective kind {kind!r}: valid kinds are {list(_PRICE)}"
            ) from None
        return getattr(self, time_of)(nbytes), nbytes, getattr(self, volume_of)(nbytes)

    def _tree_time(self, nbytes: float) -> float:
        g = self.profile.size
        if g <= 1:
            return 0.0
        eff_bytes = nbytes / self.tree_efficiency
        if self.profile.is_intra_node:
            stages = _log2_stages(g)
            return stages * (self.alpha_intra + self.beta_intra * eff_bytes)
        inter_stages = _log2_stages(self.profile.nodes_spanned)
        intra_stages = _log2_stages(self.profile.max_ranks_per_node)
        t = inter_stages * (
            self.alpha_inter + self.beta_inter * self.crowding * eff_bytes
        )
        t += intra_stages * (self.alpha_intra + self.beta_intra * eff_bytes)
        return t

    def broadcast_time(self, nbytes: float) -> float:
        """Tree broadcast of ``nbytes`` from one root to the group."""
        return self._tree_time(nbytes)

    def reduce_time(self, nbytes: float) -> float:
        """Tree reduction of per-rank buffers of ``nbytes`` to one root."""
        return self._tree_time(nbytes)

    def _ring_step(self) -> Tuple[float, float]:
        """``(α, effective β)`` of one of a ring collective's serialized steps."""
        if self.profile.is_intra_node:
            return self.alpha_intra, self.beta_intra / self.ring_efficiency_intra
        # a node-contiguous ring crosses each NIC once per step in each
        # direction; concurrent multi-node rings still divide bandwidth
        return (
            self.alpha_inter,
            self.beta_inter * self.crowding / self.ring_efficiency_inter,
        )

    def all_reduce_time(self, nbytes: float) -> float:
        """Ring all-reduce of a ``nbytes`` buffer (Eq. 5)."""
        g = self.profile.size
        if g <= 1:
            return 0.0
        alpha, beta = self._ring_step()
        return 2 * (g - 1) * (alpha + beta * nbytes / g)

    def all_gather_time(self, total_nbytes: float) -> float:
        """Ring all-gather producing ``total_nbytes`` on every rank."""
        g = self.profile.size
        if g <= 1:
            return 0.0
        alpha, beta = self._ring_step()
        return (g - 1) * (alpha + beta * total_nbytes / g)

    def reduce_scatter_time(self, total_nbytes: float) -> float:
        """Ring reduce-scatter of per-rank ``total_nbytes`` buffers."""
        return self.all_gather_time(total_nbytes)

    # ------------------------------------------------------------------
    # the paper's β-normalized "weighted volume" used to validate Table 1
    # ------------------------------------------------------------------
    def broadcast_weighted_volume(self, nbytes: float) -> float:
        g = self.profile.size
        return math.log2(g) * nbytes if g > 1 else 0.0

    reduce_weighted_volume = broadcast_weighted_volume

    def all_reduce_weighted_volume(self, nbytes: float) -> float:
        g = self.profile.size
        return 2.0 * (g - 1) * nbytes / g if g > 1 else 0.0

    def all_gather_weighted_volume(self, total_nbytes: float) -> float:
        g = self.profile.size
        return (g - 1) * total_nbytes / g if g > 1 else 0.0

    reduce_scatter_weighted_volume = all_gather_weighted_volume


#: every model :meth:`GroupCommModel.build` has made, by its inputs' values
#: (cluster, node size, the ranks' GPUs, crowding) and by its own value (so
#: equal models are one object): two entries per distinct group placement in
#: a process at most, however many simulators repeat it
_BUILT: Dict[object, GroupCommModel] = {}
