"""Process groups over the simulator's ranks."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.comm.cost import GroupCommModel
from repro.runtime.simulator import Simulator


class ProcessGroup:
    """An ordered set of ranks that communicate collectively.

    ``siblings`` — the rank sets of collectives that run concurrently with
    this group's (e.g. all q row groups of a mesh).  They only influence the
    priced NIC contention, never the data movement.
    """

    def __init__(
        self,
        sim: Simulator,
        ranks: Sequence[int],
        kind: str = "group",
        siblings: Optional[Sequence[Sequence[int]]] = None,
    ):
        ranks = tuple(int(r) for r in ranks)
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in group")
        for r in ranks:
            if not 0 <= r < sim.num_ranks:
                raise ValueError(f"rank {r} outside simulator of {sim.num_ranks} ranks")
        self.sim = sim
        self.ranks: Tuple[int, ...] = ranks
        #: the ranks' devices, in group order — what a collective charge
        #: iterates (``Simulator.devices`` is never rebound)
        self.devices = tuple(sim.devices[r] for r in ranks)
        self.kind = kind
        #: the group's one axis as a layout owner (:mod:`repro.mesh.layouts`)
        self.shape = (len(ranks),)
        self.axes = (ranks,)
        self.model = GroupCommModel.build(
            sim.topology, sim.arrangement, ranks, siblings=siblings
        )

    @property
    def size(self) -> int:
        return len(self.ranks)

    def index_of(self, rank: int) -> int:
        return self.ranks.index(rank)

    def contains(self, rank: int) -> bool:
        return rank in self.ranks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGroup(kind={self.kind!r}, ranks={self.ranks})"

