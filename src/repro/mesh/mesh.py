"""The q×q SUMMA device mesh."""

from __future__ import annotations

from typing import List, Tuple

from repro.comm.group import ProcessGroup
from repro.runtime.simulator import Simulator


class Mesh:
    """A ``q × q`` mesh over the first ``q²`` ranks of a simulator.

    Mesh coordinate ``(i, j)`` (row i, column j) is rank ``i*q + j``.  Row
    group i contains the q ranks of row i; column group j the q ranks of
    column j.  Each group is constructed with its siblings (the other rows,
    resp. columns) so the α–β model prices the q *concurrent* broadcasts of a
    SUMMA step with the correct NIC crowding (Fig. 8).
    """

    def __init__(self, sim: Simulator, q: int, rank_offset: int = 0):
        if q < 1:
            raise ValueError("q must be >= 1")
        if rank_offset < 0:
            raise ValueError("rank offset must be >= 0")
        if rank_offset + q * q > sim.num_ranks:
            raise ValueError(
                f"mesh {q}x{q} at offset {rank_offset} needs ranks up to "
                f"{rank_offset + q * q - 1}, simulator has {sim.num_ranks}"
            )
        self.sim = sim
        self.q = q
        self.p = q * q
        self.rank_offset = rank_offset

        all_rows = [self._row_ranks(i) for i in range(q)]
        all_cols = [self._col_ranks(j) for j in range(q)]
        self.row_groups: List[ProcessGroup] = [
            ProcessGroup(sim, all_rows[i], kind=f"row{i}", siblings=all_rows)
            for i in range(q)
        ]
        self.col_groups: List[ProcessGroup] = [
            ProcessGroup(sim, all_cols[j], kind=f"col{j}", siblings=all_cols)
            for j in range(q)
        ]
        self.world = ProcessGroup(
            sim, range(rank_offset, rank_offset + self.p), kind="world"
        )
        #: the mesh's axes as a layout owner (:mod:`repro.mesh.layouts`):
        #: their sizes, and the ranks along each through rank (0, 0)
        self.shape = (q, q)
        self.axes = (all_cols[0], all_rows[0])

    # ------------------------------------------------------------------
    def _row_ranks(self, i: int) -> List[int]:
        return [self.rank_offset + i * self.q + j for j in range(self.q)]

    def _col_ranks(self, j: int) -> List[int]:
        return [self.rank_offset + i * self.q + j for i in range(self.q)]

    def rank(self, i: int, j: int) -> int:
        if not (0 <= i < self.q and 0 <= j < self.q):
            raise ValueError(f"mesh coordinate ({i}, {j}) outside {self.q}x{self.q}")
        return self.rank_offset + i * self.q + j

    def coords(self, rank: int) -> Tuple[int, int]:
        local = rank - self.rank_offset
        if not 0 <= local < self.p:
            raise ValueError(f"rank {rank} outside mesh of {self.p} at offset {self.rank_offset}")
        return divmod(local, self.q)

    @property
    def ranks(self) -> range:
        return range(self.rank_offset, self.rank_offset + self.p)

    @property
    def backend(self) -> str:
        return self.sim.backend

    def row_group(self, i: int) -> ProcessGroup:
        return self.row_groups[i]

    def col_group(self, j: int) -> ProcessGroup:
        return self.col_groups[j]

    def device(self, rank: int):
        return self.sim.device(rank)

    def enable_strict_invariants(self) -> None:
        """Layout-validate every DTensor built on this mesh's simulator."""
        self.sim.enable_strict_invariants()

    def disable_strict_invariants(self) -> None:
        self.sim.disable_strict_invariants()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh(q={self.q}, p={self.p}, backend={self.backend!r})"
