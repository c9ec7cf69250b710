"""Device mesh and distributed-tensor representation.

Optimus arranges ``p = q²`` devices into a ``q × q`` mesh (§2.4).  A
:class:`Mesh` owns the row, column and world process groups (with sibling
information so the cost model prices the q concurrent row/column collectives
of a SUMMA step correctly).  A :class:`DTensor` is a layout descriptor plus
one local shard per rank; the layout is a :class:`Layout` record
(:mod:`repro.mesh.layouts`) whose queries every reader derives from, and
:mod:`repro.mesh.partition` converts between global numpy arrays and shards
for tests and I/O.
"""

from repro.mesh import partition
from repro.mesh.dtensor import DTensor, block_map, rank_map
from repro.mesh.layouts import (
    BLOCKED_2D,
    COL_BLOCKED,
    REPLICATED,
    REPLICATED_1D,
    ROW_BLOCKED,
    SHARDED_1D,
    Layout,
)
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_any,
    assemble_blocked_2d,
    assemble_row_blocked,
    assemble_sharded_1d,
    distribute,
    distribute_blocked_2d,
    distribute_replicated,
    distribute_replicated_1d,
    distribute_row_blocked,
    distribute_sharded_1d,
    scatter_any,
)

__all__ = [
    "Mesh",
    "Layout",
    "BLOCKED_2D",
    "ROW_BLOCKED",
    "COL_BLOCKED",
    "REPLICATED",
    "SHARDED_1D",
    "REPLICATED_1D",
    "DTensor",
    "rank_map",
    "block_map",
    "partition",
    "distribute",
    "distribute_blocked_2d",
    "assemble_blocked_2d",
    "distribute_row_blocked",
    "assemble_row_blocked",
    "distribute_replicated",
    "distribute_sharded_1d",
    "assemble_sharded_1d",
    "distribute_replicated_1d",
    "assemble_any",
    "scatter_any",
]
