"""Partition global arrays into shards and assemble them back.

One generic :func:`distribute` / :func:`assemble_any` / :func:`scatter_any`
implements every layout of :mod:`repro.mesh.layouts` from the layout's
record, for both backends (real ndarrays and dryrun ShapeArrays — basic
slicing works on both); the ``distribute_*`` / ``assemble_*`` names are
that code for one layout each.  They model *initial placement* and
*test-time inspection*, so they charge no communication: a real job would
materialize parameters directly on their owning devices.  Every
distribution copies numeric data, so what a model later writes into its
shards never reaches the caller's arrays.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm.group import ProcessGroup
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import (
    BLOCKED_2D,
    REPLICATED,
    REPLICATED_1D,
    ROW0_BLOCKROWS,
    ROW0_COLS,
    ROW_BLOCKED,
    SHARDED_1D,
)
from repro.mesh.mesh import Mesh


def block_slice(dim: int, parts: int, index: int) -> slice:
    """The ``index``-th of ``parts`` equal slices of an axis of size ``dim``."""
    if dim % parts != 0:
        raise ValueError(f"axis of size {dim} not divisible by {parts}")
    step = dim // parts
    return slice(index * step, (index + 1) * step)


def zeros_stacked(owner, layout, block_shape, dtype, global_shape) -> DTensor:
    """A zero tensor of uniform ``block_shape`` blocks on the hosts of
    ``layout``, keyed in owner order — one stack when numeric on more than
    one rank."""
    backend = owner.sim.backend
    hosts = layout.hosts(owner)
    if len(hosts) > 1 and backend == ops.NUMPY:
        blocks = ops.zeros(
            layout.stack_shape(owner) + tuple(block_shape), dtype=dtype, backend=backend
        )
        return DTensor.from_blocks(owner, layout, blocks, global_shape, hosts)
    shards = {rank: ops.zeros(block_shape, dtype=dtype, backend=backend) for rank in hosts}
    return DTensor(owner, layout, shards, global_shape)


def distribute(owner, layout, a) -> DTensor:
    """Place the global array ``a`` on ``owner`` in ``layout``: every host
    receives the equal block its coordinate selects.

    Numeric data on more than one host is copied into one stack (each host
    its own entry, copies included; the shards are its views, so in-place
    updates of a shard are updates of the stack); a placeholder's blocks
    are all the one interned placeholder; otherwise each shard is a copied
    slice.  Addends have no one placement and are refused."""
    misfit = layout.misfit(owner, a.ndim)
    if misfit is not None:
        raise ValueError(f"{layout}: {misfit} (shape {a.shape})")
    if layout.partial:
        raise ValueError(f"cannot distribute {layout}: its shards are addends")
    block = list(a.shape)
    for axis, dim in layout.splits:
        parts = owner.shape[axis]
        if block[dim] % parts != 0:
            raise ValueError(f"{layout}: dim {dim} of {a.shape} not divisible by {parts}")
        block[dim] //= parts
    hosts = layout.hosts(owner)
    if is_shape_array(a):
        return DTensor(owner, layout, dict.fromkeys(hosts, ShapeArray(block, a.dtype)), a.shape)
    index = layout.index(owner, dict.fromkeys(hosts, block))
    if len(hosts) > 1 and ops.backend_of(a) == ops.NUMPY:
        blocks = np.empty(layout.stack_shape(owner) + tuple(block), dtype=a.dtype)
        entries = blocks.reshape((-1,) + tuple(block))  # a view, in host order
        for k, rank in enumerate(hosts):
            entries[k] = a[index[rank]]
        return DTensor.from_blocks(owner, layout, blocks, a.shape, hosts)
    shards = {rank: np.array(a[index[rank]], copy=True) for rank in hosts}
    return DTensor(owner, layout, shards, a.shape)


def _blocks(dt: DTensor) -> dict:
    """``{rank: the slice of the global tensor it holds}`` for ``dt``'s
    hosts, from its shards' own shapes."""
    layout = dt.layout
    if layout.partial:
        raise ValueError(f"cannot assemble {layout}: its shards are addends")
    hosts = layout.hosts(dt.owner)
    return layout.index(dt.owner, {rank: dt.local(rank).shape for rank in hosts})


def assemble_any(dt: DTensor) -> object:
    """The global array ``dt`` holds: one copy of each distinct block, each
    written into the slice its rank holds (a placeholder's: the global
    placeholder)."""
    index = _blocks(dt)
    distinct = dt.layout.distinct(dt.owner)
    first = dt.local(distinct[0])
    if is_shape_array(first):
        return ShapeArray(dt.global_shape, first.dtype)
    out = np.empty(dt.global_shape, dtype=first.dtype)
    for rank in distinct:
        out[index[rank]] = dt.local(rank)
    return out


def scatter_any(dt: DTensor, a) -> None:
    """Write a global array into an existing DTensor's shards, in place.

    The exact inverse of :func:`assemble_any`: each shard receives the slice
    of ``a`` it holds under ``dt.layout``, copied elementwise into the
    shard's existing buffer (so every alias of the shard — optimizer state,
    model references — observes the restored values).  Like
    :func:`distribute` this models checkpoint *restore placement* and
    charges no communication.  Block boundaries are derived from the actual
    shard shapes, so ragged row blocks (MoE) restore correctly.
    """
    a = np.asarray(a)
    if tuple(a.shape) != dt.global_shape:
        raise ValueError(
            f"global array shape {a.shape} does not match DTensor "
            f"global_shape {dt.global_shape}"
        )
    index = _blocks(dt)
    shards = {rank: dt.local(rank) for rank in index}
    if any(is_shape_array(s) for s in shards.values()):
        raise ValueError("cannot scatter real values into dryrun placeholders")
    covered = 0
    for rank in dt.layout.distinct(dt.owner):
        covered += shards[rank].size
    for rank, shard in shards.items():
        if a[index[rank]].shape != shard.shape:
            raise ValueError(f"rank {rank}'s {shard.shape} shard overruns {a.shape}")
    if covered != a.size:
        raise ValueError(f"blocks cover {covered} of {a.size} elements")
    for rank, shard in shards.items():
        shard[...] = a[index[rank]]


# ----------------------------------------------------------------------
# one layout each (hostbench times these names)
# ----------------------------------------------------------------------
def distribute_blocked_2d(mesh: Mesh, a) -> DTensor:
    """Split a 2-D matrix into q×q blocks; coord (i, j) gets block (i, j)."""
    return distribute(mesh, BLOCKED_2D, a)


def assemble_blocked_2d(dt: DTensor) -> object:
    return assemble_any(dt)


def distribute_row_blocked(mesh: Mesh, a) -> DTensor:
    """Split axis 0 by mesh row; replicate within each row (token ids, labels)."""
    return distribute(mesh, ROW_BLOCKED, a)


def assemble_row_blocked(dt: DTensor) -> object:
    return assemble_any(dt)


def distribute_row0_cols(mesh: Mesh, a) -> DTensor:
    """Split a 1-D vector into q blocks hosted by mesh row 0 (paper Fig. 5)."""
    return distribute(mesh, ROW0_COLS, a)


def assemble_row0_cols(dt: DTensor) -> object:
    return assemble_any(dt)


def distribute_row0_blockrows(mesh: Mesh, a) -> DTensor:
    """Split a 2-D matrix along axis 0 into q blocks hosted by mesh row 0."""
    return distribute(mesh, ROW0_BLOCKROWS, a)


def assemble_row0_blockrows(dt: DTensor) -> object:
    return assemble_any(dt)


def distribute_replicated(mesh: Mesh, a) -> DTensor:
    return distribute(mesh, REPLICATED, a)


def distribute_sharded_1d(group: ProcessGroup, a, axis: int) -> DTensor:
    """Split ``a`` along ``axis`` into ``group.size`` equal shards."""
    return distribute(group, SHARDED_1D(axis % a.ndim), a)


def assemble_sharded_1d(dt: DTensor) -> object:
    return assemble_any(dt)


def distribute_replicated_1d(group: ProcessGroup, a) -> DTensor:
    """A copy of ``a`` on every rank (owned: parameters are updated in
    place, and each rank keeps its own; replicated math still reads one)."""
    return distribute(group, REPLICATED_1D, a)


def assemble_replicated(dt: DTensor) -> object:
    """Any replicated layout: one of its (equal) copies."""
    return assemble_any(dt)
