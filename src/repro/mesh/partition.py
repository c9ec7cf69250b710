"""Partition global arrays into shards and assemble them back.

These helpers implement the layouts of :mod:`repro.mesh.layouts` for both
backends (real ndarrays and dryrun ShapeArrays — basic slicing works on
both).  They model *initial placement* and *test-time inspection*, so they
charge no communication: a real job would materialize parameters directly on
their owning devices.  Every ``distribute_*`` copies numeric data, so what
a model later writes into its shards never reaches the caller's arrays.
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


def _check_divisible(dim: int, parts: int, what: str) -> int:
    if dim % parts != 0:
        raise ValueError(f"{what} of size {dim} not divisible by {parts}")
    return dim // parts


def block_slice(dim: int, parts: int, index: int) -> slice:
    """The ``index``-th of ``parts`` equal slices of an axis of size ``dim``."""
    step = _check_divisible(dim, parts, "axis")
    return slice(index * step, (index + 1) * step)


def _stackable(owner, backend: str) -> bool:
    """Numeric data (``backend``: the data's, see ``ops.backend_of``) on
    more than one rank (a q > 1 mesh, a p > 1 group) is stored as one
    stack."""
    return len(owner.ranks) > 1 and backend == ops.NUMPY


def zeros_stacked(owner, layout, block_shape, dtype, global_shape) -> DTensor:
    """A zero tensor of uniform blocks on every rank of ``owner``, keyed in
    its order (a mesh's ``BLOCKED_2D``, a flat group's layouts) — one
    ``(q, q)`` / ``(p,)`` stack when numeric on more than one rank."""
    backend = owner.sim.backend
    ranks = owner.ranks
    if _stackable(owner, backend):
        lead = (owner.q, owner.q) if layout.kind == "blocked_2d" else (len(ranks),)
        blocks = ops.zeros(lead + tuple(block_shape), dtype=dtype, backend=backend)
        return DTensor.from_blocks(owner, layout, blocks, global_shape, ranks)
    shards = {rank: ops.zeros(block_shape, dtype=dtype, backend=backend) for rank in ranks}
    return DTensor(owner, layout, shards, global_shape)


# ----------------------------------------------------------------------
# 2-D mesh layouts
# ----------------------------------------------------------------------
def distribute_blocked_2d(mesh: Mesh, a) -> DTensor:
    """Split a 2-D matrix into q×q blocks; coord (i, j) gets block (i, j).

    Numeric data on a q > 1 mesh is copied into one ``(q, q, M/q, N/q)``
    block stack (the shards are its views, so in-place updates of a shard
    are updates of the stack); a placeholder's blocks are all the one
    interned ``(M/q, N/q)`` placeholder; otherwise the shards are copied
    slices."""
    if a.ndim != 2:
        raise ValueError(f"blocked_2d requires a 2-D matrix, got shape {a.shape}")
    q = mesh.q
    m = _check_divisible(a.shape[0], q, "rows")
    n = _check_divisible(a.shape[1], q, "cols")
    if _stackable(mesh, ops.backend_of(a)):
        blocks = np.ascontiguousarray(a.reshape(q, m, q, n).swapaxes(1, 2))
        return DTensor.from_blocks(mesh, BLOCKED_2D, blocks, a.shape, mesh.ranks)
    if is_shape_array(a):
        order = [mesh.rank(i, j) for i in range(q) for j in range(q)]
        return DTensor(mesh, BLOCKED_2D, dict.fromkeys(order, ShapeArray((m, n), a.dtype)), a.shape)
    shards = {}
    for i in range(q):
        ri = block_slice(a.shape[0], q, i)
        for j in range(q):
            cj = block_slice(a.shape[1], q, j)
            shards[mesh.rank(i, j)] = _replica(a[ri, cj])
    return DTensor(mesh, BLOCKED_2D, shards, a.shape)


def assemble_blocked_2d(dt: DTensor) -> object:
    """Inverse of :func:`distribute_blocked_2d`."""
    mesh: Mesh = dt.owner
    q = mesh.q
    rows = [
        ops.concatenate([dt.local(mesh.rank(i, j)) for j in range(q)], axis=1)
        for i in range(q)
    ]
    return ops.concatenate(rows, axis=0)


def distribute_row_blocked(mesh: Mesh, a) -> DTensor:
    """Split axis 0 by mesh row; replicate within each row (token ids, labels)."""
    q = mesh.q
    _check_divisible(a.shape[0], q, "axis 0")
    shards = {}
    for i in range(q):
        block = a[block_slice(a.shape[0], q, i)]
        for j in range(q):
            rank = mesh.rank(i, j)
            shards[rank] = _replica(block)
    return DTensor(mesh, ROW_BLOCKED, shards, a.shape)


def assemble_row_blocked(dt: DTensor) -> object:
    mesh: Mesh = dt.owner
    return ops.concatenate([dt.local(mesh.rank(i, 0)) for i in range(mesh.q)], axis=0)


def distribute_row0_cols(mesh: Mesh, a) -> DTensor:
    """Split a 1-D vector into q blocks hosted by mesh row 0 (paper Fig. 5);
    numeric data on a q > 1 mesh is copied into one ``(q, n/q)`` stack
    indexed by column."""
    if a.ndim != 1:
        raise ValueError(f"row0_cols requires a 1-D vector, got shape {a.shape}")
    q = mesh.q
    n = _check_divisible(a.shape[0], q, "vector")
    if _stackable(mesh, ops.backend_of(a)):
        blocks = a.reshape(q, n).copy()
        return DTensor.from_blocks(
            mesh, ROW0_COLS, blocks, a.shape, [mesh.rank(0, j) for j in range(q)]
        )
    shards = {mesh.rank(0, j): _replica(a[block_slice(a.shape[0], q, j)]) for j in range(q)}
    return DTensor(mesh, ROW0_COLS, shards, a.shape)


def assemble_row0_cols(dt: DTensor) -> object:
    mesh: Mesh = dt.owner
    return ops.concatenate([dt.local(mesh.rank(0, j)) for j in range(mesh.q)], axis=0)


def distribute_row0_blockrows(mesh: Mesh, a) -> DTensor:
    """Split a 2-D matrix along axis 0 into q blocks hosted by mesh row 0."""
    if a.ndim != 2:
        raise ValueError(f"row0_blockrows requires a 2-D matrix, got {a.shape}")
    q = mesh.q
    _check_divisible(a.shape[0], q, "rows")
    shards = {
        mesh.rank(0, j): _replica(a[block_slice(a.shape[0], q, j)]) for j in range(q)
    }
    return DTensor(mesh, ROW0_BLOCKROWS, shards, a.shape)


def assemble_row0_blockrows(dt: DTensor) -> object:
    mesh: Mesh = dt.owner
    return ops.concatenate([dt.local(mesh.rank(0, j)) for j in range(mesh.q)], axis=0)


def assemble_any(dt: DTensor) -> object:
    """Assemble any DTensor back to a global array, dispatching on layout."""
    kind = dt.layout.kind
    if kind == "blocked_2d":
        return assemble_blocked_2d(dt)
    if kind == "row_blocked":
        return assemble_row_blocked(dt)
    if kind == "row0_cols":
        return assemble_row0_cols(dt)
    if kind == "row0_blockrows":
        return assemble_row0_blockrows(dt)
    if kind == "sharded_1d":
        return assemble_sharded_1d(dt)
    if kind in ("replicated", "replicated_1d", "rank0"):
        return dt.local(next(iter(sorted(dt.shards))))
    raise ValueError(f"cannot assemble layout {dt.layout}")


def scatter_any(dt: DTensor, a) -> None:
    """Write a global array into an existing DTensor's shards, in place.

    The exact inverse of :func:`assemble_any`: each shard receives the slice
    of ``a`` it owns under ``dt.layout``, copied elementwise into the shard's
    existing buffer (so every alias of the shard — optimizer state, model
    references — observes the restored values).  Like the ``distribute_*``
    helpers this models checkpoint *restore placement* and charges no
    communication.  Block boundaries are derived from the actual shard
    shapes, so ragged ``blocked_2d`` row blocks (MoE) restore correctly.
    """
    from repro.backend.shape_array import is_shape_array

    a = np.asarray(a)
    if tuple(a.shape) != dt.global_shape:
        raise ValueError(
            f"global array shape {a.shape} does not match DTensor "
            f"global_shape {dt.global_shape}"
        )
    if any(is_shape_array(s) for s in dt.shards.values()):
        raise ValueError("cannot scatter real values into dryrun placeholders")
    kind = dt.layout.kind
    if kind == "blocked_2d":
        mesh: Mesh = dt.owner
        q = mesh.q
        w = _check_divisible(a.shape[1], q, "cols")
        row_off = 0
        for i in range(q):
            h = dt.shards[mesh.rank(i, 0)].shape[0]
            for j in range(q):
                dt.shards[mesh.rank(i, j)][...] = a[
                    row_off : row_off + h, j * w : (j + 1) * w
                ]
            row_off += h
        if row_off != a.shape[0]:
            raise ValueError(f"row blocks cover {row_off} of {a.shape[0]} rows")
    elif kind == "row_blocked":
        mesh = dt.owner
        q = mesh.q
        for i in range(q):
            block = a[block_slice(a.shape[0], q, i)]
            for j in range(q):
                dt.shards[mesh.rank(i, j)][...] = block
    elif kind in ("row0_cols", "row0_blockrows"):
        mesh = dt.owner
        off = 0
        for j in range(mesh.q):
            shard = dt.shards[mesh.rank(0, j)]
            shard[...] = a[off : off + shard.shape[0]]
            off += shard.shape[0]
    elif kind == "sharded_1d":
        axis = dt.layout.axis
        off = 0
        for r in dt.owner.ranks:
            shard = dt.shards[r]
            n = shard.shape[axis]
            index = [slice(None)] * a.ndim
            index[axis] = slice(off, off + n)
            shard[...] = a[tuple(index)]
            off += n
    elif kind in ("replicated", "replicated_1d", "rank0"):
        for shard in dt.shards.values():
            shard[...] = a
    else:
        raise ValueError(f"cannot scatter layout {dt.layout}")


def distribute_replicated(mesh: Mesh, a) -> DTensor:
    shards = {r: _replica(a) for r in mesh.ranks}
    return DTensor(mesh, REPLICATED, shards, a.shape)


# ----------------------------------------------------------------------
# flat (1-D / Megatron) layouts
# ----------------------------------------------------------------------
def distribute_sharded_1d(group: ProcessGroup, a, axis: int) -> DTensor:
    """Split ``a`` along ``axis`` into ``group.size`` equal shards — numeric
    data on p > 1 ranks copied into one ``(p,) + shard`` stack."""
    axis = axis % a.ndim
    _check_divisible(a.shape[axis], group.size, f"axis {axis}")
    pieces = ops.split(a, group.size, axis=axis)
    if _stackable(group, ops.backend_of(a)):
        return DTensor.from_blocks(
            group, SHARDED_1D(axis), np.stack(pieces), a.shape, group.ranks
        )
    shards = {r: _replica(pieces[k]) for k, r in enumerate(group.ranks)}
    return DTensor(group, SHARDED_1D(axis), shards, a.shape)


def assemble_sharded_1d(dt: DTensor) -> object:
    group: ProcessGroup = dt.owner
    return ops.concatenate([dt.local(r) for r in group.ranks], axis=dt.layout.axis)


def distribute_replicated_1d(group: ProcessGroup, a) -> DTensor:
    """A copy of ``a`` on every rank — numeric data on p > 1 ranks as one
    ``(p,) + shape`` stack of owned copies (parameters are updated in place,
    and each rank keeps its own; replicated math still reads one)."""
    if _stackable(group, ops.backend_of(a)):
        blocks = np.repeat(np.asarray(a)[None], group.size, axis=0)
        return DTensor.from_blocks(group, REPLICATED_1D, blocks, a.shape, group.ranks)
    shards = {r: _replica(a) for r in group.ranks}
    return DTensor(group, REPLICATED_1D, shards, a.shape)


def assemble_replicated(dt: DTensor) -> object:
    """Any replicated layout: return rank 0's copy (they are all equal)."""
    return dt.local(next(iter(sorted(dt.shards))))


def _replica(x):
    """Copy so ranks never alias each other's buffers (no-op for dryrun)."""
    return x if is_shape_array(x) else np.array(x, copy=True)
