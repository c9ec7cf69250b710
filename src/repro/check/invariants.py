"""DTensor/layout invariant validation.

The paper's bit-for-bit equivalence argument (§2.4) rests on layout
contracts the distributed modules maintain implicitly: shard shapes tile
the global shape exactly, each scalar is owned by exactly one device for
the partitioned layouts, and replicated layouts hold bit-identical copies.
This module makes those contracts executable.

:func:`validate_dtensor` dispatches on the layout kind and raises
:class:`InvariantViolation` with a precise message on the first breach.
It is the engine behind the simulator's *strict mode*
(``Simulator(strict_invariants=True)`` or ``REPRO_STRICT_INVARIANTS=1``),
which validates every DTensor at construction time — and it can be called
directly on any DTensor in tests.

Contracts, by layout kind (``q`` = mesh dimension, ``g`` = group size,
``G`` = global shape):

* ``blocked_2d`` — 2-D; every shard in mesh row *i* shares one shape with
  exactly ``G[1]/q`` columns; the per-row row-counts partition ``G[0]`` in
  row order.  (Row blocks may be *ragged* — the MoE layer routes unequal
  token counts per expert — but must still tile exactly.)
* ``row_blocked`` — axis 0 split into q equal row blocks; the q devices of
  a mesh row hold bit-identical copies of their block.
* ``col_blocked`` — symmetric: split by mesh column, replicated within
  each column.
* ``replicated`` / ``replicated_1d`` — every rank holds the full array;
  all copies bit-identical.
* ``sharded_1d`` — split along ``layout.axis`` into g equal shards, one
  per group rank, in rank order.
* ``partial_1d`` — every group rank holds one addend of the global shape.
* ``row0_cols`` — 1-D vector split into q equal blocks hosted by the q
  devices of mesh row 0 only (paper Fig. 5).
* ``row0_blockrows`` — 2-D matrix split along axis 0 into q blocks hosted
  by mesh row 0 only.
* ``rank0`` — a single shard holding the full array.

A DTensor that carries a stack (``dt.blocks``) must also keep every shard a
view of its stack entry, with the entry's shape and dtype; replicas that
all view one ``(1,)`` entry are bit-identical by construction.

Replica bit-identity is only checkable on the numpy backend; dryrun
ShapeArrays carry no values, so strict mode degrades to pure shape/
ownership checking there.
"""

from __future__ import annotations

import numpy as np

from repro.backend.shape_array import is_shape_array


class InvariantViolation(AssertionError):
    """A DTensor does not satisfy its layout's contract."""


def _fail(dt, name, msg) -> None:
    label = f" ({name})" if name else ""
    raise InvariantViolation(
        f"DTensor{label} layout={dt.layout} global_shape={dt.global_shape}: {msg}"
    )


def _bit_identical(a, b) -> bool:
    if is_shape_array(a) or is_shape_array(b):
        return tuple(a.shape) == tuple(b.shape)  # dryrun: values don't exist
    return np.array_equal(np.asarray(a), np.asarray(b))


def _check_dtypes(dt, name) -> None:
    dtypes = {str(getattr(s, "dtype", None)) for s in dt.shards.values()}
    if len(dtypes) > 1:
        _fail(dt, name, f"shards disagree on dtype: {sorted(dtypes)}")


def _mesh_of(dt):
    """The owning Mesh, duck-typed by its ``q`` attribute (avoids imports)."""
    owner = dt.owner
    if getattr(owner, "q", None) is None:
        return None
    return owner


def _require_ranks(dt, name, expected) -> None:
    got = set(dt.shards)
    if got != set(expected):
        _fail(
            dt, name,
            f"rank set {sorted(got)} does not match layout owners {sorted(expected)}",
        )


# ----------------------------------------------------------------------
# per-layout validators
# ----------------------------------------------------------------------
def _validate_blocked_2d(dt, name) -> None:
    mesh = _mesh_of(dt)
    if mesh is None:
        _fail(dt, name, "blocked_2d requires a Mesh owner")
    if len(dt.global_shape) != 2:
        _fail(dt, name, "blocked_2d requires a 2-D global shape")
    R, C = dt.global_shape
    q = mesh.q
    if C % q != 0:
        _fail(dt, name, f"{C} columns not divisible by q={q}")
    _require_ranks(dt, name, mesh.ranks)
    rows_seen = 0
    for i in range(q):
        row_shapes = {tuple(dt.shards[mesh.rank(i, j)].shape) for j in range(q)}
        if len(row_shapes) != 1:
            _fail(dt, name, f"mesh row {i} shards disagree on shape: {sorted(row_shapes)}")
        shape = row_shapes.pop()
        if len(shape) != 2 or shape[1] != C // q:
            _fail(
                dt, name,
                f"mesh row {i} shard shape {shape} != (·, {C // q}) column block",
            )
        rows_seen += shape[0]
    if rows_seen != R:
        _fail(dt, name, f"row blocks sum to {rows_seen} rows, global has {R}")


def _validate_row_blocked(dt, name) -> None:
    mesh = _mesh_of(dt)
    if mesh is None:
        _fail(dt, name, "row_blocked requires a Mesh owner")
    q = mesh.q
    R = dt.global_shape[0]
    if R % q != 0:
        _fail(dt, name, f"axis 0 of {R} not divisible by q={q}")
    block = (R // q,) + dt.global_shape[1:]
    _require_ranks(dt, name, mesh.ranks)
    for i in range(q):
        ref = dt.shards[mesh.rank(i, 0)]
        if tuple(ref.shape) != block:
            _fail(dt, name, f"row {i} shard shape {tuple(ref.shape)} != {block}")
        for j in range(1, q):
            if not _bit_identical(ref, dt.shards[mesh.rank(i, j)]):
                _fail(dt, name, f"replicas in mesh row {i} are not bit-identical")


def _validate_col_blocked(dt, name) -> None:
    mesh = _mesh_of(dt)
    if mesh is None:
        _fail(dt, name, "col_blocked requires a Mesh owner")
    q = mesh.q
    R = dt.global_shape[0]
    if R % q != 0:
        _fail(dt, name, f"axis 0 of {R} not divisible by q={q}")
    block = (R // q,) + dt.global_shape[1:]
    _require_ranks(dt, name, mesh.ranks)
    for j in range(q):
        ref = dt.shards[mesh.rank(0, j)]
        if tuple(ref.shape) != block:
            _fail(dt, name, f"column {j} shard shape {tuple(ref.shape)} != {block}")
        for i in range(1, q):
            if not _bit_identical(ref, dt.shards[mesh.rank(i, j)]):
                _fail(dt, name, f"replicas in mesh column {j} are not bit-identical")


def _validate_replicated(dt, name) -> None:
    ranks = sorted(dt.shards)
    if not ranks:
        _fail(dt, name, "no shards")
    ref = dt.shards[ranks[0]]
    if tuple(ref.shape) != dt.global_shape:
        _fail(
            dt, name,
            f"replica shape {tuple(ref.shape)} != global {dt.global_shape}",
        )
    blocks = getattr(dt, "blocks", None)
    if blocks is not None and len(blocks) == 1:
        return  # every rank views one stack entry (checked with the stack)
    for r in ranks[1:]:
        s = dt.shards[r]
        if tuple(s.shape) != dt.global_shape:
            _fail(dt, name, f"rank {r} replica shape {tuple(s.shape)} != global")
        if not _bit_identical(ref, s):
            _fail(dt, name, f"replicas on ranks {ranks[0]} and {r} differ bitwise")


def _validate_sharded_1d(dt, name) -> None:
    group = dt.owner
    axis = dt.layout.axis
    if axis is None:
        _fail(dt, name, "sharded_1d layout carries no axis")
    ndim = len(dt.global_shape)
    axis = axis % ndim
    g = group.size
    if dt.global_shape[axis] % g != 0:
        _fail(
            dt, name,
            f"axis {axis} of {dt.global_shape[axis]} not divisible by group size {g}",
        )
    expected = list(dt.global_shape)
    expected[axis] = dt.global_shape[axis] // g
    expected = tuple(expected)
    _require_ranks(dt, name, group.ranks)
    for r in group.ranks:
        got = tuple(dt.shards[r].shape)
        if got != expected:
            _fail(dt, name, f"rank {r} shard shape {got} != {expected}")


def _validate_partial_1d(dt, name) -> None:
    _require_ranks(dt, name, dt.owner.ranks)
    for r, s in dt.shards.items():
        if tuple(s.shape) != dt.global_shape:
            _fail(dt, name, f"rank {r} addend shape {tuple(s.shape)} != global")


def _validate_row0_cols(dt, name) -> None:
    mesh = _mesh_of(dt)
    if mesh is None:
        _fail(dt, name, "row0_cols requires a Mesh owner")
    if len(dt.global_shape) != 1:
        _fail(dt, name, "row0_cols requires a 1-D global shape")
    q = mesh.q
    n = dt.global_shape[0]
    if n % q != 0:
        _fail(dt, name, f"vector of {n} not divisible by q={q}")
    _require_ranks(dt, name, [mesh.rank(0, j) for j in range(q)])
    for j in range(q):
        got = tuple(dt.shards[mesh.rank(0, j)].shape)
        if got != (n // q,):
            _fail(dt, name, f"row-0 column {j} shard shape {got} != ({n // q},)")


def _validate_row0_blockrows(dt, name) -> None:
    mesh = _mesh_of(dt)
    if mesh is None:
        _fail(dt, name, "row0_blockrows requires a Mesh owner")
    if len(dt.global_shape) != 2:
        _fail(dt, name, "row0_blockrows requires a 2-D global shape")
    q = mesh.q
    R, C = dt.global_shape
    if R % q != 0:
        _fail(dt, name, f"{R} rows not divisible by q={q}")
    _require_ranks(dt, name, [mesh.rank(0, j) for j in range(q)])
    for j in range(q):
        got = tuple(dt.shards[mesh.rank(0, j)].shape)
        if got != (R // q, C):
            _fail(dt, name, f"row-0 column {j} shard shape {got} != ({R // q}, {C})")


def _validate_rank0(dt, name) -> None:
    if len(dt.shards) != 1:
        _fail(dt, name, f"rank0 layout must have exactly one shard, got {len(dt.shards)}")
    shard = next(iter(dt.shards.values()))
    if tuple(shard.shape) != dt.global_shape:
        _fail(dt, name, f"shard shape {tuple(shard.shape)} != global {dt.global_shape}")


_VALIDATORS = {
    "blocked_2d": _validate_blocked_2d,
    "row_blocked": _validate_row_blocked,
    "col_blocked": _validate_col_blocked,
    "replicated": _validate_replicated,
    "replicated_1d": _validate_replicated,
    "partial_1d": _validate_partial_1d,
    "sharded_1d": _validate_sharded_1d,
    "row0_cols": _validate_row0_cols,
    "row0_blockrows": _validate_row0_blockrows,
    "rank0": _validate_rank0,
}


def validate_dtensor(dt, name: str = "") -> None:
    """Validate one DTensor against its layout contract.

    ``name`` only decorates the error message (parameter name, call site).
    Raises :class:`InvariantViolation` on the first breach; returns None
    when every invariant holds.
    """
    validator = _VALIDATORS.get(dt.layout.kind)
    if validator is None:
        _fail(dt, name, f"unknown layout kind {dt.layout.kind!r}")
    _check_dtypes(dt, name)
    validator(dt, name)
    if getattr(dt, "blocks", None) is not None:
        _validate_blocks(dt, name)


def _validate_blocks(dt, name) -> None:
    """A stack's invariant (``DTensor.from_blocks``): every shard is a view
    of its stack entry — on a mesh ``blocks[i, j]`` for mesh coordinate
    (i, j), ``blocks[j]`` for a row-0 layout, a size-1 leading axis shared
    along that mesh axis; on a flat group ``blocks[k]`` for group position
    k, or the one entry of a ``(1,)`` stack — with the entry's shape and
    dtype."""
    blocks = dt.blocks
    lead = blocks.ndim - len(dt.global_shape)
    block_shape = tuple(blocks.shape[lead:])
    mesh = _mesh_of(dt)
    if mesh is None:
        position = {rank: k for k, rank in enumerate(dt.owner.ranks)}
        if lead != 1 or len(blocks) not in (1, len(position)):
            _fail(dt, name, f"stack {blocks.shape} is not (1,) or (g,) + shard")
    for rank, shard in dt.shards.items():
        if mesh is None:
            entry = blocks[position[rank] % len(blocks)]
        elif lead == 1:
            entry = blocks[mesh.coords(rank)[1] % blocks.shape[0]]
        else:
            i, j = mesh.coords(rank)
            entry = blocks[i % blocks.shape[0], j % blocks.shape[1]]
        if tuple(shard.shape) != block_shape or shard.dtype != blocks.dtype:
            _fail(
                dt, name,
                f"rank {rank} shard {tuple(shard.shape)}/{shard.dtype} is not its "
                f"block-stack entry {block_shape}/{blocks.dtype}",
            )
        if not np.shares_memory(shard, entry):
            _fail(dt, name, f"rank {rank} shard is not a view of its block-stack entry")
