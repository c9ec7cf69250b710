"""DTensor/layout invariant validation.

The paper's bit-for-bit equivalence argument (§2.4) rests on layout
contracts the distributed modules maintain implicitly: shard shapes tile
the global shape exactly, each scalar is owned by exactly one device for
the partitioned layouts, and replicated layouts hold bit-identical copies.
This module makes those contracts executable.

:func:`validate_dtensor` raises :class:`InvariantViolation` with a precise
message on the first breach.  It is the engine behind the simulator's
*strict mode* (``Simulator(strict_invariants=True)`` or
``REPRO_STRICT_INVARIANTS=1``), which validates every DTensor at
construction time (:func:`strict_mode` turns it on for a block) — and it
can be called directly on any DTensor in tests.

The contract is one rule, read off the layout's record
(:mod:`repro.mesh.layouts`): the owner can carry the layout (one entry per
owner axis, split dims among the tensor's dims); exactly the layout's
hosts hold a shard, all of one dtype and with the global tensor's dims;
along each split axis the shards at one coordinate agree on the split
dim's extent and the extents sum to the global dim (blocks may be
*ragged* — the MoE layer routes unequal token counts per expert — but
must still tile exactly), and every other dim is the global one; the
ranks that agree on every split axis hold bit-identical copies, unless
the layout's unmapped axes hold addends.

A DTensor that carries a stack (``dt.blocks``) must also keep every shard a
view of its stack entry, with the entry's shape and dtype.

Replica bit-identity is only checkable on the numpy backend; dryrun
ShapeArrays carry no values, so strict mode degrades to pure shape/
ownership checking there.
"""

from __future__ import annotations

from contextlib import contextmanager

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


def validate_dtensor(dt, name: str = "") -> None:
    """Validate one DTensor against its layout contract.

    ``name`` only decorates the error message (parameter name, call site).
    Raises :class:`InvariantViolation` on the first breach; returns None
    when every invariant holds.
    """
    layout, owner, shape = dt.layout, dt.owner, dt.global_shape
    misfit = layout.misfit(owner, len(shape))
    if misfit is not None:
        _fail(dt, name, f"the owner cannot carry this layout: it {misfit}")
    shards = dt.shards
    dtypes = {str(getattr(s, "dtype", None)) for s in shards.values()}
    if len(dtypes) > 1:
        _fail(dt, name, f"shards disagree on dtype: {sorted(dtypes)}")
    coords = layout.coords(owner)
    if set(shards) != set(coords):
        _fail(
            dt, name,
            f"rank set {sorted(shards)} does not match layout owners {sorted(coords)}",
        )
    for rank in coords:
        if len(shards[rank].shape) != len(shape):
            got = tuple(shards[rank].shape)
            _fail(dt, name, f"rank {rank} shard shape {got} is not {len(shape)}-D")

    split = set()
    for axis, dim in layout.splits:
        split.add(dim % len(shape))
        extents = {}
        for rank, c in coords.items():
            extent = shards[rank].shape[dim]
            if extents.setdefault(c[axis], extent) != extent:
                _fail(
                    dt, name,
                    f"shards at coordinate {c[axis]} of owner axis {axis} disagree on "
                    f"shape: {extents[c[axis]]} and {extent} along dim {dim}",
                )
        total = sum(extents.values())
        if total != shape[dim]:
            _fail(dt, name, f"blocks of dim {dim} sum to {total}, global has {shape[dim]}")
    for rank in coords:
        got = tuple(shards[rank].shape)
        if any(got[d] != n for d, n in enumerate(shape) if d not in split):
            _fail(dt, name, f"rank {rank} shard shape {got} != global {shape} off the split dims")

    if not layout.partial:
        holder = {}  # split coordinates -> the first rank holding that block
        for rank, c in coords.items():
            first = holder.setdefault(tuple(c[a] for a, _ in layout.splits), rank)
            ref, mine = shards[first], shards[rank]
            if mine is not ref and not _bit_identical(ref, mine):
                _fail(
                    dt, name,
                    f"copies on ranks {first} and {rank} differ bitwise (not bit-identical)",
                )
    if getattr(dt, "blocks", None) is not None:
        _validate_blocks(dt, name, coords)


def _validate_blocks(dt, name, coords) -> None:
    """A stack's invariant (``DTensor.from_blocks``): its leading axes are
    the layout's stack axes, each of the owner's size or 1 (a block shared
    along that axis), and every shard is a view of its stack entry, with
    the entry's shape and dtype."""
    blocks, layout = dt.blocks, dt.layout
    axes = layout.stack_axes
    lead = blocks.shape[: len(axes)]
    sizes = layout.stack_shape(dt.owner)
    if blocks.ndim != len(axes) + len(dt.global_shape) or any(
        n not in (1, size) for n, size in zip(lead, sizes)
    ):
        _fail(dt, name, f"stack {blocks.shape} is not {sizes} (or size-1 axes) + block")
    block_shape = tuple(blocks.shape[len(axes) :])
    for rank, shard in dt.shards.items():
        c = coords[rank]
        entry = blocks[tuple(c[a] % n for a, n in zip(axes, lead))]
        if tuple(shard.shape) != block_shape or shard.dtype != blocks.dtype:
            _fail(
                dt, name,
                f"rank {rank} shard {tuple(shard.shape)}/{shard.dtype} is not its "
                f"block-stack entry {block_shape}/{blocks.dtype}",
            )
        if not np.shares_memory(shard, entry):
            _fail(dt, name, f"rank {rank} shard is not a view of its block-stack entry")


@contextmanager
def strict_mode(sim):
    """Temporarily enable strict DTensor invariant checking on ``sim``."""
    prev = sim.strict_invariants
    sim.strict_invariants = True
    try:
        yield sim
    finally:
        sim.strict_invariants = prev
