"""Collectives over stacks, shared by both schemes.

When :func:`~repro.mesh.dtensor.on_stacks` holds, a collective's data
movement is one NumPy expression over the operand's stack — a fold in
``collectives._combine``'s order, one concatenate — and its α–β accounting
is replayed with :func:`~repro.comm.collectives.charge_only`, group by group
in the per-rank call order, at a price cached per owner and buffer size.
The result is one entry the members view: a size-1 axis of the stack (on a
flat group, read-only).  Otherwise the per-rank collectives run, which is
what the contract checker and a fault injector observe.
"""

from __future__ import annotations

from repro.backend import ops
from repro.comm import collectives as coll
from repro.mesh.dtensor import DTensor, on_stacks
from repro.mesh.layouts import BLOCKED_2D, REPLICATED_1D


def precosts(owner, lines, kind: str, block) -> list:
    """``(group, precost)`` of a ``kind`` collective over ``block``-sized
    buffers on each of ``owner``'s ``lines`` (a mesh's ``"row_groups"`` /
    ``"col_groups"``; None for a flat group itself), priced once per owner
    and buffer size — what the per-rank collective would price on every
    call."""
    cache = getattr(owner, "_line_precosts", None)
    if cache is None:
        cache = owner._line_precosts = {}
    nbytes = ops.nbytes(block)
    costs = cache.get((lines, kind, nbytes))
    if costs is None:
        costs = cache[lines, kind, nbytes] = [
            (group, group.model.price(kind, nbytes)) for group in _groups(owner, lines)
        ]
    return costs


def _groups(owner, lines) -> list:
    return [owner] if lines is None else getattr(owner, lines)


def _all_reduce(owner, lines, axis: int, x: DTensor, layout) -> DTensor:
    """Sum ``x``'s shards over each of ``owner``'s ``lines``, every member
    keeping the sum; on stacks the fold runs over stack axis ``axis``."""
    if on_stacks(owner, x):
        block = next(iter(x.shards.values()))
        for group, cost in precosts(owner, lines, "all_reduce", block):
            coll.charge_only(group, "all_reduce", cost)
        total = ops.fold_stack_sum(x.blocks, axis=axis)
        shared = total.reshape(total.shape[:axis] + (1,) + total.shape[axis:])
        return DTensor.from_blocks(owner, layout, shared, x.global_shape, x.shards)
    shards = dict(x.shards)
    for group in _groups(owner, lines):
        shards.update(coll.all_reduce(group, {r: shards[r] for r in group.ranks}))
    return DTensor(owner, layout, shards, x.global_shape)


def all_reduce_rows(mesh, x: DTensor) -> DTensor:
    """Sum ``x``'s blocks along each mesh row, every member keeping the sum
    (the row statistics of §3.2.2): on stacks the row's members share it, a
    size-1 column axis."""
    return _all_reduce(mesh, "row_groups", 1, x, BLOCKED_2D)


def all_reduce(group, partials: DTensor) -> DTensor:
    """Megatron's f / g operator: the ``PARTIAL_1D`` addends summed into the
    ``REPLICATED_1D`` tensor — on stacks one ``(1,)`` entry."""
    return _all_reduce(group, None, 0, partials, REPLICATED_1D)


def all_gather(group, x: DTensor, parts: dict) -> DTensor:
    """Rebuild the replicated ``x`` from ``parts`` (``{rank: row slice of
    x}``): every member receives their group-order concatenation.
    When ``x`` was on a stack, one concatenate into a shared ``(1,)`` entry
    and the replayed charge; otherwise the per-rank all-gather."""
    if on_stacks(group, x):
        full = ops.concatenate([parts[r] for r in group.ranks], axis=0)
        for g, cost in precosts(group, None, "all_gather", full):
            coll.charge_only(g, "all_gather", cost)
        return DTensor.from_blocks(group, REPLICATED_1D, full[None], x.global_shape, group.ranks)
    return DTensor(group, REPLICATED_1D, coll.all_gather(group, parts), x.global_shape)
