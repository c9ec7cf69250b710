"""Collectives along every row or column of a mesh, or over one flat group,
shared by both schemes.  Only loops with per-line math between the calls
(SUMMA's plan executor, the 2-D embedding's vocabulary stripes, the serving
engine's greedy sampler) run collectives over mesh lines elsewhere.

The paper moves every non-SUMMA parameter one way — hosted on mesh row 0,
broadcast down the columns in forward, its gradient reduced back up them
(Fig. 5) — and completes partial sums one way, by a row all-reduce
(§3.2.2).  :func:`per_line` is the per-rank loop: the real collective of
:mod:`repro.comm.collectives` on each line in turn, over that line's
members' shards.  Callers holding raw ``{rank: shard}`` dicts (the
vocabulary-striped loss, the classification head, the MoE gate) use it
directly; the DTensor collectives below fall back to it.

When :func:`~repro.mesh.dtensor.on_stacks` holds, a DTensor collective's
data movement is one NumPy expression over the operand's stack — a fold in
``collectives._combine``'s order, one concatenate — and its α–β accounting
is replayed with one :func:`~repro.comm.collectives.charge_only` over the
lines, in the per-rank call order, at a price cached per owner and buffer
size.
The result is one entry the members view: a size-1 axis of the stack (on a
flat group, read-only).  On the dry run, a tensor whose shards are all one
interned float placeholder (:func:`~repro.mesh.dtensor.one_placeholder`,
under the same gate) takes that branch too: the one ``charge_only``, and
the placeholder back on every rank, which is what the per-rank collective
returns.  Otherwise :func:`per_line` runs, which is what the contract
checker and a fault injector observe.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import ops
from repro.comm import collectives as coll
from repro.mesh.dtensor import DTensor, on_stacks, one_placeholder
from repro.mesh.layouts import BLOCKED_2D, COL_BLOCKED, REPLICATED_1D, ROW0_COLS


def precosts(owner, lines, kind: str, nbytes: int) -> list:
    """``(group, precost)`` of a ``kind`` collective over ``nbytes``-sized
    buffers on each of ``owner``'s ``lines`` (a mesh's ``"row_groups"`` /
    ``"col_groups"``; None for a flat group itself), priced once per owner
    and buffer size — what the per-rank collective would price on every
    call — in line order: :func:`~repro.comm.collectives.charge_only`'s
    ``lines``."""
    cache = getattr(owner, "_line_precosts", None)
    if cache is None:
        cache = owner._line_precosts = {}
    costs = cache.get((lines, kind, nbytes))
    if costs is None:
        costs = cache[lines, kind, nbytes] = [
            (group, group.model.price(kind, nbytes)) for group in _groups(owner, lines)
        ]
    return costs


def _groups(owner, lines) -> list:
    return [owner] if lines is None else getattr(owner, lines)


def per_line(groups, kind: str, shards: dict, op: str = "sum") -> dict:
    """The per-rank ``kind`` collective (``"all_reduce"`` with ``op``,
    ``"reduce"`` or ``"broadcast"``) on each of ``groups`` in turn, over its
    members' ``shards``; a rooted one is rooted at the group's first member
    (mesh row 0 on a column), and a broadcast reads only the roots' shards.
    Returns the groups' results merged in group order."""
    out = {}
    for group in groups:
        root = group.ranks[0]
        if kind == "broadcast":
            out.update(coll.broadcast(group, shards[root], root))
        elif kind == "reduce":
            out.update(coll.reduce(group, {r: shards[r] for r in group.ranks}, root))
        else:
            out.update(coll.all_reduce(group, {r: shards[r] for r in group.ranks}, op=op))
    return out


def _all_reduce(owner, lines, axis: int, x: DTensor, layout) -> DTensor:
    """Sum ``x``'s shards over each of ``owner``'s ``lines``, every member
    keeping the sum; on stacks the fold runs over stack axis ``axis``."""
    if on_stacks(owner, x):
        coll.charge_only("all_reduce", precosts(owner, lines, "all_reduce", x.shard_nbytes()))
        total = ops.fold_stack_sum(x.blocks, axis=axis)
        shared = total.reshape(total.shape[:axis] + (1,) + total.shape[axis:])
        return DTensor.from_blocks(owner, layout, shared, x.global_shape, x.ranks)
    ph = one_placeholder(owner, x)
    if ph is not None:
        coll.charge_only("all_reduce", precosts(owner, lines, "all_reduce", ph.nbytes))
        return DTensor(owner, layout, x.shards, x.global_shape)
    summed = per_line(_groups(owner, lines), "all_reduce", x.shards)
    return DTensor(owner, layout, {**x.shards, **summed}, x.global_shape)


def all_reduce_rows(mesh, x: DTensor) -> DTensor:
    """Sum ``x``'s blocks along each mesh row, every member keeping the sum
    (the row statistics of §3.2.2): on stacks the row's members share it, a
    size-1 column axis."""
    return _all_reduce(mesh, "row_groups", 1, x, BLOCKED_2D)


def all_reduce(group, partials: DTensor) -> DTensor:
    """Megatron's f / g operator: the ``PARTIAL_1D`` addends summed into the
    ``REPLICATED_1D`` tensor — on stacks one ``(1,)`` entry."""
    return _all_reduce(group, None, 0, partials, REPLICATED_1D)


def all_gather(group, x: DTensor, parts: Optional[dict]) -> DTensor:
    """Rebuild the replicated ``x`` from ``parts`` (``{rank: row slice of
    x}``): every member receives their group-order concatenation.
    When ``x`` was on a stack, one concatenate into a shared ``(1,)`` entry
    and the replayed charge.  When ``x`` is one dry-run placeholder
    (:func:`one_placeholder`) the concatenation is that placeholder: its
    bytes are charged and the same object handed back, ``parts`` unread
    (None where no slices were made).  Otherwise the per-rank all-gather."""
    if on_stacks(group, x):
        full = ops.concatenate([parts[r] for r in group.ranks], axis=0)
        coll.charge_only("all_gather", precosts(group, None, "all_gather", ops.nbytes(full)))
        return DTensor.from_blocks(group, REPLICATED_1D, full[None], x.global_shape, group.ranks)
    ph = one_placeholder(group, x)
    if ph is not None:
        coll.charge_only("all_gather", precosts(group, None, "all_gather", ph.nbytes))
        return DTensor(group, REPLICATED_1D, dict.fromkeys(group.ranks, ph), x.global_shape)
    return DTensor(group, REPLICATED_1D, coll.all_gather(group, parts), x.global_shape)


def broadcast_down_columns(mesh, param) -> DTensor:
    """Every rank's copy of a parameter hosted on mesh row 0 (``ROW0_COLS``
    or ``ROW0_BLOCKROWS``; ``param`` a :class:`~repro.core.param.DistParam`):
    each block is broadcast down its mesh column (Fig. 5a).  A
    ``COL_BLOCKED`` DTensor keyed column by column.  With :func:`on_stacks`,
    the broadcasts are charged and the result is a read-only-by-use
    broadcast view of the parameter's stack (no rank writes it; a fault
    injector, which would, forces the per-rank path)."""
    data = param.data
    if on_stacks(mesh, data):
        nbytes = data.shard_nbytes()
        coll.charge_only("broadcast", precosts(mesh, "col_groups", "broadcast", nbytes))
        # the stack is updated in place, so the view stays current: it is
        # kept on the parameter and rebuilt only if ``param.data`` is replaced
        cached = getattr(param, "_column_view", None)
        if cached is None or cached[0] is not data:
            order = [rank for group in mesh.col_groups for rank in group.ranks]
            view = DTensor.from_blocks(
                mesh, COL_BLOCKED, data.blocks[None], data.global_shape, order
            )
            cached = param._column_view = (data, view)
        return cached[1]
    ph = one_placeholder(mesh, data)
    if ph is not None:
        coll.charge_only("broadcast", precosts(mesh, "col_groups", "broadcast", ph.nbytes))
        order = [rank for group in mesh.col_groups for rank in group.ranks]
        return DTensor(mesh, COL_BLOCKED, dict.fromkeys(order, ph), data.global_shape)
    local = per_line(mesh.col_groups, "broadcast", data.shards)
    return DTensor(mesh, COL_BLOCKED, local, data.global_shape)


def reduce_up_columns(mesh, partials: DTensor, shape) -> tuple:
    """Sum ``partials``' ``[k, n]`` blocks along each mesh column onto row 0
    (Fig. 5b): the k rows of the sums as k ``ROW0_COLS`` vectors of global
    ``shape``, keyed by column root.  With :func:`on_stacks`, the fold is
    ``collectives._combine``'s (copy row 0, add rows 1… in order) over the
    stack's mesh-row axis."""
    roots = [group.ranks[0] for group in mesh.col_groups]
    if on_stacks(mesh, partials):
        coll.charge_only("reduce", precosts(mesh, "col_groups", "reduce", partials.shard_nbytes()))
        total = ops.fold_stack_sum(partials.blocks, axis=0)  # [q, k, n] by column
        return tuple(
            DTensor.from_blocks(mesh, ROW0_COLS, total[:, t], shape, roots)
            for t in range(total.shape[1])
        )
    ph = one_placeholder(mesh, partials)
    if ph is not None:
        coll.charge_only("reduce", precosts(mesh, "col_groups", "reduce", ph.nbytes))
        return tuple(
            DTensor(mesh, ROW0_COLS, dict.fromkeys(roots, ph[t]), shape)
            for t in range(ph.shape[0])
        )
    reduced = per_line(mesh.col_groups, "reduce", partials.shards)
    return tuple(
        DTensor(mesh, ROW0_COLS, {root: sums[t] for root, sums in reduced.items()}, shape)
        for t in range(reduced[roots[0]].shape[0])
    )
