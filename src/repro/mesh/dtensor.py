"""Distributed tensors: a layout plus one local shard per rank."""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray
from repro.mesh.layouts import Layout


def _signature(x):
    """What rank-local math on a placeholder can depend on: ``(shape, dtype)``,
    nested for a tuple of placeholders; ``None`` for anything else."""
    if type(x) is ShapeArray:
        return x.shape, x.dtype.name
    if type(x) is tuple:
        sig = tuple(map(_signature, x))
        return None if None in sig else sig
    return None


def rank_map(fn: Callable, ranks: Iterable[int], *shard_dicts: Dict[int, object]) -> dict:
    """``{rank: fn(*(d[rank] for d in shard_dicts))}`` in ``ranks`` order —
    how rank-local math is written.

    On real arrays that is exactly what runs, one ``fn`` call per rank.  On
    dryrun placeholders the result of rank-local math is a function of the
    arguments' (shape, dtype) alone and is immutable, so ranks whose
    arguments agree in that signature share one evaluation and one result
    (SPMD: every rank runs the same op on a same-shaped slice).  Placeholders
    are interned, so an equal signature is the same object, and ranks that
    all hold the same objects are recognised without a per-rank pass; ragged
    shards (several signatures), tuples built per rank and real arrays take
    the per-rank signature pass.  Which of the two applies is decided once
    per call, from the first rank's first argument; a real array anywhere
    else has no signature and its rank is evaluated alone.

    ``fn`` must be pure and must not close over the rank or anything derived
    from it.  Simulator charges are per-rank events and are made by the
    caller, after the math.  ``ranks`` is iterated more than once (a range,
    a list, a dict or its keys — not a generator).
    """
    a = shard_dicts[0]
    for rank in ranks:  # peek at the first rank's first argument
        if type(a[rank]) in (ShapeArray, tuple):
            return _map_sharing_placeholders(fn, ranks, shard_dicts)
        break
    # Real arrays: the plain loop.  Every numeric layer runs through here (a
    # 4-rank serving decode pass ≈ 7 000 times); on 4 shards the generic last
    # line costs ≈ 2.5 µs a call against ≈ 1.2 µs spelled out, which showed
    # as +4 % on hostbench's `serve_steady` — hence the three common arities.
    n = len(shard_dicts)
    if n == 1:
        return {r: fn(a[r]) for r in ranks}
    if n == 2:
        b = shard_dicts[1]
        return {r: fn(a[r], b[r]) for r in ranks}
    if n == 3:
        _, b, c = shard_dicts
        return {r: fn(a[r], b[r], c[r]) for r in ranks}
    return {r: fn(*[d[r] for d in shard_dicts]) for r in ranks}


def _map_sharing_placeholders(fn, ranks, shard_dicts) -> dict:
    # every rank already holds the same objects (interned placeholders, and
    # the tuples the batched SUMMA executor and earlier rank_maps hand all
    # ranks): one evaluation, without an argument list and a signature per rank
    firsts = []
    for d in shard_dicts:
        first = next(iter(d.values()))
        if _signature(first) is None or len(set(map(id, d.values()))) != 1:
            break
        firsts.append(first)
    else:
        return dict.fromkeys(ranks, fn(*firsts))
    # keyed on the signature, never on the placeholders themselves: their
    # ``==`` is elementwise and truthy, so a hash collision would mis-hit
    out, shared = {}, {}
    for rank in ranks:
        args = [d[rank] for d in shard_dicts]
        sig = tuple(map(_signature, args))
        if None in sig:  # a real array among them: this rank is evaluated alone
            out[rank] = fn(*args)
        else:
            if sig not in shared:
                shared[sig] = fn(*args)
            out[rank] = shared[sig]
    return out


def on_stacks(owner, *operands) -> bool:
    """Whether host math over ``operands`` (DTensors) runs once on their
    stacks: every operand carries one on ``owner`` (a mesh or a flat group,
    see :meth:`DTensor.from_blocks`) and the gate of SUMMA's batched executor
    (:func:`repro.core.summa._batched_ready`) holds.  The one test
    :func:`block_map`, the stacked collectives of :mod:`repro.comm.stacked`,
    the optimizer, SUMMA's operand reads, both embeddings' lookup and the
    serving step's QKV read and greedy sampler make; each then computes
    once on the stacks and replays the per-rank charges.  A stack exists
    only for uniform numeric shards on more than one rank, so placeholders,
    ragged or mixed-dtype shards, q = 1 or p = 1, an operand owned
    elsewhere, an armed injector and patched collectives all answer
    False; a tensor of one shared placeholder asks :func:`one_placeholder`
    instead, which the stacked collectives do."""
    for op in operands:
        if op.blocks is None or op.owner is not owner:
            return False
    # the shared gate, looked up per call (tests monkeypatch it); core.summa
    # imports this module, and the package imports core.summa, so it is
    # loaded — found without an import statement's cost on this hot path
    return sys.modules["repro.core.summa"]._batched_ready(owner.sim)


def one_placeholder(owner, x: "DTensor"):
    """The dry run's :func:`on_stacks`: the one interned placeholder every
    shard of ``x`` (a DTensor on ``owner``) is, when it is a float one (its
    sum is itself) and the gate of :func:`on_stacks` holds; else None.  A
    collective over such a tensor moves nothing a per-rank run could tell
    apart, so :mod:`repro.comm.stacked` charges its lines in one call and
    hands the same object back."""
    if x.blocks is not None or x.owner is not owner:
        return None
    shards = x.shards.values()
    for first in shards:
        break
    if type(first) is not ShapeArray or first.dtype.np_dtype.kind != "f":
        return None
    for shard in shards:
        if shard is not first:
            return None
    return first if sys.modules["repro.core.summa"]._batched_ready(owner.sim) else None


def block_map(fn: Callable, owner, *operands, layout: Layout = None):
    """Rank-local math over DTensors on ``owner`` (a mesh or a flat group):
    ``fn`` maps each rank's shards to its result shard(s).  Returns a DTensor
    of ``layout`` (default: the first operand's) — a tuple of them when
    ``fn`` returns a tuple — keyed in ``operands[0]``'s shard order, its
    global shape derived from the result shard's.

    When :func:`on_stacks` holds, ``fn`` runs **once**.  If every operand is
    replicated (``REPLICATED_1D``) it runs on one replica (the first entry
    of each stack) — the operands are equal by layout, so one evaluation is
    every rank's — and each result is a ``(1,)`` stack all ranks view,
    read-only.  Otherwise it runs on the stacks, a replicated operand as its
    ``(1,)`` entry: the mesh or group axes are leading axes, so ``fn`` must
    address shards by trailing axes (``axis=-1``, ``st[..., 0:1]``, a vector
    as ``v[..., None, :]``, ``swapaxes(-1, -2)``) and the same body serves a
    shard and a stack.  Elementwise ops act per element, a reduction over a
    stack's contiguous last axes equals the per-shard one and a batched
    ``matmul`` hands each slice to the same BLAS gemm, so the results equal
    the per-rank ones bit for bit.  Otherwise — and when ``fn`` hands back
    one of its replicas, which must stay owned — it is :func:`rank_map` over
    the shards.  Charges stay per rank, made by the caller.
    """
    first = operands[0]
    if layout is None:
        layout = first.layout
    order = first.ranks
    if on_stacks(owner, *operands):
        once = True
        for op in operands:
            if not op.layout.replicated:
                once = False
                break
        if once:  # any rank's replica: the first entry of each stack
            args = [op.blocks[op.layout.origin] for op in operands]
        else:
            args = [
                op.blocks[op.layout.head] if op.layout.replicated else op.blocks
                for op in operands
            ]
        result = fn(*args)
        parts = result if type(result) is tuple else (result,)
        if _stackable_results(parts, args if once else ()):
            expand = first.layout.expand
            lead = len(expand)
            out = []
            for part in parts:
                if once:
                    part = part[expand]
                shape = layout.global_shape(owner, part.shape[lead:])
                out.append(DTensor.from_blocks(owner, layout, part, shape, order))
            return tuple(out) if type(result) is tuple else out[0]
    per_rank = rank_map(fn, order, *[op.shards for op in operands])
    first = next(iter(per_rank.values()))
    if type(first) is not tuple:
        return _per_rank_result(owner, layout, per_rank)
    parts = [{} for _ in first]
    for rank, result in per_rank.items():
        for part, shard in zip(parts, result):
            part[rank] = shard
    return tuple(_per_rank_result(owner, layout, part) for part in parts)


def _stackable_results(parts, replicas) -> bool:
    """Whether ``parts`` can become stacks: arrays all (anything else — a
    conversion to dryrun placeholders — is made rank by rank), none of them
    one of the ``replicas`` handed back, which must stay owned."""
    for part in parts:
        if type(part) is not np.ndarray:
            return False
        for replica in replicas:
            if part is replica:
                return False
    return True


def _views(dt: "DTensor") -> dict:
    """``{rank: view of its stack entry}`` in the order of a stacked
    ``dt`` (see :meth:`DTensor.from_blocks`)."""
    owner, blocks, order = dt.owner, dt.blocks, dt.order
    q = getattr(owner, "q", None)
    if q is None:  # a flat group
        if len(blocks) == 1:
            return dict.fromkeys(order, blocks[0])
        local = dict(zip(owner.ranks, blocks))
        return {r: local[r] for r in order}
    if len(dt.layout.stack_axes) == 1:  # mesh row 0, by column
        a = blocks.shape[0]
        local = [blocks[j % a] for j in range(q)]
    else:
        a, b = blocks.shape[:2]
        local = [blocks[i % a, j % b] for i in range(q) for j in range(q)]
    off = owner.rank_offset
    return {r: local[r - off] for r in order}


def shard_runs(shards: Dict[int, object], measure) -> list:
    """``(measure(shard), ranks)`` for each maximal run of consecutive
    entries of ``shards`` that measure the same; entries sharing one object
    (a dry-run placeholder) are measured once."""
    runs = []
    ranks = list(shards)
    start = 0
    last = value = None
    for i, shard in enumerate(shards.values()):
        if shard is not last:
            last, measured = shard, measure(shard)
            if i and measured != value:
                runs.append((value, ranks[start:i]))
                start = i
            value = measured
    if ranks:
        runs.append((value, ranks[start:]))
    return runs


def _per_rank_result(owner, layout, shards: dict) -> "DTensor":
    """A DTensor of the per-rank results ``shards``, its global shape the
    shards' extents summed along each split axis (ragged MoE row blocks
    included), through the owner's first rank."""
    for first in shards.values():
        break
    shape = list(first.shape)
    for axis, dim in layout.splits:
        extent = 0
        for rank in owner.axes[axis]:
            extent += shards[rank].shape[dim]
        shape[dim] = extent
    return DTensor(owner, layout, shards, shape)


class DTensor:
    """A logical global tensor stored as per-rank shards.

    ``owner`` is the :class:`~repro.mesh.mesh.Mesh` (2-D layouts) or the flat
    :class:`~repro.comm.group.ProcessGroup` (1-D layouts) the shards live on.
    The class is deliberately thin — distributed *math* lives in the model
    modules, which know which collectives each operation needs; DTensor only
    carries data, shape bookkeeping, and elementwise conveniences that
    require no communication.  Uniform numeric shards on more than one rank
    may also be carried as one stack (``blocks``, built only by
    :meth:`from_blocks`), which :func:`block_map` and SUMMA compute on once
    per mesh or group when :func:`on_stacks` says so.
    """

    __slots__ = ("owner", "layout", "shards", "global_shape", "blocks", "order")

    def __init__(
        self,
        owner,
        layout: Layout,
        shards: Dict[int, object],
        global_shape: Tuple[int, ...],
    ):
        self.owner = owner
        self.layout = layout
        self.shards = dict(shards)
        self.global_shape = tuple(map(int, global_shape))
        #: the block stack the shards are views of, or None (see from_blocks)
        self.blocks = None
        # strict mode (repro.check): validate the layout contract at every
        # construction site.  ``is_enabled`` is the simulator's precomputed
        # instrumentation flag, so with all checking off this guard costs two
        # attribute reads and no property/descriptor calls.
        sim = getattr(owner, "sim", None)
        if sim is not None and sim.is_enabled and sim.strict_invariants:
            from repro.check.invariants import validate_dtensor

            validate_dtensor(self)

    @classmethod
    def from_blocks(cls, owner, layout: Layout, blocks, global_shape, order) -> "DTensor":
        """A DTensor on ``owner`` whose shards are views of one array.

        ``blocks`` is the **stack**: its leading axes are the layout's
        stack axes (:meth:`~repro.mesh.layouts.Layout.stack_shape`).  On a
        mesh: ``(q, q) + block`` indexed by mesh coordinate for a mesh-wide
        layout, ``(q,) + block`` indexed by column for a row-0 layout
        (``ROW0_*``); a leading axis of size 1 is a block shared along that
        mesh axis (a broadcast view: row
        statistics after a row all-reduce, a row-0 vector sent down the
        columns).  On a flat group: ``(p,) + shard`` indexed by group
        position (a ``(1, p) + shard`` array, one row of members, is read as
        that), or ``(1,) + shape``, one entry every rank views — marked
        read-only, since a write through one rank's handle would change all
        p (stacks are for more than one rank).  ``order`` (a sequence, kept
        as :attr:`ranks`) lists the ranks in the key order of the shards —
        part of the output, since charges and buffer holds are issued in
        shard order.

        ``shards`` is built on first read, in ``order``: stacked math reads
        a result through its stack, a mesh stack's :meth:`local` indexes
        it, and most results are never read rank by rank.  The invariant
        ``shards[rank]`` *is the memory of* its entry holds by construction;
        nothing rebinds a shard afterwards (``partition.scatter_any`` writes
        through the views).
        """
        # __init__'s fields but ``shards`` (see __getattr__), without
        # __init__'s check, which would run before the stack is set (stacked
        # math builds a DTensor per result, so this is a hot path)
        dt = cls.__new__(cls)
        if getattr(owner, "q", None) is None:  # a flat group
            if blocks.ndim - len(global_shape) > 1:
                blocks = blocks.reshape((-1,) + blocks.shape[-len(global_shape) :])
            if len(blocks) == 1:
                blocks.setflags(write=False)
        dt.owner, dt.layout, dt.blocks, dt.order = owner, layout, blocks, order
        dt.global_shape = tuple(global_shape)
        sim = owner.sim
        if sim.is_enabled and sim.strict_invariants:
            from repro.check.invariants import validate_dtensor

            validate_dtensor(dt)
        return dt

    def __getattr__(self, name):
        # reached only for an unset slot: a stack's ``shards`` before its
        # first read.  Anything else — any slot of a half-built copy — is
        # missing (there, reading ``blocks`` below re-enters once, for
        # "blocks", which raises)
        if name == "shards":
            try:
                blocks = self.blocks
            except AttributeError:
                blocks = None
            if blocks is not None:
                self.shards = shards = _views(self)
                return shards
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self):
        # a stack's shards are views of it: a copy rebuilds them on first
        # read, as views of the copied stack
        state = {
            "owner": self.owner,
            "layout": self.layout,
            "global_shape": self.global_shape,
            "blocks": self.blocks,
        }
        if self.blocks is None:
            state["shards"] = self.shards
        else:
            state["order"] = self.order
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        blocks = self.blocks
        if blocks is not None and getattr(self.owner, "q", None) is None and len(blocks) == 1:
            blocks.setflags(write=False)  # as from_blocks marks it

    # ------------------------------------------------------------------
    @property
    def ranks(self) -> Iterable[int]:
        """The ranks in shard key order."""
        return self.shards.keys() if self.blocks is None else self.order

    @property
    def dtype(self):
        blocks = self.blocks
        if blocks is not None:
            return blocks.dtype
        return next(iter(self.shards.values())).dtype

    def local(self, rank: int):
        """``rank``'s shard.  On a mesh's stack, a view of its entry,
        without building ``shards``; a flat group's shards are read as one
        object per rank (replicas handed back by rank-local math stay the
        operand's objects, and every rank reads a ``(1,)`` stack's one
        entry)."""
        blocks = self.blocks
        owner = self.owner
        q = getattr(owner, "q", None)
        if blocks is None or q is None:
            return self.shards[rank]
        k = rank - owner.rank_offset
        if len(self.layout.stack_axes) == 1:  # row 0, by column
            if not 0 <= k < q:
                raise KeyError(rank)
            return blocks[k % len(blocks)]
        if not 0 <= k < q * q:
            raise KeyError(rank)
        i, j = divmod(k, q)
        return blocks[i % blocks.shape[0], j % blocks.shape[1]]

    def runs(self, measure) -> list:
        """:func:`shard_runs` of the shards: one run unless they are ragged
        (MoE expert blocks).  A block stack's shards are uniform by
        construction, so it is measured once."""
        blocks = self.blocks
        if blocks is not None:
            return [(measure(blocks[(0,) * (blocks.ndim - len(self.global_shape))]), self.order)]
        return shard_runs(self.shards, measure)

    def shard_nbytes(self) -> int:
        blocks = self.blocks
        if blocks is not None:
            return ops.nbytes(blocks[self.layout.origin])
        return ops.nbytes(next(iter(self.shards.values())))

    # ------------------------------------------------------------------
    # communication-free elementwise helpers
    # ------------------------------------------------------------------
    def map(self, fn: Callable) -> "DTensor":
        """Apply the elementwise ``fn`` to every shard (rank-local math,
        through :func:`block_map`: once on a stack, a ``REPLICATED_1D``
        result then shared and read-only); layout and global shape
        unchanged."""
        return block_map(fn, self.owner, self)

    def zip_map(self, other: "DTensor", fn: Callable) -> "DTensor":
        """Elementwise combine two same-layout DTensors shard by shard
        (rank-local math, routed like :meth:`map`)."""
        if self.layout != other.layout or self.global_shape != other.global_shape:
            raise ValueError(
                f"layout/shape mismatch: {self.layout}/{self.global_shape} vs "
                f"{other.layout}/{other.global_shape}"
            )
        mine, theirs = self.ranks, other.ranks
        if mine is not theirs and set(mine) != set(theirs):
            raise ValueError("rank sets differ")
        return block_map(fn, self.owner, self, other)

    def __add__(self, other: "DTensor") -> "DTensor":
        return self.zip_map(other, lambda a, b: a + b)

    def __sub__(self, other: "DTensor") -> "DTensor":
        return self.zip_map(other, lambda a, b: a - b)

    def __mul__(self, scalar) -> "DTensor":
        if isinstance(scalar, DTensor):
            return self.zip_map(scalar, lambda a, b: a * b)
        return self.map(lambda x: x * scalar)

    __rmul__ = __mul__

    def _owned(self, fn: Callable) -> "DTensor":
        """A fresh writable buffer per rank, whatever the layout."""
        return DTensor(
            self.owner, self.layout, rank_map(fn, self.shards, self.shards), self.global_shape
        )

    def copy(self) -> "DTensor":
        return self._owned(ops.copy)

    def astype(self, dtype) -> "DTensor":
        return self.map(lambda x: ops.astype(x, dtype))

    def zeros_like(self) -> "DTensor":
        return self._owned(ops.zeros_like)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DTensor(layout={self.layout}, global_shape={self.global_shape}, "
            f"ranks={len(self.ranks)})"
        )
