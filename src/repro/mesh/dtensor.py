"""Distributed tensors: a layout plus one local shard per rank."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray
from repro.mesh.layouts import BLOCKED_2D, Layout


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
    (SPMD: every rank runs the same op on a same-shaped slice; ranks that
    all hold the *same objects* are recognised without a per-rank pass);
    ragged shards simply produce several signatures.  Which of the two
    applies is decided once per call, from the first rank's first argument;
    a real array anywhere else has no signature and its rank is evaluated
    alone.

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
    # every rank already holds the same objects (the batched SUMMA executor
    # and earlier rank_maps hand all ranks one placeholder): one evaluation,
    # without building an argument list and a signature per rank
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


def replica_map(fn: Callable, group, *shard_dicts: Dict[int, object]) -> dict:
    """:func:`rank_map` for rank-local math whose operands are **all
    replicated** over ``group`` (layout ``REPLICATED_1D``): ``fn`` runs once,
    on the first rank's replicas, and every rank of ``group.ranks`` is handed
    that one result, marked read-only.

    The per-rank loop would evaluate the same pure ``fn`` on bit-identical
    inputs ``p`` times; one evaluation gives the same values by determinism,
    not by tolerance.  Only a call site whose operands are replicated *by
    layout* may use this — equal shapes or equal values are never inspected.
    The simulated devices each still do the work: charges, buffer holds and
    trace events stay per rank, made by the caller.

    A shared result is immutable (a write through any rank's handle raises
    instead of changing ``p`` ranks).  Three cases keep :func:`rank_map`'s
    per-rank evaluation: dryrun placeholders (which share by signature
    there), a one-rank group, and an armed fault injector — message
    corruption replaces *one* rank's all-reduce result, so "replicated"
    tensors may then legitimately differ.  If ``fn`` hands back one of its
    operands (an identity, ``np.asarray``) nothing is frozen and the
    per-rank dict is returned, so an owned buffer never turns read-only.
    """
    ranks = group.ranks
    first = ranks[0]
    inj = group.sim.fault_injector
    if (
        len(ranks) == 1
        or type(shard_dicts[0][first]) in (ShapeArray, tuple)
        or (inj is not None and inj.armed)
    ):
        return rank_map(fn, ranks, *shard_dicts)
    firsts = [d[first] for d in shard_dicts]
    result = fn(*firsts)
    parts = result if type(result) is tuple else (result,)
    for part in parts:
        for operand in firsts:
            if part is operand:  # handed back, not computed: stays owned
                return rank_map(fn, ranks, *shard_dicts)
    for part in parts:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return dict.fromkeys(ranks, result)


def on_stacks(mesh, *operands) -> bool:
    """Whether host math over ``operands`` (DTensors) runs once on their
    block stacks: every operand carries one on ``mesh`` (see
    :meth:`DTensor.from_blocks`) and the gate of SUMMA's batched executor
    (:func:`repro.core.summa._batched_ready`) holds.  The one test
    :func:`block_map`, the stacked collectives of :mod:`repro.core.layers`
    and SUMMA's operand reads make.  A stack exists only for uniform numeric
    blocks on a q > 1 mesh, so placeholders, ragged or mixed-dtype shards,
    q = 1, an operand owned elsewhere, an armed injector and patched
    collectives all answer False."""
    for op in operands:
        if op.blocks is None or op.owner is not mesh:
            return False
    import repro.core.summa  # the shared gate; core.summa imports this module

    return repro.core.summa._batched_ready(mesh.sim)


def block_map(fn: Callable, mesh, *operands) -> "DTensor":
    """Rank-local math over 2-D blocked operands (DTensors on ``mesh``):
    ``fn`` maps each rank's blocks to its result block(s), 2-D with the
    input's rows.  Returns a ``BLOCKED_2D`` DTensor — a tuple of them when
    ``fn`` returns a tuple — keyed in ``operands[0]``'s shard order.

    When :func:`on_stacks` holds, ``fn`` runs **once, on the stacks**: the
    mesh axes are two more leading axes, so ``fn`` must address blocks by
    trailing axes (``axis=-1``, ``st[..., 0:1]``, a vector as
    ``v[..., None, :]``) and the same body serves a shard and a stack.
    Elementwise ops act per element and a reduction over a stack's
    contiguous last axis equals the per-block one, so the result blocks
    equal the per-rank results bit for bit.  Otherwise it is
    :func:`rank_map` over the shards.  Charges stay per rank, made by the
    caller.
    """
    order = operands[0].shards
    if on_stacks(mesh, *operands):
        result = fn(*[op.blocks for op in operands])
        parts = result if type(result) is tuple else (result,)
        # a stack holds arrays: anything else (a conversion to dryrun
        # placeholders) is made rank by rank below
        if all(type(part) is np.ndarray for part in parts):
            out = tuple(_stacked_result(mesh, part, order) for part in parts)
            return out if type(result) is tuple else out[0]
    per_rank = rank_map(fn, order, *[op.shards for op in operands])
    first = next(iter(per_rank.values()))
    if type(first) is not tuple:
        return _blocked_result(mesh, per_rank)
    parts = [{} for _ in first]
    for rank, result in per_rank.items():
        for part, block in zip(parts, result):
            part[rank] = block
    return tuple(_blocked_result(mesh, part) for part in parts)


def _stacked_result(mesh, blocks, order) -> "DTensor":
    q = mesh.q
    return DTensor.from_blocks(
        mesh, BLOCKED_2D, blocks, (q * blocks.shape[-2], q * blocks.shape[-1]), order
    )


def _blocked_result(mesh, shards: dict) -> "DTensor":
    # rows: the row blocks' heights down mesh column 0 (ragged MoE blocks
    # included); columns: q equal column blocks
    column0 = mesh.col_groups[0].ranks
    rows = 0
    for rank in column0:
        rows += shards[rank].shape[0]
    return DTensor(mesh, BLOCKED_2D, shards, (rows, mesh.q * shards[column0[0]].shape[1]))


class DTensor:
    """A logical global tensor stored as per-rank shards.

    ``owner`` is the :class:`~repro.mesh.mesh.Mesh` (2-D layouts) or the flat
    :class:`~repro.comm.group.ProcessGroup` (1-D layouts) the shards live on.
    The class is deliberately thin — distributed *math* lives in the model
    modules, which know which collectives each operation needs; DTensor only
    carries data, shape bookkeeping, and elementwise conveniences that
    require no communication.  A numeric 2-D tensor on a q > 1 mesh may
    also carry its shards as one block stack (``blocks``, built only by
    :meth:`from_blocks`), which :func:`block_map` and SUMMA compute on once
    per mesh when :func:`on_stacks` says so.
    """

    __slots__ = ("owner", "layout", "shards", "global_shape", "blocks")

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
        """A DTensor on mesh ``owner`` whose shards are views of one array.

        ``blocks`` is the **block stack**: ``(q, q) + block`` indexed by mesh
        coordinate for a mesh-wide layout, ``(q,) + block`` indexed by
        column for a row-0 layout (``ROW0_COLS``).  A leading axis of size 1
        is a block shared along that mesh axis (a broadcast view: row
        statistics after a row all-reduce, a row-0 vector sent down the
        columns).  ``order`` lists the ranks in the key order of the shards
        — part of the output, since charges and buffer holds are issued in
        shard order.  The invariant ``shards[rank(i, j)]`` *is the memory
        of* ``blocks[i, j]`` holds by construction; nothing rebinds a shard
        afterwards (``partition.scatter_any`` writes through the views).
        """
        q = owner.q
        if blocks.ndim - len(global_shape) == 1:
            a = blocks.shape[0]
            local = [blocks[j % a] for j in range(q)]
        else:
            a, b = blocks.shape[:2]
            local = [blocks[i % a, j % b] for i in range(q) for j in range(q)]
        off = owner.rank_offset
        dt = cls(owner, layout, {r: local[r - off] for r in order}, global_shape)
        dt.blocks = blocks
        sim = owner.sim
        if sim.is_enabled and sim.strict_invariants:  # now with the stack
            from repro.check.invariants import validate_dtensor

            validate_dtensor(dt)
        return dt

    # ------------------------------------------------------------------
    @property
    def ranks(self) -> Iterable[int]:
        return self.shards.keys()

    @property
    def dtype(self):
        return next(iter(self.shards.values())).dtype

    def local(self, rank: int):
        return self.shards[rank]

    def shard_nbytes(self) -> int:
        return ops.nbytes(next(iter(self.shards.values())))

    # ------------------------------------------------------------------
    # communication-free elementwise helpers
    # ------------------------------------------------------------------
    def _rank_local(self, fn: Callable, *shard_dicts) -> dict:
        """``fn`` over the shards of a non-blocked layout: once when the
        layout says they are replicas (:func:`replica_map`), per rank
        otherwise (:func:`rank_map`)."""
        if self.layout.kind == "replicated_1d":
            return replica_map(fn, self.owner, *shard_dicts)
        return rank_map(fn, self.shards, *shard_dicts)

    def map(self, fn: Callable) -> "DTensor":
        """Apply the elementwise ``fn`` to every shard (rank-local math:
        through :func:`block_map` on a ``BLOCKED_2D`` tensor, :func:`replica_map`
        on a ``REPLICATED_1D`` one, whose result shards are then shared and
        read-only, :func:`rank_map` otherwise); layout and global shape
        unchanged."""
        if self.layout.kind == "blocked_2d":
            return block_map(fn, self.owner, self)
        return DTensor(
            self.owner,
            self.layout,
            self._rank_local(fn, self.shards),
            self.global_shape,
        )

    def zip_map(self, other: "DTensor", fn: Callable) -> "DTensor":
        """Elementwise combine two same-layout DTensors shard by shard
        (rank-local math, routed like :meth:`map`)."""
        if self.layout != other.layout or self.global_shape != other.global_shape:
            raise ValueError(
                f"layout/shape mismatch: {self.layout}/{self.global_shape} vs "
                f"{other.layout}/{other.global_shape}"
            )
        if self.shards.keys() != other.shards.keys():
            raise ValueError("rank sets differ")
        if self.layout.kind == "blocked_2d":
            return block_map(fn, self.owner, self, other)
        return DTensor(
            self.owner,
            self.layout,
            self._rank_local(fn, self.shards, other.shards),
            self.global_shape,
        )

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
            f"ranks={len(self.shards)})"
        )
