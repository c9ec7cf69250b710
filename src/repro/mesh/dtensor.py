"""Distributed tensors: a layout plus one local shard per rank."""

from __future__ import annotations

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


class DTensor:
    """A logical global tensor stored as per-rank shards.

    ``owner`` is the :class:`~repro.mesh.mesh.Mesh` (2-D layouts) or the flat
    :class:`~repro.comm.group.ProcessGroup` (1-D layouts) the shards live on.
    The class is deliberately thin — distributed *math* lives in the model
    modules, which know which collectives each operation needs; DTensor only
    carries data, shape bookkeeping, and elementwise conveniences that
    require no communication.
    """

    __slots__ = ("owner", "layout", "shards", "global_shape")

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
        self.global_shape = tuple(int(s) for s in global_shape)
        # strict mode (repro.check): validate the layout contract at every
        # construction site.  ``is_enabled`` is the simulator's precomputed
        # instrumentation flag, so with all checking off this guard costs two
        # attribute reads and no property/descriptor calls.
        sim = getattr(owner, "sim", None)
        if sim is not None and sim.is_enabled and sim.strict_invariants:
            from repro.check.invariants import validate_dtensor

            validate_dtensor(self)

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
        """``fn`` over the shards: once when the layout says they are replicas
        (:func:`replica_map`), per rank otherwise (:func:`rank_map`)."""
        if self.layout.kind == "replicated_1d":
            return replica_map(fn, self.owner, *shard_dicts)
        return rank_map(fn, self.shards, *shard_dicts)

    def map(self, fn: Callable) -> "DTensor":
        """Apply ``fn`` to every shard (``fn`` is rank-local math: through
        :func:`rank_map`, or :func:`replica_map` on a ``REPLICATED_1D``
        tensor, whose result shards are then shared and read-only); layout
        and global shape unchanged."""
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
