"""Layouts: where the blocks of a distributed tensor live.

A layout is a placement rule, stated the Mesh-TensorFlow way (arXiv
1811.02084): each axis of the owner — a mesh's rows and columns, or a flat
group's one axis — either splits one tensor dim into one block per
coordinate or is left unmapped, and along an unmapped axis the ranks hold
copies (or, for ``PARTIAL_1D``, addends).  A layout may also be *hosted* on the owner's
leading coordinate 0: mesh row 0 (``ROW0_*``, paper Fig. 5) or rank 0
(``RANK0``).  The records, ``q`` the mesh side and ``p`` the group size:

============== ===== =========== =========== ========== ============
kind           owner row axis    column axis unmapped   hosted by
============== ===== =========== =========== ========== ============
blocked_2d     mesh  splits 0    splits 1    —          every rank
row_blocked    mesh  splits 0    —           copies     every rank
col_blocked    mesh  —           splits 0    copies     every rank
replicated     mesh  —           —           copies     every rank
row0_cols      mesh  —           splits 0    —          mesh row 0
row0_blockrows mesh  —           splits 0    —          mesh row 0
rank0          mesh  —           —           —          rank 0
sharded_1d(a)  group splits a                —          every rank
replicated_1d  group —                       copies     every rank
partial_1d     group —                       addends    every rank
============== ===== =========== =========== ========== ============

``BLOCKED_2D`` is every SUMMA operand (§3.2.1); ``ROW_BLOCKED`` the token
ids and labels; ``ROW0_COLS`` / ``ROW0_BLOCKROWS`` the bias and LayerNorm
vectors and the classifier / MoE gate matrices, sent down the columns in
forward; ``RANK0`` a classifier bias; the ``*_1d`` layouts Megatron's.

Everything a reader needs is a query on the record: the ranks that host a
shard (:meth:`Layout.hosts`), the ranks that together hold one copy of
every distinct block (:meth:`Layout.distinct`) and the copies of one
(:meth:`Layout.copies`), the slice of the global tensor each rank holds
(:meth:`Layout.index`), the global shape of uniform shards
(:meth:`Layout.global_shape`) and the leading shape of a stack
(:meth:`Layout.stack_shape`).  An owner states its axes as ``shape`` (axis
sizes) and ``axes`` (the ranks along each axis through its first rank);
its ``ranks`` run over the coordinates row-major.  ``kind`` is only the
display name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Optional, Tuple


@dataclass(frozen=True)
class Layout:
    #: display name (repr, test ids, error text); not part of the meaning
    kind: str = field(compare=False)
    #: per owner axis, the tensor dim it splits, or None (unmapped)
    split: Tuple[Optional[int], ...]
    #: the unmapped axes hold addends of the tensor, not copies
    partial: bool = False
    #: how many leading owner axes are restricted to coordinate 0 (1: mesh
    #: row 0; all of them: rank 0)
    pinned: int = 0
    #: the number of tensor dims the layout is for, when it is fixed
    ndim: Optional[int] = None

    # derived once, read by the hot paths
    splits: tuple = field(init=False, compare=False, repr=False)
    stack_axes: tuple = field(init=False, compare=False, repr=False)
    replicated: bool = field(init=False, compare=False, repr=False)
    origin: tuple = field(init=False, compare=False, repr=False)
    head: tuple = field(init=False, compare=False, repr=False)
    expand: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.split) - self.pinned
        derived = {
            #: ``(owner axis, tensor dim)`` of every split
            "splits": tuple((a, d) for a, d in enumerate(self.split) if d is not None),
            #: the owner axes a stack's leading axes index (the unpinned ones)
            "stack_axes": tuple(range(self.pinned, len(self.split))),
            #: every rank holds the whole tensor
            "replicated": not self.pinned and not self.partial and set(self.split) == {None},
            #: the index of a stack's first entry; that entry kept as a
            #: size-1 stack; the index that gives one block size-1 stack axes
            "origin": (0,) * n,
            "head": (slice(0, 1),) * n,
            "expand": (None,) * n,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({self.kind})"

    def __str__(self) -> str:
        return self.kind

    # ------------------------------------------------------------------
    def misfit(self, owner, ndim: int) -> Optional[str]:
        """Why ``owner`` cannot carry an ``ndim``-D tensor in this layout,
        or None when it can."""
        if len(self.split) != len(owner.shape):
            return f"maps {len(self.split)} owner axes, the owner has {len(owner.shape)}"
        if self.ndim is not None and ndim != self.ndim:
            return f"is for {self.ndim}-D tensors, got {ndim}-D"
        dims = ()
        for _, dim in self.splits:
            if not -ndim <= dim < ndim:
                return f"splits dim {dim} of a {ndim}-D tensor"
            if dim % ndim in dims:
                return f"splits dim {dim} twice"
            dims += (dim % ndim,)
        return None

    def hosts(self, owner):
        """The ranks holding a shard, in owner order: with the leading
        ``pinned`` axes at 0, the first ones of the row-major ``ranks``."""
        ranks = owner.ranks
        if not self.pinned:
            return ranks
        n = 1
        for size in owner.shape[self.pinned :]:
            n *= size
        return ranks[:n]

    def stack_shape(self, owner) -> tuple:
        """The leading shape of a stack that gives every host its own entry."""
        return owner.shape[self.pinned :]

    def coords(self, owner) -> dict:
        """``{rank: owner coordinate}`` of the hosts, in owner order."""
        hosts = self.hosts(owner)
        return dict(zip(hosts, product(*map(range, owner.shape))))

    def distinct(self, owner) -> list:
        """The ranks that together hold one copy of every distinct block:
        the hosts at coordinate 0 on each axis of copies."""
        copied = [] if self.partial else [a for a, d in enumerate(self.split) if d is None]
        return [r for r, c in self.coords(owner).items() if not any(c[a] for a in copied)]

    def copies(self, owner, rank: int) -> list:
        """The ranks holding a copy of ``rank``'s block (``rank`` included):
        the hosts that agree with it on every split axis."""
        coords = self.coords(owner)
        if self.partial:
            return [rank]
        mine = coords[rank]
        return [r for r, c in coords.items() if all(c[a] == mine[a] for a, _ in self.splits)]

    def global_shape(self, owner, shard) -> tuple:
        """The global shape of a tensor whose shards are all ``shard``-shaped."""
        splits = self.splits
        if not splits:
            return shard
        shape = list(shard)
        sizes = owner.shape
        for axis, dim in splits:
            shape[dim] *= sizes[axis]
        return tuple(shape)

    def index(self, owner, shapes: dict) -> dict:
        """``{rank: the slice of the global tensor it holds}`` for the hosts,
        given their shard shapes ``shapes``: along a split axis a block
        starts where the blocks before it on the owner's line through its
        first rank end, so ragged blocks (MoE's row blocks) tile too."""
        bounds = []  # per split: where each coordinate's blocks start and end
        for axis, dim in self.splits:
            end = 0
            line = [end]
            for rank in owner.axes[axis]:
                end += shapes[rank][dim]
                line.append(end)
            bounds.append(line)
        for shape in shapes.values():
            break
        whole = [slice(None)] * len(shape)
        out = {}
        for rank, c in self.coords(owner).items():
            index = list(whole)
            for (axis, dim), line in zip(self.splits, bounds):
                index[dim] = slice(line[c[axis]], line[c[axis] + 1])
            out[rank] = tuple(index)
        return out


BLOCKED_2D = Layout("blocked_2d", (0, 1), ndim=2)
ROW_BLOCKED = Layout("row_blocked", (0, None))
COL_BLOCKED = Layout("col_blocked", (None, 0))
REPLICATED = Layout("replicated", (None, None))
ROW0_COLS = Layout("row0_cols", (None, 0), pinned=1, ndim=1)
ROW0_BLOCKROWS = Layout("row0_blockrows", (None, 0), pinned=1, ndim=2)
RANK0 = Layout("rank0", (None, None), pinned=2)
REPLICATED_1D = Layout("replicated_1d", (None,))
PARTIAL_1D = Layout("partial_1d", (None,), partial=True)


@cache
def SHARDED_1D(axis: int) -> Layout:
    """Flat-group layout: the tensor is split along ``axis`` over all ranks."""
    return Layout(f"sharded_1d(axis={axis})", (axis,))
