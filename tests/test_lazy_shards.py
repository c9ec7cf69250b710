"""A stack's ``shards`` is built on first read (``DTensor.from_blocks``):
for every kind of stack it is the dict the eager construction made — the
same key order, every value a view of its stack entry, a flat ``(1,)``
stack's one entry read-only — with checking on or off and after
``copy.deepcopy`` and pickle round trips, which rebuild it over the copied
stack."""

from __future__ import annotations

import copy
import io
import pickle

import numpy as np
import pytest

from repro.comm.group import ProcessGroup
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D, COL_BLOCKED, REPLICATED_1D, ROW0_COLS, SHARDED_1D
from repro.mesh.mesh import Mesh
from repro.runtime.simulator import Simulator

Q = 3
#: the slot itself: reading it raises AttributeError while it is unset,
#: without building anything
_SHARDS_SLOT = DTensor.__dict__["shards"]


def _mesh(strict):
    return Mesh(Simulator.for_mesh(Q, strict_invariants=strict), Q)


def _group(strict):
    return ProcessGroup(Simulator.for_flat(4, strict_invariants=strict), (2, 0, 3, 1))


def _stack(lead, block=(2, 3)):
    return np.arange(float(np.prod(lead + block))).reshape(lead + block)


def _mesh_stacks(mesh):
    """One of each mesh stack, keyed in an order other than the mesh's
    where the stack's producers do so."""
    by_column = [mesh.rank(i, j) for j in range(Q) for i in range(Q)]
    row0 = [mesh.rank(0, j) for j in range(Q)]
    shape = (2 * Q, 3 * Q)
    return {
        "(q, q)": (BLOCKED_2D, _stack((Q, Q)), shape, by_column),
        "(q,)": (ROW0_COLS, _stack((Q,), (4,)), (4 * Q,), row0),
        "(1, q)": (COL_BLOCKED, _stack((1, Q), (4,)), (4 * Q,), by_column),
        "(q, 1)": (BLOCKED_2D, _stack((Q, 1)), shape, list(mesh.ranks)),
    }


def _flat_stacks(group):
    return {
        "(p,)": (SHARDED_1D(1), _stack((4,)), (2, 12), group.ranks),
        "(1,)": (REPLICATED_1D, _stack((1,)), (2, 3), group.ranks),
    }


def _cases(strict):
    mesh, group = _mesh(strict), _group(strict)
    for name, spec in _mesh_stacks(mesh).items():
        yield name, mesh, spec
    for name, spec in _flat_stacks(group).items():
        yield name, group, spec


def _entry(dt, rank):
    """What the eager construction keyed ``rank`` to (the stack invariant)."""
    blocks, owner = dt.blocks, dt.owner
    if isinstance(owner, Mesh):
        i, j = owner.coords(rank)
        if blocks.ndim - len(dt.global_shape) == 1:
            return blocks[j % blocks.shape[0]]
        return blocks[i % blocks.shape[0], j % blocks.shape[1]]
    return blocks[owner.ranks.index(rank) % len(blocks)]


def _check_shards(dt, order):
    shards = dt.shards
    assert list(shards) == list(order)
    for rank, shard in shards.items():
        entry = _entry(dt, rank)
        assert np.shares_memory(shard, entry) and shard.shape == entry.shape
        assert np.array_equal(shard, entry)
    if dt.owner.__class__ is ProcessGroup and len(dt.blocks) == 1:
        values = list(shards.values())
        assert all(v is values[0] for v in values)
        assert not values[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0][0, 0] = 1.0


def _ids(strict):
    return [name for name, _, _ in _cases(strict)]


class _OwnerPickler(pickle.Pickler):
    """Pickles a DTensor with a reference to its owner (a simulator holds
    closures over its devices, which are not what a copy is about)."""

    def __init__(self, file, owner):
        super().__init__(file)
        self.owner = owner

    def persistent_id(self, obj):
        return "owner" if obj is self.owner else None


class _OwnerUnpickler(pickle.Unpickler):
    def __init__(self, file, owner):
        super().__init__(file)
        self.owner = owner

    def persistent_load(self, pid):
        return self.owner


def _pickled(dt):
    buf = io.BytesIO()
    _OwnerPickler(buf, dt.owner).dump(dt)
    buf.seek(0)
    return _OwnerUnpickler(buf, dt.owner).load()


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("case", _ids(False))
def test_built_on_first_read_as_the_eager_dict(case, strict):
    _, owner, (layout, blocks, shape, order) = next(c for c in _cases(strict) if c[0] == case)
    dt = DTensor.from_blocks(owner, layout, blocks, shape, order)
    assert dt.ranks is order
    if not strict:  # the strict check reads every shard at construction
        with pytest.raises(AttributeError):
            _SHARDS_SLOT.__get__(dt)
        for rank in order:
            assert np.shares_memory(dt.local(rank), _entry(dt, rank))
        if isinstance(owner, Mesh):  # a mesh stack's local() indexes the stack
            with pytest.raises(AttributeError):
                _SHARDS_SLOT.__get__(dt)
    _check_shards(dt, order)
    for rank in order:
        assert np.shares_memory(dt.local(rank), dt.shards[rank])
    with pytest.raises(KeyError):
        dt.local(max(owner.ranks) + 1)


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("case", _ids(False))
def test_a_copy_rebuilds_them_over_its_own_stack(case, read_first, copier):
    _, owner, (layout, blocks, shape, order) = next(c for c in _cases(False) if c[0] == case)
    dt = DTensor.from_blocks(owner, layout, blocks, shape, order)
    if read_first:
        dt.shards
    twin = copier(dt)
    assert twin.blocks is not dt.blocks and not np.shares_memory(twin.blocks, dt.blocks)
    with pytest.raises(AttributeError):  # the views are not copied ...
        _SHARDS_SLOT.__get__(twin)
    _check_shards(twin, order)  # ... but rebuilt over the copy
    assert twin.global_shape == dt.global_shape and twin.layout == dt.layout


def test_an_unstacked_tensor_keeps_its_shards_through_a_copy():
    group = _group(False)
    dt = DTensor(group, SHARDED_1D(0), {r: np.full(2, float(r)) for r in group.ranks}, (8,))
    twin = _pickled(dt)
    assert twin.blocks is None and list(twin.shards) == list(group.ranks)
    assert all(np.array_equal(twin.local(r), dt.local(r)) for r in group.ranks)


def test_a_half_built_tensor_reports_missing_slots_without_recursing():
    half = DTensor.__new__(DTensor)
    for name in ("shards", "blocks", "order", "owner", "anything"):
        with pytest.raises(AttributeError, match=name):
            getattr(half, name)
        assert not hasattr(half, name)
    with pytest.raises(AttributeError):
        half.local(0)
